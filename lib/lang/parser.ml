exception Syntax_error of string

type state = { mutable toks : Lexer.token list }

let fail fmt = Format.kasprintf (fun s -> raise (Syntax_error s)) fmt

let peek st = match st.toks with t :: _ -> t | [] -> Lexer.EOF

let advance st =
  match st.toks with _ :: tl -> st.toks <- tl | [] -> ()

let next st =
  let t = peek st in
  advance st;
  t

let expect_punct st p =
  match next st with
  | Lexer.PUNCT q when String.equal p q -> ()
  | t -> fail "expected '%s', found %a" p Lexer.pp_token t

let expect_kw st k =
  match next st with
  | Lexer.KW q when String.equal k q -> ()
  | t -> fail "expected '%s', found %a" k Lexer.pp_token t

let expect_ident st =
  match next st with
  | Lexer.IDENT s -> s
  | t -> fail "expected identifier, found %a" Lexer.pp_token t

let accept_punct st p =
  match peek st with
  | Lexer.PUNCT q when String.equal p q ->
      advance st;
      true
  | _ -> false

let parse_type st =
  let base =
    match next st with
    | Lexer.KW "int" -> `Int
    | Lexer.KW "float" -> `Float
    | Lexer.KW "byte" -> `Byte
    | Lexer.KW "int4" -> `Int4
    | t -> fail "expected type, found %a" Lexer.pp_token t
  in
  let ptr = accept_punct st "*" in
  match (base, ptr) with
  | `Int, false -> Ast.Tint
  | `Float, false -> Ast.Tfloat
  | `Int, true -> Ast.Tptr Ast.I64
  | `Float, true -> Ast.Tptr Ast.F64
  | `Byte, true -> Ast.Tptr Ast.I8
  | `Int4, true -> Ast.Tptr Ast.I32
  | `Byte, false -> fail "byte is only available as byte*"
  | `Int4, false -> fail "int4 is only available as int4*"

(* precedence-climbing expression parser *)
let binop_of_punct = function
  | "*" -> Some (Ast.Mul, 10)
  | "/" -> Some (Ast.Div, 10)
  | "%" -> Some (Ast.Rem, 10)
  | "+" -> Some (Ast.Add, 9)
  | "-" -> Some (Ast.Sub, 9)
  | "<<" -> Some (Ast.Shl, 8)
  | ">>" -> Some (Ast.Shr, 8)
  | "<" -> Some (Ast.Lt, 7)
  | "<=" -> Some (Ast.Le, 7)
  | ">" -> Some (Ast.Gt, 7)
  | ">=" -> Some (Ast.Ge, 7)
  | "==" -> Some (Ast.Eq, 6)
  | "!=" -> Some (Ast.Ne, 6)
  | "&" -> Some (Ast.BAnd, 5)
  | "^" -> Some (Ast.BXor, 4)
  | "|" -> Some (Ast.BOr, 3)
  | "&&" -> Some (Ast.LAnd, 2)
  | "||" -> Some (Ast.LOr, 1)
  | _ -> None

let rec parse_primary st =
  match next st with
  | Lexer.INT v -> Ast.Int v
  | Lexer.FLOAT f -> Ast.Float f
  | Lexer.IDENT "itof" when accept_punct st "(" ->
      let e = parse_expr_prec st 0 in
      expect_punct st ")";
      Ast.Un (Ast.Itof, e)
  | Lexer.IDENT "ftoi" when accept_punct st "(" ->
      let e = parse_expr_prec st 0 in
      expect_punct st ")";
      Ast.Un (Ast.Ftoi, e)
  | Lexer.IDENT s ->
      if accept_punct st "[" then begin
        let e = parse_expr_prec st 0 in
        expect_punct st "]";
        Ast.Index (s, e)
      end
      else Ast.Var s
  | Lexer.PUNCT "(" ->
      let e = parse_expr_prec st 0 in
      expect_punct st ")";
      e
  | Lexer.PUNCT "-" -> Ast.Un (Ast.Neg, parse_primary st)
  | Lexer.PUNCT "!" -> Ast.Un (Ast.LNot, parse_primary st)
  | Lexer.PUNCT "~" -> Ast.Un (Ast.BNot, parse_primary st)
  | t -> fail "expected expression, found %a" Lexer.pp_token t

and parse_expr_prec st min_prec =
  let lhs = ref (parse_primary st) in
  let continue_loop = ref true in
  while !continue_loop do
    match peek st with
    | Lexer.PUNCT "?" when min_prec = 0 ->
        advance st;
        let a = parse_expr_prec st 0 in
        expect_punct st ":";
        let b = parse_expr_prec st 0 in
        lhs := Ast.Cond (!lhs, a, b)
    | Lexer.PUNCT p -> (
        match binop_of_punct p with
        | Some (op, prec) when prec >= min_prec ->
            advance st;
            let rhs = parse_expr_prec st (prec + 1) in
            lhs := Ast.Bin (op, !lhs, rhs)
        | _ -> continue_loop := false)
    | _ -> continue_loop := false
  done;
  !lhs

let rec parse_block st =
  expect_punct st "{";
  let stmts = ref [] in
  while not (accept_punct st "}") do
    stmts := parse_stmt st :: !stmts
  done;
  List.rev !stmts

and parse_simple st =
  (* assignment or store, without trailing ';' (used by for-headers) *)
  let id = expect_ident st in
  if accept_punct st "[" then begin
    let idx = parse_expr_prec st 0 in
    expect_punct st "]";
    expect_punct st "=";
    let v = parse_expr_prec st 0 in
    Ast.Store (id, idx, v)
  end
  else begin
    expect_punct st "=";
    let e = parse_expr_prec st 0 in
    Ast.Assign (id, e)
  end

and parse_stmt st =
  match peek st with
  | Lexer.KW ("int" | "float" | "byte" | "int4") ->
      let ty = parse_type st in
      let name = expect_ident st in
      let init =
        if accept_punct st "=" then Some (parse_expr_prec st 0) else None
      in
      expect_punct st ";";
      Ast.Decl (ty, name, init)
  | Lexer.KW "if" ->
      advance st;
      expect_punct st "(";
      let c = parse_expr_prec st 0 in
      expect_punct st ")";
      let then_b = parse_block st in
      let else_b =
        match peek st with
        | Lexer.KW "else" -> (
            advance st;
            match peek st with
            | Lexer.KW "if" -> [ parse_stmt st ]
            | _ -> parse_block st)
        | _ -> []
      in
      Ast.If (c, then_b, else_b)
  | Lexer.KW "while" ->
      advance st;
      expect_punct st "(";
      let c = parse_expr_prec st 0 in
      expect_punct st ")";
      Ast.While (c, parse_block st)
  | Lexer.KW "for" ->
      advance st;
      expect_punct st "(";
      let init =
        if accept_punct st ";" then None
        else begin
          let s = parse_simple st in
          expect_punct st ";";
          Some s
        end
      in
      let cond =
        if accept_punct st ";" then None
        else begin
          let e = parse_expr_prec st 0 in
          expect_punct st ";";
          Some e
        end
      in
      let step =
        if accept_punct st ")" then None
        else begin
          let s = parse_simple st in
          expect_punct st ")";
          Some s
        end
      in
      Ast.For (init, cond, step, parse_block st)
  | Lexer.KW "break" ->
      advance st;
      expect_punct st ";";
      Ast.Break
  | Lexer.KW "continue" ->
      advance st;
      expect_punct st ";";
      Ast.Continue
  | Lexer.KW "return" ->
      advance st;
      if accept_punct st ";" then Ast.Return None
      else begin
        let e = parse_expr_prec st 0 in
        expect_punct st ";";
        Ast.Return (Some e)
      end
  | _ ->
      let s = parse_simple st in
      expect_punct st ";";
      s

let parse_params st =
  expect_punct st "(";
  if accept_punct st ")" then []
  else begin
    let params = ref [] in
    let rec loop () =
      let pty = parse_type st in
      let pname = expect_ident st in
      params := { Ast.pname; pty } :: !params;
      if accept_punct st "," then loop () else expect_punct st ")"
    in
    loop ();
    List.rev !params
  end

let parse src =
  match Lexer.tokenize src with
  | Error e -> Error e
  | Ok toks -> (
      let st = { toks } in
      try
        expect_kw st "kernel";
        let kname = expect_ident st in
        let params = parse_params st in
        let body = parse_block st in
        (match peek st with
        | Lexer.EOF -> ()
        | t -> fail "trailing input: %a" Lexer.pp_token t);
        Ok { Ast.kname; params; body }
      with Syntax_error e -> Error e)

let parse_expr src =
  match Lexer.tokenize src with
  | Error e -> Error e
  | Ok toks -> (
      let st = { toks } in
      try
        let e = parse_expr_prec st 0 in
        match peek st with
        | Lexer.EOF -> Ok e
        | t -> fail "trailing input: %a" Lexer.pp_token t
      with Syntax_error e -> Error e)
