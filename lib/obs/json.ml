(* The repo's one JSON codec: a value type, a strict RFC 8259 parser, a
   one-line printer and the string escaper. It is the serve protocol's
   wire format, the engine behind [Json_lint], bench_compare's reader
   and the escaper of every hand-written JSON emitter (Chrome traces,
   BENCH files). The repo deliberately has no JSON dependency.

   Numbers are floats (doubles): fine for cycles/latencies, NOT for
   arbitrary int64 — the protocol encodes 64-bit return values as
   decimal strings. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* [offset] is the byte at which parsing stopped *)
type error = { offset : int; message : string }

let decode (s : string) : (t, error) result =
  let exception Parse_error of error in
  let n = String.length s in
  let pos = ref 0 in
  let fail message = raise (Parse_error { offset = !pos; message }) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let hex4 () =
    let code = ref 0 in
    for _ = 1 to 4 do
      let d =
        match peek () with
        | Some ('0' .. '9' as c) -> Char.code c - Char.code '0'
        | Some ('a' .. 'f' as c) -> Char.code c - Char.code 'a' + 10
        | Some ('A' .. 'F' as c) -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      code := (!code * 16) + d;
      advance ()
    done;
    !code
  in
  (* the code point after a \u escape: a surrogate pair is joined into
     one supplementary code point; a lone surrogate is not a character *)
  let code_point () =
    let hi = hex4 () in
    if hi >= 0xdc00 && hi <= 0xdfff then fail "unpaired surrogate"
    else if hi >= 0xd800 && hi <= 0xdbff then begin
      if !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then
        pos := !pos + 2
      else fail "unpaired surrogate";
      let lo = hex4 () in
      if lo < 0xdc00 || lo > 0xdfff then fail "unpaired surrogate";
      0x10000 + ((hi - 0xd800) lsl 10) + (lo - 0xdc00)
    end
    else hi
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance ()
          | Some '\\' -> Buffer.add_char b '\\'; advance ()
          | Some '/' -> Buffer.add_char b '/'; advance ()
          | Some 'b' -> Buffer.add_char b '\b'; advance ()
          | Some 'f' -> Buffer.add_char b '\012'; advance ()
          | Some 'n' -> Buffer.add_char b '\n'; advance ()
          | Some 'r' -> Buffer.add_char b '\r'; advance ()
          | Some 't' -> Buffer.add_char b '\t'; advance ()
          | Some 'u' ->
              advance ();
              Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
          | _ -> fail "bad escape");
          go ()
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  (* RFC 8259: an optional '-', then 0 or a digit run without a leading
     zero, then an optional '.' fraction and an optional e/E exponent,
     each with at least one digit *)
  let parse_number () =
    let start = !pos in
    let digits what =
      match peek () with
      | Some '0' .. '9' ->
          while match peek () with Some '0' .. '9' -> true | _ -> false do
            advance ()
          done
      | _ -> fail what
    in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance ()
    | _ -> digits "bad number");
    if peek () = Some '.' then begin
      advance ();
      digits "bad fraction"
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits "bad exponent"
    | _ -> ());
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let rec parse_value depth =
    if depth > 64 then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
    | None -> fail "unexpected end of input"
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error e -> Error e

let parse s =
  Result.map_error
    (fun e -> Printf.sprintf "%s at byte %d" e.message e.offset)
    (decode s)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* the body of a JSON string literal holding [s], without the quotes *)
let escape s =
  let b = Buffer.create (String.length s + 2) in
  add_escaped b s;
  Buffer.contents b

(* one line, no newlines anywhere: a value is always exactly one
   protocol frame *)
let to_string (v : t) : string =
  let b = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string b (Printf.sprintf "%.0f" f)
        else Buffer.add_string b (Printf.sprintf "%.12g" f)
    | Str s ->
        Buffer.add_char b '"';
        add_escaped b s;
        Buffer.add_char b '"'
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          xs;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            add_escaped b k;
            Buffer.add_string b "\":";
            go x)
          fields;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* -- accessors ----------------------------------------------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let str = function Str s -> Some s | _ -> None

let num = function Num f -> Some f | _ -> None

let bool_ = function Bool b -> Some b | _ -> None

let str_member k v = Option.bind (member k v) str

let num_member k v = Option.bind (member k v) num

let int_member k v = Option.map int_of_float (num_member k v)

let bool_member k v = Option.bind (member k v) bool_
