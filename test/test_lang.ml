module A = Edge_lang.Ast
module P = Edge_lang.Parser
module I = Edge_lang.Interp
module L = Edge_lang.Lexer

let check = Alcotest.(check bool)

let lex_basics () =
  match L.tokenize "kernel f(int x) { return x + 0x1F; } // c\n/* d */" with
  | Error e -> Alcotest.failf "%s" e
  | Ok toks ->
      check "token count" true (List.length toks = 14);
      check "hex literal" true
        (List.exists (function L.INT 31L -> true | _ -> false) toks)

let lex_floats () =
  match L.tokenize "1.5 2.0e3 7" with
  | Error e -> Alcotest.failf "%s" e
  | Ok toks ->
      check "float 1.5" true
        (List.exists (function L.FLOAT f -> f = 1.5 | _ -> false) toks);
      check "float 2e3" true
        (List.exists (function L.FLOAT f -> f = 2000.0 | _ -> false) toks);
      check "int 7" true
        (List.exists (function L.INT 7L -> true | _ -> false) toks)

let lex_errors () =
  match L.tokenize "int $" with
  | Ok _ -> Alcotest.fail "must reject '$'"
  | Error e -> check "line number" true (String.length e > 0)

let parse_precedence () =
  match P.parse_expr "1 + 2 * 3 == 7 && 4 < 5" with
  | Error e -> Alcotest.failf "%s" e
  | Ok e -> (
      match e with
      | A.Bin (A.LAnd, A.Bin (A.Eq, _, _), A.Bin (A.Lt, _, _)) -> ()
      | _ -> Alcotest.fail "precedence shape wrong")

let parse_dangling_else () =
  let src =
    "kernel f(int x) { if (x > 0) { if (x > 1) { return 1; } else { return \
     2; } } return 3; }"
  in
  match P.parse src with
  | Error e -> Alcotest.failf "%s" e
  | Ok k -> (
      match k.A.body with
      | [ A.If (_, [ A.If (_, _, e2) ], e1); _ ] ->
          check "inner else nonempty" true (e2 <> []);
          check "outer else empty" true (e1 = [])
      | _ -> Alcotest.fail "shape")

let parse_else_if_chain () =
  let src =
    "kernel f(int x) { if (x == 0) { return 0; } else if (x == 1) { return \
     1; } else { return 2; } }"
  in
  match P.parse src with
  | Error e -> Alcotest.failf "%s" e
  | Ok _ -> ()

let parse_rejects () =
  List.iter
    (fun src ->
      match P.parse src with
      | Ok _ -> Alcotest.failf "must reject %s" src
      | Error _ -> ())
    [
      "kernel f(int x) { return y; } }";
      "kernel f(int x) { int x = 1 }";
      "kernel f(byte b) { return 0; }";
      "kernel f() { 1 + ; }";
    ]

let typecheck_rejects () =
  List.iter
    (fun src ->
      match P.parse src with
      | Error _ -> ()
      | Ok k -> (
          match Edge_lang.Typecheck.check_kernel k with
          | Ok () -> Alcotest.failf "must reject: %s" src
          | Error _ -> ()))
    [
      "kernel f(int x) { return y; }";
      "kernel f(int x) { int x = 0; return x; }";
      "kernel f(int x, float g) { return x + g; }";
      "kernel f(float g) { if (g) { return 1; } return 0; }";
      "kernel f(int* a) { return a * 2; }";
      "kernel f(int x) { break; return x; }";
      "kernel f(int x) { if (x > 0) { return 1.0; } return 2; }";
      "kernel f(int* a, float* b) { return a == b; }";
    ]

let interp_src src args expect =
  let mem = Edge_isa.Mem.create ~size:4096 in
  match I.run_src src ~args ~mem with
  | Ok o -> check src true (o.I.return_value = Some expect)
  | Error e -> Alcotest.failf "%s: %s" src e

let interp_basics () =
  interp_src "kernel f(int x) { return x * 3 - 1; }" [ 5L ] 14L;
  interp_src "kernel f(int x) { return -7 / 2; }" [ 0L ] (-3L);
  interp_src "kernel f(int x) { return -7 % 2; }" [ 0L ] (-1L);
  interp_src "kernel f(int x) { return 1 << 10; }" [ 0L ] 1024L;
  interp_src "kernel f(int x) { return x >> 1; }" [ -8L ] (-4L);
  interp_src "kernel f(int x) { return !x; }" [ 0L ] 1L;
  interp_src "kernel f(int x) { return ~x; }" [ 0L ] (-1L);
  interp_src "kernel f(int x) { return x > 2 ? 10 : 20; }" [ 3L ] 10L;
  interp_src "kernel f(int x) { return ftoi(itof(x) * 2.5); }" [ 4L ] 10L

let interp_short_circuit () =
  (* the right operand of && must not be evaluated when the left is
     false: it would fault via an out-of-range load *)
  let src =
    "kernel f(int* a, int x) { int r = 0; if (x > 0 && a[100000] > 0) { r = \
     1; } return r; }"
  in
  let mem = Edge_isa.Mem.create ~size:4096 in
  match I.run_src src ~args:[ 0L; 0L ] ~mem with
  | Ok o -> check "short circuit" true (o.I.return_value = Some 0L)
  | Error e -> Alcotest.failf "unexpected fault: %s" e

let interp_loops () =
  interp_src
    "kernel f(int n) { int s = 0; int i; for (i = 1; i <= n; i = i + 1) { s \
     = s + i; } return s; }"
    [ 10L ] 55L;
  interp_src
    "kernel f(int n) { int s = 0; while (n > 0) { s = s + n; n = n - 1; } \
     return s; }"
    [ 4L ] 10L;
  interp_src
    "kernel f(int n) { int s = 0; int i; for (i = 0; i < n; i = i + 1) { if \
     (i == 3) { continue; } if (i == 7) { break; } s = s + i; } return s; }"
    [ 100L ] 18L

let interp_memory () =
  let src =
    "kernel f(int* a, int4* w, byte* b) { a[0] = 300; w[4] = 70000; b[40] = \
     200; return a[0] + w[4] + b[40]; }"
  in
  let mem = Edge_isa.Mem.create ~size:4096 in
  match I.run_src src ~args:[ 0L; 256L; 512L ] ~mem with
  | Ok o ->
      (* byte store of 200 sign-extends to -56 on load *)
      check "memory widths" true (o.I.return_value = Some (Int64.of_int (300 + 70000 - 56)))
  | Error e -> Alcotest.failf "%s" e

let interp_faults () =
  let mem = Edge_isa.Mem.create ~size:4096 in
  (match I.run_src "kernel f(int x) { return 1 / x; }" ~args:[ 0L ] ~mem with
  | Error e -> check "div fault" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "division by zero must fault");
  match
    I.run_src "kernel f(int* a) { return a[9999]; }" ~args:[ 0L ] ~mem
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range load must fault"

let lower_produces_valid_cfg () =
  let src =
    "kernel f(int n, int* a) { int s = 0; int i; for (i = 0; i < n; i = i + \
     1) { if (a[i] > 0 && a[i] < 100) { s = s + a[i]; } } return s; }"
  in
  match Edge_lang.Lower.compile src with
  | Error e -> Alcotest.failf "%s" e
  | Ok cfg ->
      check "has entry" true (Edge_ir.Cfg.block_opt cfg "entry" <> None);
      Edge_ir.Ssa.construct cfg;
      (match Edge_ir.Ssa.check cfg with
      | Ok () -> ()
      | Error es -> Alcotest.failf "ssa: %s" (String.concat ";" es))

let qcheck_random_parse =
  QCheck.Test.make ~name:"random kernels typecheck and interp" ~count:60
    QCheck.(pair (int_bound 10000) (int_range 4 20))
    (fun (seed, size) ->
      let ast = Edge_fuzz.Gen.generate ~seed ~size in
      match Edge_lang.Typecheck.check_kernel ast with
      | Error e -> QCheck.Test.fail_reportf "typecheck: %s" e
      | Ok () -> (
          let mem = Edge_fuzz.Gen.default_mem () in
          match
            Edge_lang.Interp.run ast ~args:Edge_fuzz.Gen.default_args ~mem
          with
          | Ok _ -> true
          | Error e -> QCheck.Test.fail_reportf "interp: %s" e))

let tests =
  [
    Alcotest.test_case "lexer basics" `Quick lex_basics;
    Alcotest.test_case "lexer floats" `Quick lex_floats;
    Alcotest.test_case "lexer errors" `Quick lex_errors;
    Alcotest.test_case "parser precedence" `Quick parse_precedence;
    Alcotest.test_case "dangling else" `Quick parse_dangling_else;
    Alcotest.test_case "else-if chain" `Quick parse_else_if_chain;
    Alcotest.test_case "parser rejects" `Quick parse_rejects;
    Alcotest.test_case "typecheck rejects" `Quick typecheck_rejects;
    Alcotest.test_case "interp basics" `Quick interp_basics;
    Alcotest.test_case "interp short circuit" `Quick interp_short_circuit;
    Alcotest.test_case "interp loops" `Quick interp_loops;
    Alcotest.test_case "interp memory widths" `Quick interp_memory;
    Alcotest.test_case "interp faults" `Quick interp_faults;
    Alcotest.test_case "lowering to valid SSA" `Quick lower_produces_valid_cfg;
    QCheck_alcotest.to_alcotest qcheck_random_parse;
  ]
