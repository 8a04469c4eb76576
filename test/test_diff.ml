module Oracle = Edge_fuzz.Oracle

(* the differential oracle's verdict; a kernel the reference
   interpreter cannot finish has nothing to compare *)
let check_kernel ast =
  match Oracle.check ast with
  | Ok _ | (exception Oracle.Skip) -> Ok ()
  | Error f ->
      Error
        (Printf.sprintf "%s [%s] %s" f.Oracle.config
           (Oracle.kind_name f.Oracle.kind) f.Oracle.message)

let diff_case seed size () =
  let ast = Edge_fuzz.Gen.generate ~seed ~size in
  match check_kernel ast with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "seed %d size %d: %s" seed size e

let fixed_sources =
  [
    ( "empty",
      "kernel k(int x, int y, int* A, int* B) { return x; }" );
    ( "diamond",
      "kernel k(int x, int y, int* A, int* B) {\n\
      \  int r = 0;\n\
      \  if (x > y) { r = x; } else { r = y; }\n\
      \  return r;\n\
       }" );
    ( "nested_if",
      "kernel k(int x, int y, int* A, int* B) {\n\
      \  int r = 0;\n\
      \  if (x > 0) { if (y > 0) { r = 1; } else { r = 2; } } else { r = 3; }\n\
      \  return r;\n\
       }" );
    ( "loop_sum",
      "kernel k(int x, int y, int* A, int* B) {\n\
      \  int s = 0; int i;\n\
      \  for (i = 0; i < 16; i = i + 1) { s = s + A[i]; }\n\
      \  return s;\n\
       }" );
    ( "loop_break",
      "kernel k(int x, int y, int* A, int* B) {\n\
      \  int s = 0; int i;\n\
      \  for (i = 0; i < 32; i = i + 1) {\n\
      \    if (A[i] < 0) { continue; }\n\
      \    if (s > 300) { break; }\n\
      \    s = s + A[i];\n\
      \  }\n\
      \  return s + i;\n\
       }" );
    ( "stores",
      "kernel k(int x, int y, int* A, int* B) {\n\
      \  int i;\n\
      \  for (i = 0; i < 16; i = i + 1) {\n\
      \    if (A[i] > B[i]) { B[i] = A[i]; } else { A[i] = B[i] - 1; }\n\
      \  }\n\
      \  return A[3] + B[5];\n\
       }" );
    ( "while_shortcircuit",
      "kernel k(int x, int y, int* A, int* B) {\n\
      \  int s = 0; int i = 0;\n\
      \  while (i < 20 && s < 500) { s = s + A[i & 63]; i = i + 1; }\n\
      \  return s * 2 + i;\n\
       }" );
    ( "float_mix",
      "kernel k(int x, int y, int* A, int* B) {\n\
      \  float acc = 0.0; int i;\n\
      \  for (i = 0; i < 8; i = i + 1) {\n\
      \    if (A[i] > 0) { acc = acc + itof(A[i]); } else { acc = acc - 0.5; }\n\
      \  }\n\
      \  return ftoi(acc * 4.0);\n\
       }" );
    ( "division",
      "kernel k(int x, int y, int* A, int* B) {\n\
      \  int s = 0; int i;\n\
      \  for (i = 0; i < 10; i = i + 1) {\n\
      \    if (A[i] != 0) { s = s + (B[i] / A[i]); }\n\
      \  }\n\
      \  return s;\n\
       }" );
    ( "byte_and_word",
      "kernel k(int x, int y, int* A, int* B) {\n\
      \  int i;\n\
      \  for (i = 0; i < 8; i = i + 1) { A[i] = (A[i] << 1) ^ B[i]; }\n\
      \  return A[0] + A[7];\n\
       }" );
    ( "ternary",
      "kernel k(int x, int y, int* A, int* B) {\n\
      \  int m = x > y ? x : y;\n\
      \  int n = x < y ? x : y;\n\
      \  return m * 100 + n;\n\
       }" );
  ]

let fixed_case (name, src) =
  Alcotest.test_case name `Quick (fun () ->
      match Edge_lang.Parser.parse src with
      | Error e -> Alcotest.failf "parse: %s" e
      | Ok ast -> (
          match check_kernel ast with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s" e))

let tests =
  List.map fixed_case fixed_sources
  @ List.concat_map
      (fun size ->
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "random s%d n%d" seed size)
              `Quick (diff_case seed size))
          (List.init 16 (fun i -> (size * 100) + i)))
      [ 6; 10; 14; 24; 34 ]
