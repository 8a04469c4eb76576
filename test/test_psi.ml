(* Psi-SSA framework tests (lib/ir/psi_ssa + lib/core/opt_ineff).

   Four layers:

   - unit tests of the view / psi-node / construct-destruct /
     ineffectuality layers on hand-built hyperblocks;
   - the round-trip property over fixed-seed fuzz kernels: the driver
     runs the construct→destruct round-trip check after the
     optimization pipeline of every checked compile, so pushing
     kernels through the full oracle — all eight configurations, both
     timing backends — proves the round-trip preserves every checker
     verdict and every verified execution;
   - mutation tests: force a bogus "provably ineffectual" verdict into
     the pass and assert the exhaustive-enumeration cross-validation
     rejects it before it deletes anything — and that with the hook
     disabled the bogus deletion is caught downstream (checker
     diagnostic or oracle mismatch), never silently absorbed;
   - Pass_id round-trips: every pass name and counter key parses back
     to the variant it came from, so pass.* counters and
     check[pass=...] diagnostics cannot drift apart. *)

module Hb = Edge_ir.Hblock
module Tac = Edge_ir.Tac
module Temp = Edge_ir.Temp
module Bdd = Edge_ir.Bdd
module Psi = Edge_ir.Psi_ssa
module Pgate = Edge_ir.Pgate
module Tt = Edge_fuzz.Truth_table
module Tg = Pgate.Make (Tt)
module O = Edge_isa.Opcode
module Oracle = Edge_fuzz.Oracle
module Fz = Edge_fuzz
module G = Test_support.Goldens

(* hand-built blocks use small temp numbers; burn past them so the
   fresh versions construct allocates never collide *)
let gen () =
  let g = Temp.Gen.create () in
  for _ = 1 to 64 do
    ignore (Temp.Gen.fresh g)
  done;
  g

let guard pol preds = { Hb.gpol = pol; gpreds = preds }

let cmp dst a b =
  Tac.Cmp { dst; cond = O.Lt; fp = false; a = Tac.T a; b = Tac.T b }

let mov dst a = Tac.Un { dst; op = O.Mov; a = Tac.T a }
let add dst a b = Tac.Bin { dst; op = O.Add; a = Tac.T a; b = Tac.T b }
let op ?g i = { Hb.hop = Hb.Op i; guard = g }

(* the canonical diamond: out delivered by two movs of opposite
   polarity — one psi node with two arguments *)
let diamond () =
  let p = 1 and a = 2 and b = 3 and out = 9 in
  ( {
      Hb.hname = "hb";
      body =
        [
          op (cmp p a b);
          op ~g:(guard true [ p ]) (mov out a);
          op ~g:(guard false [ p ]) (mov out b);
        ];
      hexits = [ { Hb.eguard = None; etarget = None } ];
      houts = [ (out, out) ];
    },
    (p, a, b, out) )

let psi_view () =
  let h, (p, a, _b, out) = diamond () in
  let vw = Psi.view h in
  (match Psi.psi vw out with
  | None -> Alcotest.fail "out has two deliveries; expected a psi node"
  | Some args ->
      Alcotest.(check (list int))
        "psi argument sites, body order" [ 1; 2 ]
        (List.map (fun (x : Psi.psi_arg) -> x.Psi.asite) args);
      Alcotest.(check (list bool))
        "no null deliveries" [ false; false ]
        (List.map (fun (x : Psi.psi_arg) -> x.Psi.anull) args));
  Alcotest.(check bool) "single-def temp has no psi" true (Psi.psi vw p = None);
  Alcotest.(check bool) "p is a predicate" true (Temp.Set.mem p vw.Psi.vpreds);
  Alcotest.(check bool)
    "a is not a predicate" false
    (Temp.Set.mem a vw.Psi.vpreds);
  (* predicate-aware def-use: p is consumed by the guards of sites 1
     and 2, out produces the canonical block output *)
  let guards_of t =
    List.filter_map
      (function Psi.Guard i -> Some i | _ -> None)
      (Psi.uses_of vw t)
  in
  Alcotest.(check (list int)) "p guards sites 1 and 2" [ 1; 2 ] (guards_of p);
  Alcotest.(check bool)
    "out feeds the block output" true
    (List.mem (Psi.Out out) (Psi.uses_of vw out))

let psi_null_delivery () =
  let h, (_, _, _, out) = diamond () in
  h.Hb.body <-
    h.Hb.body @ [ { Hb.hop = Hb.Null_write out; guard = None } ];
  let vw = Psi.view h in
  match Psi.psi vw out with
  | None -> Alcotest.fail "expected a psi node"
  | Some args ->
      Alcotest.(check (list bool))
        "null delivery is an explicit psi argument" [ false; false; true ]
        (List.map (fun (x : Psi.psi_arg) -> x.Psi.anull) args)

let construct_destruct () =
  let h, (_, _, _, out) = diamond () in
  let v = Psi.construct ~gen:(gen ()) h in
  Alcotest.(check int)
    "both deliveries renamed" 2
    (List.length v.Psi.renamed);
  (match v.Psi.psis with
  | [ (t, args) ] ->
      Alcotest.(check bool) "psi is for out" true (Temp.equal t out);
      Alcotest.(check int) "two arguments" 2 (List.length args)
  | l -> Alcotest.failf "expected one psi node, got %d" (List.length l));
  (* the renamed dsts are genuinely fresh and distinct *)
  let dsts =
    List.filter_map (fun hi -> Hb.hop_def hi.Hb.hop) v.Psi.vh.Hb.body
  in
  Alcotest.(check int)
    "distinct def names after construct"
    (List.length dsts)
    (List.length (List.sort_uniq Temp.compare dsts));
  Psi.destruct v;
  Alcotest.(check bool)
    "destruct restores the original block" true
    (h.Hb.body = (fst (diamond ())).Hb.body)

let roundtrip_hand_built () =
  let h, _ = diamond () in
  Alcotest.(check bool) "diamond round-trips" true (Psi.roundtrip ~gen:(gen ()) h);
  let h2, (_, _, _, out) = diamond () in
  h2.Hb.body <- h2.Hb.body @ [ { Hb.hop = Hb.Null_write out; guard = None } ];
  Alcotest.(check bool)
    "null-delivery block round-trips" true
    (Psi.roundtrip ~gen:(gen ()) h2)

let promotable () =
  let h, (_, _, _, out) = diamond () in
  let vw = Psi.view h in
  Alcotest.(check bool)
    "a psi merge is not promotable" true
    (Psi.promotable_chain vw out = None);
  (* single guarded chain: cmp → mov c ← a (guarded) → add d = c+c
     (guarded); promoting d unguards the whole chain *)
  let p = 1 and a = 2 and b = 3 and c = 5 and d = 6 in
  let h2 =
    {
      Hb.hname = "hb2";
      body =
        [
          op (cmp p a b);
          op ~g:(guard true [ p ]) (mov c a);
          op ~g:(guard true [ p ]) (add d c c);
        ];
      hexits = [ { Hb.eguard = None; etarget = None } ];
      houts = [ (d, d) ];
    }
  in
  let vw2 = Psi.view h2 in
  match Psi.promotable_chain vw2 d with
  | None -> Alcotest.fail "single guarded chain should be promotable"
  | Some sites ->
      Alcotest.(check (list int))
        "promotion unguards the chain" [ 1; 2 ]
        (List.sort compare sites)

(* dead-site detection: an instruction feeding nothing has an empty
   effectual region; the pass deletes it and the result still passes
   the static checker *)
let ineffectual_site () =
  let p = 1 and a = 2 and b = 3 and dead = 5 and out = 9 in
  let h =
    {
      Hb.hname = "hb";
      body =
        [
          op (cmp p a b);
          op ~g:(guard true [ p ]) (add dead a b);
          op ~g:(guard true [ p ]) (mov out a);
          op ~g:(guard false [ p ]) (mov out b);
        ];
      hexits = [ { Hb.eguard = None; etarget = None } ];
      houts = [ (out, out) ];
    }
  in
  (match Psi.ineffectuality h with
  | Error e -> Alcotest.failf "analysis inconclusive: %s" e
  | Ok iv ->
      Alcotest.(check (list int)) "the add is dead" [ 1 ] iv.Psi.dead;
      (* out's two deliveries are effectual wherever they fire, which
         together is every path; the add's token reaches nothing *)
      Alcotest.(check bool)
        "out-producer liveness is True" true
        (Bdd.is_true (Bdd.disj iv.Psi.pg.Pgate.m iv.Psi.eff.(2) iv.Psi.eff.(3)));
      Alcotest.(check bool)
        "dead temp liveness is False" true
        (Bdd.is_false iv.Psi.eff.(1)));
  let m = Edge_obs.Metrics.create () in
  Dfp.Opt_ineff.run ~m h;
  Alcotest.(check int) "site deleted" 3 (List.length h.Hb.body);
  Alcotest.(check int)
    "pass.ineff.instrs_deleted counts it" 1
    (List.assoc "pass.ineff.instrs_deleted"
       (Edge_obs.Metrics.counters m));
  let r = Edge_check.Check.hblocks ~pass:"opt_ineff" [ h ] in
  Alcotest.(check int)
    "deleted block still checks clean" 0
    (List.length r.Edge_check.Check.diags)

(* guard dropping: a guard whose fire region equals the unguarded one
   is an ineffectual predicate delivery *)
let droppable_guard () =
  let p = 1 and a = 2 and b = 3 and c = 5 and d = 6 in
  let h =
    {
      Hb.hname = "hb";
      body =
        [
          op (cmp p a b);
          op ~g:(guard true [ p ]) (mov c a);
          op ~g:(guard true [ p ]) (add d c c);
          { Hb.hop = Hb.Null_write d; guard = Some (guard false [ p ]) };
        ];
      hexits = [ { Hb.eguard = None; etarget = None } ];
      houts = [ (d, d) ];
    }
  in
  (match Psi.ineffectuality h with
  | Error e -> Alcotest.failf "analysis inconclusive: %s" e
  | Ok iv ->
      (* I1 reads the live-in a (always available): its guard is load-
         bearing.  I2 reads c, defined only under the same guard: its
         guard delivers nothing.  I3's null must stay guarded — dropping
         it would deliver the null unconditionally *)
      Alcotest.(check (list int)) "only the add's guard" [ 2 ] iv.Psi.droppable);
  let m = Edge_obs.Metrics.create () in
  Dfp.Opt_ineff.run ~m h;
  Alcotest.(check int)
    "pass.ineff.guards_dropped counts it" 1
    (List.assoc "pass.ineff.guards_dropped" (Edge_obs.Metrics.counters m));
  let guards = List.map (fun hi -> hi.Hb.guard <> None) h.Hb.body in
  Alcotest.(check (list bool))
    "the add runs unguarded" [ false; true; false; true ] guards;
  let r = Edge_check.Check.hblocks ~pass:"opt_ineff" [ h ] in
  Alcotest.(check int)
    "unguarded block still checks clean" 0
    (List.length r.Edge_check.Check.diags)

(* ---- round-trip property over fuzz kernels -------------------------- *)

(* The driver's psi_ssa round-trip check runs inside every checked
   compile; the oracle then verifies each artifact against the
   reference interpreter and cross-checks both timing backends.  Any
   round-trip that changed semantics (or any checker-verdict change)
   surfaces as a failure here. *)
let roundtrip_property () =
  let report =
    Fz.Fuzz.run ~jobs:4 ~machines:Oracle.matrix_machines ~min_size:4 ~max_size:14 ~seed:77_000 ~n:24 ()
  in
  match report.Fz.Fuzz.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%d failures; first: %a"
        (List.length report.Fz.Fuzz.failures)
        Fz.Fuzz.pp_failure f

(* ---- mutation tests: bogus verdicts must not survive ---------------- *)

let parse_kernel name =
  match Edge_lang.Parser.parse (G.kernel_source name) with
  | Ok ast -> ast
  | Error e -> Alcotest.failf "%s: parse: %s" name e

let reference_ret ast =
  match Oracle.run_reference ast with
  | Ok o -> o.Oracle.ret
  | Error f -> Alcotest.failf "reference: %s" f.Oracle.message

(* with the enumerator hook installed (process-wide, from the oracle),
   forcing live sites into the dead set must raise a Breach — rendered
   as a check[pass=opt_ineff ...] diagnostic — before anything is
   deleted, and no forced verdict may reach execution as wrong code *)
let mutation_enumerator_catches () =
  let ast = parse_kernel "pred_diamond" in
  let expected = reference_ret ast in
  let breaches = ref 0 and silent = ref 0 in
  Fun.protect
    ~finally:(fun () -> Dfp.Opt_ineff.force_dead := [])
    (fun () ->
      for i = 0 to 15 do
        Dfp.Opt_ineff.force_dead := [ i ];
        match Oracle.compile ~check:false ast Dfp.Config.both with
        | Error e when Edge_check.Diag.parse_key e <> None -> incr breaches
        | Error _ -> ()
        | Ok c -> (
            match Oracle.run_functional c with
            | Ok o when Int64.equal o.Oracle.ret expected && not o.Oracle.fault
              ->
                ()
            | _ -> incr silent)
      done);
  Alcotest.(check bool)
    "at least one bogus verdict disproved by enumeration" true (!breaches > 0);
  Alcotest.(check int)
    "no bogus deletion reached execution" 0 !silent

(* with the hook disabled the bogus deletions actually apply; they must
   still be caught downstream — by a checker diagnostic or by the
   oracle's functional verification — never absorbed silently *)
let mutation_caught_unhooked () =
  let ast = parse_kernel "pred_diamond" in
  let expected = reference_ret ast in
  let caught = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Dfp.Opt_ineff.force_dead := [];
      (* restore the process-wide enumerator hook for later tests *)
      Fz.Ineff_oracle.install ())
    (fun () ->
      Dfp.Opt_ineff.cross_validate := None;
      for i = 0 to 15 do
        Dfp.Opt_ineff.force_dead := [ i ];
        match Oracle.compile ~check:true ast Dfp.Config.both with
        | Error _ -> incr caught
        | Ok c -> (
            match Oracle.run_functional c with
            | Ok o when Int64.equal o.Oracle.ret expected && not o.Oracle.fault
              ->
                ()
            | _ -> incr caught)
      done);
  Alcotest.(check bool)
    "bogus deletions caught by checker or oracle" true (!caught > 0)

(* ---- one gating model, two region instances ------------------------- *)

(* a BDD region as a truth table, by memoized Shannon expansion *)
let tt_of_bdd c n =
  let memo = Hashtbl.create 64 in
  let rec go = function
    | Bdd.False -> Tt.bot c
    | Bdd.True -> Tt.top c
    | Bdd.Node { uid; var; lo; hi } -> (
        match Hashtbl.find_opt memo uid with
        | Some t -> t
        | None ->
            let t =
              Tt.disj c
                (Tt.conj c (Tt.var c var) (go hi))
                (Tt.conj c (Tt.nvar c var) (go lo))
            in
            Hashtbl.replace memo uid t;
            t)
  in
  go n

type formula =
  | Top
  | Bot
  | Var of int
  | Nvar of int
  | Neg of formula
  | Conj of formula * formula
  | Disj of formula * formula

module Build (R : Pgate.REGION) = struct
  let rec build c = function
    | Top -> R.top c
    | Bot -> R.bot c
    | Var v -> R.var c v
    | Nvar v -> R.nvar c v
    | Neg f -> R.neg c (build c f)
    | Conj (f, f') -> R.conj c (build c f) (build c f')
    | Disj (f, f') -> R.disj c (build c f) (build c f')

  (* every completion of the (partial) assignment lies in [r] *)
  let covers c r pairs =
    let cube =
      List.fold_left
        (fun acc (v, b) -> R.conj c acc (if b then R.var c v else R.nvar c v))
        (R.top c) pairs
    in
    R.equal (R.conj c r cube) cube
end

module Bb = Build (Pgate.Bdd_region)
module Tb = Build (Tt)

let gen_formula nvars =
  QCheck.Gen.(
    sized_size (int_bound 24)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Top;
                 return Bot;
                 map (fun v -> Var v) (int_bound (nvars - 1));
                 map (fun v -> Nvar v) (int_bound (nvars - 1));
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (1, leaf);
                 (2, map (fun f -> Neg f) (self (n - 1)));
                 (3, map2 (fun a b -> Conj (a, b)) (self (n / 2)) (self (n / 2)));
                 (3, map2 (fun a b -> Disj (a, b)) (self (n / 2)) (self (n / 2)));
               ]))

(* the BDD and truth-table regions agree on equality, emptiness and
   satisfying assignments, over random formulas of up to 8 variables *)
let qcheck_regions_agree =
  QCheck.Test.make ~name:"BDD and truth-table regions agree" ~count:500
    (QCheck.make
       QCheck.Gen.(
         int_range 1 8 >>= fun n ->
         triple (return n) (gen_formula n) (gen_formula n)))
    (fun (n, f, f') ->
      let m = Bdd.create () and c = Tt.create n in
      let b = Bb.build m f and b' = Bb.build m f' in
      let t = Tb.build c f and t' = Tb.build c f' in
      let witnesses_agree =
        match (Bdd.any_sat b, Tt.any_sat c t) with
        | None, None -> true
        | Some pb, Some pt -> Tb.covers c t pb && Bb.covers m b pt
        | _ -> false
      in
      Tt.equal (tt_of_bdd c b) t
      && Bdd.is_false b = Tt.is_false t
      && Bdd.equal b b' = Tt.equal t t'
      && witnesses_agree)

(* the hyperblocks a Both compile hands to opt_ineff, per kernel:
   Driver.compile_cfg's front end and Both's predicate passes *)
let both_hblocks src =
  let c = Dfp.Config.both in
  let ast =
    match Edge_lang.Parser.parse src with
    | Ok ast -> ast
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let cfg = Result.get_ok (Edge_lang.Lower.lower ast) in
  Edge_ir.Ssa.construct cfg;
  Dfp.Opt_classic.run cfg;
  Edge_ir.Ssa.destruct cfg;
  Edge_ir.Cfg.prune_unreachable cfg;
  Dfp.Unroll.run cfg ~max_unroll:c.Dfp.Config.max_unroll
    ~target_instrs:(c.Dfp.Config.max_block_instrs / 2);
  let retq = Temp.Gen.fresh cfg.Edge_ir.Cfg.gen in
  let liveness = Edge_ir.Liveness.compute cfg in
  let hs =
    Dfp.Region.select cfg ~budget:(c.Dfp.Config.max_block_instrs * 45 / 100)
    |> List.map (fun r ->
           Result.get_ok (Dfp.If_convert.convert cfg liveness r ~retq))
  in
  Dfp.Opt_path.run hs cfg liveness ~retq;
  List.iter Dfp.Opt_fanout.run hs;
  List.iter Dfp.Opt_hclean.run hs;
  hs

(* both instances of the gating model give the same per-site fire,
   value and effectual regions on every such block of at most 10
   variables *)
let instances_agree () =
  let compared = ref 0 in
  let dir = G.kernel_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".k")
  |> List.iter (fun f ->
         List.iter
           (fun (h : Hb.t) ->
             match Pgate.analyze h with
             | Ok g when g.Pgate.nvars <= 10 ->
                 let tg = Result.get_ok (Tg.analyze_with Tt.create h) in
                 let c = tg.Pgate.m in
                 let same what bdds tts =
                   Array.iteri
                     (fun i r ->
                       if not (Tt.equal (tt_of_bdd c r) tts.(i)) then
                         Alcotest.failf "%s %s: %s differs at I%d" f
                           h.Hb.hname what i)
                     bdds
                 in
                 Alcotest.(check int) "same variables" g.Pgate.nvars tg.Pgate.nvars;
                 same "e" g.Pgate.e tg.Pgate.e;
                 same "svt" g.Pgate.svt tg.Pgate.svt;
                 same "svu" g.Pgate.svu tg.Pgate.svu;
                 same "eff"
                   (Result.get_ok (Pgate.effectual g h))
                   (Result.get_ok (Tg.effectual tg h));
                 incr compared
             | _ -> ())
           (both_hblocks (G.read_file (Filename.concat dir f))));
  Alcotest.(check bool) "some blocks compared" true (!compared > 0)

(* ---- Pass_id round-trips -------------------------------------------- *)

let pass_id_roundtrip () =
  List.iter
    (fun p ->
      let name = Dfp.Pass_id.name p in
      Alcotest.(check bool)
        (name ^ " name round-trips") true
        (Dfp.Pass_id.of_name name = Some p);
      let counter = Dfp.Pass_id.counter p "things" in
      Alcotest.(check bool)
        (counter ^ " counter round-trips") true
        (Dfp.Pass_id.of_counter counter = Some p))
    Dfp.Pass_id.all;
  Alcotest.(check bool)
    "unknown counters do not parse" true
    (Dfp.Pass_id.of_counter "pass.bogus.things" = None);
  Alcotest.(check bool)
    "non-pass keys do not parse" true
    (Dfp.Pass_id.of_counter "serve.fast_hits" = None)

let tests =
  [
    Alcotest.test_case "psi view and def-use" `Quick psi_view;
    Alcotest.test_case "psi null delivery" `Quick psi_null_delivery;
    Alcotest.test_case "construct/destruct" `Quick construct_destruct;
    Alcotest.test_case "round-trip hand-built" `Quick roundtrip_hand_built;
    Alcotest.test_case "promotable chains" `Quick promotable;
    Alcotest.test_case "ineffectual site deleted" `Quick ineffectual_site;
    Alcotest.test_case "ineffectual guard dropped" `Quick droppable_guard;
    Alcotest.test_case "round-trip property (8 configs x 2 backends)" `Quick
      roundtrip_property;
    Alcotest.test_case "mutation: enumerator disproves bogus verdicts" `Quick
      mutation_enumerator_catches;
    Alcotest.test_case "mutation: unhooked deletions still caught" `Quick
      mutation_caught_unhooked;
    QCheck_alcotest.to_alcotest qcheck_regions_agree;
    Alcotest.test_case "gating model: BDD and truth-table instances agree"
      `Quick instances_agree;
    Alcotest.test_case "pass ids round-trip" `Quick pass_id_roundtrip;
  ]
