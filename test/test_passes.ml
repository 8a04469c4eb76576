(* Per-pass invariants on randomly generated kernels: if-conversion
   well-formedness, scheduler validity and determinism, and semantic
   preservation of each predicate optimization in isolation. *)

module Hb = Edge_ir.Hblock
module Temp = Edge_ir.Temp
module Cfg = Edge_ir.Cfg

let hblocks_of_seed seed size =
  let ast = Edge_fuzz.Gen.generate ~seed ~size in
  let cfg = Result.get_ok (Edge_lang.Lower.lower ast) in
  Edge_ir.Ssa.construct cfg;
  Dfp.Opt_classic.run cfg;
  Edge_ir.Ssa.destruct cfg;
  Cfg.prune_unreachable cfg;
  Dfp.Unroll.run cfg ~max_unroll:4 ~target_instrs:64;
  let retq = Edge_ir.Temp.Gen.fresh cfg.Cfg.gen in
  let liveness = Edge_ir.Liveness.compute cfg in
  let regions = Dfp.Region.select cfg ~budget:50 in
  ( List.map
      (fun r -> Result.get_ok (Dfp.If_convert.convert cfg liveness r ~retq))
      regions,
    cfg,
    liveness,
    retq )

(* Invariant: every predicate referenced by a guard is defined in the
   block (guards must never consume live-in values directly: a live-in is
   delivered unconditionally, which breaks the at-most-one-match rule). *)
let guards_are_internal seed () =
  let hblocks, _, _, _ = hblocks_of_seed seed 18 in
  List.iter
    (fun (h : Hb.t) ->
      let defs = Hb.defs h in
      let check_guard what g =
        List.iter
          (fun p ->
            if not (Temp.Set.mem p defs) then
              Alcotest.failf "%s: guard predicate t%d is not defined in %s"
                what p h.Hb.hname)
          (Hb.guard_uses g)
      in
      List.iter (fun hi -> check_guard "body" hi.Hb.guard) h.Hb.body;
      List.iter (fun e -> check_guard "exit" e.Hb.eguard) h.Hb.hexits)
    hblocks

(* Invariant: every guarded store has at least one Null_store for its
   index, and unguarded stores have none. *)
let stores_are_nullified seed () =
  let hblocks, _, _, _ = hblocks_of_seed seed 20 in
  List.iter
    (fun (h : Hb.t) ->
      let stores = ref [] in
      let nulls = ref [] in
      let idx = ref 0 in
      List.iter
        (fun hi ->
          match hi.Hb.hop with
          | Hb.Op (Edge_ir.Tac.Store _) ->
              stores := (!idx, hi.Hb.guard <> None) :: !stores;
              incr idx
          | Hb.Null_store i -> nulls := i :: !nulls
          | _ -> ())
        h.Hb.body;
      List.iter
        (fun (i, guarded) ->
          let has_null = List.mem i !nulls in
          if guarded && not has_null then
            Alcotest.failf "%s: guarded store %d has no null store" h.Hb.hname i;
          if (not guarded) && has_null then
            Alcotest.failf "%s: unguarded store %d has a null store" h.Hb.hname
              i)
        !stores)
    hblocks

(* Invariant: hyperblock outputs have at least one producer each. *)
let outputs_have_producers seed () =
  let hblocks, _, _, _ = hblocks_of_seed seed 16 in
  List.iter
    (fun (h : Hb.t) ->
      List.iter
        (fun (_, prod) ->
          let has =
            List.exists
              (fun hi ->
                match hi.Hb.hop with
                | Hb.Null_write t -> Temp.equal t prod
                | _ -> (
                    match Hb.hop_def hi.Hb.hop with
                    | Some d -> Temp.equal d prod
                    | None -> false))
              h.Hb.body
          in
          if not has then
            Alcotest.failf "%s: output t%d has no producer" h.Hb.hname prod)
        h.Hb.houts)
    hblocks

(* The scheduler must produce a valid, deterministic placement. *)
let schedule_props seed () =
  let ast = Edge_fuzz.Gen.generate ~seed ~size:20 in
  let cfg = Result.get_ok (Edge_lang.Lower.lower ast) in
  let c = Result.get_ok (Dfp.Driver.compile_cfg cfg Dfp.Config.both) in
  List.iter
    (fun (_, b) ->
      let p1 = Dfp.Schedule.place b in
      let p2 = Dfp.Schedule.place b in
      Alcotest.(check bool) "deterministic" true (p1 = p2);
      Alcotest.(check bool)
        "one slot per instruction" true
        (Array.length p1 = Array.length b.Edge_isa.Block.instrs);
      let md = Edge_isa.Machine_desc.default in
      let num_tiles = Edge_isa.Machine_desc.num_tiles md in
      let loads = Array.make num_tiles 0 in
      Array.iter
        (fun t ->
          Alcotest.(check bool) "tile in range" true (t >= 0 && t < num_tiles);
          loads.(t) <- loads.(t) + 1)
        p1;
      Array.iter
        (fun l ->
          Alcotest.(check bool)
            "slot capacity respected" true
            (l <= md.Edge_isa.Machine_desc.slots_per_tile))
        loads)
    c.Dfp.Driver.program.Edge_isa.Program.blocks

(* Each optimization alone must preserve semantics (the config matrix of
   the differential suite covers the paper combinations; this covers
   merge-only and mov4+merge). *)
let solo_opt_configs =
  [
    ("merge-only", { Dfp.Config.hyper_baseline with Dfp.Config.opt_merge = true });
    ( "merge+mov4",
      {
        Dfp.Config.hyper_baseline with
        Dfp.Config.opt_merge = true;
        use_mov4 = true;
      } );
    ("hand", Dfp.Config.hand_optimized);
    ("unroll-1", { Dfp.Config.both with Dfp.Config.max_unroll = 1 });
    ("unroll-16", { Dfp.Config.both with Dfp.Config.max_unroll = 16 });
  ]

let solo_opt_preserves (cname, config) seed () =
  let ast = Edge_fuzz.Gen.generate ~seed ~size:16 in
  let mem_ref = Edge_fuzz.Gen.default_mem () in
  match
    Edge_lang.Interp.run ~fuel:3_000_000 ast ~args:Edge_fuzz.Gen.default_args
      ~mem:mem_ref
  with
  | Error _ -> () (* non-terminating or faulting: skip *)
  | Ok o -> (
      let expected = Option.value ~default:0L o.Edge_lang.Interp.return_value in
      let cfg = Result.get_ok (Edge_lang.Lower.lower ast) in
      match Dfp.Driver.compile_cfg cfg config with
      | Error e -> Alcotest.failf "%s compile: %s" cname e
      | Ok c -> (
          let regs = Array.make 128 0L in
          List.iteri
            (fun i v -> regs.(Edge_isa.Conventions.param_reg i) <- v)
            Edge_fuzz.Gen.default_args;
          let mem = Edge_fuzz.Gen.default_mem () in
          match Edge_sim.Functional.run c.Dfp.Driver.program ~regs ~mem with
          | Error e -> Alcotest.failf "%s run: %s" cname e
          | Ok _ ->
              Alcotest.(check bool)
                "return value" true
                (Int64.equal regs.(Edge_isa.Conventions.result_reg) expected);
              Alcotest.(check bool)
                "memory" true
                (Edge_isa.Mem.equal mem mem_ref)))

(* The cycle simulator must be deterministic. *)
let cycle_deterministic () =
  let w = Option.get (Edge_workloads.Registry.find "tblook01") in
  let go () =
    match Edge_harness.Experiment.run_one w ("Both", Dfp.Config.both) with
    | Ok r -> r.Edge_harness.Experiment.cycles
    | Error e -> Alcotest.failf "%s" e
  in
  Alcotest.(check int) "same cycle count" (go ()) (go ())

(* Regression: compiled programs never declare more resources than the
   ISA allows, under every configuration (Block.validate runs in codegen;
   this re-checks the final artifacts end to end). *)
let resource_limits seed () =
  List.iter
    (fun (_, config) ->
      let ast = Edge_fuzz.Gen.generate ~seed ~size:24 in
      let cfg = Result.get_ok (Edge_lang.Lower.lower ast) in
      match Dfp.Driver.compile_cfg cfg config with
      | Error e -> Alcotest.failf "compile: %s" e
      | Ok c ->
          List.iter
            (fun (_, b) ->
              Alcotest.(check bool)
                "instrs <= 128" true
                (Array.length b.Edge_isa.Block.instrs <= 128);
              Alcotest.(check bool)
                "reads <= 32" true
                (Array.length b.Edge_isa.Block.reads <= 32);
              Alcotest.(check bool)
                "writes <= 32" true
                (Array.length b.Edge_isa.Block.writes <= 32))
            c.Dfp.Driver.program.Edge_isa.Program.blocks)
    (("Merge", Dfp.Config.merge) :: Dfp.Config.all_paper_configs)

let tests =
  List.concat_map
    (fun seed ->
      [
        Alcotest.test_case
          (Printf.sprintf "guards internal s%d" seed)
          `Quick (guards_are_internal seed);
        Alcotest.test_case
          (Printf.sprintf "stores nullified s%d" seed)
          `Quick (stores_are_nullified seed);
        Alcotest.test_case
          (Printf.sprintf "outputs produced s%d" seed)
          `Quick (outputs_have_producers seed);
        Alcotest.test_case
          (Printf.sprintf "schedule props s%d" seed)
          `Quick (schedule_props seed);
        Alcotest.test_case
          (Printf.sprintf "resource limits s%d" seed)
          `Quick (resource_limits seed);
      ])
    [ 101; 202; 303; 404 ]
  @ List.concat_map
      (fun cfg ->
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "%s preserves semantics s%d" (fst cfg) seed)
              `Quick
              (solo_opt_preserves cfg seed))
          [ 11; 22; 33; 44; 55; 66 ])
      solo_opt_configs
  @ [ Alcotest.test_case "cycle sim deterministic" `Quick cycle_deterministic ]
