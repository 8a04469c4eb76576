(* Machine-description properties.

   The machine description is the experiment plane's second axis
   (backend x config), so its plumbing must be airtight:

   - compact-form round-trip: any legal machine survives
     [to_compact] / [of_compact] unchanged, presets resolve by name;
   - hop tables: symmetric, zero on the diagonal, monotone in
     Manhattan distance, triangle inequality — for arbitrary grid
     shapes under both hop models;
   - wire protocol: a machine travels through a dfpd job request and
     resolves back to the same description, and distinct machines
     never share a single-flight digest;
   - result cache: distinct machines never share a persistent cache
     entry (the key is salted with the description and the backend
     revision). *)

module M = Edge_sim.Machine
module Proto = Edge_serve.Proto
module Json = Edge_obs.Json

(* -- a generator of legal machine descriptions --------------------- *)

let machine_gen : M.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* backend = oneofl [ M.Trips_grid; M.Inorder_edge ] in
  let* rows = int_range 1 8 in
  let* cols = int_range 1 8 in
  (* enough RS slots for a maximal block, whatever the shape *)
  let min_slots =
    (Edge_isa.Block.max_instrs + (rows * cols) - 1) / (rows * cols)
  in
  let* extra_slots = int_range 0 8 in
  let* hop_model =
    oneof
      [
        map (fun k -> M.Manhattan k) (int_range 0 3);
        map (fun k -> M.Uniform k) (int_range 0 3);
      ]
  in
  let* issue_per_tile = int_range 1 4 in
  let* window_size = int_range 1 64 in
  let* predictor_history_bits = int_range 0 16 in
  let* predictor_table_bits = int_range 1 24 in
  let* fetch_cycles = int_range 0 8 in
  let* predict_cycles = int_range 0 8 in
  let* max_inflight = int_range 1 16 in
  let* l1d_latency = int_range 0 4 in
  let* line_bytes = map (fun k -> 1 lsl k) (int_range 2 8) in
  let* early_termination = bool in
  let* aggressive_loads = bool in
  let* commit_stores_per_cycle = int_range 1 4 in
  return
    {
      M.default with
      backend;
      rows;
      cols;
      slots_per_tile = min_slots + extra_slots;
      hop_model;
      issue_per_tile;
      window_size;
      predictor_history_bits;
      predictor_table_bits;
      fetch_cycles;
      predict_cycles;
      max_inflight;
      l1d_latency;
      line_bytes;
      early_termination;
      aggressive_loads;
      commit_stores_per_cycle;
    }

let machine_arb = QCheck.make ~print:M.to_compact machine_gen

(* -- compact form --------------------------------------------------- *)

let preset_roundtrip () =
  List.iter
    (fun (name, m) ->
      (match M.validate m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "preset %s invalid: %s" name e);
      (match M.of_compact name with
      | Ok m' when m' = m -> ()
      | Ok _ -> Alcotest.failf "preset name %s resolves elsewhere" name
      | Error e -> Alcotest.failf "preset name %s: %s" name e);
      match M.of_compact (M.to_compact m) with
      | Ok m' when m' = m -> ()
      | Ok _ -> Alcotest.failf "preset %s compact roundtrip drifts" name
      | Error e -> Alcotest.failf "preset %s compact: %s" name e)
    (("default", M.default) :: M.presets)

let qcheck_compact_roundtrip =
  QCheck.Test.make ~name:"compact roundtrip (legal machines)" ~count:300
    machine_arb (fun m ->
      (match M.validate m with
      | Ok () -> ()
      | Error e ->
          QCheck.Test.fail_reportf "generator produced illegal machine: %s" e);
      match M.of_compact (M.to_compact m) with
      | Ok m' ->
          m' = m
          || QCheck.Test.fail_reportf "roundtrip drift:\n%s\n%s"
               (M.to_compact m) (M.to_compact m')
      | Error e -> QCheck.Test.fail_reportf "of_compact: %s" e)

(* a leading preset name seeds the base the overrides fold over *)
let preset_with_overrides () =
  (match M.of_compact "inorder_edge;window=8" with
  | Ok m ->
      if m <> { M.inorder_edge with window_size = 8 } then
        Alcotest.fail "preset+override drifts from the adjusted preset"
  | Error e -> Alcotest.failf "preset+override: %s" e);
  (match M.of_compact "trips_grid;rows=8;cols=8" with
  | Ok m ->
      if m <> { M.trips_grid with rows = 8; cols = 8 } then
        Alcotest.fail "trips_grid override drifts"
  | Error e -> Alcotest.failf "trips_grid override: %s" e);
  (* overrides without a preset still fold over default *)
  match M.of_compact "window=8" with
  | Ok m ->
      if m <> { M.default with window_size = 8 } then
        Alcotest.fail "bare override must apply to default"
  | Error e -> Alcotest.failf "bare override: %s" e

let compact_rejects () =
  List.iter
    (fun s ->
      match M.of_compact s with
      | Ok _ -> Alcotest.failf "%S should not resolve" s
      | Error _ -> ())
    [
      "rows=0";
      "rows=2;cols=2;slots=1" (* cannot hold a maximal block *);
      "hop=warp:3";
      "line=48" (* not a power of two *);
      "backend=vliw";
      "nonsense";
      "issue=-1";
    ]

(* -- hop tables ----------------------------------------------------- *)

let manhattan m a b =
  abs (M.tile_row m a - M.tile_row m b) + abs (M.tile_col m a - M.tile_col m b)

let hop_invariants () =
  List.iter
    (fun (rows, cols) ->
      List.iter
        (fun hop_model ->
          let m = { M.default with rows; cols; hop_model } in
          let n = M.num_tiles m in
          for a = 0 to n - 1 do
            if M.hops m a a <> 0 then
              Alcotest.failf "%dx%d %s: self-hop %d nonzero" rows cols
                (M.to_compact m) a;
            for b = 0 to n - 1 do
              let h = M.hops m a b in
              if h < 0 then
                Alcotest.failf "%dx%d: negative hops %d->%d" rows cols a b;
              if h <> M.hops m b a then
                Alcotest.failf "%dx%d: asymmetric hops %d<->%d" rows cols a b;
              (* monotone in Manhattan distance: a strictly closer pair
                 never costs more *)
              for c = 0 to n - 1 do
                if manhattan m a b < manhattan m a c && h > M.hops m a c then
                  Alcotest.failf
                    "%dx%d: hops not monotone (%d->%d dist %d costs %d; \
                     %d->%d dist %d costs %d)"
                    rows cols a b (manhattan m a b) h a c (manhattan m a c)
                    (M.hops m a c)
              done;
              (* triangle inequality through any relay tile *)
              for c = 0 to n - 1 do
                if M.hops m a c > h + M.hops m b c then
                  Alcotest.failf "%dx%d: triangle violated %d->%d->%d" rows
                    cols a b c
              done
            done;
            if M.reg_access_hops m a < 0 || M.mem_access_hops m a < 0 then
              Alcotest.failf "%dx%d: negative access hops for tile %d" rows
                cols a
          done)
        [ M.Manhattan 1; M.Manhattan 2; M.Uniform 0; M.Uniform 2 ])
    [ (1, 1); (1, 4); (4, 1); (2, 3); (4, 4); (5, 5) ]

(* -- wire protocol -------------------------------------------------- *)

let job_line machine =
  Json.to_string
    (Json.Obj
       [
         ("workload", Json.Str "w");
         ("config", Json.Str "Both");
         ("machine", Json.Str machine);
       ])

let qcheck_wire_roundtrip =
  QCheck.Test.make ~name:"machine survives the dfpd wire protocol"
    ~count:200 machine_arb (fun m ->
      match Proto.parse_request (job_line (M.to_compact m)) with
      | { Proto.req = Ok (Proto.Job s); _ } -> (
          match s.Proto.machine with
          | None -> QCheck.Test.fail_report "machine field lost"
          | Some c -> (
              match M.of_compact c with
              | Ok m' ->
                  m' = m
                  || QCheck.Test.fail_reportf "wire drift: %s" (M.to_compact m')
              | Error e -> QCheck.Test.fail_reportf "of_compact: %s" e))
      | { Proto.req = Error e; _ } ->
          QCheck.Test.fail_reportf "request rejected: %s" e
      | _ -> QCheck.Test.fail_report "not a job")

let qcheck_digest_salted =
  QCheck.Test.make ~name:"distinct machines never share a job digest"
    ~count:200
    QCheck.(pair machine_arb machine_arb)
    (fun (m1, m2) ->
      let spec m =
        {
          Proto.kind = `Workload "w";
          config = "Both";
          machine = Some (M.to_compact m);
          image = None;
          trace = false;
          lint = false;
          timeout_ms = None;
          max_cycles = None;
          fuel = None;
        }
      in
      let d1 = Proto.job_digest (spec m1)
      and d2 = Proto.job_digest (spec m2) in
      if m1 = m2 then d1 = d2 else d1 <> d2)

(* -- result-cache salting ------------------------------------------- *)

let workload () =
  match Edge_workloads.Registry.find "tblook01" with
  | Some w -> w
  | None -> Alcotest.fail "tblook01 not in the registry"

let qcheck_cache_key_salted =
  QCheck.Test.make ~name:"distinct machines never share a cache key"
    ~count:100
    QCheck.(pair machine_arb machine_arb)
    (fun (m1, m2) ->
      let w = workload () in
      let key m = Edge_harness.Experiment.cache_key w "Both" Dfp.Config.both m in
      if m1 = m2 then key m1 = key m2 else key m1 <> key m2)

let disk_cache_salted () =
  let w = workload () in
  let key m = Edge_harness.Experiment.cache_key w "Both" Dfp.Config.both m in
  let cache =
    Edge_parallel.Disk_cache.create
      ~dir:(Test_support.Tmpdir.path "dc_machine") ()
  in
  Edge_parallel.Disk_cache.store cache ~key:(key M.trips_grid) "grid-run";
  (match Edge_parallel.Disk_cache.find cache ~key:(key M.inorder_edge) with
  | Some (_ : string) ->
      Alcotest.fail "inorder machine hit the grid machine's cache entry"
  | None -> ());
  (match
     Edge_parallel.Disk_cache.find cache
       ~key:(key { M.trips_grid with rows = 8 })
   with
  | Some (_ : string) ->
      Alcotest.fail "8-row grid hit the 4-row grid's cache entry"
  | None -> ());
  match Edge_parallel.Disk_cache.find cache ~key:(key M.trips_grid) with
  | Some v -> Alcotest.(check string) "own entry survives" "grid-run" v
  | None -> Alcotest.fail "same machine missed its own cache entry"

(* the two backends must also never share a key even when every other
   field agrees: the backend revision is folded in independently *)
let backend_revision_salts () =
  let w = workload () in
  let key m = Edge_harness.Experiment.cache_key w "Both" Dfp.Config.both m in
  let grid = M.trips_grid in
  let same_shape_inorder = { grid with M.backend = M.Inorder_edge } in
  Alcotest.(check bool) "backend alone splits the key" true
    (key grid <> key same_shape_inorder);
  Alcotest.(check bool) "backend revisions differ" true
    (Edge_sim.Backend.revision grid
    <> Edge_sim.Backend.revision same_shape_inorder)

let tests =
  [
    Alcotest.test_case "preset roundtrip" `Quick preset_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_compact_roundtrip;
    Alcotest.test_case "preset with overrides" `Quick preset_with_overrides;
    Alcotest.test_case "compact rejects illegal machines" `Quick
      compact_rejects;
    Alcotest.test_case "hop-table invariants" `Quick hop_invariants;
    QCheck_alcotest.to_alcotest qcheck_wire_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_digest_salted;
    QCheck_alcotest.to_alcotest qcheck_cache_key_salted;
    Alcotest.test_case "disk cache never shares entries" `Quick
      disk_cache_salted;
    Alcotest.test_case "backend revision salts the key" `Quick
      backend_revision_salts;
  ]
