module Conv = Edge_isa.Conventions
module Mem = Edge_isa.Mem
module Workload = Edge_workloads.Workload

type run = {
  workload : string;
  config : string;
  cycles : int;
  ret : int64;  (* the verified return value (equal across all three executors) *)
  stats : Edge_sim.Stats.t;
  static_instrs : int;
  static_blocks : int;
  static_fanout_moves : int;
  explicit_predicates : int;
  pass_counters : (string * int) list;  (* compiler "pass.*" counters *)
  compile_s : float;  (* wall-clock spent compiling (0 on a memo hit) *)
  sim_s : float;  (* wall-clock spent in reference/functional/cycle sims *)
}

let ( let* ) = Result.bind

(* real (non-memoized) compiles performed process-wide; the serve tests
   use the delta to prove single-flight dedup collapses a stampede of
   identical jobs into one compile *)
let compile_counter = Atomic.make 0

let compiles_performed () = Atomic.get compile_counter

let compile ?check ?lint (w : Workload.t) config =
  Atomic.incr compile_counter;
  let* ast = Workload.parse w in
  let* cfg = Edge_lang.Lower.lower ast in
  Dfp.Driver.compile_cfg ?check ?lint cfg config

(* ineffectuality lint over raw kernel source: compile in report mode
   and collect the findings.  Never memoized — the lint artifact is not
   the artifact a normal compile produces (deletion is suppressed).
   Split-retries can re-report a surviving block's findings; sort_uniq
   collapses the duplicates. *)
let lint_source ?check source config =
  let* ast = Edge_lang.Parser.parse source in
  let* cfg = Edge_lang.Lower.lower ast in
  let findings = ref [] in
  let* _compiled =
    Dfp.Driver.compile_cfg ?check
      ~lint:(fun f -> findings := f :: !findings)
      cfg config
  in
  Ok (List.sort_uniq compare !findings)

let lint ?check (w : Workload.t) config =
  lint_source ?check w.Workload.source config

(* Process-wide memo tables. Compilation is deterministic in
   (workload, config) and the artifacts are read-only to both
   simulators, so every harness (Figure 7, stats, genalg, ablations —
   including machine-only variants) shares one compile per distinct
   (workload, config fingerprint) and one reference-interpreter run per
   workload, across domains. *)
let compile_memo :
    (string * Dfp.Config.t, (Dfp.Driver.compiled, string) result) Edge_parallel.Memo.t =
  Edge_parallel.Memo.create ()

let reference_memo : (string, (int64 * Mem.t, string) result) Edge_parallel.Memo.t
    =
  Edge_parallel.Memo.create ()

(* the checker switch joins the memo key: a compile that skipped the
   verifier must not answer for one that asked for it (and vice versa —
   a checked compile is byte-identical but proves more) *)
let compile_cached (w : Workload.t) config =
  let check = Edge_check.Check.enabled () in
  let name =
    if check then w.Workload.name ^ "+check" else w.Workload.name
  in
  Edge_parallel.Memo.get compile_memo (name, config) (fun () ->
      compile ~check w config)

let reference_cached ?fuel (w : Workload.t) =
  (* a bounded reference run must not answer for an unbounded one (or
     vice versa): the fuel joins the memo key *)
  let key =
    match fuel with
    | None -> w.Workload.name
    | Some f -> Printf.sprintf "%s#fuel=%d" w.Workload.name f
  in
  Edge_parallel.Memo.get reference_memo key (fun () ->
      match Workload.reference_run ?fuel w with
      | Ok (r, m) -> Ok (Option.value ~default:0L r, m)
      | Error e -> Error e)

let setup_run (w : Workload.t) =
  let mem = Mem.create ~size:w.Workload.mem_size in
  let args = w.Workload.setup mem in
  let regs = Array.make Conv.num_regs 0L in
  List.iteri (fun i v -> regs.(Conv.param_reg i) <- v) args;
  (regs, mem)

(* key for the persistent cache: everything a run's numbers depend on.
   The kernel source digest covers the workload (setup/description are
   derived from the same definition site), the marshalled config and
   machine cover both sweep axes, and the simulator revision invalidates
   every entry when simulated semantics change. *)
let cache_key (w : Workload.t) config_name config machine =
  String.concat "|"
    [
      "run-v2";
      Edge_sim.Backend.revision machine;
      Edge_sim.Block_jit.revision;
      w.Workload.name;
      Digest.to_hex (Digest.string w.Workload.source);
      string_of_int w.Workload.mem_size;
      config_name;
      Digest.to_hex (Digest.string (Marshal.to_string config []));
      Digest.to_hex (Digest.string (Marshal.to_string machine []));
    ]

(* the verified execution of one compiled artifact: functional check
   against the reference, then the timed cycle-simulator run, also
   checked. Shared between source-compiled and pre-encoded runs. *)
let run_body ~machine ?obs (w : Workload.t) config_name
    (compiled : Dfp.Driver.compiled) ~reference ~ref_mem =
  (* functional check *)
  let regs, mem = setup_run w in
  let* _ =
    match
      Edge_sim.Functional.run compiled.Dfp.Driver.program ~regs ~mem
    with
    | Ok s -> Ok s
    | Error e -> Error (Printf.sprintf "%s/%s functional: %s" w.Workload.name config_name e)
  in
  let* () =
    if Int64.equal regs.(Conv.result_reg) reference && Mem.equal mem ref_mem
    then Ok ()
    else
      Error
        (Printf.sprintf "%s/%s functional mismatch: ret %Ld vs %Ld"
           w.Workload.name config_name
           regs.(Conv.result_reg)
           reference)
  in
  (* timed run *)
  let regs, mem = setup_run w in
  (* the compiler schedules for the default grid; a machine with another
     geometry gets its blocks re-placed here (memory is cheap: one array
     per block per run, and the binfo layer caches the hop tables) *)
  let placement =
    if Edge_sim.Machine.same_geometry machine Edge_sim.Machine.default then
      fun n ->
        (match List.assoc_opt n compiled.Dfp.Driver.placements with
        | Some p -> p
        | None -> [||])
    else
      let memo = Hashtbl.create 16 in
      fun n ->
        match Hashtbl.find_opt memo n with
        | Some p -> p
        | None ->
            let p =
              match
                List.assoc_opt n
                  compiled.Dfp.Driver.program.Edge_isa.Program.blocks
              with
              | Some b -> Dfp.Schedule.place ~machine b
              | None -> [||]
            in
            Hashtbl.add memo n p;
            p
  in
  let* stats =
    match
      Edge_sim.Backend.run ~machine ~placement ?obs
        compiled.Dfp.Driver.program ~regs ~mem
    with
    | Ok s -> Ok s
    | Error e -> Error (Printf.sprintf "%s/%s cycle: %s" w.Workload.name config_name e)
  in
  let* () =
    if Int64.equal regs.(Conv.result_reg) reference && Mem.equal mem ref_mem
    then Ok ()
    else
      Error
        (Printf.sprintf "%s/%s cycle mismatch: ret %Ld vs %Ld" w.Workload.name
           config_name
           regs.(Conv.result_reg)
           reference)
  in
  Ok stats

let make_run (w : Workload.t) config_name (compiled : Dfp.Driver.compiled)
    stats ~reference ~compile_s ~sim_s =
  {
    workload = w.Workload.name;
    config = config_name;
    cycles = stats.Edge_sim.Stats.cycles;
    ret = reference;
    stats;
    static_instrs = compiled.Dfp.Driver.static_instrs;
    static_blocks = compiled.Dfp.Driver.static_blocks;
    static_fanout_moves = compiled.Dfp.Driver.static_fanout_moves;
    explicit_predicates = compiled.Dfp.Driver.explicit_predicates;
    pass_counters = compiled.Dfp.Driver.pass_counters;
    compile_s;
    sim_s;
  }

let run_one_uncached ?(machine = Edge_sim.Machine.default) ?obs ?interp_fuel
    ?lint (w : Workload.t) (config_name, config) =
  let t0 = Unix.gettimeofday () in
  let* reference, ref_mem = reference_cached ?fuel:interp_fuel w in
  let t1 = Unix.gettimeofday () in
  (* a lint run simulates the lint artifact (deletion suppressed), which
     the memo must never hold — compile fresh *)
  let* compiled =
    match lint with
    | None -> compile_cached w config
    | Some report -> compile ~lint:report w config
  in
  let t2 = Unix.gettimeofday () in
  let* stats =
    run_body ~machine ?obs w config_name compiled ~reference ~ref_mem
  in
  let t3 = Unix.gettimeofday () in
  Ok
    (make_run w config_name compiled stats ~reference ~compile_s:(t2 -. t1)
       ~sim_s:((t1 -. t0) +. (t3 -. t2)))

(* mem-before-disk layered caching around [compute]: a mem hit costs a
   stripe probe, a disk hit is promoted into the mem layer, and a
   computed result lands in both (the disk store optionally handed to
   the cache's writeback thread so worker domains never block on the
   filesystem) *)
let run_layered ~key ?cache ?mem ~async_store compute =
  match Option.bind mem (fun m -> Edge_parallel.Mem_cache.find m ~key) with
  | Some (r : run) -> Ok { r with compile_s = 0.; sim_s = 0. }
  | None -> (
      match
        Option.bind cache (fun c ->
            (Edge_parallel.Disk_cache.find c ~key : run option))
      with
      | Some r ->
          Option.iter
            (fun m -> Edge_parallel.Mem_cache.store m ~key r)
            mem;
          Ok { r with compile_s = 0.; sim_s = 0. }
      | None ->
          let res = compute () in
          (match res with
          | Ok (r : run) ->
              Option.iter
                (fun m -> Edge_parallel.Mem_cache.store m ~key r)
                mem;
              Option.iter
                (fun c ->
                  if async_store then
                    Edge_parallel.Disk_cache.store_async c ~key r
                  else Edge_parallel.Disk_cache.store c ~key r)
                cache
          | Error _ -> ());
          res)

(* an attached observer wants the events of a real run, so a cached
   result would be wrong; obs runs always execute. And with the checker
   on, the point is to *run* the verifier over every compile —
   answering from a cached run would skip it.
   [interp_fuel] does not join the cache key: a fuel-bounded run that
   *succeeds* is identical to the unbounded run, and errors (fuel
   exhaustion included) are never cached. *)
let cacheable ?obs ?cache ?mem () =
  (Option.is_some cache || Option.is_some mem)
  && Option.is_none obs
  && not (Edge_check.Check.enabled ())

let run_one ?machine ?obs ?interp_fuel ?cache ?mem
    ?(async_store = false) ?lint (w : Workload.t)
    ((config_name, config) as cfg) =
  (* a lint run wants its findings streamed and simulates a different
     artifact: it bypasses both cache layers, like an obs run *)
  if Option.is_none lint && cacheable ?obs ?cache ?mem () then
    let key =
      cache_key w config_name config
        (Option.value machine ~default:Edge_sim.Machine.default)
    in
    run_layered ~key ?cache ?mem ~async_store (fun () ->
        run_one_uncached ?machine ?obs ?interp_fuel w cfg)
  else run_one_uncached ?machine ?obs ?interp_fuel ?lint w cfg

let run_precompiled_uncached ?(machine = Edge_sim.Machine.default) ?obs
    ?interp_fuel (w : Workload.t) config_name
    (compiled : Dfp.Driver.compiled) =
  let t0 = Unix.gettimeofday () in
  let* reference, ref_mem = reference_cached ?fuel:interp_fuel w in
  let* stats =
    run_body ~machine ?obs w config_name compiled ~reference ~ref_mem
  in
  let t3 = Unix.gettimeofday () in
  Ok
    (make_run w config_name compiled stats ~reference ~compile_s:0.
       ~sim_s:(t3 -. t0))

let run_precompiled ?machine ?obs ?interp_fuel ?cache ?mem
    ?(async_store = false) ~image_digest (w : Workload.t)
    (config_name, config) (compiled : Dfp.Driver.compiled) =
  if cacheable ?obs ?cache ?mem () then
    (* the image digest salts the key: a shipped artifact may differ
       from what this process would compile (other compiler revision —
       or a hostile client), so it must never answer for, or be
       answered by, a source-compiled entry *)
    let key =
      cache_key w config_name config
        (Option.value machine ~default:Edge_sim.Machine.default)
      ^ "|img:" ^ image_digest
    in
    run_layered ~key ?cache ?mem ~async_store (fun () ->
        run_precompiled_uncached ?machine ?obs ?interp_fuel w
          config_name compiled)
  else
    run_precompiled_uncached ?machine ?obs ?interp_fuel w config_name
      compiled
