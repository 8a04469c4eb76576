(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation.

     dune exec bench/main.exe                 -- everything (Figure 7, Section 6
                                                 statistics, genalg case study,
                                                 ablations)
     dune exec bench/main.exe fig7 -- -j 4    -- Figure 7 sweep only, 4 domains
     dune exec bench/main.exe stats           -- Section 6 dynamic statistics
     dune exec bench/main.exe genalg          -- Section 5.3 case study
     dune exec bench/main.exe ablation        -- mechanism ablations
     dune exec bench/main.exe smoke           -- 1 workload x 2 configs across
                                                 2 domains; fast sanity check
                                                 of the parallel path
     dune exec bench/main.exe micro           -- Bechamel microbenchmarks (one
                                                 Test.make per experiment,
                                                 timing the pipeline itself)

   Flags (valid for every mode that runs the sweep):

     -j N          run experiments across N domains (default: cores - 1)
     --json PATH   where fig7/stats/all write the machine-readable results
                   (default BENCH_fig7.json; "-" disables)
     --no-cache    bypass the persistent result cache
     --cache-dir D persistent cache location (default _cache); unchanged
                   (workload, config) pairs hit the cache across runs and
                   skip recompilation and re-simulation entirely

   The paper-facing numbers are simulated cycle counts, not wall-clock:
   simulated cycles are bit-identical for every -j value.  The Bechamel
   tests exist to track the toolchain's own performance (compile time,
   functional- and cycle-simulation throughput). *)

let fig7 ?(progress = true) ?cache ?machine ~jobs () =
  Edge_harness.Figure7.run
    ~progress:(fun n -> if progress then Printf.eprintf "  %s...\n%!" n)
    ~jobs ?cache ?machine ()

(* -- machine-readable results ------------------------------------- *)

module Json = Edge_obs.Json

let write_json path ~wall_s ~alloc ~fsim ~backends
    (r : Edge_harness.Figure7.result) =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* multi-line lists indent one entry per line; short objects stay on
     one line with inline separators *)
  let sep xs f = List.iteri (fun i x -> if i > 0 then pf ",\n"; f x) xs in
  let sep_inline xs f = List.iteri (fun i x -> if i > 0 then pf ", "; f x) xs in
  pf "{\n";
  pf "  \"experiment\": \"fig7\",\n";
  pf "  \"jobs\": %d,\n" r.Edge_harness.Figure7.jobs;
  pf "  \"wall_s\": { \"total\": %.3f, \"compile\": %.3f, \"sim\": %.3f },\n"
    wall_s r.Edge_harness.Figure7.compile_s r.Edge_harness.Figure7.sim_s;
  let minor_words, major_words = alloc in
  pf "  \"alloc\": { \"minor_words\": %.0f, \"major_words\": %.0f },\n"
    minor_words major_words;
  (match (fsim : Edge_harness.Fsim_bench.result option) with
  | None -> ()
  | Some f ->
      pf "  \"fsim_throughput\": {\n";
      pf "    \"workloads\": [";
      sep_inline f.Edge_harness.Fsim_bench.workloads (fun w ->
          pf "\"%s\"" (Json.escape w));
      pf "],\n    \"rows\": [\n";
      sep f.Edge_harness.Fsim_bench.rows (fun (row : Edge_harness.Fsim_bench.row) ->
          pf
            "      { \"config\": \"%s\", \"jit_blocks_s\": %.0f, \
             \"jit_instrs_s\": %.0f, \"interp_blocks_s\": %.0f, \
             \"interp_instrs_s\": %.0f, \"speedup\": %.2f }"
            (Json.escape row.Edge_harness.Fsim_bench.config)
            row.Edge_harness.Fsim_bench.jit_blocks_s
            row.Edge_harness.Fsim_bench.jit_instrs_s
            row.Edge_harness.Fsim_bench.interp_blocks_s
            row.Edge_harness.Fsim_bench.interp_instrs_s
            row.Edge_harness.Fsim_bench.speedup);
      pf "\n    ]\n  },\n");
  pf "  \"geomean_speedups\": {\n";
  sep r.Edge_harness.Figure7.mean_speedups (fun (n, s) ->
      pf "    \"%s\": %.4f" (Json.escape n) s);
  pf "\n  },\n";
  pf "  \"benches\": [\n";
  sep r.Edge_harness.Figure7.rows (fun row ->
      pf "    { \"bench\": \"%s\",\n"
        (Json.escape row.Edge_harness.Figure7.bench);
      pf "      \"cycles\": { ";
      sep_inline row.Edge_harness.Figure7.cycles (fun (n, c) ->
          pf "\"%s\": %d" (Json.escape n) c);
      pf " },\n      \"speedups\": { ";
      sep_inline row.Edge_harness.Figure7.speedups (fun (n, s) ->
          pf "\"%s\": %.4f" (Json.escape n) s);
      pf " } }");
  pf "\n  ],\n";
  (* per-backend cycle tables: the top-level "benches" stays the
     default backend for compatibility; each entry here is one machine
     description's own sweep, diffed independently by bench_compare *)
  pf "  \"backends\": {\n";
  sep backends (fun (bname, (br : Edge_harness.Figure7.result)) ->
      pf "    \"%s\": {\n" (Json.escape bname);
      pf "      \"geomean_speedups\": { ";
      sep_inline br.Edge_harness.Figure7.mean_speedups (fun (n, s) ->
          pf "\"%s\": %.4f" (Json.escape n) s);
      pf " },\n      \"benches\": [\n";
      sep br.Edge_harness.Figure7.rows (fun row ->
          pf "        { \"bench\": \"%s\", \"cycles\": { "
            (Json.escape row.Edge_harness.Figure7.bench);
          sep_inline row.Edge_harness.Figure7.cycles (fun (n, c) ->
              pf "\"%s\": %d" (Json.escape n) c);
          pf " } }");
      pf "\n      ]\n    }");
  pf "\n  },\n";
  pf "  \"pass_counters\": {\n";
  sep r.Edge_harness.Figure7.pass_totals (fun (config, counters) ->
      pf "    \"%s\": { " (Json.escape config);
      sep_inline counters (fun (k, v) -> pf "\"%s\": %d" (Json.escape k) v);
      pf " }");
  pf "\n  },\n";
  pf "  \"errors\": [\n";
  sep r.Edge_harness.Figure7.errors (fun (w, e) ->
      pf "    { \"experiment\": \"%s\", \"error\": \"%s\" }" (Json.escape w)
        (Json.escape e));
  pf "\n  ]\n}\n";
  match open_out path with
  | oc ->
      output_string oc (Buffer.contents buf);
      close_out oc;
      Format.printf "wrote %s@." path
  | exception Sys_error e ->
      (* don't lose a finished sweep to an unwritable path *)
      Printf.eprintf "warning: could not write %s: %s\n%!" path e

(* one sweep shared by fig7/stats/all: `stats` used to re-run all 140
   experiments even when fig7 had just produced them *)
let run_sweep ?cache ~jobs ~json () =
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let r = fig7 ?cache ~jobs () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  let alloc =
    ( g1.Gc.minor_words -. g0.Gc.minor_words,
      g1.Gc.major_words -. g0.Gc.major_words )
  in
  if json <> "-" then begin
    (* the same sweep on each non-default backend: the machine axis of
       the experiment matrix, written as its own section so backend
       cycle drift is caught independently of the grid numbers *)
    let backends =
      List.map
        (fun (name, machine) ->
          Printf.eprintf "  backend %s sweep...\n%!" name;
          (name, fig7 ~progress:false ?cache ~machine ~jobs ()))
        [ ("inorder_edge", Edge_sim.Machine.inorder_edge) ]
    in
    (* functional-simulator throughput rides along in the same JSON so
       the committed numbers track the code; measured outside the timed
       sweep window *)
    Printf.eprintf "  fsim throughput (jit vs interpreter)...\n%!";
    let fsim = Some (Edge_harness.Fsim_bench.measure ()) in
    write_json json ~wall_s ~alloc ~fsim ~backends r
  end;
  Format.printf "sweep: %.1fs wall (-j %d; compile %.1fs, sim %.1fs of work)@."
    wall_s r.Edge_harness.Figure7.jobs r.Edge_harness.Figure7.compile_s
    r.Edge_harness.Figure7.sim_s;
  r

let pp_stats ppf (r : Edge_harness.Figure7.result) =
  Format.fprintf ppf
    "@[<v>Section 6 dynamic statistics (Intra vs Hyper, all benchmarks)@,\
     move instructions: -%.1f%% (paper: -14%%)@,\
     total instructions: -%.1f%% (paper: -2%%)@,\
     blocks executed: -%.1f%% (paper: -5%%)@,"
    (100.0 *. r.Edge_harness.Figure7.move_reduction)
    (100.0 *. r.Edge_harness.Figure7.instr_reduction)
    (100.0 *. r.Edge_harness.Figure7.block_reduction);
  Format.fprintf ppf "@,compiler pass counters (summed over benchmarks):@,";
  List.iter
    (fun (config, counters) ->
      Format.fprintf ppf "  %s:@," config;
      List.iter
        (fun (k, v) -> Format.fprintf ppf "    %-36s %10d@," k v)
        counters)
    r.Edge_harness.Figure7.pass_totals;
  Format.fprintf ppf "@]"

let run_genalg ?cache ~jobs () =
  match Edge_harness.Genalg_study.run ~jobs ?cache () with
  | Ok s -> Format.printf "%a@." Edge_harness.Genalg_study.pp s
  | Error e -> Format.printf "genalg: error %s@." e

let run_ablation ?cache ~jobs () =
  let entries, errors = Edge_harness.Ablation.run ~jobs ?cache () in
  Format.printf "%a@." Edge_harness.Ablation.pp entries;
  List.iter (fun (w, e) -> Format.printf "error %s: %s@." w e) errors

(* a deliberately tiny sweep (1 workload x 2 configs) across 2 domains:
   exercises the pool, the compile memo and the deterministic reassembly
   in a couple of seconds *)
let run_smoke ?cache () =
  let w =
    match Edge_workloads.Registry.find "tblook01" with
    | Some w -> w
    | None -> failwith "smoke: tblook01 missing from registry"
  in
  let configs =
    List.filter
      (fun (n, _) -> n = "Hyper" || n = "Both")
      Dfp.Config.all_paper_configs
  in
  let t0 = Unix.gettimeofday () in
  let r = Edge_harness.Figure7.run ~benches:[ w ] ~configs ~jobs:2 ?cache () in
  Format.printf "%a@." Edge_harness.Figure7.pp r;
  (* raw counts, one per line: `make perf-smoke` diffs these between a
     cold and a warm-cache run *)
  List.iter
    (fun row ->
      List.iter
        (fun (n, c) ->
          Format.printf "cycles %s/%s = %d@." row.Edge_harness.Figure7.bench n
            c)
        row.Edge_harness.Figure7.cycles)
    r.Edge_harness.Figure7.rows;
  Format.printf "smoke: %.2fs wall (-j 2)@." (Unix.gettimeofday () -. t0);
  if r.Edge_harness.Figure7.errors <> [] then exit 1

(* Bechamel microbenchmarks: one Test.make per regenerated artifact,
   measuring the machinery that produces it on a small representative
   input. *)
let micro_tests () =
  let open Bechamel in
  let w = Option.get (Edge_workloads.Registry.find "tblook01") in
  let both =
    match Edge_harness.Experiment.compile w Dfp.Config.both with
    | Ok c -> c
    | Error e -> failwith e
  in
  let run_functional () =
    let mem = Edge_isa.Mem.create ~size:w.Edge_workloads.Workload.mem_size in
    let args = w.Edge_workloads.Workload.setup mem in
    let regs = Array.make 128 0L in
    List.iteri (fun i v -> regs.(Edge_isa.Conventions.param_reg i) <- v) args;
    match Edge_sim.Functional.run both.Dfp.Driver.program ~regs ~mem with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  let run_cycle () =
    let mem = Edge_isa.Mem.create ~size:w.Edge_workloads.Workload.mem_size in
    let args = w.Edge_workloads.Workload.setup mem in
    let regs = Array.make 128 0L in
    List.iteri (fun i v -> regs.(Edge_isa.Conventions.param_reg i) <- v) args;
    let placement n =
      match List.assoc_opt n both.Dfp.Driver.placements with
      | Some p -> p
      | None -> [||]
    in
    match
      Edge_sim.Cycle_sim.run ~placement both.Dfp.Driver.program ~regs ~mem
    with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  let compile_one () =
    match Edge_harness.Experiment.compile w Dfp.Config.both with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  let genalg_point () =
    match
      Edge_harness.Experiment.run_one Edge_workloads.Registry.genalg
        ("Both", Dfp.Config.both)
    with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  let ablation_point () =
    let machine =
      { Edge_sim.Machine.default with Edge_sim.Machine.early_termination = false }
    in
    match Edge_harness.Experiment.run_one ~machine w ("Both", Dfp.Config.both) with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  [
    Test.make ~name:"fig7:compile" (Staged.stage compile_one);
    Test.make ~name:"fig7:functional-sim" (Staged.stage run_functional);
    Test.make ~name:"fig7:cycle-sim" (Staged.stage run_cycle);
    Test.make ~name:"sec6-stats:cycle-sim" (Staged.stage run_cycle);
    Test.make ~name:"genalg-study:point" (Staged.stage genalg_point);
    Test.make ~name:"ablation:point" (Staged.stage ablation_point);
  ]

let run_micro () =
  let open Bechamel in
  let tests = micro_tests () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ])
      in
      Hashtbl.iter
        (fun name result ->
          let stats =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              Toolkit.Instance.monotonic_clock result
          in
          match Analyze.OLS.estimates stats with
          | Some [ est ] -> Format.printf "%-28s %12.0f ns/run@." name est
          | _ -> Format.printf "%-28s (no estimate)@." name)
        results)
    tests

let usage () =
  Printf.eprintf
    "usage: main.exe [fig7|stats|genalg|ablation|smoke|micro|all] [-j N] \
     [--json PATH] [--no-cache] [--cache-dir DIR] [--check]\n";
  exit 1

let () =
  let mode = ref "all" in
  let jobs = ref (Edge_parallel.Pool.default_jobs ()) in
  let json = ref "BENCH_fig7.json" in
  let use_cache = ref true in
  let cache_dir = ref "_cache" in
  let rec parse = function
    | [] -> ()
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            parse rest
        | _ -> usage ())
    | "--json" :: p :: rest ->
        json := p;
        parse rest
    | "--no-cache" :: rest ->
        use_cache := false;
        parse rest
    | "--cache-dir" :: d :: rest ->
        cache_dir := d;
        parse rest
    | "--check" :: rest ->
        (* per-pass static verifier on every compile (also: DFP_CHECK=1);
           checked runs bypass the persistent result cache *)
        Edge_check.Check.set_enabled true;
        parse rest
    | m :: rest when String.length m > 0 && m.[0] <> '-' ->
        mode := m;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let jobs = !jobs and json = !json in
  let cache =
    if not !use_cache then None
    else
      match Edge_parallel.Disk_cache.create ~dir:!cache_dir () with
      | c -> Some c
      | exception Sys_error e ->
          Printf.eprintf "warning: cache disabled: %s\n%!" e;
          None
  in
  let report_cache () =
    match cache with
    | Some c ->
        Format.printf "cache: %d hits, %d misses (%s)@."
          (Edge_parallel.Disk_cache.hits c)
          (Edge_parallel.Disk_cache.misses c)
          (Edge_parallel.Disk_cache.dir c)
    | None -> ()
  in
  match !mode with
  | "fig7" ->
      let r = run_sweep ?cache ~jobs ~json () in
      Format.printf "%a@." Edge_harness.Figure7.pp r;
      report_cache ()
  | "stats" ->
      let r = run_sweep ?cache ~jobs ~json () in
      Format.printf "%a@." pp_stats r
  | "genalg" -> run_genalg ?cache ~jobs ()
  | "ablation" -> run_ablation ?cache ~jobs ()
  | "smoke" ->
      run_smoke ?cache ();
      report_cache ()
  | "micro" -> run_micro ()
  | "all" ->
      Format.printf "== Figure 7 ==@.";
      let r = run_sweep ?cache ~jobs ~json () in
      Format.printf "%a@." Edge_harness.Figure7.pp r;
      (* the Section 6 numbers come from the same sweep result: no
         second pass over the 140 experiments *)
      Format.printf "@.== Section 6 dynamic statistics ==@.";
      Format.printf "%a@." pp_stats r;
      Format.printf "@.== genalg case study (Section 5.3 / Figure 6) ==@.";
      run_genalg ?cache ~jobs ();
      Format.printf "@.== ablations ==@.";
      run_ablation ?cache ~jobs ();
      report_cache ()
  | _ -> usage ()
