(* tsim: run a workload through the functional and cycle simulators.

   Accepts a registered workload name, a path to a `.k` kernel source
   (fuzz-corpus argument conventions), or a `.s` assembly / `.img`
   binary program.

   Observability:
     --trace-out x.json   write a Chrome trace-event JSON of the run
                          (load into Perfetto / chrome://tracing)
     --trace-text x.trace write the compact deterministic text trace
                          (the golden-test format)
     --metrics            print the metrics summary table *)

open Cmdliner

let config_of_name = function
  | "bb" -> Ok ("BB", Dfp.Config.bb)
  | "hyper" -> Ok ("Hyper", Dfp.Config.hyper_baseline)
  | "intra" -> Ok ("Intra", Dfp.Config.intra)
  | "inter" -> Ok ("Inter", Dfp.Config.inter)
  | "both" -> Ok ("Both", Dfp.Config.both)
  | "merge" -> Ok ("Merge", Dfp.Config.merge)
  | "sand" -> Ok ("Sand", Dfp.Config.sand)
  | "hand" -> Ok ("Hand", Dfp.Config.hand_optimized)
  | s -> Error (Printf.sprintf "unknown config %s" s)

(* -- observability plumbing --------------------------------------- *)

type obs_opts = {
  trace_out : string option;  (* Chrome JSON path *)
  trace_text : string option;  (* deterministic text path *)
  metrics : bool;
}

let obs_wanted o = o.trace_out <> None || o.trace_text <> None || o.metrics

(* an Obs bundle + a finisher that writes/prints whatever was asked *)
let make_obs o ~name =
  if not (obs_wanted o) then (None, fun () -> Ok ())
  else begin
    let obs, events, m = Edge_obs.Obs.collector ~level:Edge_obs.Trace.Full () in
    let write path contents =
      match open_out path with
      | oc ->
          output_string oc contents;
          close_out oc;
          Format.printf "wrote %s@." path;
          Ok ()
      | exception Sys_error e -> Error e
    in
    let finish () =
      let ( let* ) = Result.bind in
      let evs = events () in
      let* () =
        match o.trace_out with
        | Some path ->
            write path (Edge_obs.Trace.chrome_to_string ~name evs)
        | None -> Ok ()
      in
      let* () =
        match o.trace_text with
        | Some path ->
            write path (Edge_obs.Trace.render_text ~header:[ ("kernel", name) ] evs)
        | None -> Ok ()
      in
      if o.metrics then Format.printf "%a@." Edge_obs.Metrics.pp_summary m;
      Ok ()
    in
    (Some obs, finish)
  end

(* run a hand-written assembly program: arguments land in the parameter
   registers, g1 is printed on halt *)
let run_asm path args oopts =
  let parsed =
    if Filename.check_suffix path ".img" then Edge_isa.Image.read_file path
    else begin
      let ic = open_in_bin path in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Edge_isa.Asm.parse_program src
    end
  in
  match parsed with
  | Error e -> Error ("program: " ^ e)
  | Ok program -> (
      match Edge_isa.Program.validate program with
      | Error es -> Error ("invalid program: " ^ String.concat "; " es)
      | Ok () -> (
          let regs = Array.make 128 0L in
          List.iteri
            (fun i v -> regs.(Edge_isa.Conventions.param_reg i) <- v)
            args;
          let mem = Edge_isa.Mem.create ~size:(1 lsl 20) in
          let obs, finish = make_obs oopts ~name:(Filename.basename path) in
          match Edge_sim.Cycle_sim.run ?obs program ~regs ~mem with
          | Error e -> Error e
          | Ok stats ->
              Format.printf "g1 = %Ld@.%a@."
                regs.(Edge_isa.Conventions.result_reg)
                Edge_sim.Stats.pp stats;
              finish ()))

(* run a `.k` kernel source file under the fuzz-corpus conventions;
   [machine_tag] (the --machine argument, if any) lands in the text
   trace header so traces from different machines are distinguishable *)
let run_kernel path (config_name, config) machine ?machine_tag oopts =
  let ic = open_in_bin path in
  let source = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let name = Filename.remove_extension (Filename.basename path) in
  match Edge_harness.Tracekit.compile_source source config with
  | Error e -> Error e
  | Ok compiled -> (
      match Edge_harness.Tracekit.run_traced ~machine compiled with
      | Error e -> Error e
      | Ok t ->
          let ( let* ) = Result.bind in
          let write path contents =
            match open_out path with
            | oc ->
                output_string oc contents;
                close_out oc;
                Format.printf "wrote %s@." path;
                Ok ()
            | exception Sys_error e -> Error e
          in
          Format.printf "%s/%s@.%a@." name config_name Edge_sim.Stats.pp
            t.Edge_harness.Tracekit.stats;
          let* () =
            match oopts.trace_out with
            | Some p ->
                write p
                  (Edge_obs.Trace.chrome_to_string ~name
                     t.Edge_harness.Tracekit.events)
            | None -> Ok ()
          in
          let* () =
            match oopts.trace_text with
            | Some p ->
                write p
                  (Edge_harness.Tracekit.render ?machine:machine_tag
                     ~kernel:name ~config:config_name t)
            | None -> Ok ()
          in
          if oopts.metrics then
            Format.printf "%a@." Edge_obs.Metrics.pp_summary
              t.Edge_harness.Tracekit.metrics;
          Ok ())

(* --lint: compile-only ineffectuality report.  Findings print as
   ineff[block=... at=... pred=...] lines and nothing is simulated;
   the code the findings describe is left untouched. *)
let run_lint workload config_name =
  let ( let* ) = Result.bind in
  let* _, config = config_of_name config_name in
  let* findings =
    if Filename.check_suffix workload ".k" then begin
      let ic = open_in_bin workload in
      let source = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Edge_harness.Experiment.lint_source source config
    end
    else
      match Edge_workloads.Registry.find workload with
      | Some w -> Edge_harness.Experiment.lint w config
      | None ->
          Error
            (Printf.sprintf "unknown workload %s; available: %s" workload
               (String.concat ", " (Edge_workloads.Registry.names ())))
  in
  List.iter (fun f -> print_endline (Dfp.Opt_ineff.render f)) findings;
  Format.printf "%d finding(s)@." (List.length findings);
  Ok ()

let run workload config_name machine_name functional_only no_early in_order
    no_jit check lint asm_args trace_out trace_text metrics =
  let ( let* ) = Result.bind in
  if no_jit then Edge_sim.Functional.set_jit false;
  if check then Edge_check.Check.set_enabled true;
  let oopts = { trace_out; trace_text; metrics } in
  let machine_of () =
    (* --machine picks the base description (preset name or compact
       key=value line); the ablation flags override on top of it *)
    let* base =
      match machine_name with
      | None -> Ok Edge_sim.Machine.default
      | Some s -> Edge_sim.Machine.of_compact s
    in
    Ok
      {
        base with
        Edge_sim.Machine.early_termination =
          base.Edge_sim.Machine.early_termination && not no_early;
        aggressive_loads =
          base.Edge_sim.Machine.aggressive_loads && not in_order;
      }
  in
  let compute () =
    if lint then run_lint workload config_name
    else
    let* machine = machine_of () in
    if Filename.check_suffix workload ".s" || Filename.check_suffix workload ".img"
    then
      run_asm workload
        (List.filter_map Int64.of_string_opt
           (String.split_on_char ',' asm_args))
        oopts
    else if Filename.check_suffix workload ".k" then
      let* name_config = config_of_name config_name in
      run_kernel workload name_config machine
        ?machine_tag:
          (Option.map (fun _ -> Edge_sim.Machine.name machine) machine_name)
        oopts
    else
    let* w =
      match Edge_workloads.Registry.find workload with
      | Some w -> Ok w
      | None ->
          Error
            (Printf.sprintf "unknown workload %s; available: %s" workload
               (String.concat ", " (Edge_workloads.Registry.names ())))
    in
    let* name_config = config_of_name config_name in
    if functional_only then begin
      let* compiled = Edge_harness.Experiment.compile w (snd name_config) in
      let mem = Edge_isa.Mem.create ~size:w.Edge_workloads.Workload.mem_size in
      let args = w.Edge_workloads.Workload.setup mem in
      let regs = Array.make 128 0L in
      List.iteri
        (fun i v -> regs.(Edge_isa.Conventions.param_reg i) <- v)
        args;
      let* stats =
        Edge_sim.Functional.run compiled.Dfp.Driver.program ~regs ~mem
      in
      Format.printf "returned %Ld@.%a@."
        regs.(Edge_isa.Conventions.result_reg)
        Edge_sim.Stats.pp stats;
      Ok ()
    end
    else begin
      let obs, finish =
        make_obs oopts ~name:(workload ^ "/" ^ fst name_config)
      in
      let* r =
        Edge_harness.Experiment.run_one ~machine ?obs w name_config
      in
      Format.printf "%s/%s: verified against the reference interpreter@."
        r.Edge_harness.Experiment.workload r.Edge_harness.Experiment.config;
      Format.printf "%a@." Edge_sim.Stats.pp r.Edge_harness.Experiment.stats;
      if r.Edge_harness.Experiment.pass_counters <> [] && metrics then begin
        Format.printf "compiler pass counters:@.";
        List.iter
          (fun (k, v) -> Format.printf "  %-36s %10d@." k v)
          r.Edge_harness.Experiment.pass_counters
      end;
      finish ()
    end
  in
  let result = compute () in
  (* a checker diagnostic aborts compilation before anything runs; when
     the user also asked for a trace, recompile with the checker off and
     run that artifact so the offending block's schedule lands next to
     the error (the run still exits nonzero) *)
  let result =
    match result with
    | Error e
      when Edge_check.Check.enabled ()
           && obs_wanted oopts
           && Edge_check.Diag.parse_key e <> None ->
        Format.printf
          "checker diagnostic; capturing the trace with the checker off@.";
        (match Edge_check.Check.without_check compute with
        | Ok () -> ()
        | Error e2 -> Format.printf "trace capture also failed: %s@." e2);
        Error e
    | r -> r
  in
  match result with
  | Ok () -> 0
  | Error e ->
      prerr_endline ("tsim: " ^ e);
      1

let asm_args_arg =
  let doc = "Comma-separated integer arguments for .s programs." in
  Arg.(value & opt string "" & info [ "args" ] ~doc)

let workload_arg =
  let doc =
    "Workload name, a path to a .k kernel source, or a path to a .s \
     assembly / .img binary program."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let config_arg =
  let doc = "Compiler configuration." in
  Arg.(value & opt string "both" & info [ "c"; "config" ] ~doc)

let machine_arg =
  let doc =
    "Machine description: a preset name (trips_grid, inorder_edge), a \
     compact key=value line (e.g. rows=8;cols=8;slots=2), or a preset \
     with overrides (e.g. inorder_edge;window=8). Selects the backend: \
     trips_grid machines run the tiled grid simulator, inorder_edge \
     machines the scalar in-order core."
  in
  Arg.(value & opt (some string) None & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc)

let functional_arg =
  let doc = "Run only the functional (untimed) simulator." in
  Arg.(value & flag & info [ "f"; "functional" ] ~doc)

let no_early_arg =
  let doc = "Disable early mispredication termination (Section 4.3 ablation)." in
  Arg.(value & flag & info [ "no-early-termination" ] ~doc)

let in_order_arg =
  let doc = "In-order memory: loads wait for all older stores." in
  Arg.(value & flag & info [ "in-order-memory" ] ~doc)

let check_arg =
  let doc =
    "Run the per-pass static verifier during compilation (equivalent to \
     DFP_CHECK=1): any invariant violation aborts with a \
     check[pass=... invariant=...] diagnostic. With --trace-out or \
     --trace-text, a failing compile is redone with the checker off so \
     the offending program's trace is captured alongside the error."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let lint_arg =
  let doc =
    "Compile-only ineffectuality report: print one \
     ineff[block=... at=... pred=...] line per instruction the \
     analysis proves can never contribute to a block output, store, or \
     branch (and per droppable guard), without deleting anything or \
     simulating. Works on workload names and .k kernels."
  in
  Arg.(value & flag & info [ "lint" ] ~doc)

let no_jit_arg =
  let doc =
    "Run the functional simulator through the reference token-pushing \
     interpreter instead of the threaded-code JIT (equivalent to \
     DFP_NO_JIT=1). Results are identical either way; use for \
     differential testing of the JIT."
  in
  Arg.(value & flag & info [ "no-jit" ] ~doc)

let trace_out_arg =
  let doc =
    "Write a Chrome trace-event JSON of the cycle-simulator run to \
     $(docv) (viewable in Perfetto or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"PATH" ~doc)

let trace_text_arg =
  let doc =
    "Write the compact deterministic text trace (the golden-test format) \
     to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace-text" ] ~docv:"PATH" ~doc)

let metrics_arg =
  let doc = "Print the derived metrics summary (counters and histograms)." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let cmd =
  let doc = "cycle-level TRIPS-like simulator" in
  Cmd.v
    (Cmd.info "tsim" ~doc)
    Term.(
      const run $ workload_arg $ config_arg $ machine_arg $ functional_arg
      $ no_early_arg $ in_order_arg $ no_jit_arg $ check_arg
      $ lint_arg $ asm_args_arg $ trace_out_arg $ trace_text_arg
      $ metrics_arg)

let () = exit (Cmd.eval' cmd)
