(* The repository benchmark.

   One run drives the whole toolchain from outside, in three phases:

   - serve: a spawned dfpd with a fresh cache directory, primed with a
     hot set, then driven by a closed loop of pipelined batch frames
     (phase A), then restarted on the same directory and fed the hot set
     again (phase B);
   - sweep: the Figure 7 matrix (28 EEMBC-named kernels x 5 paper
     configs x {trips_grid, inorder_edge}) through
     [Experiment.run_one] at -j 1, no result cache, compile and
     reference memos kept;
   - fuzz: a fixed campaign of distinct generated kernels, in the
     seed's order, through [Oracle.check], uncached, checker on.

   The workload picks the size band of the fuzz stream. Every run prints
   every end-to-end metric; [--trace 1] prints the per-layer metrics
   instead, from a run that takes the same steps with a span around each
   call into a layer's public function (NOTES.md has the metric list).

     bench.exe --workload small-kernels --seed 1 --seconds 45 --trace 0

   run from the root of a checkout, after building bin/dfpd.exe; scratch
   files and traces go to perfbench/_out.

   The last stdout line is the result object
   {"correct", "attempted", "failed", "metrics"}. *)

module Experiment = Edge_harness.Experiment
module Workload = Edge_workloads.Workload
module Machine = Edge_sim.Machine
module Stats = Edge_sim.Stats
module Mem = Edge_isa.Mem
module Conv = Edge_isa.Conventions
module Json = Edge_serve.Json
module Client = Edge_serve.Client
module Server = Edge_serve.Server
module Oracle = Edge_fuzz.Oracle
module Gen = Edge_fuzz.Gen

let now = Unix.gettimeofday

exception Failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

let ok_or what = function Ok v -> v | Error e -> failf "%s: %s" what e

(* -- command line ---------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 45
let trace = ref 0
let smoke = ref false
let out_dir = "perfbench/_out"
let dfpd_exe = "_build/default/bin/dfpd.exe"
let host_cores = ref 1
let commit = ref "unknown"
let dirty = ref "unknown"

let bands = [ ("small-kernels", (6, 25)); ("full-range", (6, 45)) ]

let parse_args () =
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME small-kernels | full-range");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length (scales the fuzz and serve work)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--smoke", Arg.Set smoke, " seconds-long sizes (self-test)");
      ("--host-cores", Arg.Set_int host_cores, "N nproc of this host");
      ("--commit", Arg.Set_string commit, "SHA git commit (stamp)");
      ("--dirty", Arg.Set_string dirty, "BOOL dirty tree (stamp)");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem_assoc !workload bands) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end

let note fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* -- statistics ------------------------------------------------------ *)

(* nearest-rank percentile; the callers size their samples so that at
   least ten lie beyond every percentile they report *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let median = percentile 0.5
let sum = List.fold_left ( +. ) 0.

let geomean = function
  | [] -> 1.
  | xs ->
      exp (sum (List.map log xs) /. float_of_int (List.length xs))

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* -- spans ----------------------------------------------------------- *)

(* Spans live in memory and are written out once, at the end. A span
   opened while another is open is its child; every span carries the
   job (experiment, kernel or dfpd job) it belongs to and the phase
   (Chrome pid) it ran in. *)
type span = {
  sid : int;
  name : string;
  job : string;
  pid : int;
  parent : int;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let next_sid = ref 0
let cur_parent = ref 0
let cur_job = ref ""
let cur_pid = ref 0

let span ?job name f =
  if not !tracing then f ()
  else begin
    incr next_sid;
    let sid = !next_sid and parent = !cur_parent and outer_job = !cur_job in
    let job = Option.value job ~default:outer_job in
    cur_parent := sid;
    cur_job := job;
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now () in
        cur_parent := parent;
        cur_job := outer_job;
        spans := { sid; name; job; pid = !cur_pid; parent; t0; t1 } :: !spans)
  end

let phases = [ (1, "sweep"); (2, "fuzz"); (3, "serve") ]

(* -- processes ------------------------------------------------------- *)

let children : int list ref = ref []

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  children := List.filter (( <> ) pid) !children

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !children

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> go ()
      in
      let v = go () in
      close_in ic;
      v

(* -- the experiment matrix (sweep phase) ----------------------------- *)

let machines = [ ("grid", Machine.default); ("inorder", Machine.inorder_edge) ]

type experiment = {
  w : Workload.t;
  cname : string;
  config : Dfp.Config.t;
  mname : string;
  machine : Machine.t;
}

let exp_name e = Printf.sprintf "%s/%s/%s" e.w.Workload.name e.cname e.mname

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let matrix () =
  let kernels =
    if !smoke then List.filteri (fun i _ -> i < 2) Edge_workloads.Registry.eembc
    else Edge_workloads.Registry.eembc
  in
  List.concat_map
    (fun w ->
      List.concat_map
        (fun (cname, config) ->
          List.map (fun (mname, machine) -> { w; cname; config; mname; machine }) machines)
        Dfp.Config.all_paper_configs)
    kernels
  |> Array.of_list

(* the kernel set is the paper's suite: the seed only sets the order *)
let sweep_order canonical =
  let a = Array.copy canonical in
  shuffle (Random.State.make [| !seed; 7 |]) a;
  a

(* The traced steps' memos and the per-layer counts they fill. The
   determinism recheck swaps in a fresh one, so its reruns compile
   afresh and leave the run's own counts alone. *)
type tally = {
  refs : (string, int64 * Mem.t) Hashtbl.t;  (** reference run per kernel *)
  comps : (string * string, Dfp.Driver.compiled) Hashtbl.t;  (** per (kernel, config) *)
  mutable compiles : int;
  mutable static_instrs : int;
  mutable static_blocks : int;
  mutable fanout_moves : int;
  pass_totals : (string, int) Hashtbl.t;
  mutable fsim_instrs : int;
  mutable grid_cycles : int;
  mutable grid_committed : int;
  mutable grid_executed : int;
  mutable inorder_cycles : int;
  mutable blocks_beyond_width : int;
  mutable check_overheads : float list;
}

let fresh_tally () =
  {
    refs = Hashtbl.create 32;
    comps = Hashtbl.create 160;
    compiles = 0;
    static_instrs = 0;
    static_blocks = 0;
    fanout_moves = 0;
    pass_totals = Hashtbl.create 16;
    fsim_instrs = 0;
    grid_cycles = 0;
    grid_committed = 0;
    grid_executed = 0;
    inorder_cycles = 0;
    blocks_beyond_width = 0;
    check_overheads = [];
  }

let tl = ref (fresh_tally ())

let pass_total t n = Option.value ~default:0 (Hashtbl.find_opt t.pass_totals n)

(* the exact counts of a tally, for the determinism recheck *)
let tally_counts t =
  Printf.sprintf
    "compiles=%d static_instrs=%d static_blocks=%d fanout=%d fsim_instrs=%d grid_cycles=%d \
     committed=%d executed=%d inorder_cycles=%d beyond=%d passes=%s"
    t.compiles t.static_instrs t.static_blocks t.fanout_moves t.fsim_instrs t.grid_cycles
    t.grid_committed t.grid_executed t.inorder_cycles t.blocks_beyond_width
    (String.concat ","
       (List.map
          (fun p -> string_of_int (pass_total t (Dfp.Pass_id.name p)))
          Dfp.Pass_id.all))

let tally_compile (c : Dfp.Driver.compiled) =
  let t = !tl in
  t.compiles <- t.compiles + 1;
  t.static_instrs <- t.static_instrs + c.Dfp.Driver.static_instrs;
  t.static_blocks <- t.static_blocks + c.Dfp.Driver.static_blocks;
  t.fanout_moves <- t.fanout_moves + c.Dfp.Driver.static_fanout_moves;
  List.iter
    (fun (k, v) ->
      match Dfp.Pass_id.of_counter k with
      | Some p ->
          let n = Dfp.Pass_id.name p in
          Hashtbl.replace t.pass_totals n (v + pass_total t n)
      | None -> ())
    c.Dfp.Driver.pass_counters

let fsim program ~regs ~mem =
  let s =
    span "edge_sim.fsim" (fun () -> Edge_sim.Functional.run program ~regs ~mem)
  in
  Result.iter
    (fun (s : Stats.t) -> !tl.fsim_instrs <- !tl.fsim_instrs + s.Stats.instrs_executed)
    s;
  s

(* the timed backend run, dispatched the way [Edge_sim.Backend] does *)
let cycle_run ~machine ~placement program ~regs ~mem =
  match machine.Machine.backend with
  | Machine.Trips_grid ->
      let s =
        span "edge_sim.grid" (fun () ->
            Edge_sim.Cycle_sim.run ~machine ~placement program ~regs ~mem)
      in
      Result.iter
        (fun (s : Stats.t) ->
          let t = !tl in
          t.grid_cycles <- t.grid_cycles + s.Stats.cycles;
          t.grid_committed <- t.grid_committed + s.Stats.blocks_committed;
          t.grid_executed <- t.grid_executed + s.Stats.blocks_executed)
        s;
      s
  | Machine.Inorder_edge ->
      let s =
        span "edge_sim.inorder" (fun () ->
            Edge_sim.Inorder_sim.run ~machine program ~regs ~mem)
      in
      Result.iter
        (fun (s : Stats.t) -> !tl.inorder_cycles <- !tl.inorder_cycles + s.Stats.cycles)
        s;
      s

let grid_placement (c : Dfp.Driver.compiled) n =
  match List.assoc_opt n c.Dfp.Driver.placements with Some p -> p | None -> [||]

(* The steps of [Experiment.run_one] (reference interpreter once per
   kernel, compile once per (kernel, config), functional check, timed
   backend run, both verified), each wrapped in its layer's span. *)
let traced_sweep (exps : experiment array) =
  let { refs; comps; _ } = !tl in
  Array.map
    (fun e ->
      let w = e.w in
      let name = exp_name e in
      span ~job:name "experiment" (fun () ->
          match
            let reference, ref_mem =
              match Hashtbl.find_opt refs w.Workload.name with
              | Some r -> r
              | None ->
                  let ast =
                    ok_or "parse" (span "edge_lang.parse" (fun () -> Workload.parse w))
                  in
                  let mem = Mem.create ~size:w.Workload.mem_size in
                  let args = w.Workload.setup mem in
                  let o =
                    ok_or "interp"
                      (span "edge_lang.interp" (fun () ->
                           Edge_lang.Interp.run ast ~args ~mem))
                  in
                  let r =
                    (Option.value ~default:0L o.Edge_lang.Interp.return_value, mem)
                  in
                  Hashtbl.replace refs w.Workload.name r;
                  r
            in
            let compiled =
              match Hashtbl.find_opt comps (w.Workload.name, e.cname) with
              | Some c -> c
              | None ->
                  let ast =
                    ok_or "parse" (span "edge_lang.parse" (fun () -> Workload.parse w))
                  in
                  let cfg =
                    ok_or "lower"
                      (span "edge_lang.lower" (fun () -> Edge_lang.Lower.lower ast))
                  in
                  let c =
                    ok_or "compile"
                      (span "dfp.compile" (fun () ->
                           Dfp.Driver.compile_cfg cfg e.config))
                  in
                  tally_compile c;
                  Hashtbl.replace comps (w.Workload.name, e.cname) c;
                  c
            in
            let program = compiled.Dfp.Driver.program in
            let verify what regs mem =
              if
                not
                  (Int64.equal regs.(Conv.result_reg) reference
                  && Mem.equal mem ref_mem)
              then failf "%s mismatch" what
            in
            let regs, mem = Experiment.setup_run w in
            ignore (ok_or "functional" (fsim program ~regs ~mem));
            verify "functional" regs mem;
            let regs, mem = Experiment.setup_run w in
            let stats =
              ok_or "cycle"
                (cycle_run ~machine:e.machine ~placement:(grid_placement compiled)
                   program ~regs ~mem)
            in
            verify "cycle" regs mem;
            {
              Experiment.workload = w.Workload.name;
              config = e.cname;
              cycles = stats.Stats.cycles;
              ret = reference;
              stats;
              static_instrs = compiled.Dfp.Driver.static_instrs;
              static_blocks = compiled.Dfp.Driver.static_blocks;
              static_fanout_moves = compiled.Dfp.Driver.static_fanout_moves;
              explicit_predicates = compiled.Dfp.Driver.explicit_predicates;
              pass_counters = compiled.Dfp.Driver.pass_counters;
              compile_s = 0.;
              sim_s = 0.;
            }
          with
          | o -> Ok o
          | exception Failed m -> Error (name ^ ": " ^ m)))
    exps

let untraced_sweep (exps : experiment array) =
  Array.map
    (fun e ->
      match Experiment.run_one ~machine:e.machine e.w (e.cname, e.config) with
      | Ok r -> Ok r
      | Error m -> Error (exp_name e ^ ": " ^ m)
      | exception ex -> Error (exp_name e ^ ": " ^ Printexc.to_string ex))
    exps

(* speedup of Both over Hyper per kernel, geometric mean per backend *)
let geomean_both (exps : experiment array) (outs : (Experiment.run, string) result array)
    mname =
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i e ->
      match outs.(i) with
      | Ok o when e.mname = mname ->
          Hashtbl.replace tbl (e.w.Workload.name, e.cname) o.Experiment.cycles
      | _ -> ())
    exps;
  let kernels =
    List.sort_uniq compare
      (Array.to_list (Array.map (fun e -> e.w.Workload.name) exps))
  in
  geomean
    (List.filter_map
       (fun k ->
         match (Hashtbl.find_opt tbl (k, "Hyper"), Hashtbl.find_opt tbl (k, "Both")) with
         | Some h, Some b when b > 0 -> Some (float_of_int h /. float_of_int b)
         | _ -> None)
       kernels)

(* cycle drift against the committed BENCH_fig7.json, per (kernel,
   config) and backend: information only, never a failure *)
let fig7_ref = "BENCH_fig7.json"

let report_drift (exps : experiment array) (outs : (Experiment.run, string) result array) =
  match In_channel.with_open_bin fig7_ref In_channel.input_all with
  | exception Sys_error _ -> note "drift: %s not readable, skipped" fig7_ref
  | text -> (
      match Json.parse text with
      | Error e -> note "drift: %s: %s" fig7_ref e
      | Ok doc ->
          let committed mname =
            let benches =
              if mname = "grid" then Json.member "benches" doc
              else
                Option.bind (Json.member "backends" doc) (fun b ->
                    Option.bind (Json.member "inorder_edge" b) (Json.member "benches"))
            in
            match benches with Some (Json.Arr l) -> l | _ -> []
          in
          let drifted = ref 0 and compared = ref 0 in
          Array.iteri
            (fun i e ->
              match outs.(i) with
              | Error _ -> ()
              | Ok o -> (
                  let row =
                    List.find_opt
                      (fun r -> Json.str_member "bench" r = Some e.w.Workload.name)
                      (committed e.mname)
                  in
                  match
                    Option.bind row (fun r ->
                        Option.bind (Json.member "cycles" r) (Json.int_member e.cname))
                  with
                  | None -> ()
                  | Some c ->
                      incr compared;
                      if c <> o.Experiment.cycles then begin
                        incr drifted;
                        note "drift: %s committed %d now %d (%+d)" (exp_name e) c
                          o.cycles (o.cycles - c)
                      end))
            exps;
          note "drift: %d of %d (kernel, config, backend) cycle counts differ from %s"
            !drifted !compared fig7_ref)

(* -- generated kernels (fuzz phase and dfpd source jobs) -------------- *)

let band () = List.assoc !workload bands

(* Generator seeds are distinct per stream and per campaign (by default
   the run seed), so the fuzz stream and the dfpd sources never share a
   kernel. Sizes cycle through the band, as in a fuzz campaign, so the
   campaign changes the kernels but not their size mix. *)
let gen_kernels ?band:(lo, hi = band ()) ?(campaign = !seed) ~stream n =
  List.init n (fun i ->
      let kseed = (stream * 100_000_000) + (campaign * 100_003) + i in
      let size = Gen.size_for ~min_size:lo ~max_size:hi i in
      (kseed, size, Gen.generate ~seed:kseed ~size))

(* The steps of [Oracle.check] with the checker on, each wrapped in its
   layer's span. With [~baseline] every config is also compiled from the
   same CFG copy without the checker; the difference is the checker's
   cost. *)
let traced_kernel ~baseline (ast : Edge_lang.Ast.kernel) =
  let reference =
    match span "edge_lang.interp" (fun () -> Oracle.run_reference ast) with
    | Ok r -> r
    | Error f -> failf "reference: %s" f.Oracle.message
  in
  List.fold_left
    (fun skipped (cname, config) ->
      let cfg =
        ok_or "lower" (span "edge_lang.lower" (fun () -> Edge_lang.Lower.lower ast))
      in
      let base = Edge_ir.Cfg.copy cfg in
      let compile ~check name cfg =
        let t0 = now () in
        let r =
          span name (fun () ->
              try Dfp.Driver.compile_cfg ~check cfg config
              with Dfp.Opt_ineff.Breach m -> Error m)
        in
        (ok_or (cname ^ " compile") r, now () -. t0)
      in
      let compiled, checked_s = compile ~check:true "dfp.compile" cfg in
      tally_compile compiled;
      if baseline then begin
        let _, unchecked_s = compile ~check:false "edge_check.baseline_compile" base in
        !tl.check_overheads <- (checked_s -. unchecked_s) :: !tl.check_overheads
      end;
      let program = compiled.Dfp.Driver.program in
      let beyond =
        match
          span "edge_fuzz.validate" (fun () -> Edge_fuzz.Validate.program program)
        with
        | Ok n -> n
        | Error es -> failf "%s validator: %s" cname (String.concat "; " es)
      in
      !tl.blocks_beyond_width <- !tl.blocks_beyond_width + beyond;
      (* the oracle's verdict: same outcome as the reference interpreter *)
      let against what run =
        let regs = Oracle.prep_regs () and mem = Gen.default_mem () in
        let r =
          match run ~regs ~mem with
          | Ok _ ->
              {
                Oracle.ret = regs.(Conv.result_reg);
                mem;
                stores = Mem.store_count mem;
                fault = false;
              }
          | Error e when Oracle.is_fault e ->
              { Oracle.ret = 0L; mem; stores = 0; fault = true }
          | Error e -> failf "%s %s: %s" cname what e
        in
        if not (Oracle.agree reference r) then failf "%s %s mismatch" cname what
      in
      against "functional" (fsim program);
      against "cycle"
        (cycle_run ~machine:Machine.default ~placement:(grid_placement compiled)
           program);
      skipped + beyond)
    0 Oracle.configs

type kernel_result = { kname : string; latency : float; verdict : (int, string) result }

let kernel_name (kseed, size, _) = Printf.sprintf "gen-%d-size%d" kseed size

let untraced_fuzz kernels =
  List.map
    (fun ((_, _, ast) as k) ->
      let t0 = now () in
      let verdict =
        match Oracle.check ast with
        | Ok n -> Ok n
        | Error f ->
            Error
              (Printf.sprintf "%s %s: %s" f.Oracle.config
                 (Oracle.kind_name f.Oracle.kind) f.Oracle.message)
        | exception Oracle.Skip -> Error "reference interpreter out of fuel"
      in
      { kname = kernel_name k; latency = now () -. t0; verdict })
    kernels

(* with [~baseline] the checker baseline is compiled for the kernels
   whose generator seed is a multiple of 4 *)
let traced_fuzz ~baseline kernels =
  List.map
    (fun ((kseed, _, ast) as k) ->
      let kname = kernel_name k in
      let t0 = now () in
      let verdict =
        span ~job:kname "kernel" (fun () ->
            match traced_kernel ~baseline:(baseline && kseed mod 4 = 0) ast with
            | n -> Ok n
            | exception Failed m -> Error m
            | exception Oracle.Skip -> Error "reference interpreter out of fuel")
      in
      { kname; latency = now () -. t0; verdict })
    kernels

(* -- dfpd (serve phase) ------------------------------------------------ *)

type server = { spid : int; sock : string; client : Client.t }

let server_seq = ref 0

let rpc s op =
  match Client.rpc s.client (Json.Obj [ ("op", Json.Str op) ]) with
  | Ok v -> v
  | Error e -> failf "dfpd %s: %s" op e

(* spawn dfpd and wait until it answers a ping; at most nproc - 1
   workers, so the server and this client fit the host's cores *)
let spawn_server ~cache_dir =
  incr server_seq;
  let sock = Filename.concat out_dir (Printf.sprintf "d%d.sock" !server_seq) in
  (try Sys.remove sock with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let args =
    [|
      dfpd_exe; "--socket"; sock; "-j"; string_of_int (max 1 (!host_cores - 1));
      "--cache-dir"; cache_dir; "--quiet";
    |]
  in
  let spid = Unix.create_process dfpd_exe args devnull devnull Unix.stderr in
  Unix.close devnull;
  children := spid :: !children;
  let deadline = now () +. 30. in
  let rec connect () =
    match Client.connect sock with
    | c -> c
    | exception Unix.Unix_error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] spid with
        | 0, _ -> ()
        | _ ->
            children := List.filter (( <> ) spid) !children;
            failf "dfpd exited before listening");
        if now () > deadline then failf "dfpd not listening after 30 s";
        (* fine-grained, so the poll adds little to spawn-to-ready *)
        Unix.sleepf 0.0002;
        connect ()
  in
  let s = { spid; sock; client = connect () } in
  if Json.str_member "type" (rpc s "ping") <> Some "pong" then
    failf "dfpd did not answer ping";
  s

let stop_server s =
  ignore (rpc s "shutdown");
  Client.close s.client;
  reap s.spid

(* a set-up server holds nothing worth a graceful drain *)
let kill_server s =
  Client.close s.client;
  (try Unix.kill s.spid Sys.sigkill with Unix.Unix_error _ -> ());
  reap s.spid;
  try Sys.remove s.sock with Sys_error _ -> ()

type job = {
  jname : string;
  fields : (string * Json.t) list;
  expect : unit -> string;  (** in-process [run_one] digest, computed after the window *)
}

type completion = {
  jidx : int;
  latency : float;
  accept_wait : float option;
  exec : float option;
  warm : bool;
  digest : string;
  error : string option;
}

(* Closed loop over one connection: [window] jobs outstanding, each
   completion refilled by one batch frame. Two outstanding jobs keep a
   miss from queueing behind more than one other, so miss latency is
   service time rather than closed-loop queueing. In traced runs a stats
   probe every 64 completions samples the server's queue depth. *)
let closed_loop ?(window = 2) s (jobs : job array) (stream : int array)
    ~(depth_samples : int list ref) =
  let n = Array.length stream in
  let next = ref 0 and completed = ref 0 and probes = ref 0 in
  let outstanding = Hashtbl.create 32 in
  let out = ref [] in
  let send_frame k =
    let k = min k (n - !next) in
    if k > 0 then begin
      let idxs = List.init k (fun i -> stream.(!next + i)) in
      next := !next + k;
      let t = now () in
      let ids =
        span "serve.send" (fun () ->
            Client.submit_batch s.client (List.map (fun i -> jobs.(i).fields) idxs))
      in
      List.iter2 (fun id i -> Hashtbl.replace outstanding id (i, t, ref None)) ids idxs
    end
  in
  send_frame window;
  while Hashtbl.length outstanding > 0 || !probes > 0 do
    let line = span "serve.wait" (fun () -> Client.recv s.client) in
    let t = now () in
    match line with
    | None -> failf "dfpd closed the connection"
    | Some (Error e) -> failf "unparseable dfpd response: %s" e
    | Some (Ok v) -> (
        let find () =
          match Option.bind (Json.str_member "id" v) (Hashtbl.find_opt outstanding) with
          | Some x -> x
          | None -> failf "dfpd response for an unknown id: %s" (Json.to_string v)
        in
        match Json.str_member "type" v with
        | Some "stats" ->
            decr probes;
            depth_samples :=
              Option.value ~default:0 (Json.int_member "queue_depth" v) :: !depth_samples
        | Some "accepted" -> (
            (* a batch's verdicts are flushed after the whole frame is
               read, so a fast worker's done can overtake its accepted *)
            match Option.bind (Json.str_member "id" v) (Hashtbl.find_opt outstanding) with
            | Some (_, _, acc) -> acc := Some t
            | None -> ())
        | Some (("done" | "error" | "rejected") as ty) ->
            let jidx, t_send, acc = find () in
            Hashtbl.remove outstanding (Option.get (Json.str_member "id" v));
            out :=
              {
                jidx;
                latency = t -. t_send;
                accept_wait = Option.map (fun a -> a -. t_send) !acc;
                exec = Option.map (fun a -> t -. a) !acc;
                warm = Json.bool_member "warm" v = Some true;
                digest = Option.value ~default:"" (Json.str_member "run_digest" v);
                error =
                  (if ty = "done" then None
                   else
                     Some
                       (Printf.sprintf "%s: %s" ty
                          (Option.value ~default:"" (Json.str_member "message" v))));
              }
              :: !out;
            incr completed;
            if !tracing && !completed mod 64 = 0 then begin
              incr probes;
              Client.send s.client (Json.Obj [ ("op", Json.Str "stats") ])
            end;
            send_frame 1
        | _ -> ())
  done;
  List.rev !out

let zipf_sampler st n =
  let cum = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cum.(r) <- !acc
  done;
  fun () ->
    let u = Random.State.float st !acc in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cum.(mid) < u then find (mid + 1) hi else find lo mid
    in
    find 0 (n - 1)

(* dfpd's generated sources are 6-25 in both workloads: a miss must stay
   cheap enough that phase A holds thousands of jobs *)
let serve_band = (6, 25)

let serve_inputs ~sweep_runs (exps : experiment array) =
  let d = Server.default_config ~socket_path:"" () in
  let source_job i (kseed, _, ast) =
    let source = Edge_fuzz.Pretty.kernel_to_string ast in
    let cname, config = List.nth Oracle.configs (i mod List.length Oracle.configs) in
    {
      jname = Printf.sprintf "src-%d/%s" kseed cname;
      fields = Client.source_job ~source ~config:cname ();
      expect =
        (fun () ->
          match
            Experiment.run_one
              ~machine:{ Machine.default with Machine.max_cycles = d.Server.max_cycles }
              ~interp_fuel:d.Server.interp_fuel (Server.workload_of_source source)
              (cname, config)
          with
          | Ok r -> Server.run_digest r
          | Error e -> "in-process run failed: " ^ e);
    }
  in
  let registry_job e =
    {
      jname = exp_name e;
      fields =
        Client.workload_job
          ?machine:(if e.mname = "inorder" then Some "inorder_edge" else None)
          ~workload:e.w.Workload.name ~config:e.cname ();
      expect =
        (fun () ->
          match Hashtbl.find_opt sweep_runs (exp_name e) with
          | Some r -> Server.run_digest r
          | None -> "no sweep run");
    }
  in
  (* The hot set's composition is fixed, so its first touches cost the
     same for every seed: registry job j is kernel j under paper config
     j mod 5 on backend j mod 2. The seed sets the popularity ranks and
     the generated sources. *)
  let n_reg = if !smoke then 6 else 16 and n_src = if !smoke then 4 else 16 in
  let n_exps = Array.length exps in
  let hot =
    Array.append
      (Array.init n_reg (fun j ->
           registry_job exps.(((j * 10) + (j mod 5 * 2) + (j mod 2)) mod n_exps)))
      (Array.of_list (List.mapi source_job (gen_kernels ~band:serve_band ~stream:3 n_src)))
  in
  let st = Random.State.make [| !seed; 11 |] in
  shuffle st hot;
  let n_a = if !smoke then 60 else max 2000 (!seconds * 2000 / 45) in
  let n_fresh = n_a / 10 in
  let fresh = Array.of_list (List.mapi source_job (gen_kernels ~band:serve_band ~stream:4 n_fresh)) in
  (* every tenth job is first-time, so misses never cluster by chance *)
  let first_time = Array.init n_a (fun i -> i mod 10 = 9) in
  let n_hot = Array.length hot in
  let zipf = zipf_sampler st n_hot in
  let used = ref 0 in
  let stream =
    Array.map
      (fun fresh_here ->
        if fresh_here then begin
          incr used;
          n_hot + !used - 1
        end
        else zipf ())
      first_time
  in
  (Array.append hot fresh, stream, Array.init n_hot Fun.id)

(* The serve phase in pieces, so the run can interleave them with the
   sweep and fuzz slices. A priming server computes the hot set once and
   drains it to disk; the phase-A server then loads it from disk into
   memory. Both happen before any window opens, so phase A's misses are
   exactly its first-time jobs, and every phase-B restart finds the hot
   set on disk. *)
type serve = {
  jobs : job array;
  replay : int array;
  dir : string;
  a : server;
  prime : completion list;
  depth : int list ref;
}

let serve_open (jobs, _, replay) =
  let dir = Filename.concat out_dir (Printf.sprintf "cache-%d" (Unix.getpid ())) in
  rm_rf dir;
  let fill name =
    let s = span "serve.spawn" (fun () -> spawn_server ~cache_dir:dir) in
    (s, span ~job:name "serve.prime" (fun () -> closed_loop s jobs replay ~depth_samples:(ref [])))
  in
  let p, computed = fill "dfpd prime" in
  span "serve.stop" (fun () -> stop_server p);
  let a, loaded = fill "dfpd phase A" in
  { jobs; replay; dir; a; prime = computed @ loaded; depth = ref [] }

(* Phase B: a fresh dfpd on the same directory, memory cold and disk
   warm, replays the hot set with one job outstanding. It runs before
   the sweep and fuzz slices grow this process's heap: sub-millisecond
   round trips are the first thing the client's own GC would disturb. *)
let serve_restart sv =
  let b = span "serve.spawn" (fun () -> spawn_server ~cache_dir:sv.dir) in
  let phase_b =
    span ~job:"dfpd phase B" "serve.phase_b" (fun () ->
        closed_loop ~window:1 b sv.jobs sv.replay ~depth_samples:sv.depth)
  in
  let stats_b = span "serve.stats" (fun () -> rpc b "stats") in
  span "serve.stop" (fun () -> stop_server b);
  (phase_b, stats_b)

(* one stretch of phase A *)
let serve_slice sv part =
  let t0 = now () in
  let phase_a =
    span ~job:"dfpd phase A" "serve.phase_a" (fun () ->
        closed_loop sv.a sv.jobs part ~depth_samples:sv.depth)
  in
  (phase_a, now () -. t0)

(* the phase-A server's stats and peak RSS, then its shutdown *)
let serve_close sv =
  let stats_a = span "serve.stats" (fun () -> rpc sv.a "stats") in
  let rss = peak_rss_mb sv.a.spid in
  span "serve.stop" (fun () -> stop_server sv.a);
  rm_rf sv.dir;
  (stats_a, rss)

(* -- traced-run accounting and the Chrome trace ----------------------- *)

let layer_spans =
  [
    "edge_lang.parse"; "edge_lang.lower"; "edge_lang.interp"; "dfp.compile";
    "edge_fuzz.validate"; "edge_sim.fsim"; "edge_sim.grid"; "edge_sim.inorder";
    "serve.spawn"; "serve.send"; "serve.wait"; "serve.stats"; "serve.stop";
  ]

let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None)
    !spans

(* self time: a span's duration minus what its children cover *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace child s.parent
        (s.t1 -. s.t0 +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  fun s -> s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.sid)

(* what recording one span costs: the tracing overhead of a phase is
   its span count times this *)
let span_cost_s () =
  let saved = (!spans, !next_sid) and n = 20_000 in
  tracing := true;
  let t0 = now () in
  for _ = 1 to n do
    span "calibrate" ignore
  done;
  let dt = now () -. t0 in
  tracing := false;
  spans := fst saved;
  next_sid := snd saved;
  dt /. float_of_int n

let json_str s = Json.to_string (Json.Str s)

let write_chrome path ~stamp =
  let self = self_times () in
  let t_base =
    List.fold_left (fun a s -> Float.min a s.t0) infinity !spans
  in
  let b = Buffer.create (1 lsl 20) in
  let first = ref true in
  let item s =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b s
  in
  Buffer.add_string b "{\"traceEvents\": [\n";
  List.iter
    (fun (pid, name) ->
      item
        (Printf.sprintf
           "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \"tid\": 1, \
            \"args\": {\"name\": %s}}"
           pid (json_str name)))
    phases;
  List.iter
    (fun s ->
      item
        (Printf.sprintf
           "{\"name\": %s, \"ph\": \"X\", \"pid\": %d, \"tid\": 1, \"ts\": %.3f, \
            \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"job\": %s, \
            \"self_us\": %.3f}}"
           (json_str s.name) s.pid
           ((s.t0 -. t_base) *. 1e6)
           ((s.t1 -. s.t0) *. 1e6)
           s.sid s.parent (json_str s.job)
           (self s *. 1e6)))
    (List.rev !spans);
  Buffer.add_string b "\n],\n\"otherData\": ";
  Buffer.add_string b stamp;
  Buffer.add_string b "}\n";
  let text = Buffer.contents b in
  (match Edge_obs.Json_lint.check text with
  | Ok () -> ()
  | Error e -> failf "trace JSON invalid at byte %d: %s" e.Edge_obs.Json_lint.offset e.message);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
  note "wrote %s (%d spans)" path (List.length !spans)

(* -- the run ----------------------------------------------------------- *)

let () =
  parse_args ();
  at_exit kill_children;
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let stamp =
    Printf.sprintf
      "{\"host_cores\": %d, \"ocaml\": %s, \"commit\": %s, \"dirty\": %s, \
       \"workload\": %s, \"seed\": %d, \"trace\": %d}"
      !host_cores (json_str Sys.ocaml_version) (json_str !commit) (json_str !dirty)
      (json_str !workload) !seed !trace
  in
  (* the fuzz phase runs with the enumerator re-proving every
     ineffectuality plan, as `fuzz` does; the sweep and the in-process
     digest runs without, as `bench fig7` and the server's callers do *)
  let ineff_hook = !Dfp.Opt_ineff.cross_validate in
  Dfp.Opt_ineff.cross_validate := None;
  Edge_check.Check.set_enabled false;
  let failures = ref [] in
  let fail what m = failures := (what ^ ": " ^ m) :: !failures in
  let checks = ref [] in
  let checked name n = checks := (name, n) :: !checks in
  (* every input of the run, generated once *)
  let n_fuzz = if !smoke then 6 else max 100 (!seconds * 100 / 45) in
  let canonical = matrix () in
  let exps = sweep_order canonical in
  (* The fuzz kernels are one fixed campaign per workload, as the
     sweep's kernels are the paper's suite: the seed sets their order.
     A seed that drew its own kernels would move the fuzz figures by
     which kernels it drew, more than by how fast they ran. *)
  let campaign = gen_kernels ~campaign:1 ~stream:2 n_fuzz in
  let kernels = Array.of_list campaign in
  shuffle (Random.State.make [| !seed; 13 |]) kernels;
  let sweep_runs = Hashtbl.create 300 in
  let ((jobs, stream, _) as inputs) = serve_inputs ~sweep_runs canonical in
  (* set-up: a fresh dfpd from spawn to its first answered ping. The
     trials come in batches, one before each slice, so their median
     averages the host over the whole run; the very first trial warms
     the page cache and is discarded. *)
  let setup_dir = Filename.concat out_dir (Printf.sprintf "setup-%d" (Unix.getpid ())) in
  let setup_trials = ref [] in
  let setup n =
    for _ = 1 to n do
      rm_rf setup_dir;
      let t0 = now () in
      let s = spawn_server ~cache_dir:setup_dir in
      setup_trials := (now () -. t0) :: !setup_trials;
      kill_server s
    done;
    rm_rf setup_dir
  in
  setup 1;
  setup_trials := [];
  (* Each phase runs once: through the production entry points with
     tracing off, or through the traced steps with it on. *)
  let phase_walls = Hashtbl.create 3 in
  let phase pid name f =
    cur_pid := pid;
    tracing := !trace = 1;
    let t0 = now () in
    let v = f () in
    let wall = now () -. t0 in
    tracing := false;
    Hashtbl.replace phase_walls name
      (wall +. Option.value ~default:0. (Hashtbl.find_opt phase_walls name));
    v
  in
  let with_ineff f =
    Dfp.Opt_ineff.cross_validate := ineff_hook;
    Fun.protect f ~finally:(fun () -> Dfp.Opt_ineff.cross_validate := None)
  in
  (* Phase A, the sweep and the fuzz stream run in alternating slices,
     so each one's figures average the host over the whole run rather
     than over one stretch of it. The registry jobs' expected digests
     come from the sweep, after every window. *)
  let slices = if !smoke then 2 else 4 in
  let slice a k =
    let n = Array.length a in
    Array.sub a (k * n / slices) (((k + 1) * n / slices) - (k * n / slices))
  in
  let sv = phase 3 "serve" (fun () -> serve_open inputs) in
  let restarts = List.init slices (fun _ -> phase 3 "serve" (fun () -> serve_restart sv)) in
  let parts =
    List.init slices (fun k ->
        setup (if !smoke then 2 else 20);
        let serve_part = phase 3 "serve" (fun () -> serve_slice sv (slice stream k)) in
        let sweep_part =
          phase 1 "sweep" (fun () ->
              let part = slice exps k in
              if !trace = 1 then traced_sweep part else untraced_sweep part)
        in
        let fuzz_part =
          phase 2 "fuzz" (fun () ->
              let part = Array.to_list (slice kernels k) in
              with_ineff (fun () ->
                  if !trace = 1 then traced_fuzz ~baseline:true part else untraced_fuzz part))
        in
        (serve_part, sweep_part, fuzz_part))
  in
  let stats_a, server_rss_mb = phase 3 "serve" (fun () -> serve_close sv) in
  let setup_s = median !setup_trials in
  note "set-up: %d trials, min %.2f ms, median %.2f ms, max %.2f ms" (List.length !setup_trials)
    (1000. *. List.fold_left Float.min infinity !setup_trials) (1000. *. setup_s)
    (1000. *. List.fold_left Float.max 0. !setup_trials);
  let phase_a = List.concat_map (fun ((a, _), _, _) -> a) parts
  and phase_a_s = sum (List.map (fun ((_, t), _, _) -> t) parts)
  and phase_b = List.concat_map fst restarts
  and server_stats = stats_a :: List.map snd restarts in
  let sweep = Array.concat (List.map (fun (_, s, _) -> s) parts)
  and fuzz = List.concat_map (fun (_, _, f) -> f) parts in
  let sweep_s = Hashtbl.find phase_walls "sweep"
  and fuzz_s = Hashtbl.find phase_walls "fuzz" in
  Array.iteri
    (fun i e ->
      match sweep.(i) with
      | Ok r -> Hashtbl.replace sweep_runs (exp_name e) r
      | Error m -> fail "sweep" m)
    exps;
  checked "sweep experiments verified" (Hashtbl.length sweep_runs);
  report_drift exps sweep;
  List.iter
    (fun k -> match k.verdict with Error m -> fail k.kname m | Ok _ -> ())
    fuzz;
  checked "fuzz kernels clean"
    (List.length (List.filter (fun k -> Result.is_ok k.verdict) fuzz));
  (* Determinism, inside the run and after every window: a fixed share
     of the run is done three more times. The share is the ten sweep
     experiments of the suite's first kernel and the campaign's first
     (smallest) fuzz kernels. The first rerun goes through [run_one] and [Oracle.check];
     the other two go through the traced steps, each with a fresh tally,
     so every compile is redone. The exact counts of the run and of the
     three reruns must agree, and so must the two traced reruns'
     per-layer counts (compiles, static counts, pass counters, fsim
     instructions, simulated cycles). *)
  let recheck_kernel = canonical.(0).w.Workload.name in
  let in_recheck e = e.w.Workload.name = recheck_kernel in
  let sub_exps = List.filter in_recheck (Array.to_list exps) |> Array.of_list
  and sub_main =
    List.filteri (fun i _ -> in_recheck exps.(i)) (Array.to_list sweep) |> Array.of_list
  and n_sub_kernels = if !smoke then 2 else 4 in
  let sub_kernels = List.filteri (fun i _ -> i < n_sub_kernels) campaign in
  let exact_counts outs fuzz =
    let b = Buffer.create 4096 in
    Array.iteri
      (fun i e ->
        match outs.(i) with
        | Ok (o : Experiment.run) ->
            Printf.bprintf b
              "%s cycles=%d ret=%Ld static=%d blocks=%d fanout=%d committed=%d executed=%d %s\n"
              (exp_name e) o.cycles o.ret o.static_instrs o.static_blocks o.static_fanout_moves
              o.stats.Stats.blocks_committed o.stats.Stats.blocks_executed
              (String.concat ","
                 (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) o.pass_counters))
        | Error _ -> Printf.bprintf b "%s error\n" (exp_name e))
      sub_exps;
    List.iter
      (fun k ->
        match k.verdict with
        | Ok n -> Printf.bprintf b "%s beyond=%d\n" k.kname n
        | Error _ -> Printf.bprintf b "%s error\n" k.kname)
      fuzz;
    Buffer.contents b
  in
  let main_counts =
    exact_counts sub_main
      (List.map (fun k -> List.find (fun r -> r.kname = kernel_name k) fuzz) sub_kernels)
  in
  let t_recheck = now () in
  let c0 = Experiment.compiles_performed () in
  let prod_sweep = untraced_sweep sub_exps in
  let memo_compiles = Experiment.compiles_performed () - c0 in
  let prod_counts = exact_counts prod_sweep (with_ineff (fun () -> untraced_fuzz sub_kernels)) in
  let traced_rerun () =
    let run_tally = !tl in
    tl := fresh_tally ();
    let outs = traced_sweep sub_exps in
    let fz = with_ineff (fun () -> traced_fuzz ~baseline:false sub_kernels) in
    let layer_counts = tally_counts !tl in
    tl := run_tally;
    (exact_counts outs fz, layer_counts)
  in
  let traced1, layer1 = traced_rerun () in
  let traced2, layer2 = traced_rerun () in
  let differ what a b =
    if a <> b then begin
      let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
      let rec first = function
        | x :: xs, y :: ys -> if x = y then first (xs, ys) else x ^ " vs " ^ y
        | x :: _, [] | [], x :: _ -> x ^ " vs nothing"
        | [], [] -> ""
      in
      fail "determinism" (what ^ ": " ^ first (la, lb))
    end
  in
  differ "run_one/Oracle.check rerun against the run" prod_counts main_counts;
  differ "traced rerun against the run" traced1 main_counts;
  differ "second traced rerun against the first" traced2 traced1;
  differ "per-layer counts of the two traced reruns" layer2 layer1;
  checked "exact counts repeat" (Array.length sub_exps + n_sub_kernels);
  note "recheck: %s and %d generated kernels, three reruns in %.1f s" recheck_kernel
    n_sub_kernels (now () -. t_recheck);
  (* every done digest must equal the in-process run_one digest,
     computed here, outside the timed window *)
  let done_ = sv.prime @ phase_a @ phase_b in
  let expected = Hashtbl.create 512 in
  let distinct =
    List.sort_uniq compare
      (List.filter_map (fun c -> if c.error = None then Some c.jidx else None) done_)
  in
  Edge_parallel.Pool.with_pool ~jobs:(max 1 (min 2 !host_cores)) (fun pool ->
      Edge_parallel.Pool.map pool (fun i -> (i, jobs.(i).expect ())) distinct)
  |> List.iter (fun (i, d) -> Hashtbl.replace expected i d);
  List.iter
    (fun c ->
      let j = jobs.(c.jidx) in
      match c.error with
      | Some e -> fail ("dfpd " ^ j.jname) e
      | None ->
          let want = Hashtbl.find expected c.jidx in
          if want <> c.digest then
            fail ("dfpd " ^ j.jname) ("digest " ^ c.digest ^ " vs in-process " ^ want))
    done_;
  checked "dfpd digests verified" (Hashtbl.length expected);
  (* phase B replays jobs that are all on disk: each must come back warm *)
  List.iter
    (fun c ->
      if c.error = None && not c.warm then
        fail ("dfpd phase B " ^ jobs.(c.jidx).jname) "computed, not answered from disk")
    phase_b;
  checked "dfpd phase B answered from disk"
    (List.length (List.filter (fun c -> c.warm) phase_b));
  let g_grid = geomean_both exps sweep "grid"
  and g_inorder = geomean_both exps sweep "inorder" in
  (* -- metrics -- *)
  let ms x = x *. 1000. in
  let lat sel cs = List.filter_map (fun c -> if sel c then Some (ms c.latency) else None) cs in
  let hits = lat (fun c -> c.warm && c.error = None) phase_a
  and misses = lat (fun c -> (not c.warm) && c.error = None) phase_a
  and disk_hits = lat (fun c -> c.warm && c.error = None) phase_b in
  let n_fuzz = List.length fuzz in
  let kernel_ms = List.map (fun (k : kernel_result) -> ms k.latency) fuzz in
  let bench_rss = peak_rss_mb 0 in
  let end_to_end =
    [
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", bench_rss +. server_rss_mb, "MB");
      ("sweep_s", sweep_s, "s");
      ("geomean_both.grid", g_grid, "x");
      ("geomean_both.inorder", g_inorder, "x");
      ("kernels_per_s", float_of_int n_fuzz /. fuzz_s, "1/s");
      ("kernel_p50_ms", percentile 0.5 kernel_ms, "ms");
      ("kernel_p90_ms", percentile 0.9 kernel_ms, "ms");
    ]
  in
  note "samples: %d sweep experiments, %d kernels, %d hits, %d misses, %d disk hits"
    (Array.length exps) n_fuzz (List.length hits) (List.length misses)
    (List.length disk_hits);
  let per_layer () =
    let time name metric =
      let ds = durations name in
      [
        (metric ^ "_s", sum ds, "s");
        (metric ^ "_p50_ms", ms (median ds), "ms");
      ]
    in
    let stat key =
      List.fold_left
        (fun a s -> a + Option.value ~default:0 (Json.int_member key s))
        0 server_stats
    in
    let all_c = phase_a @ phase_b in
    let fsim_s = sum (durations "edge_sim.fsim")
    and grid_s = sum (durations "edge_sim.grid")
    and inorder_s = sum (durations "edge_sim.inorder") in
    let per_ns t n = if n = 0 then 0. else t *. 1e9 /. float_of_int n in
    let t = !tl in
    let self = self_times () in
    (* per phase: the traced wall time (less the checker-baseline
       compiles, which the untraced run does not do), what the layer
       spans do not cover, and what the span bookkeeping itself cost *)
    let span_cost = span_cost_s () in
    let accounting =
      List.concat_map
        (fun (pid, name) ->
          let wall = Hashtbl.find phase_walls name in
          let mine = List.filter (fun s -> s.pid = pid) !spans in
          let total names =
            List.fold_left
              (fun a s -> if List.mem s.name names then a +. self s else a)
              0. mine
          in
          let traced_s = wall -. total [ "edge_check.baseline_compile" ] in
          [
            ("trace." ^ name ^ ".traced_s", traced_s, "s");
            ("trace." ^ name ^ ".unattributed_s", traced_s -. total layer_spans, "s");
            ( "trace." ^ name ^ ".span_overhead_s",
              span_cost *. float_of_int (List.length mine),
              "s" );
          ])
        phases
    in
    time "edge_lang.parse" "edge_lang.parse"
    @ time "edge_lang.lower" "edge_lang.lower"
    @ time "edge_lang.interp" "edge_lang.interp"
    @ time "dfp.compile" "dfp.compile"
    @ [
        ("dfp.compiles", float_of_int t.compiles, "count");
        ("dfp.static_instrs", float_of_int t.static_instrs, "count");
        ("dfp.static_blocks", float_of_int t.static_blocks, "count");
        ("dfp.fanout_moves", float_of_int t.fanout_moves, "count");
      ]
    @ List.map
        (fun p ->
          let n = Dfp.Pass_id.name p in
          ("dfp.pass." ^ n, float_of_int (pass_total t n), "count"))
        Dfp.Pass_id.all
    @ [
        ("edge_check.overhead_s", sum t.check_overheads, "s");
        ("edge_check.overhead_p50_ms", ms (median t.check_overheads), "ms");
      ]
    @ time "edge_fuzz.validate" "edge_fuzz.validate"
    @ [ ("edge_fuzz.blocks_beyond_width", float_of_int t.blocks_beyond_width, "count") ]
    @ time "edge_sim.fsim" "edge_sim.fsim"
    @ [
        ("edge_sim.fsim_instrs", float_of_int t.fsim_instrs, "count");
        ("edge_sim.fsim_ns_per_instr", per_ns fsim_s t.fsim_instrs, "ns/instr");
      ]
    @ time "edge_sim.grid" "edge_sim.grid"
    @ [
        ("edge_sim.grid_sim_cycles", float_of_int t.grid_cycles, "count");
        ("edge_sim.grid_ns_per_cycle", per_ns grid_s t.grid_cycles, "ns/cycle");
        ("edge_sim.grid_commit_ratio", ratio t.grid_committed t.grid_executed, "ratio");
      ]
    @ time "edge_sim.inorder" "edge_sim.inorder"
    @ [
        ("edge_sim.inorder_sim_cycles", float_of_int t.inorder_cycles, "count");
        ("edge_sim.inorder_ns_per_cycle", per_ns inorder_s t.inorder_cycles, "ns/cycle");
        (* [run_one]'s compile memo, over the recheck's production rerun:
           the traced run has not touched it before *)
        ( "memo.compile_hit_ratio",
          1. -. ratio memo_compiles (Array.length sub_exps),
          "ratio" );
        ( "mem_cache.hit_ratio",
          ratio (stat "mem_hits") (stat "mem_hits" + stat "mem_misses"),
          "ratio" );
        ("mem_cache.evictions", float_of_int (stat "mem_evictions"), "count");
        ( "disk_cache.hit_ratio",
          ratio (stat "cache_hits") (stat "cache_hits" + stat "cache_misses"),
          "ratio" );
        ("disk_cache.errors", float_of_int (stat "cache_errors"), "count");
        ("serve.fast_hits", float_of_int (stat "fast_hits"), "count");
        ("serve.jobs_merged", float_of_int (stat "jobs_merged"), "count");
        ("serve.jobs_rejected", float_of_int (stat "jobs_rejected"), "count");
        ("serve.workers_spawned", float_of_int (stat "workers_spawned"), "count");
        ( "serve.queue_depth",
          (match !(sv.depth) with
          | [] -> 0.
          | d -> float_of_int (List.fold_left ( + ) 0 d) /. float_of_int (List.length d)),
          "jobs" );
        ( "serve.accept_wait_ms",
          median (List.filter_map (fun c -> Option.map ms c.accept_wait) all_c),
          "ms" );
        ("serve.exec_ms", median (List.filter_map (fun c -> Option.map ms c.exec) all_c), "ms");
        ("serve.jobs_per_s", float_of_int (List.length phase_a) /. phase_a_s, "1/s");
        ("serve.hit_p50_ms", percentile 0.5 hits, "ms");
        ("serve.hit_p99_ms", percentile 0.99 hits, "ms");
        ("serve.miss_p50_ms", percentile 0.5 misses, "ms");
        ("serve.miss_p90_ms", percentile 0.9 misses, "ms");
        ("serve.disk_hit_p50_ms", percentile 0.5 disk_hits, "ms");
      ]
    @ accounting
  in
  let metrics = if !trace = 1 then per_layer () else end_to_end in
  if !trace = 1 then
    write_chrome
      (Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" !workload !seed))
      ~stamp;
  List.iter (fun (name, n) -> note "check: %s: %d" name n) (List.rev !checks);
  List.iter (fun m -> note "FAILED %s" m) (List.rev !failures);
  let attempted =
    Array.length exps + n_fuzz
    + List.length phase_a + List.length phase_b
  in
  let failed = List.length !failures in
  let metric (name, v, unit) =
    let v = if Float.is_finite v then v else 0. in
    Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_str name) v (json_str unit)
  in
  print_endline ("stamp: " ^ stamp);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " (List.map metric metrics))
