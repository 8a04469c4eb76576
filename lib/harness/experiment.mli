(** Running one workload under one compiler configuration.

    Every run is verified three ways before its numbers count: the
    reference interpreter, the functional dataflow executor and the cycle
    simulator must produce identical return values and final memory
    images.

    Compile artifacts and reference-interpreter runs are memoized
    process-wide (keyed by (workload, config fingerprint) and workload
    respectively), so sweeps that revisit a configuration — the Figure 7
    sweep plus Section 6 statistics, the ablations' machine-only
    variants — compile each workload once per distinct config rather
    than once per experiment. The tables are domain-safe with
    single-flight semantics, so a parallel sweep never duplicates a
    compile. *)

type run = {
  workload : string;
  config : string;
  cycles : int;
  ret : int64;
      (** the kernel's return value, verified identical across the
          reference interpreter and both simulators *)
  stats : Edge_sim.Stats.t;
  static_instrs : int;
  static_blocks : int;
  static_fanout_moves : int;
  explicit_predicates : int;
  pass_counters : (string * int) list;
      (** compiler per-pass optimization counters ("pass.*", sorted) *)
  compile_s : float;
      (** wall-clock seconds spent compiling for this run; ~0 when the
          memo already held the artifact *)
  sim_s : float;
      (** wall-clock seconds spent simulating (reference + functional +
          cycle) for this run *)
}

val run_one :
  ?machine:Edge_sim.Machine.t ->
  ?obs:Edge_obs.Obs.t ->
  ?interp_fuel:int ->
  ?cache:Edge_parallel.Disk_cache.t ->
  ?mem:run Edge_parallel.Mem_cache.t ->
  ?async_store:bool ->
  ?lint:(Dfp.Opt_ineff.finding -> unit) ->
  Edge_workloads.Workload.t ->
  string * Dfp.Config.t ->
  (run, string) result
(** [obs] (default null) instruments the *timed* cycle-simulator run
    only; the functional check always runs uninstrumented.

    [interp_fuel] bounds the reference-interpreter run (statements
    executed); exhausting it fails the run with a
    ["fault: fuel exhausted"] error. The job server sets it (together
    with a bounded [machine.max_cycles]) so an untrusted non-terminating
    kernel produces a timeout error instead of wedging a domain. It
    does not join the cache key: a bounded run that succeeds equals the
    unbounded run, and errors are never cached.

    [cache] consults/populates a persistent result cache keyed by
    kernel source digest, config, machine and simulator revision, so
    an unchanged (workload, config) pair costs one file read across
    processes. Cache hits report [compile_s]/[sim_s] as [0.]. Runs
    with an [obs] attached or with the static checker enabled
    ({!Edge_check.Check.enabled}) bypass the cache
    (the caller wants a real, verified run); errors are never
    cached.

    [mem] layers a sharded in-memory result cache in front of [cache]
    (same keys): a warm hit costs one stripe probe — no filesystem, no
    unmarshalling — and a disk hit is promoted into the mem layer. The
    bypass rules above apply to both layers. [async_store] (default
    [false]) hands the disk store to the cache's writeback thread (see
    {!Edge_parallel.Disk_cache.store_async}) so the computing domain
    never blocks on the filesystem.

    [lint] compiles in ineffectuality-report mode (findings streamed to
    the callback, deletion suppressed — see {!Dfp.Driver.compile_cfg})
    and simulates that artifact. Lint runs bypass both cache layers and
    the compile memo: the artifact is not the one a normal compile
    produces. *)

val run_precompiled :
  ?machine:Edge_sim.Machine.t ->
  ?obs:Edge_obs.Obs.t ->
  ?interp_fuel:int ->
  ?cache:Edge_parallel.Disk_cache.t ->
  ?mem:run Edge_parallel.Mem_cache.t ->
  ?async_store:bool ->
  image_digest:string ->
  Edge_workloads.Workload.t ->
  string * Dfp.Config.t ->
  Dfp.Driver.compiled ->
  (run, string) result
(** Like {!run_one}, but simulating a pre-compiled artifact (a decoded
    pre-encoded block job) instead of compiling the workload's source:
    [compile_s] is reported as [0.]. The full verification battery
    still runs — reference interpreter, functional executor and cycle
    simulator must agree on return value and final memory — so an
    artifact whose semantics diverge from the workload source fails
    the run rather than producing unchecked numbers. [image_digest]
    (the hex digest of the raw artifact bytes) salts the cache key, so
    a shipped artifact never shares cache entries with source-compiled
    runs and a corrupt or hostile image cannot poison them. *)

val cache_key :
  Edge_workloads.Workload.t ->
  string ->
  Dfp.Config.t ->
  Edge_sim.Machine.t ->
  string
(** The persistent-cache key of one run: workload source digest, config
    (name + fingerprint), machine description and backend/JIT
    revisions. Exposed so the machine tests can assert that two
    distinct machines never share a cache entry. *)

val compile :
  ?check:bool ->
  ?lint:(Dfp.Opt_ineff.finding -> unit) ->
  Edge_workloads.Workload.t ->
  Dfp.Config.t ->
  (Dfp.Driver.compiled, string) result
(** Uncached compilation (used by the microbenchmarks to time the
    compiler itself). [check] and [lint] are forwarded to
    {!Dfp.Driver.compile_cfg}. *)

val lint_source :
  ?check:bool ->
  string ->
  Dfp.Config.t ->
  (Dfp.Opt_ineff.finding list, string) result
(** Compile raw kernel source in ineffectuality-report mode and return
    the findings (sorted, deduplicated across split-retries). Never
    memoized. *)

val lint :
  ?check:bool ->
  Edge_workloads.Workload.t ->
  Dfp.Config.t ->
  (Dfp.Opt_ineff.finding list, string) result
(** {!lint_source} over a registry workload's kernel source. *)

val setup_run : Edge_workloads.Workload.t -> int64 array * Edge_isa.Mem.t
(** Fresh register file and memory image for one execution of the
    workload, with arguments placed per the calling convention. *)

val compile_cached :
  Edge_workloads.Workload.t ->
  Dfp.Config.t ->
  (Dfp.Driver.compiled, string) result
(** Memoized compilation, shared across harnesses and domains. The
    current {!Edge_check.Check.enabled} state joins the memo key, so
    checked and unchecked compiles never answer for each other. *)

val compiles_performed : unit -> int
(** Process-wide count of real (non-memoized, non-disk-cached)
    compiles. The serve tests assert the delta stays at one when 16
    identical jobs stampede the server — single-flight dedup plus the
    compile memo collapse them into a single compile. *)
