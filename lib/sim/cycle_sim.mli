(** Cycle-level simulator of the tiled EDGE microarchitecture (the
    tsim-proc substitute used for every number in Section 6).

    Modeled mechanisms: next-block prediction (3 cycles) and 8-cycle
    block fetch through a 64 KB L1 I-cache; up to 8 blocks in flight;
    per-tile reservation stations with predicate-aware wakeup
    (Section 4.1); single-issue-per-tile execution with opcode latencies;
    a one-cycle-per-hop operand network using the compiler's placement;
    a 32 KB 2-cycle L1 D-cache backed by an L2 and memory; an LSQ with
    intra- and inter-block LSID ordering, store-to-load forwarding,
    aggressive load speculation with a dependence predictor and violation
    flushes; null-token output resolution (Section 4.2); block completion
    by output counting with early mispredication termination
    (Section 4.3); and exception-bit commit semantics (Section 4.4). *)

type placement_fn = string -> int array
(** Tile placement per block (from [Dfp.Schedule]); defaults to a
    round-robin mapping when the block is unknown. *)

val revision : string
(** Bumped whenever simulated semantics or [Stats] accounting change;
    the persistent result cache folds it into its keys so stale
    entries invalidate themselves. *)

val run :
  ?machine:Machine.t ->
  ?placement:placement_fn ->
  ?obs:Edge_obs.Obs.t ->
  Edge_isa.Program.t ->
  regs:int64 array ->
  mem:Edge_isa.Mem.t ->
  (Stats.t, string) result
(** Runs until halt. Errors: ["fault: ..."] for block-boundary
    exceptions, ["malformed: ..."] for ill-formed blocks or deadlock,
    ["watchdog: ..."] if [max_cycles] is exceeded. On success,
    [regs]/[mem] hold the architectural state and the stats carry the
    cycle count.

    [obs] (default {!Edge_obs.Obs.null}) attaches a structured trace
    sink and/or metrics registry; with the null bundle every
    instrumentation site reduces to a dead branch, so the uninstrumented
    fast path is unchanged.

    Each dispatched block instance gets freshly allocated operand and
    state arrays sized for its block. *)
