(** Backend dispatch: one entry point for every timing model.

    The machine description names the core ({!Machine.backend}); this
    module routes a run to {!Cycle_sim} (the tiled TRIPS grid) or
    {!Inorder_sim} (the scalar in-order EDGE core) so harness code can
    sweep a backend × configuration matrix without caring which
    simulator implements each point. *)

val revision : Machine.t -> string
(** The revision string of the backend the machine selects — fold it
    into cache keys alongside the machine itself. *)

val run :
  ?machine:Machine.t ->
  ?placement:Cycle_sim.placement_fn ->
  ?obs:Edge_obs.Obs.t ->
  Edge_isa.Program.t ->
  regs:int64 array ->
  mem:Edge_isa.Mem.t ->
  (Stats.t, string) result
(** Same contract as {!Cycle_sim.run}. [placement] is meaningful only
    for the grid backend; the in-order core is centralized and ignores
    it. [machine] defaults to
    {!Machine.default}. *)
