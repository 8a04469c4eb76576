(* Routes a run to the simulator implementing the machine's backend. *)

let revision (m : Machine.t) =
  match m.Machine.backend with
  | Machine.Trips_grid -> Cycle_sim.revision
  | Machine.Inorder_edge -> Inorder_sim.revision

let run ?(machine = Machine.default) ?placement ?obs program ~regs ~mem =
  match machine.Machine.backend with
  | Machine.Trips_grid ->
      Cycle_sim.run ~machine ?placement ?obs program ~regs ~mem
  | Machine.Inorder_edge ->
      (* centralized core: placement is a grid concern *)
      Inorder_sim.run ~machine ?obs program ~regs ~mem
