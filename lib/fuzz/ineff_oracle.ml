(* Exhaustive cross-validation of ineffectuality verdicts.

   [Edge_ir.Psi_ssa.ineffectuality] proves sites dead (and guards
   droppable) with the BDD instance of the gating model [Edge_ir.Pgate].
   This module re-proves the claims with the same model instantiated at
   explicit truth tables ([Truth_table]): one bit per assignment of the
   block's enumeration variables, so every region is evaluated on every
   assignment and no BDD machinery is involved.  Every step of the
   model is pointwise, so the table fixpoint is the per-assignment
   fixpoint; a bug in BDD construction or in the symbolic fixpoint
   shows up as a disagreement here.  The step rules themselves are
   written once, in [Pgate]; a bug there is the differential oracle's
   to catch (interpreter vs functional sim vs both cycle backends).

   The contract is zero false positives: every site the plan deletes
   must be ineffectual on EVERY assignment (and, if it can fault, must
   never fire), and every guard the plan drops must leave the fire
   region bit-identical on EVERY assignment.  A disagreement renders as
   a [check[pass=opt_ineff ...]] diagnostic, which the oracle
   classifies as a Checker breach; so does a table fixpoint that does
   not converge.

   Blocks whose variable count exceeds [max_vars] are skipped — the
   exponential oracle excuses itself, it never guesses. *)

module Hb = Edge_ir.Hblock
module Tac = Edge_ir.Tac
module Tt = Truth_table
module Pgate = Edge_ir.Pgate
module Pg = Pgate.Make (Tt)

let ( let* ) = Result.bind
let default_max_vars = 10

let breach h where msg =
  Edge_check.Diag.to_string
    (Edge_check.Diag.make ~pass:"opt_ineff" ~block:h.Hb.hname ~where
       Edge_check.Diag.Structure
       ("ineffectuality cross-validation breach: " ^ msg))

exception Too_wide

(* Re-prove a plan by enumeration.  [Ok ()] also covers the excused
   skip (too many variables) — the enumerator never guesses. *)
let check_plan ?(max_vars = default_max_vars) (h : Hb.t)
    (p : Dfp.Opt_ineff.plan) : (unit, string) result =
  let ctx nvars =
    if nvars > max_vars then raise Too_wide else Tt.create nvars
  in
  match Pg.analyze_with ctx h with
  | exception Too_wide -> Ok ()
  | Error msg -> Error (breach h "body" msg)
  | Ok g ->
      let* eff = Result.map_error (breach h "body") (Pg.effectual g h) in
      let fail i what r =
        Error (breach h (Printf.sprintf "I%d" i) (what ^ Pg.witness g r))
      in
      let check_dead i =
        let can_fault =
          match g.Pgate.body.(i).Hb.hop with
          | Hb.Op instr -> Tac.can_raise instr
          | _ -> false
        in
        if not (Tt.is_false eff.(i)) then
          fail i "site deleted as ineffectual but contributes" eff.(i)
        else if can_fault && not (Tt.is_false g.Pgate.e.(i)) then
          (* a faulting site may only be deleted if it never fires *)
          fail i "deleted site can fault and still fires" g.Pgate.e.(i)
        else Ok ()
      in
      let check_drop i =
        let m = g.Pgate.m and e = g.Pgate.e.(i) in
        let u = Pg.fire_unguarded g i in
        let changed =
          Tt.disj m (Tt.conj m u (Tt.neg m e)) (Tt.conj m (Tt.neg m u) e)
        in
        if Tt.is_false changed then Ok ()
        else fail i "guard dropped but the fire region changes" changed
      in
      let all f = List.fold_left (fun acc i -> let* () = acc in f i) (Ok ()) in
      let* () = all check_dead p.Dfp.Opt_ineff.pdead in
      all check_drop p.Dfp.Opt_ineff.pdrops

(* Install the enumerator as [Opt_ineff]'s cross-validation hook: every
   plan computed by any compile in this process is re-proved before it
   is applied.  Module-init so worker domains inherit it. *)
let install () =
  Dfp.Opt_ineff.cross_validate := Some (fun h p -> check_plan h p)
