(** Psi-SSA over the guarded hyperblock IR (de Ferrière): an explicit
    representation of pred-OR merges.  Three layers: a non-mutating
    {e view} (predicate-aware def-use chains and psi argument lists), a
    {e construct/destruct} renaming pair whose composition is the
    structural identity, and the {e ineffectuality analysis} — the
    shared gating model's backward fixpoint ({!Pgate.effectual}) proving
    which def sites can never contribute to a store, a block output, or
    an exit decision on any path. *)

(** {1 The Psi-SSA view} *)

type use =
  | Data of int  (** data operand of body site *)
  | Guard of int  (** guard predicate of body site *)
  | Exit_guard of int  (** predicate of the i-th exit *)
  | Out of Temp.t  (** producer of canonical block output *)

type psi_arg = {
  asite : int;  (** body position of the argument's def or null *)
  aguard : Hblock.guard option;  (** predicate under which it delivers *)
  anull : bool;  (** explicit null delivery (Null_write) *)
}

type view = {
  vbody : Hblock.hinstr array;
  vsites : int list Temp.Map.t;
  vuses : use list Temp.Map.t;
  vpreds : Temp.Set.t;  (** temps consumed by any guard *)
  vpsis : psi_arg list Temp.Map.t;
      (** psi-node (argument list, body order) per temp with more than
          one delivery, explicit nulls included *)
}

val view : Hblock.t -> view
val uses_of : view -> Temp.t -> use list
val psi : view -> Temp.t -> psi_arg list option

val promotable_chain : view -> Temp.t -> int list option
(** Body positions whose guards must be removed to promote the upward
    data-dependence chain rooted at the temp to unconditional
    execution, or [None] if promotion is illegal (a psi merge, a
    possible fault, or a predicate definition on the chain). *)

(** {1 Construct / destruct} *)

type versioned = {
  vh : Hblock.t;
  renamed : (int * Temp.t) list;  (** body position, original dst *)
  psis : (Temp.t * psi_arg list) list;
}

val construct : gen:Temp.Gen.t -> Hblock.t -> versioned
(** Rename every def site of a psi-merged temp to a fresh version
    (uses keep the original name: under pred-OR semantics they read the
    psi result), returning the materialized psi-nodes. *)

val destruct : versioned -> unit
(** Exact inverse of {!construct} on an unmodified block. *)

val roundtrip : gen:Temp.Gen.t -> Hblock.t -> bool
(** [construct] then [destruct]; true iff the block is structurally
    identical afterwards. *)

(** {1 Ineffectuality} *)

type ineff = {
  pg : Pgate.t;
  eff : Bdd.node array;
      (** effectual region per body site: assignments on which the
          site's firing can still contribute to an obligation.
          Invariant: [eff(i)] implies [e(i)]. *)
  dead : int list;  (** sites with [eff = False], body order *)
  droppable : int list;
      (** surviving guarded sites whose guard is an ineffectual
          predicate delivery ([fire_unguarded = e]): the guard can be
          dropped without changing the fire region *)
}

val ineffectuality : ?budget:int -> Hblock.t -> (ineff, string) result
(** [Error msg] means the analysis is inconclusive (BDD budget, fixpoint
    divergence) — treat as "skip", never as a verdict. *)
