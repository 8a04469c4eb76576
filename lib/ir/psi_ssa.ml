(* Psi-SSA over the guarded hyperblock IR (de Ferrière).

   A hyperblock after if-conversion is already in a pred-OR dataflow
   form: a temp may have several guarded definitions, and a consumer
   receives whichever one fires.  Psi-SSA makes that merge explicit:
   every multi-definition temp [x] becomes a psi-node

       x = psi(v1 [g1], v2 [g2], ..., nullw [gk], ...)

   whose arguments are the renamed versions of the original defs, each
   carrying the predicate under which it delivers.  Three layers live
   here:

   1. the *view* — predicate-aware def-use chains (data / guard /
      exit-guard / block-output uses) and the psi argument lists,
      computed without mutating the block.  Optimization passes
      (opt_path) consume this instead of hand-rolled bookkeeping.
   2. the *construct/destruct* pair — materialize the versioned form
      (rename each def site of a multi-def temp to a fresh version,
      recording the psi-nodes), and its exact inverse.  Uses are not
      renamed: under pred-OR semantics every use reads the psi result,
      which keeps the original name.  construct followed by destruct
      is the structural identity, which is exactly the invariant the
      checker round-trip property enforces.
   3. the *ineffectuality analysis* — the shared gating model's
      backward effectuality fixpoint ([Pgate.effectual], where the
      rules are written down) gives per def site the region [eff(i)]
      of enumeration assignments on which the site's firing can still
      contribute to a block obligation (a store, an explicit null, a
      block output, or an exit decision).  A site with [eff = False]
      is provably ineffectual: deleting it cannot change any
      obligation on any path.  A guarded site whose unguarded fire
      region already equals its guarded one carries an ineffectual
      predicate delivery: the guard can be dropped (the BDD-implication
      generalization of opt_fanout's syntactic rule).

   Deletion soundness (why removing all eff=False sites at once is
   safe) rests on eff <= e and the effectuality rules: for any
   surviving site j and deleted feeder i, either i fed j's guard/sand
   (then j surviving forced eff(i) = e(i), so i was only deleted if
   e(i) = False — it never fired) or i fed j data with e(i) /\ eff(j)
   = False — every firing of j that i's token enabled was ineffectual,
   and obligation sites (eff = e) never were.  The one hazard is
   *emptying* a def-site list: [Pgate] models a temp with no in-block
   producer as an always-available live-in (codegen emits a register
   read), so deleting the last def of a temp still named by a
   surviving guard, an exit guard, or an hout would change the model.
   The consumer policy in opt_ineff keeps one (never-firing) def in
   that case. *)

module Hb = Hblock
module O = Edge_isa.Opcode

(* ---------------- the view: predicate-aware def-use chains -------- *)

type use =
  | Data of int  (** data operand of body site *)
  | Guard of int  (** guard predicate of body site *)
  | Exit_guard of int  (** predicate of the i-th exit *)
  | Out of Temp.t  (** producer of canonical block output *)

type psi_arg = {
  asite : int;  (** body position of the argument's def or null *)
  aguard : Hb.guard option;  (** predicate under which it delivers *)
  anull : bool;  (** explicit null delivery (Null_write) *)
}

type view = {
  vbody : Hb.hinstr array;
  vsites : int list Temp.Map.t;  (** def sites per temp, body order *)
  vuses : use list Temp.Map.t;  (** predicate-aware use chains *)
  vpreds : Temp.Set.t;  (** temps consumed by any guard *)
  vpsis : psi_arg list Temp.Map.t;  (** psi-node per merged temp *)
}

let view (h : Hb.t) : view =
  let vbody = Array.of_list h.Hb.body in
  let vsites = Hb.def_sites h in
  let uses = ref Temp.Map.empty in
  let add_use t u =
    uses :=
      Temp.Map.update t
        (fun l -> Some (u :: Option.value ~default:[] l))
        !uses
  in
  Array.iteri
    (fun i hi ->
      List.iter (fun t -> add_use t (Data i)) (Hb.data_uses hi);
      List.iter (fun t -> add_use t (Guard i)) (Hb.guard_uses hi.Hb.guard))
    vbody;
  List.iteri
    (fun i ex ->
      List.iter (fun t -> add_use t (Exit_guard i)) (Hb.guard_uses ex.Hb.eguard))
    h.Hb.hexits;
  List.iter (fun (x, prod) -> add_use prod (Out x)) h.Hb.houts;
  let vpreds =
    let s = ref Temp.Set.empty in
    let add g = List.iter (fun p -> s := Temp.Set.add p !s) (Hb.guard_uses g) in
    Array.iter (fun hi -> add hi.Hb.guard) vbody;
    List.iter (fun e -> add e.Hb.eguard) h.Hb.hexits;
    !s
  in
  (* psi-nodes: every temp delivered by more than one site (guarded
     versions and explicit nulls together) *)
  let deliveries = ref Temp.Map.empty in
  let add_delivery t a =
    deliveries :=
      Temp.Map.update t
        (fun l -> Some (a :: Option.value ~default:[] l))
        !deliveries
  in
  Array.iteri
    (fun i hi ->
      (match Hb.hop_def hi.Hb.hop with
      | Some d ->
          add_delivery d { asite = i; aguard = hi.Hb.guard; anull = false }
      | None -> ());
      match hi.Hb.hop with
      | Hb.Null_write t ->
          add_delivery t { asite = i; aguard = hi.Hb.guard; anull = true }
      | _ -> ())
    vbody;
  let vpsis =
    Temp.Map.filter_map
      (fun _ args ->
        match args with
        | [] | [ _ ] -> None
        | args ->
            Some (List.sort (fun a b -> compare a.asite b.asite) args))
      !deliveries
  in
  {
    vbody;
    vsites;
    vuses = Temp.Map.map List.rev !uses;
    vpreds;
    vpsis;
  }

let uses_of v t = Option.value ~default:[] (Temp.Map.find_opt t v.vuses)
let psi v t = Temp.Map.find_opt t v.vpsis

(* Can the upward data dependence chain rooted at [v] be promoted to
   unconditional execution?  Walk single-def, exception-free
   instructions; a chain root is a live-in or constant.  Returns the
   body positions whose guards must be removed, or None if promotion is
   illegal (a join, a possible fault, or a predicate definition on the
   chain). *)
let promotable_chain (vw : view) v =
  let visited = ref Temp.Set.empty in
  let acc = ref [] in
  let rec walk v =
    if Temp.Set.mem v !visited then true
    else begin
      visited := Temp.Set.add v !visited;
      match Temp.Map.find_opt v vw.vsites with
      | None | Some [] -> true (* live-in or constant: always available *)
      | Some [ i ] -> (
          match vw.vbody.(i).Hb.hop with
          | Hb.Null_write _ | Hb.Null_store _ | Hb.Sand _ -> false
          | Hb.Op instr ->
              (not (Tac.can_raise instr))
              && (not (Temp.Set.mem v vw.vpreds))
              && begin
                   acc := i :: !acc;
                   List.for_all walk (Tac.uses instr)
                 end)
      | Some _ -> false (* psi merge: carries path-dependent values *)
    end
  in
  if walk v then Some !acc else None

(* ---------------- construct / destruct --------------------------- *)

type versioned = {
  vh : Hb.t;
  renamed : (int * Temp.t) list;  (** body position, original dst *)
  psis : (Temp.t * psi_arg list) list;
      (** materialized psi-nodes: original temp = psi(versions) *)
}

let set_dst dst hi =
  match hi.Hb.hop with
  | Hb.Op instr -> { hi with Hb.hop = Hb.Op (Tac.with_dst dst instr) }
  | Hb.Sand s -> { hi with Hb.hop = Hb.Sand { s with dst } }
  | Hb.Null_write _ | Hb.Null_store _ -> hi

let construct ~gen (h : Hb.t) : versioned =
  let vw = view h in
  let renamed = ref [] in
  let body' =
    List.mapi
      (fun i hi ->
        match Hb.hop_def hi.Hb.hop with
        | Some d when Temp.Map.mem d vw.vpsis ->
            let version = Temp.Gen.fresh gen in
            renamed := (i, d) :: !renamed;
            set_dst version hi
        | _ -> hi)
      h.Hb.body
  in
  h.Hb.body <- body';
  { vh = h; renamed = List.rev !renamed; psis = Temp.Map.bindings vw.vpsis }

let destruct (v : versioned) : unit =
  let body = Array.of_list v.vh.Hb.body in
  List.iter (fun (i, orig) -> body.(i) <- set_dst orig body.(i)) v.renamed;
  v.vh.Hb.body <- Array.to_list body

(* construct then destruct; true iff the block is structurally
   identical afterwards (the psi round-trip invariant) *)
let roundtrip ~gen (h : Hb.t) : bool =
  let snapshot = (h.Hb.body, h.Hb.hexits, h.Hb.houts) in
  let v = construct ~gen h in
  destruct v;
  snapshot = (h.Hb.body, h.Hb.hexits, h.Hb.houts)

(* ---------------- ineffectuality --------------------------------- *)

type ineff = {
  pg : Pgate.t;
  eff : Bdd.node array;  (** effectual region per body site *)
  dead : int list;  (** sites with eff = False, body order *)
  droppable : int list;
      (** surviving guarded sites whose guard is an ineffectual
          delivery: fire_unguarded = e *)
}

let ineffectuality ?budget (h : Hb.t) : (ineff, string) result =
  match Pgate.analyze ?budget h with
  | Error msg -> Error msg
  | Ok g -> (
      try
        match Pgate.effectual g h with
        | Error msg -> Error msg
        | Ok eff ->
            let dead = ref [] and droppable = ref [] in
            Array.iteri
              (fun i hi ->
                if Bdd.is_false eff.(i) then dead := i :: !dead
                else if
                  hi.Hb.guard <> None
                  && Bdd.equal (Pgate.fire_unguarded g i) g.Pgate.e.(i)
                then droppable := i :: !droppable)
              g.Pgate.body;
            Ok
              {
                pg = g;
                eff;
                dead = List.rev !dead;
                droppable = List.rev !droppable;
              }
      with Bdd.Budget -> Error "BDD node budget exceeded")
