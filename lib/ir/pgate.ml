(* The gating model over guarded hyperblock TAC: per-site fire regions,
   three-valued values and effectual regions over the block's
   enumeration variables, written once as a functor over the region
   representation.

   Two instances exist.  This module *is* the BDD instance
   ([include Make (...Bdd...)]), shared by the polynomial invariant
   checker (lib/check/hblock_check) and the Psi-SSA layer ([Psi_ssa],
   and the ineffectuality pass built on it).  Sharing is load-bearing
   exactly like [Gate] is for encoded blocks: "the optimizer only
   deletes what the checker's model proves dead" is a statement about
   one abstraction evaluated twice, not two abstractions that happen
   to agree.  The fuzz oracle (lib/fuzz/ineff_oracle) instantiates the
   same functor at explicit truth tables, one bit per assignment: every
   step below is pointwise, so iterating tables is iterating each
   assignment on its own, and a bug in BDD construction shows up as a
   disagreement between the two instances.

   The model mirrors what codegen will emit:

     avail(t)  — assignments on which temp [t] carries a token: always,
                 for live-in temps (a register read fires
                 unconditionally); otherwise the union of its def
                 sites' fire regions.  There is no fallthrough from a
                 def site to a live-in read — codegen emits reads only
                 for temps with no in-block producer.
     E(site)   — a site fires when its guard matches and its data
                 operands are available (sand short-circuits on a false
                 left operand, as the sand instruction does).
     value     — three-valued (true/false/underivable) per def site,
                 with compare defs sharing one variable exactly like
                 encoded-block tests (complementary integer compares
                 share it negated; float compares never merge).
     eff(site) — the assignments on which the site's firing can still
                 contribute to a block obligation; the rules are at
                 [effectual]. *)

module Hb = Hblock
module O = Edge_isa.Opcode

(** A boolean algebra of sets of assignments of the block's enumeration
    variables (variable [v] is the [v]-th allocated). *)
module type REGION = sig
  type ctx
  (** per-analysis state: a BDD manager, a table width *)

  type r

  val top : ctx -> r
  val bot : ctx -> r
  val var : ctx -> int -> r
  val nvar : ctx -> int -> r
  val conj : ctx -> r -> r -> r
  val disj : ctx -> r -> r -> r
  val neg : ctx -> r -> r
  val equal : r -> r -> bool
  val is_false : r -> bool

  val any_sat : ctx -> r -> (int * bool) list option
  (** one satisfying assignment as (variable, value) pairs; a variable
      left out may take either value *)
end

(* a satisfying assignment rendered enumerator-style, for diagnostics *)
let render_path names = function
  | None | Some [] -> ""
  | Some pairs ->
      Printf.sprintf " on path [%s]"
        (String.concat " "
           (List.map
              (fun (v, value) ->
                Printf.sprintf "%s=%d" names.(v) (if value then 1 else 0))
              pairs))

(** One analyzed block, whichever the region representation. *)
type ('ctx, 'r) model = {
  m : 'ctx;
  body : Hb.hinstr array;
  sites : int list Temp.Map.t;  (** def sites per temp, in body order *)
  store_positions : int array;  (** body position of the k-th store *)
  e : 'r array;  (** fire region per site *)
  svt : 'r array;  (** site value true (given the site fired) *)
  svu : 'r array;  (** site value underivable *)
  site_var : (int * bool) option array;  (** enumeration var per def site *)
  livein_var : (Temp.t, int) Hashtbl.t;
  names : string array;  (** display name per enumeration variable *)
  nvars : int;  (** enumeration variable count *)
}

module type S = sig
  type ctx
  type r
  type t = (ctx, r) model

  val analyze_with : (int -> ctx) -> Hb.t -> (t, string) result
  (** Allocate the enumeration variables, build the context for that
      many ([ctx nvars], called once and before any region operation;
      it may raise to decline the block), and run the fire/value
      fixpoint.  [Error msg] means the fixpoint did not converge. *)

  val avail : t -> Temp.t -> r
  (** Region where the temp carries a token ([top] for live-ins). *)

  val temp_val : t -> Temp.t -> r * r
  (** (value-true, value-underivable) regions of a temp. *)

  val op_val : t -> Tac.operand -> r * r
  val op_avail : t -> Tac.operand -> r
  val is_false_op : t -> Tac.operand -> r

  val guard_matched : t -> Hb.guard option -> r
  (** Region where the guard matches (a delivered predicate of the right
      polarity); [top] for unguarded. *)

  val fire_unguarded : t -> int -> r
  (** The site's fire region recomputed without its explicit guard: data
      availability alone.  Equal to [e.(i)] exactly when the guard is an
      ineffectual delivery (the guard-drop legality test). *)

  val effectual : t -> Hb.t -> (r array, string) result
  (** The effectual region per body site (see the rules at the
      definition); [eff.(i)] implies [e.(i)].  [Error msg] means the
      backward fixpoint did not converge. *)

  val witness : t -> r -> string
  (** One satisfying assignment rendered enumerator-style (" on path
      [...]"), or "" when unsatisfiable. *)
end

module Make (R : REGION) : S with type ctx = R.ctx and type r = R.r = struct
  type ctx = R.ctx
  type r = R.r
  type t = (ctx, r) model

  let disj_list m = List.fold_left (R.disj m) (R.bot m)
  let conj_list m = List.fold_left (R.conj m) (R.top m)

  let avail g t =
    match Temp.Map.find_opt t g.sites with
    | None -> R.top g.m
    | Some ss -> disj_list g.m (List.map (fun i -> g.e.(i)) ss)

  let temp_val g t =
    match Temp.Map.find_opt t g.sites with
    | None -> (
        match Hashtbl.find_opt g.livein_var t with
        | Some pos -> (R.var g.m pos, R.bot g.m)
        | None -> (R.bot g.m, R.top g.m))
    | Some ss ->
        let vt =
          disj_list g.m (List.map (fun i -> R.conj g.m g.e.(i) g.svt.(i)) ss)
        in
        let vu =
          disj_list g.m (List.map (fun i -> R.conj g.m g.e.(i) g.svu.(i)) ss)
        in
        (vt, vu)

  let op_val g = function
    | Tac.C c ->
        ( (if Int64.logand c 1L <> 0L then R.top g.m else R.bot g.m),
          R.bot g.m )
    | Tac.T t -> temp_val g t

  let op_avail g = function Tac.C _ -> R.top g.m | Tac.T t -> avail g t

  let is_false_op g op =
    let vt, vu = op_val g op in
    R.conj g.m (R.neg g.m vt) (R.neg g.m vu)

  let guard_matched g = function
    | None -> R.top g.m
    | Some gd ->
        disj_list g.m
          (List.map
             (fun p ->
               let vt, vu = temp_val g p in
               let pol =
                 if gd.Hb.gpol then R.conj g.m vt (R.neg g.m vu)
                 else R.conj g.m (R.neg g.m vt) (R.neg g.m vu)
               in
               R.conj g.m (avail g p) pol)
             gd.Hb.gpreds)

  (* the guard-drop legality test: if this equals e(site), the guard is
     an ineffectual delivery *)
  let fire_unguarded g i =
    let hi = g.body.(i) in
    match hi.Hb.hop with
    | Hb.Sand { a; b; _ } ->
        R.conj g.m (avail g a)
          (R.disj g.m (is_false_op g (Tac.T a)) (avail g b))
    | _ ->
        conj_list g.m
          (List.map (fun t -> op_avail g (Tac.T t)) (Hb.data_uses hi))

  let witness g r = render_path g.names (R.any_sat g.m r)

  (* rounds of [step] over the body, in place, until a round leaves the
     watched arrays unchanged (or the round cap is hit) *)
  let iterate body step watched =
    let snapshot () = List.map Array.copy watched in
    let max_rounds = (2 * Array.length body) + 16 in
    let rec go round prev =
      if round > max_rounds then Error "fixpoint did not converge"
      else begin
        Array.iteri step body;
        let cur = snapshot () in
        if List.for_all2 (Array.for_all2 R.equal) cur prev then Ok ()
        else go (round + 1) cur
      end
    in
    go 0 (snapshot ())

  (* operand identity for compare-variable sharing: chase single-def mov
     chains so [t2 = mov t1; tlt t2, n] shares with [tlt t1, n] *)
  type horigin = HTemp of Temp.t | HImm of int64

  let origin sites body op =
    let rec go op seen =
      match op with
      | Tac.C c -> HImm c
      | Tac.T t -> (
          if Temp.Set.mem t seen then HTemp t
          else
            match Temp.Map.find_opt t sites with
            | Some [ i ] -> (
                match body.(i).Hb.hop with
                | Hb.Op (Tac.Un { op = O.Mov; a; _ }) ->
                    go a (Temp.Set.add t seen)
                | _ -> HTemp t)
            | _ -> HTemp t)
    in
    go op Temp.Set.empty

  let analyze_with ctx (h : Hb.t) : (t, string) result =
    let body = h.Hb.body in
    let barr = Array.of_list body in
    let len = Array.length barr in
    let sites = Hb.def_sites h in
    let store_positions =
      let pos = ref [] in
      List.iteri
        (fun i hi ->
          match hi.Hb.hop with
          | Hb.Op (Tac.Store _) -> pos := i :: !pos
          | _ -> ())
        body;
      Array.of_list (List.rev !pos)
    in
    (* ---- relevance: temps whose boolean value feeds guard matching ---- *)
    let relevant = ref Temp.Set.empty in
    let frontier = ref [] in
    let mark t =
      if not (Temp.Set.mem t !relevant) then begin
        relevant := Temp.Set.add t !relevant;
        frontier := t :: !frontier
      end
    in
    List.iter
      (fun hi ->
        List.iter mark (Hb.guard_uses hi.Hb.guard);
        match hi.Hb.hop with
        | Hb.Sand { a; b; _ } ->
            mark a;
            mark b
        | _ -> ())
      body;
    List.iter
      (fun ex -> List.iter mark (Hb.guard_uses ex.Hb.eguard))
      h.Hb.hexits;
    let mark_op = function Tac.T t -> mark t | Tac.C _ -> () in
    while !frontier <> [] do
      let work = !frontier in
      frontier := [];
      List.iter
        (fun t ->
          match Temp.Map.find_opt t sites with
          | None -> ()
          | Some ss ->
              List.iter
                (fun i ->
                  match barr.(i).Hb.hop with
                  | Hb.Op (Tac.Un { op = O.Mov | O.Not | O.Neg; a; _ }) ->
                      mark_op a
                  | Hb.Sand { a; b; _ } ->
                      mark a;
                      mark b
                  | _ -> ())
                ss)
        work
    done;
    let relevant = !relevant in
    (* ---- variables ---- *)
    let names = ref [] in
    let count = ref 0 in
    let alloc name =
      let pos = !count in
      incr count;
      names := name :: !names;
      pos
    in
    let key_tbl = Hashtbl.create 16 in
    let site_var = Array.make len None in
    let livein_var = Hashtbl.create 16 in
    let cmp_key (c : Tac.instr) =
      match c with
      | Tac.Cmp { cond; fp; a; b; _ } ->
          let oa = origin sites barr a and ob = origin sites barr b in
          if fp then Some (`F (cond, oa, ob), false)
          else
            let cond, oa, ob =
              if compare oa ob > 0 then (Gate.swap_cond cond, ob, oa)
              else (cond, oa, ob)
            in
            let cond, neg = Gate.normalize_cond cond in
            Some (`I (cond, oa, ob), neg)
      | _ -> None
    in
    Array.iteri
      (fun i hi ->
        match Hb.hop_def hi.Hb.hop with
        | Some d when Temp.Set.mem d relevant -> (
            match hi.Hb.hop with
            | Hb.Op (Tac.Un { op = O.Mov | O.Not | O.Neg; _ }) | Hb.Sand _ ->
                () (* derived *)
            | Hb.Op (Tac.Cmp _ as c) -> (
                let name = Format.asprintf "%a@%d" Temp.pp d i in
                match cmp_key c with
                | Some (key, neg) ->
                    let pos =
                      match Hashtbl.find_opt key_tbl key with
                      | Some pos -> pos
                      | None ->
                          let pos = alloc name in
                          Hashtbl.replace key_tbl key pos;
                          pos
                    in
                    site_var.(i) <- Some (pos, neg)
                | None -> site_var.(i) <- Some (alloc name, false))
            | _ ->
                let name = Format.asprintf "%a@%d" Temp.pp d i in
                site_var.(i) <- Some (alloc name, false))
        | _ -> ())
      barr;
    Temp.Set.iter
      (fun t ->
        if not (Temp.Map.mem t sites) then
          Hashtbl.replace livein_var t (alloc (Format.asprintf "%a" Temp.pp t)))
      relevant;
    let m = ctx !count in
    (* ---- fixpoint over site fire regions and values ---- *)
    let g =
      {
        m;
        body = barr;
        sites;
        store_positions;
        e = Array.make len (R.bot m);
        svt = Array.make len (R.bot m);
        svu = Array.make len (R.bot m);
        site_var;
        livein_var;
        names = Array.of_list (List.rev !names);
        nvars = !count;
      }
    in
    let step i (hi : Hb.hinstr) =
      let gm = guard_matched g hi.Hb.guard in
      g.e.(i) <- R.conj m gm (fire_unguarded g i);
      match site_var.(i) with
      | Some (pos, neg) ->
          g.svt.(i) <- (if neg then R.nvar m pos else R.var m pos);
          g.svu.(i) <- R.bot m
      | None -> (
          match hi.Hb.hop with
          | Hb.Op (Tac.Un { op = O.Mov | O.Neg; a; _ }) ->
              (* two's-complement negation preserves the low bit *)
              let vt, vu = op_val g a in
              g.svt.(i) <- vt;
              g.svu.(i) <- vu
          | Hb.Op (Tac.Un { op = O.Not; a; _ }) ->
              let vt, vu = op_val g a in
              g.svt.(i) <-
                R.conj m (op_avail g a) (R.conj m (R.neg m vt) (R.neg m vu));
              g.svu.(i) <- vu
          | Hb.Sand { a; b; _ } ->
              let vta, vua = op_val g (Tac.T a) in
              let vtb, vub = op_val g (Tac.T b) in
              let ta = R.conj m vta (R.neg m vua) in
              g.svt.(i) <- R.conj m ta vtb;
              g.svu.(i) <- R.disj m vua (R.conj m ta vub)
          | _ ->
              (* non-relevant def: value never queried by a guard *)
              g.svu.(i) <- R.top m)
    in
    Result.map (fun () -> g) (iterate barr step [ g.e; g.svt; g.svu ])

  (* The backward effectuality fixpoint (all regions intersected with
     the site's fire region, so eff(i) <= e(i) always):

       - obligation sites (Store, Null_write, Null_store), defs of block
         output producers and defs of exit-guard predicates are roots:
         eff(i) = e(i).  Exit feeders are fully live because the branch
         partition must be preserved bit-for-bit.
       - a def consumed as a *guard* (or as a sand operand — sand both
         short-circuits on and stores its operands' values) by a
         consumer that is effectual somewhere is fully live: eff(i) =
         e(i).  Guards read values, and a predicate delivery changes
         whether the consumer fires at all, so partial deadness does
         not transfer.
       - a def consumed as *data* by site j contributes e(i) /\ eff(j):
         a token that only ever feeds ineffectual firings is itself
         ineffectual. *)
  let effectual g (h : Hb.t) : (r array, string) result =
    let m = g.m in
    (* consumer indices per temp: full-liveness consumers (guards and
       sand operands — value- and fire-relevant) vs plain data
       consumers *)
    let full_cons = Hashtbl.create 16 and data_cons = Hashtbl.create 16 in
    let add tbl t j =
      Hashtbl.replace tbl t
        (j :: Option.value ~default:[] (Hashtbl.find_opt tbl t))
    in
    Array.iteri
      (fun j hi ->
        List.iter (fun t -> add full_cons t j) (Hb.guard_uses hi.Hb.guard);
        match hi.Hb.hop with
        | Hb.Sand { a; b; _ } ->
            add full_cons a j;
            add full_cons b j
        | _ -> List.iter (fun t -> add data_cons t j) (Hb.data_uses hi))
      g.body;
    let roots =
      List.fold_left
        (fun s (_, prod) -> Temp.Set.add prod s)
        Temp.Set.empty h.Hb.houts
    in
    let roots =
      List.fold_left
        (fun s ex ->
          List.fold_left (fun s p -> Temp.Set.add p s) s
            (Hb.guard_uses ex.Hb.eguard))
        roots h.Hb.hexits
    in
    let root hi =
      match (hi.Hb.hop, Hb.hop_def hi.Hb.hop) with
      | (Hb.Op (Tac.Store _) | Hb.Null_write _ | Hb.Null_store _), _ -> true
      | _, Some d -> Temp.Set.mem d roots
      | _, None -> false
    in
    let eff = Array.make (Array.length g.body) (R.bot m) in
    let step i hi =
      let e = g.e.(i) in
      let acc = ref (if root hi then e else R.bot m) in
      (match Hb.hop_def hi.Hb.hop with
      | None -> ()
      | Some d ->
          List.iter
            (fun j -> if not (R.is_false eff.(j)) then acc := R.disj m !acc e)
            (Option.value ~default:[] (Hashtbl.find_opt full_cons d));
          List.iter
            (fun j -> acc := R.disj m !acc (R.conj m e eff.(j)))
            (Option.value ~default:[] (Hashtbl.find_opt data_cons d)));
      eff.(i) <- !acc
    in
    Result.map (fun () -> eff) (iterate g.body step [ eff ])
end

module Bdd_region = struct
  include Bdd

  type ctx = Bdd.t
  type r = Bdd.node

  let top _ = True
  let bot _ = False
  let any_sat _ n = Bdd.any_sat n
end

include Make (Bdd_region)

let analyze ?budget h =
  match analyze_with (fun _ -> Bdd.create ?budget ()) h with
  | exception Bdd.Budget -> Error "BDD node budget exceeded"
  | r -> r
