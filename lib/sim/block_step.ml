(* The token-pushing block step, generic over what a token carries; see
   the interface for the rules it owns. [Functional] instantiates it
   over concrete tokens, the fuzz validator over predicate parities, so
   the validator checks exactly the rules the simulator runs. *)

module Instr = Edge_isa.Instr
module Opcode = Edge_isa.Opcode
module Target = Edge_isa.Target
module Bi = Block_image

exception Malformed of string

let fail fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

type 'store resolution = Unresolved | Stored of 'store | Nulled

(* The arrays are capacity arrays: one state can be reused across every
   block of a program, cleared up to the current image's counts by
   [prepare]. *)
type ('tok, 'store) state = {
  mutable img : Bi.t;
  left : 'tok option array;
  right : 'tok option array;
  pred : 'tok option array;  (* the matching predicate, once it arrived *)
  fired : bool array;
  writes : 'tok option array;
  stores : 'store resolution array;  (* per declared store slot *)
  mutable branch : int;  (* id of the fired branch, -1 before *)
  mutable pending_loads : int list;  (* instr ids deferred on LSID order *)
  (* pending token deliveries: a FIFO ring over two parallel arrays so
     the hot delivery loop never allocates tuples or queue cells; it is
     allocated on the first push, filled with that push's token *)
  mutable q_tgt : Target.t array;
  mutable q_tok : 'tok array;
  mutable q_head : int;
  mutable q_len : int;
}

let make ~cap_n ~cap_w ~cap_s img =
  {
    img;
    left = Array.make cap_n None;
    right = Array.make cap_n None;
    pred = Array.make cap_n None;
    fired = Array.make cap_n false;
    writes = Array.make cap_w None;
    stores = Array.make cap_s Unresolved;
    branch = -1;
    pending_loads = [];
    q_tgt = [||];
    q_tok = [||];
    q_head = 0;
    q_len = 0;
  }

let prepare st img =
  st.img <- img;
  let n = img.Bi.n in
  Array.fill st.left 0 n None;
  Array.fill st.right 0 n None;
  Array.fill st.pred 0 n None;
  Array.fill st.fired 0 n false;
  Array.fill st.writes 0 img.Bi.n_writes None;
  Array.fill st.stores 0 img.Bi.n_stores Unresolved;
  st.branch <- -1;
  st.pending_loads <- [];
  st.q_head <- 0;
  st.q_len <- 0

let q_push st tgt tok =
  let cap = Array.length st.q_tgt in
  if st.q_len = cap then begin
    let ntgt = Array.make (max 64 (2 * cap)) tgt in
    let ntok = Array.make (max 64 (2 * cap)) tok in
    for i = 0 to st.q_len - 1 do
      let j = (st.q_head + i) land (cap - 1) in
      ntgt.(i) <- st.q_tgt.(j);
      ntok.(i) <- st.q_tok.(j)
    done;
    st.q_tgt <- ntgt;
    st.q_tok <- ntok;
    st.q_head <- 0
  end;
  let j = (st.q_head + st.q_len) land (Array.length st.q_tgt - 1) in
  st.q_tgt.(j) <- tgt;
  st.q_tok.(j) <- tok;
  st.q_len <- st.q_len + 1

let resolve_store st lsid r =
  let slot = Bi.store_slot_of st.img lsid in
  if slot < 0 then fail "store lsid %d not declared" lsid;
  (match st.stores.(slot) with
  | Unresolved -> ()
  | Stored _ | Nulled -> fail "store lsid %d resolved twice" lsid);
  st.stores.(slot) <- r

let lower_lsids_resolved st lsid =
  let img = st.img in
  let rec go k =
    k >= img.Bi.n_stores
    || (img.Bi.store_lsids.(k) >= lsid
        || match st.stores.(k) with Unresolved -> false | _ -> true)
       && go (k + 1)
  in
  go 0

let complete st =
  let img = st.img in
  let rec writes_done w =
    w >= img.Bi.n_writes || (Option.is_some st.writes.(w) && writes_done (w + 1))
  in
  let rec stores_done k =
    k >= img.Bi.n_stores
    || ((match st.stores.(k) with Unresolved -> false | _ -> true)
       && stores_done (k + 1))
  in
  writes_done 0 && stores_done 0 && st.branch >= 0

let missing st =
  let img = st.img in
  let b = Buffer.create 32 in
  for w = 0 to img.Bi.n_writes - 1 do
    if Option.is_none st.writes.(w) then Printf.bprintf b " W%d" w
  done;
  for k = 0 to img.Bi.n_stores - 1 do
    match st.stores.(k) with
    | Unresolved -> Printf.bprintf b " S%d" img.Bi.store_lsids.(k)
    | Stored _ | Nulled -> ()
  done;
  if st.branch < 0 then Buffer.add_string b " branch";
  Buffer.contents b

module type DOMAIN = sig
  type tok
  type store
  type env

  val is_null : tok -> bool
  val is_false : tok -> bool
  val matches : int -> Instr.predication -> tok -> bool
  val read : env -> Bi.t -> int -> tok
  val value : env -> (tok, store) state -> int -> tok
  val store : env -> (tok, store) state -> int -> store
  val count : env -> Bi.inst -> null_store:bool -> unit
end

module Make (D : DOMAIN) = struct
  let ready st id =
    let i = st.img.Bi.instrs.(id) in
    if st.fired.(id) then false
    else
      let data_ok =
        match i.Bi.op with
        | Opcode.Sand -> (
            (* short-circuit: a false left operand suffices (Section 7) *)
            match st.left.(id) with
            | Some l -> D.is_false l || Option.is_some st.right.(id)
            | None -> false)
        | _ ->
            (i.Bi.arity < 1 || Option.is_some st.left.(id))
            && (i.Bi.arity < 2 || Option.is_some st.right.(id))
      in
      data_ok && ((not i.Bi.predicated) || Option.is_some st.pred.(id))

  let rec deliver st env target tok =
    match target with
    | Target.To_write w -> (
        match st.writes.(w) with
        | Some _ -> fail "write slot %d received two tokens" w
        | None -> st.writes.(w) <- Some tok)
    | Target.To_instr { id; slot } -> (
        let i = st.img.Bi.instrs.(id) in
        match slot with
        | Target.Pred ->
            if not i.Bi.predicated then
              fail "I%d: predicate delivered to unpredicated instruction" id;
            if D.matches id i.Bi.pred tok then begin
              if Option.is_some st.pred.(id) then
                fail "I%d: two matching predicates" id;
              st.pred.(id) <- Some tok;
              try_fire st env id
            end
            (* non-matching arrivals are ignored (Section 4.1) *)
        | Target.Left | Target.Right ->
            (* a null token arriving at a store resolves it immediately as
               a null store (Section 4.2) *)
            if i.Bi.is_store && D.is_null tok then begin
              if st.fired.(id) then fail "I%d: null for fired store" id;
              st.fired.(id) <- true;
              D.count env i ~null_store:true;
              resolve_store st i.Bi.lsid Nulled;
              retry_loads st env
            end
            else begin
              let arr =
                match slot with
                | Target.Left -> st.left
                | Target.Right -> st.right
                | Target.Pred -> assert false
              in
              (match arr.(id) with
              | Some _ ->
                  fail "I%d: operand %a delivered twice" id Target.pp_slot slot
              | None -> arr.(id) <- Some tok);
              try_fire st env id
            end)

  and try_fire st env id = if ready st id then fire st env id

  and fire st env id =
    let i = st.img.Bi.instrs.(id) in
    match i.Bi.op with
    | Opcode.Ld _ when not (lower_lsids_resolved st i.Bi.lsid) ->
        (* defer while a lower-LSID declared store is unresolved *)
        if not (List.mem id st.pending_loads) then
          st.pending_loads <- id :: st.pending_loads
    | Opcode.St _ ->
        st.fired.(id) <- true;
        D.count env i ~null_store:false;
        resolve_store st i.Bi.lsid (Stored (D.store env st id));
        retry_loads st env
    | Opcode.Bro | Opcode.Halt ->
        st.fired.(id) <- true;
        D.count env i ~null_store:false;
        if st.branch >= 0 then fail "two branches fired";
        st.branch <- id
    | _ ->
        st.fired.(id) <- true;
        D.count env i ~null_store:false;
        send_all st env i (D.value env st id)

  and send_all st env (i : Bi.inst) tok =
    let tgts = i.Bi.targets in
    for k = 0 to Array.length tgts - 1 do
      q_push st tgts.(k) tok
    done;
    drain st env

  and retry_loads st env =
    let loads = st.pending_loads in
    st.pending_loads <- [];
    List.iter (fun id -> if not st.fired.(id) then fire st env id) loads

  and drain st env =
    while st.q_len > 0 do
      let j = st.q_head in
      st.q_head <- (j + 1) land (Array.length st.q_tgt - 1);
      st.q_len <- st.q_len - 1;
      deliver st env st.q_tgt.(j) st.q_tok.(j)
    done

  let run st env =
    let img = st.img in
    Array.iteri
      (fun rslot tgts ->
        let tok = D.read env img rslot in
        Array.iter (fun tgt -> q_push st tgt tok) tgts)
      img.Bi.rtargets;
    Array.iter (fun id -> try_fire st env id) img.Bi.seeds;
    drain st env
end
