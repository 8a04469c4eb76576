module Block = Edge_isa.Block
module Instr = Edge_isa.Instr
module Opcode = Edge_isa.Opcode
module Target = Edge_isa.Target
module Token = Edge_isa.Token
module Mem = Edge_isa.Mem
module Program = Edge_isa.Program
module Bi = Block_image
module Obs = Edge_obs.Obs
module Ev = Edge_obs.Event
module Mx = Edge_obs.Metrics

type placement_fn = string -> int array

(* bump when simulated semantics or [Stats] accounting change: the
   persistent result cache keys on it *)
let revision = "cycle-sim-5"

exception Malformed of string
exception Fault of string

let failm fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

type stored = {
  s_addr : int64;
  s_value : int64;
  s_width : Opcode.width;
  s_exc : bool;
}

type store_res = Unresolved | Stored of stored | Nulled

let is_unresolved = function Unresolved -> true | Stored _ | Nulled -> false

(* per-frame observability state, allocated only when an [Obs] sink or
   metrics registry is attached — the null-obs fast path pays one [None]
   field per frame *)
type probe = {
  pred_arrivals : int array;
      (* predicate tokens delivered per instruction (matched or not):
         the paper's predicate-OR arrival counts; capacity array, live
         prefix is the block's instruction count *)
  mutable null_tokens : int;  (* null tokens delivered to this frame *)
}

(* per-block, per-run tables the dispatch/issue path would otherwise
   recompute on every fetch: the placement resolved once, operand
   network hop counts per target, and the I-cache footprint *)
type binfo = {
  img : Bi.t;
  placement : int array;
  res_hops : int array array;  (* per instr, per result target *)
  rd_hops : int array array;  (* per read slot, per read target *)
  mem_hops : int array;  (* per instr: hops to the memory interface *)
  base_addr : int64;  (* code address of the block *)
  n_lines : int;  (* I-cache lines fetched per dispatch *)
}

(* one in-flight block instance; its arrays are freshly allocated at
   dispatch, sized for its block *)
type frame = {
  fid : int;
  gen : int;
  seq : int;
  bi : binfo;
  left : Token.t option array;
  right : Token.t option array;
  pred_matched : bool array;
  pred_exc : bool array;
  fired : bool array;
  queued : bool array;  (* sitting in a ready queue *)
  stores : store_res array;  (* per declared store slot *)
  writes : Token.t option array;
  write_subs : (int * int * int) list array;
      (* per write slot: (fid, gen, read-slot-resume-key) of younger
         readers waiting; the key is the reader frame's read slot *)
  mutable branch : (string option * bool * int) option;
      (* target, exception, exit_idx *)
  mutable predicted_next : string option;
  mutable prediction_checked : bool;
  mutable outputs_left : int;
  mutable pending_events : int;
  mutable deferred_loads : int list;
  mutable loads_done : (int * int64 * int) list;  (* lsid, addr, bytes *)
  mutable unres : int;  (* unresolved store slots in this frame *)
  mutable nstored : int;  (* slots resolved as [Stored] *)
  fstats : Stats.t;
  mutable complete : bool;
  dispatched_at : int;
  probe : probe option;
}

type fetch_state =
  | Fidle  (** nothing to fetch (halt predicted/resolved) *)
  | Fwait of int  (** stalled on unresolved branch of frame seq *)
  | Fbusy of { idx : int; done_at : int; mutable held : bool }

(* per-tile ready queue: a FIFO ring of packed (gen, fid, id) ints —
   id in 7 bits (≤ 128 instructions), fid in 20 bits, gen above — so
   steady-state wakeups allocate nothing *)
type ready_q = { mutable rbuf : int array; mutable rhead : int; mutable rlen : int }

let pack_ready ~fid ~gen ~id = (gen lsl 27) lor (fid lsl 7) lor id
let ready_id x = x land 0x7f
let ready_fid x = (x lsr 7) land 0xfffff
let ready_gen x = x lsr 27

let rq_create () = { rbuf = Array.make 64 0; rhead = 0; rlen = 0 }

let rq_push q v =
  let cap = Array.length q.rbuf in
  if q.rlen = cap then begin
    let nbuf = Array.make (2 * cap) 0 in
    for i = 0 to q.rlen - 1 do
      nbuf.(i) <- q.rbuf.((q.rhead + i) land (cap - 1))
    done;
    q.rbuf <- nbuf;
    q.rhead <- 0
  end;
  q.rbuf.((q.rhead + q.rlen) land (Array.length q.rbuf - 1)) <- v;
  q.rlen <- q.rlen + 1

let rq_pop q =
  let v = q.rbuf.(q.rhead) in
  q.rhead <- (q.rhead + 1) land (Array.length q.rbuf - 1);
  q.rlen <- q.rlen - 1;
  v

(* A typed event: the wheel's unit of work. Replaces the per-event
   closure (code pointer + captured environment) with a flat immutable
   record built once at the schedule site — initialization is
   write-barrier-free, and execution dispatches on a small integer
   instead of an indirect call. Kinds: 0 = deliver one token to a
   target, 1 = a fired instruction's result reaches its sender (fans
   out into kind-0 events per target), 2 = a store reaches the LSQ,
   3 = a branch resolves. *)
type ev = {
  ek : int;
  efid : int;
  egen : int;
  eid : int;  (* instr id (kinds 1-2) or exit index (kind 3) *)
  etok : Token.t;  (* kinds 0-1: payload; kind 2: base address *)
  etok2 : Token.t;  (* kind 2: store value *)
  etgt : Target.t;  (* kind 0 *)
  eexc : bool;  (* kind 3 *)
  ebtgt : string option;  (* kind 3 *)
}

let ev_tok0 = Token.of_int64 0L
let ev_tgt0 = Target.To_write 0

type sim = {
  img : Bi.program;
  machine : Machine.t;
  placement : placement_fn;
  regs : int64 array;
  mem : Mem.t;
  stats : Stats.t;
  l1d : Cache.t;
  l1i : Cache.t;
  l2 : Cache.t;
  predictor : Predictor.t;
  binfos : binfo option array;  (* lazily built per block index *)
  dep_stride : int;  (* row width of the dependence predictor tables *)
  dep_same : int array;
      (* per (block index, load lsid): max conflicting same-frame store
         lsid, -1 for none — a store-set-style dependence predictor: a
         load waits only for the stores it was caught violating
         against *)
  dep_cross : bool array;  (* conflicts with older frames? *)
  frames : frame option array;
  mutable live_cache : frame list;  (* live frames sorted by seq *)
  mutable live_dirty : bool;  (* [frames] changed since [live_cache] was built *)
  mutable next_seq : int;
  mutable next_gen : int;
  mutable fetch : fetch_state;
  mutable fetch_memo_name : string;  (* last start_fetch target ... *)
  mutable fetch_memo_idx : int;  (* ... and its block index *)
  events : ev Event_queue.t;
  mutable cycle : int;
  mutable unres_total : int;  (* unresolved stores across live frames *)
  mutable stored_total : int;  (* [Stored] resolutions across live frames *)
  mutable deferred_total : int;  (* deferred loads across live frames *)
  mutable loads_total : int;  (* [loads_done] entries across live frames *)
  ready : ready_q array;  (* per tile: packed (gen, fid, id) *)
  mutable ready_count : int;  (* total entries across [ready] queues *)
  mutable halted : bool;
  mutable fault : string option;
  obs : Obs.t;
  otrace : bool;  (* a trace sink is attached *)
  ofull : bool;  (* instruction/token/cache-level events wanted *)
  oactive : bool;  (* sink or metrics attached: per-frame probes on *)
  ometrics : Mx.t option;
}

(* ---------- observability helpers ----------

   Every call site is guarded on [sim.otrace] / [sim.oactive] so the
   null-obs configuration never constructs an event or a string. *)

let emit sim e = Obs.emit sim.obs e

let mincr ?by sim name =
  match sim.ometrics with Some m -> Mx.incr ?by m name | None -> ()

let mobserve sim name v =
  match sim.ometrics with Some m -> Mx.observe m name v | None -> ()

(* in-flight work a frame abandons when squashed or early-terminated:
   results still on the operand network plus ready-queue entries *)
let frame_orphans f =
  let queued = ref 0 in
  for i = 0 to f.bi.img.Bi.n - 1 do
    if f.queued.(i) && not f.fired.(i) then incr queued
  done;
  f.pending_events + !queued

let schedule sim dt ev =
  Event_queue.add sim.events ~cycle:(sim.cycle + max 1 dt) ev


let frame_alive sim fid gen =
  match sim.frames.(fid) with
  | Some f when f.gen = gen -> Some f
  | Some _ | None -> None

(* the live-frame list is rebuilt lazily: dispatch, flush and commit
   (the only writers of [sim.frames]) mark it dirty, and the many
   per-cycle readers share one cached sorted list *)
let invalidate_live sim = sim.live_dirty <- true

let live_frames sim =
  if sim.live_dirty then begin
    (* selection-build the seq-sorted list back to front: only the
       final conses are allocated, no intermediate lists or sort *)
    let acc = ref [] in
    let bound = ref max_int in
    let again = ref true in
    while !again do
      let best = ref (-1) and best_seq = ref min_int in
      Array.iteri
        (fun i fo ->
          match fo with
          | Some o when o.seq < !bound && o.seq > !best_seq ->
              best := i;
              best_seq := o.seq
          | Some _ | None -> ())
        sim.frames;
      if !best < 0 then again := false
      else begin
        (match sim.frames.(!best) with
        | Some o -> acc := o :: !acc
        | None -> assert false);
        bound := !best_seq
      end
    done;
    sim.live_cache <- !acc;
    sim.live_dirty <- false
  end;
  sim.live_cache

let no_live_frames sim = Array.for_all Option.is_none sim.frames

let oldest_frame sim =
  match live_frames sim with [] -> None | f :: _ -> Some f

(* ---------- per-block run tables ---------- *)

let default_placement_n ~num_tiles n = Array.init n (fun i -> i mod num_tiles)

let make_binfo sim idx =
  let machine = sim.machine in
  let num_tiles = Machine.num_tiles machine in
  let img = sim.img.Bi.blocks.(idx) in
  let n = img.Bi.n in
  let placement =
    let p = sim.placement img.Bi.name in
    (* a placement for another geometry (wrong length or out-of-range
       tile) falls back to round-robin over this machine's tiles *)
    if Array.length p = n && Array.for_all (fun t -> t >= 0 && t < num_tiles) p
    then p
    else default_placement_n ~num_tiles n
  in
  let res_hops =
    Array.mapi
      (fun id (i : Bi.inst) ->
        Array.map
          (function
            | Target.To_instr { id = d; _ } ->
                Machine.hops machine placement.(id) placement.(d)
            | Target.To_write _ -> Machine.reg_access_hops machine placement.(id))
          i.Bi.targets)
      img.Bi.instrs
  in
  let rd_hops =
    Array.map
      (fun tgts ->
        Array.map
          (function
            | Target.To_instr { id; _ } ->
                Machine.reg_access_hops machine placement.(id)
            | Target.To_write _ -> 1)
          tgts)
      img.Bi.rtargets
  in
  let mem_hops =
    Array.init n (fun id -> Machine.mem_access_hops machine placement.(id))
  in
  let lb = sim.machine.Machine.line_bytes in
  {
    img;
    placement;
    res_hops;
    rd_hops;
    mem_hops;
    base_addr = Int64.of_int (img.Bi.index * 1024);
    n_lines = max 1 ((img.Bi.size_words * 4) + lb - 1) / lb;
  }

let binfo sim idx =
  match sim.binfos.(idx) with
  | Some b -> b
  | None ->
      let b = make_binfo sim idx in
      sim.binfos.(idx) <- Some b;
      b

(* ---------- memory timing ---------- *)

let dcache_latency sim ~addr ~write =
  sim.stats.Stats.dcache_accesses <- sim.stats.Stats.dcache_accesses + 1;
  if sim.oactive then mincr sim "sim.dcache_accesses";
  if Cache.access sim.l1d ~addr ~write then begin
    if sim.otrace && sim.ofull then
      emit sim (Ev.Cache { cycle = sim.cycle; cache = "l1d"; write; hit = true });
    Cache.hit_latency sim.l1d
  end
  else begin
    sim.stats.Stats.dcache_misses <- sim.stats.Stats.dcache_misses + 1;
    if sim.oactive then mincr sim "sim.dcache_misses";
    if sim.otrace && sim.ofull then
      emit sim (Ev.Cache { cycle = sim.cycle; cache = "l1d"; write; hit = false });
    let l2_hit = Cache.access sim.l2 ~addr ~write in
    if sim.otrace && sim.ofull then
      emit sim (Ev.Cache { cycle = sim.cycle; cache = "l2"; write; hit = l2_hit });
    if l2_hit then Cache.hit_latency sim.l1d + sim.machine.Machine.l2_latency
    else
      Cache.hit_latency sim.l1d + sim.machine.Machine.l2_latency
      + sim.machine.Machine.mem_latency
  end

let icache_penalty sim bi =
  let pen = ref 0 in
  for i = 0 to bi.n_lines - 1 do
    sim.stats.Stats.icache_accesses <- sim.stats.Stats.icache_accesses + 1;
    if sim.oactive then mincr sim "sim.icache_accesses";
    let addr =
      Int64.add bi.base_addr (Int64.of_int (i * sim.machine.Machine.line_bytes))
    in
    let l1i_hit = Cache.access sim.l1i ~addr ~write:false in
    if sim.otrace && sim.ofull then
      emit sim
        (Ev.Cache { cycle = sim.cycle; cache = "l1i"; write = false; hit = l1i_hit });
    if not l1i_hit then begin
      sim.stats.Stats.icache_misses <- sim.stats.Stats.icache_misses + 1;
      if sim.oactive then mincr sim "sim.icache_misses";
      pen :=
        !pen
        + (if Cache.access sim.l2 ~addr ~write:false then
             sim.machine.Machine.l2_latency
           else sim.machine.Machine.l2_latency + sim.machine.Machine.mem_latency)
    end
  done;
  !pen

(* all resolved stores strictly before (seq, lsid) in LSQ order, oldest
   first, across in-flight frames; allocates only for matching entries
   (usually none) *)
let stores_before sim ~seq ~lsid =
  if sim.stored_total = 0 then []
  else
  let acc = ref [] in
  List.iter
    (fun f ->
      if f.seq <= seq then
        let img = f.bi.img in
        for k = 0 to img.Bi.n_stores - 1 do
          let l = img.Bi.store_lsids.(k) in
          if f.seq < seq || l < lsid then
            match f.stores.(k) with
            | Stored s -> acc := (f.seq, l, s) :: !acc
            | Nulled | Unresolved -> ()
        done)
    (live_frames sim);
  (* (seq, lsid) keys are unique, so ordering by them alone matches the
     old polymorphic sort of the full triple *)
  List.sort
    (fun (s1, l1, _) (s2, l2, _) ->
      if s1 <> s2 then Int.compare s1 s2 else Int.compare l1 l2)
    !acc

let unresolved_before sim ~seq ~lsid =
  sim.unres_total > 0
  (* existence is order-independent: scan the frame table directly *)
  && Array.exists
    (function
      | None -> false
      | Some f ->
          let img = f.bi.img in
          let rec scan k =
            k < img.Bi.n_stores
            && (((f.seq < seq || (f.seq = seq && img.Bi.store_lsids.(k) < lsid))
                 && is_unresolved f.stores.(k))
               || scan (k + 1))
          in
          scan 0)
    sim.frames

let any_unresolved_store f = f.unres > 0

let read_with_forwarding sim ~width ~addr ~seq ~lsid =
  let nbytes = Mem.width_bytes width in
  let base_tok = Mem.load sim.mem ~width ~addr in
  if base_tok.Token.exc then base_tok
  else
    match stores_before sim ~seq ~lsid with
    | [] ->
        (* no in-flight store to forward from: the byte-merge below
           would reconstruct exactly [Mem.load]'s value (same bytes,
           same sign extension), so skip it *)
        base_tok
    | stores ->
    let bytes = Bytes.create nbytes in
    for i = 0 to nbytes - 1 do
      Bytes.set bytes i
        (Char.chr
           (Int64.to_int
              (Int64.logand
                 (Int64.shift_right_logical base_tok.Token.payload (8 * i))
                 0xFFL)))
    done;
    let exc = ref false in
    List.iter
      (fun (_, _, s) ->
        match s with
        | { s_addr = sa; s_value = value; s_width = sw; s_exc = se } ->
            let sbytes = Mem.width_bytes sw in
            for i = 0 to sbytes - 1 do
              let off = Int64.sub (Int64.add sa (Int64.of_int i)) addr in
              if off >= 0L && off < Int64.of_int nbytes then begin
                if se then exc := true;
                Bytes.set bytes (Int64.to_int off)
                  (Char.chr
                     (Int64.to_int
                        (Int64.logand (Int64.shift_right_logical value (8 * i)) 0xFFL)))
              end
            done)
      stores;
    let v = ref 0L in
    for i = nbytes - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8)
             (Int64.of_int (Char.code (Bytes.get bytes i)))
    done;
    let v =
      match width with
      | Opcode.W1 ->
          if Int64.logand !v 0x80L <> 0L then Int64.logor !v (Int64.lognot 0xFFL)
          else !v
      | Opcode.W4 ->
          if Int64.logand !v 0x80000000L <> 0L then
            Int64.logor !v (Int64.lognot 0xFFFFFFFFL)
          else !v
      | Opcode.W8 -> !v
    in
    let tok = Token.of_int64 v in
    if !exc then Token.with_exc tok else tok

(* ---------- forward declarations via mutual recursion ---------- *)

let rec deliver sim f target tok =
  if f.gen >= 0 then begin
    (if sim.oactive && tok.Token.null then
       match f.probe with Some p -> p.null_tokens <- p.null_tokens + 1 | None -> ());
    match target with
    | Target.To_write w -> (
        match f.writes.(w) with
        | Some _ -> failm "%s: write slot %d received two tokens" f.bi.img.Bi.name w
        | None ->
            if sim.otrace && sim.ofull then
              emit sim
                (Ev.Token
                   {
                     cycle = sim.cycle;
                     block = f.bi.img.Bi.name;
                     seq = f.seq;
                     dst = "W" ^ string_of_int w;
                     op = "-";
                     null = tok.Token.null;
                     pred = false;
                     matched = false;
                   });
            f.writes.(w) <- Some tok;
            output_produced sim f;
            (* wake subscribed younger readers *)
            let subs = f.write_subs.(w) in
            f.write_subs.(w) <- [];
            List.iter
              (fun (rfid, rgen, rslot) ->
                match frame_alive sim rfid rgen with
                | Some rf -> resolve_read sim rf rslot
                | None -> ())
              subs)
    | Target.To_instr { id; slot } -> (
        let i = f.bi.img.Bi.instrs.(id) in
        match slot with
        | Target.Pred ->
            let matched = Instr.predicate_matches i.Bi.pred tok in
            if sim.oactive then (
              match f.probe with
              | Some p -> p.pred_arrivals.(id) <- p.pred_arrivals.(id) + 1
              | None -> ());
            if sim.otrace && sim.ofull then
              emit sim
                (Ev.Token
                   {
                     cycle = sim.cycle;
                     block = f.bi.img.Bi.name;
                     seq = f.seq;
                     dst = Printf.sprintf "I%d.P" id;
                     op = i.Bi.mn;
                     null = tok.Token.null;
                     pred = true;
                     matched;
                   });
            if matched then begin
              if f.pred_matched.(id) then
                failm "%s: I%d two matching predicates" f.bi.img.Bi.name id;
              f.pred_matched.(id) <- true;
              f.pred_exc.(id) <- tok.Token.exc;
              wake sim f id
            end
        | Target.Left | Target.Right ->
            if sim.otrace && sim.ofull then
              emit sim
                (Ev.Token
                   {
                     cycle = sim.cycle;
                     block = f.bi.img.Bi.name;
                     seq = f.seq;
                     dst =
                       Printf.sprintf "I%d.%c" id
                         (match slot with Target.Left -> 'L' | _ -> 'R');
                     op = i.Bi.mn;
                     null = tok.Token.null;
                     pred = false;
                     matched = false;
                   });
            if i.Bi.is_store && tok.Token.null then
              if f.fired.(id) then
                failm "%s: null for fired store I%d" f.bi.img.Bi.name id
              else begin
                f.fired.(id) <- true;
                f.fstats.Stats.nulls_executed <-
                  f.fstats.Stats.nulls_executed + 1;
                resolve_store sim f i.Bi.lsid Nulled
              end
            else begin
              let arr =
                match slot with
                | Target.Left -> f.left
                | Target.Right -> f.right
                | Target.Pred -> assert false
              in
              (match arr.(id) with
              | Some _ ->
                  failm "%s: I%d operand delivered twice" f.bi.img.Bi.name id
              | None -> arr.(id) <- Some tok);
              wake sim f id
            end)
  end

and wake sim f id =
  let i = f.bi.img.Bi.instrs.(id) in
  if (not f.fired.(id)) && not f.queued.(id) then begin
    let data_ok =
      match i.Bi.op with
      | Opcode.Sand -> (
          match f.left.(id) with
          | Some l -> (not (Token.as_predicate l)) || Option.is_some f.right.(id)
          | None -> false)
      | _ ->
          (i.Bi.arity < 1 || Option.is_some f.left.(id))
          && (i.Bi.arity < 2 || Option.is_some f.right.(id))
    in
    let pred_ok = (not i.Bi.predicated) || f.pred_matched.(id) in
    if data_ok && pred_ok then begin
      if sim.otrace && sim.ofull then
        emit sim
          (Ev.Wakeup
             {
               cycle = sim.cycle;
               block = f.bi.img.Bi.name;
               seq = f.seq;
               id;
               op = i.Bi.mn;
             });
      f.queued.(id) <- true;
      rq_push sim.ready.(f.bi.placement.(id))
        (pack_ready ~fid:f.fid ~gen:f.gen ~id);
      sim.ready_count <- sim.ready_count + 1
    end
  end

and output_produced _sim f =
  f.outputs_left <- f.outputs_left - 1;
  if f.outputs_left = 0 then f.complete <- true

and resolve_store sim f lsid r =
  let img = f.bi.img in
  let idx = Bi.store_slot_of img lsid in
  if idx < 0 then failm "%s: undeclared store lsid %d" img.Bi.name lsid;
  (match f.stores.(idx) with
  | Unresolved -> ()
  | Stored _ | Nulled ->
      failm "%s: store lsid %d resolved twice" img.Bi.name lsid);
  f.stores.(idx) <- r;
  f.unres <- f.unres - 1;
  sim.unres_total <- sim.unres_total - 1;
  (match r with
  | Stored _ ->
      f.nstored <- f.nstored + 1;
      sim.stored_total <- sim.stored_total + 1
  | Nulled | Unresolved -> ());
  output_produced sim f;
  (* violation check: younger executed loads that should have seen this
     store *)
  (match r with
  | Unresolved -> ()
  | Stored _ when sim.loads_total = 0 -> ()
  | Stored { s_addr = addr; s_width = width; _ } ->
      let bytes = Mem.width_bytes width in
      let overlap (laddr, lbytes) =
        let a1 = addr and a2 = Int64.add addr (Int64.of_int bytes) in
        let b1 = laddr and b2 = Int64.add laddr (Int64.of_int lbytes) in
        not (a2 <= b1 || b2 <= a1)
      in
      let violator =
        List.find_opt
          (fun fr ->
            List.exists
              (fun (llsid, laddr, lbytes) ->
                (fr.seq > f.seq || (fr.seq = f.seq && llsid > lsid))
                && overlap (laddr, lbytes))
              fr.loads_done)
          (live_frames sim)
      in
      (match violator with
      | Some fv ->
          sim.stats.Stats.lsq_violations <- sim.stats.Stats.lsq_violations + 1;
          (* train the dependence predictor on exactly the violating
             loads: record which store they must wait for *)
          let row = fv.bi.img.Bi.index * sim.dep_stride in
          List.iter
            (fun (llsid, laddr, lbytes) ->
              if
                (fv.seq > f.seq || (fv.seq = f.seq && llsid > lsid))
                && overlap (laddr, lbytes)
                && llsid >= 0 && llsid < sim.dep_stride
              then
                if fv.seq = f.seq then
                  sim.dep_same.(row + llsid) <-
                    max lsid sim.dep_same.(row + llsid)
                else sim.dep_cross.(row + llsid) <- true)
            fv.loads_done;
          flush_from sim fv.seq ~reason:"violation"
            ~refetch:(Some fv.bi.img.Bi.name)
      | None -> ())
  | Nulled -> ());
  (* deferred loads may now proceed *)
  retry_deferred sim

and retry_deferred sim =
  if sim.deferred_total = 0 then ()
  else
  List.iter
    (fun f ->
      let ls = f.deferred_loads in
      f.deferred_loads <- [];
      sim.deferred_total <- sim.deferred_total - List.length ls;
      List.iter
        (fun id ->
          if not f.fired.(id) then begin
            f.queued.(id) <- false;
            wake sim f id
          end)
        ls)
    (live_frames sim)

and flush_from sim seq ~reason ~refetch =
  List.iter
    (fun f ->
      if f.seq >= seq then begin
        if sim.oactive then begin
          let orphans = frame_orphans f in
          mincr sim "sim.blocks_squashed";
          mincr sim ~by:f.fstats.Stats.instrs_executed "sim.instrs_squashed";
          mobserve sim "block.squash_orphans" orphans;
          (match f.probe with
          | Some p ->
              for i = 0 to f.bi.img.Bi.n - 1 do
                if p.pred_arrivals.(i) > 0 then
                  mobserve sim "block.pred_or_arrivals" p.pred_arrivals.(i)
              done
          | None -> ());
          if sim.otrace then
            emit sim
              (Ev.Squash
                 {
                   cycle = sim.cycle;
                   block = f.bi.img.Bi.name;
                   seq = f.seq;
                   reason;
                   orphans;
                 })
        end;
        Stats.add sim.stats f.fstats;
        sim.stats.Stats.blocks_flushed <- sim.stats.Stats.blocks_flushed + 1;
        sim.unres_total <- sim.unres_total - f.unres;
        sim.stored_total <- sim.stored_total - f.nstored;
        sim.deferred_total <- sim.deferred_total - List.length f.deferred_loads;
        sim.loads_total <- sim.loads_total - List.length f.loads_done;
        sim.frames.(f.fid) <- None;
        invalidate_live sim
      end)
    (live_frames sim);
  (* older frames may hold subscriptions from flushed readers: they are
     filtered lazily via frame_alive *)
  (match sim.fetch with
  | Fbusy _ | Fwait _ | Fidle -> ());
  (* any in-flight fetch was ordered after the flushed frames *)
  (match refetch with
  | Some name ->
      start_fetch sim name ~extra:(sim.machine.Machine.predict_cycles)
  | None -> sim.fetch <- Fidle)

and start_fetch sim name ~extra =
  if String.equal name Block.halt_exit then sim.fetch <- Fidle
  else
    (* block names are interned: predictions and exits hand back the
       image's own string objects, so a physical-equality memo skips the
       hashtable on the (very common) repeated target *)
    let idx =
      if name == sim.fetch_memo_name then sim.fetch_memo_idx
      else
        match Bi.find_index sim.img name with
        | None -> failm "no block %s" name
        | Some idx ->
            sim.fetch_memo_name <- name;
            sim.fetch_memo_idx <- idx;
            idx
    in
    let bi = binfo sim idx in
    let pen = icache_penalty sim bi in
    if sim.otrace then
      emit sim (Ev.Fetch { cycle = sim.cycle; block = name; penalty = pen });
    sim.fetch <-
      Fbusy
        {
          idx;
          done_at = sim.cycle + extra + sim.machine.Machine.fetch_cycles + pen;
          held = false;
        }

(* resolve register read slot [rslot] of frame [f]: find the value in
   older in-flight frames or the architectural register file; subscribe
   if the producing write has not arrived yet *)
and resolve_read sim f rslot =
  let r = f.bi.img.Bi.reads.(rslot) in
  let reg = r.Block.reg in
  let frames = sim.frames in
  let nf = Array.length frames in
  (* walk older in-flight frames youngest-first by scanning the frame
     table for the largest seq below the moving bound — ≤ max_inflight²
     compares, no list allocation *)
  let rec search bound =
    let best = ref (-1) and best_seq = ref min_int in
    for i = 0 to nf - 1 do
      match frames.(i) with
      | Some o when o.seq < bound && o.seq > !best_seq ->
          best := i;
          best_seq := o.seq
      | Some _ | None -> ()
    done;
    if !best < 0 then
      (* architectural register file *)
      send_read_value sim f rslot (Token.of_int64 sim.regs.(reg))
    else
      let o = match frames.(!best) with Some o -> o | None -> assert false in
      let wslot =
        if reg >= 0 && reg < 128 then o.bi.img.Bi.wslot_of_reg.(reg) else -1
      in
      if wslot < 0 then search o.seq
      else
        match o.writes.(wslot) with
        | Some tok when tok.Token.null -> search o.seq
        | Some tok -> send_read_value sim f rslot tok
        | None ->
            o.write_subs.(wslot) <- (f.fid, f.gen, rslot) :: o.write_subs.(wslot)
  in
  search f.seq

and send_read_value sim f rslot tok =
  let r = f.bi.img.Bi.reads.(rslot) in
  if sim.otrace && sim.ofull then
    emit sim
      (Ev.Read
         {
           cycle = sim.cycle;
           block = f.bi.img.Bi.name;
           seq = f.seq;
           rslot;
           reg = r.Block.reg;
         });
  let tgts = f.bi.img.Bi.rtargets.(rslot) in
  let hops = f.bi.rd_hops.(rslot) in
  for k = 0 to Array.length tgts - 1 do
    f.pending_events <- f.pending_events + 1;
    schedule sim
      hops.(k)
      {
        ek = 0;
        efid = f.fid;
        egen = f.gen;
        eid = 0;
        etok = tok;
        etok2 = ev_tok0;
        etgt = tgts.(k);
        eexc = false;
        ebtgt = None;
      }
  done

(* send the result of instruction [id] to its targets with network
   delays *)
let send_result sim f id tok =
  let tgts = f.bi.img.Bi.instrs.(id).Bi.targets in
  let hops = f.bi.res_hops.(id) in
  for k = 0 to Array.length tgts - 1 do
    let h = hops.(k) in
    sim.stats.Stats.operand_hops <- sim.stats.Stats.operand_hops + h;
    if sim.oactive then mincr sim ~by:h "sim.operand_hops";
    f.pending_events <- f.pending_events + 1;
    schedule sim h
      {
        ek = 0;
        efid = f.fid;
        egen = f.gen;
        eid = 0;
        etok = tok;
        etok2 = ev_tok0;
        etgt = tgts.(k);
        eexc = false;
        ebtgt = None;
      }
  done

(* called at every real firing (not a deferred-load retry), so it also
   carries the per-issue trace hook *)
let class_stats sim f id (i : Bi.inst) =
  if sim.otrace && sim.ofull then
    emit sim
      (Ev.Issue
         {
           cycle = sim.cycle;
           block = f.bi.img.Bi.name;
           seq = f.seq;
           id;
           op = i.Bi.mn;
           tile = f.bi.placement.(id);
         });
  f.fstats.Stats.instrs_executed <- f.fstats.Stats.instrs_executed + 1;
  match i.Bi.cls with
  | Bi.Smove -> f.fstats.Stats.moves_executed <- f.fstats.Stats.moves_executed + 1
  | Bi.Snull -> f.fstats.Stats.nulls_executed <- f.fstats.Stats.nulls_executed + 1
  | Bi.Stest -> f.fstats.Stats.tests_executed <- f.fstats.Stats.tests_executed + 1
  | Bi.Splain -> ()

(* branch resolution: prediction check, flushes, fetch redirect *)
let resolve_branch sim f target exc exit_idx =
  (match f.branch with
  | Some _ -> failm "%s: two branches fired" f.bi.img.Bi.name
  | None -> ());
  f.branch <- Some (target, exc, exit_idx);
  output_produced sim f;
  let actual = match target with None -> Block.halt_exit | Some t -> t in
  (* train at resolution so the BTB warms before commit; TRIPS predictors
     are speculatively updated too *)
  Predictor.update_hashed sim.predictor ~block_hash:f.bi.img.Bi.name_hash
    ~exit_idx ~target:actual;
  let mispredicted = ref false in
  if not f.prediction_checked then begin
    f.prediction_checked <- true;
    match f.predicted_next with
    | Some predicted ->
        Predictor.record_outcome sim.predictor
          ~correct:(String.equal predicted actual);
        if not (String.equal predicted actual) then begin
          mispredicted := true;
          sim.stats.Stats.branch_mispredicts <-
            sim.stats.Stats.branch_mispredicts + 1;
          flush_from sim (f.seq + 1) ~reason:"mispredict" ~refetch:(Some actual)
        end
    | None -> (
        (* fetch was stalled on us (or we are the youngest) *)
        match sim.fetch with
        | Fwait s when s = f.seq ->
            f.predicted_next <- Some actual;
            start_fetch sim actual ~extra:sim.machine.Machine.predict_cycles
        | Fwait _ | Fidle | Fbusy _ -> f.predicted_next <- Some actual)
  end;
  if sim.oactive then begin
    mincr sim "sim.branch_resolutions";
    if !mispredicted then mincr sim "sim.branch_mispredicts";
    if sim.otrace then
      emit sim
        (Ev.Branch
           {
             cycle = sim.cycle;
             block = f.bi.img.Bi.name;
             seq = f.seq;
             target = actual;
             mispredict = !mispredicted;
           })
  end;
  sim.stats.Stats.branch_predictions <- sim.stats.Stats.branch_predictions + 1

(* execute one pooled event and recycle it; events for squashed frames
   (generation mismatch) are dropped, exactly as the closures'
   [frame_alive] guards did *)
let exec_ev sim ev =
  (match frame_alive sim ev.efid ev.egen with
  | None -> ()
  | Some f -> (
      f.pending_events <- f.pending_events - 1;
      match ev.ek with
      | 0 -> deliver sim f ev.etgt ev.etok
      | 1 -> send_result sim f ev.eid ev.etok
      | 2 ->
          let id = ev.eid in
          let i = f.bi.img.Bi.instrs.(id) in
          let width =
            match i.Bi.op with Opcode.St w -> w | _ -> assert false
          in
          let base = ev.etok and v = ev.etok2 in
          if v.Token.null || base.Token.null then
            resolve_store sim f i.Bi.lsid Nulled
          else
            let addr = Int64.add base.Token.payload i.Bi.imm in
            let exc = base.Token.exc || v.Token.exc || f.pred_exc.(id) in
            resolve_store sim f i.Bi.lsid
              (Stored
                 {
                   s_addr = addr;
                   s_value = v.Token.payload;
                   s_width = width;
                   s_exc = exc;
                 })
      | _ -> resolve_branch sim f ev.ebtgt ev.eexc ev.eid))

(* fire one instruction instance *)
let fire sim f id =
  let i = f.bi.img.Bi.instrs.(id) in
  f.queued.(id) <- false;
  let taint_pred tok = if f.pred_exc.(id) then Token.with_exc tok else tok in
  match i.Bi.op with
  | Opcode.Ld width ->
      let lsid = i.Bi.lsid in
      let must_wait =
        if not sim.machine.Machine.aggressive_loads then
          unresolved_before sim ~seq:f.seq ~lsid
        else if lsid < 0 || lsid >= sim.dep_stride then false
        else begin
          let k = (f.bi.img.Bi.index * sim.dep_stride) + lsid in
          let same = sim.dep_same.(k) and cross = sim.dep_cross.(k) in
          let same_wait =
            same >= 0
            &&
            let img = f.bi.img in
            let rec scan j =
              j < img.Bi.n_stores
              && ((img.Bi.store_lsids.(j) < lsid
                   && img.Bi.store_lsids.(j) <= same
                   && is_unresolved f.stores.(j))
                 || scan (j + 1))
            in
            scan 0
          in
          let cross_wait =
            cross
            && Array.exists
                 (function
                   | Some fr -> fr.seq < f.seq && any_unresolved_store fr
                   | None -> false)
                 sim.frames
          in
          same_wait || cross_wait
        end
      in
      if must_wait then begin
        f.deferred_loads <- id :: f.deferred_loads;
        sim.deferred_total <- sim.deferred_total + 1
      end
      else begin
        f.fired.(id) <- true;
        class_stats sim f id i;
        let base = Option.get f.left.(id) in
        let addr = Int64.add base.Token.payload i.Bi.imm in
        let tok =
          if base.Token.exc || base.Token.null then Token.taint base (Token.of_int64 0L)
          else read_with_forwarding sim ~width ~addr ~seq:f.seq ~lsid
        in
        let tok = taint_pred (Token.taint base tok) in
        if not (base.Token.exc || base.Token.null) then begin
          f.loads_done <- (lsid, addr, Mem.width_bytes width) :: f.loads_done;
          sim.loads_total <- sim.loads_total + 1
        end;
        let lat =
          i.Bi.latency + (2 * f.bi.mem_hops.(id))
          + dcache_latency sim ~addr ~write:false
        in
        f.pending_events <- f.pending_events + 1;
        schedule sim lat
          {
            ek = 1;
            efid = f.fid;
            egen = f.gen;
            eid = id;
            etok = tok;
            etok2 = ev_tok0;
            etgt = ev_tgt0;
            eexc = false;
            ebtgt = None;
          }
      end
  | Opcode.St width ->
      f.fired.(id) <- true;
      class_stats sim f id i;
      ignore width;
      let base = Option.get f.left.(id) in
      let v = Option.get f.right.(id) in
      let lat = i.Bi.latency + f.bi.mem_hops.(id) in
      f.pending_events <- f.pending_events + 1;
      schedule sim lat
        {
          ek = 2;
          efid = f.fid;
          egen = f.gen;
          eid = id;
          etok = base;
          etok2 = v;
          etgt = ev_tgt0;
          eexc = false;
          ebtgt = None;
        }
  | Opcode.Bro ->
      f.fired.(id) <- true;
      class_stats sim f id i;
      let tgt = f.bi.img.Bi.exits.(i.Bi.exit_idx) in
      let tgt = if String.equal tgt Block.halt_exit then None else Some tgt in
      let exc = f.pred_exc.(id) in
      f.pending_events <- f.pending_events + 1;
      schedule sim i.Bi.latency
        {
          ek = 3;
          efid = f.fid;
          egen = f.gen;
          eid = i.Bi.exit_idx;
          etok = ev_tok0;
          etok2 = ev_tok0;
          etgt = ev_tgt0;
          eexc = exc;
          ebtgt = tgt;
        }
  | Opcode.Halt ->
      f.fired.(id) <- true;
      class_stats sim f id i;
      let exc = f.pred_exc.(id) in
      f.pending_events <- f.pending_events + 1;
      schedule sim 1
        {
          ek = 3;
          efid = f.fid;
          egen = f.gen;
          eid = 0;
          etok = ev_tok0;
          etok2 = ev_tok0;
          etgt = ev_tgt0;
          eexc = exc;
          ebtgt = None;
        }
  | Opcode.Sand ->
      f.fired.(id) <- true;
      class_stats sim f id i;
      let l = Option.get f.left.(id) in
      let tok =
        if not (Token.as_predicate l) then Token.taint l (Token.of_int64 0L)
        else
          let r = Option.get f.right.(id) in
          Token.taint l
            (Token.taint r
               (Token.of_int64 (if Token.as_predicate r then 1L else 0L)))
      in
      let tok = taint_pred tok in
      f.pending_events <- f.pending_events + 1;
      schedule sim i.Bi.latency
        {
          ek = 1;
          efid = f.fid;
          egen = f.gen;
          eid = id;
          etok = tok;
          etok2 = ev_tok0;
          etgt = ev_tgt0;
          eexc = false;
          ebtgt = None;
        }
  | _ ->
      f.fired.(id) <- true;
      class_stats sim f id i;
      let tok =
        Alu.exec i.Bi.op ~imm:i.Bi.imm ~left:f.left.(id) ~right:f.right.(id)
      in
      let tok = taint_pred tok in
      f.pending_events <- f.pending_events + 1;
      schedule sim i.Bi.latency
        {
          ek = 1;
          efid = f.fid;
          egen = f.gen;
          eid = id;
          etok = tok;
          etok2 = ev_tok0;
          etgt = ev_tgt0;
          eexc = false;
          ebtgt = None;
        }

(* dispatch a fetched block into a free frame slot *)
let dispatch sim idx =
  let fid =
    let found = ref (-1) in
    Array.iteri
      (fun i f -> if Option.is_none f && !found < 0 then found := i)
      sim.frames;
    !found
  in
  assert (fid >= 0);
  let bi = binfo sim idx in
  let img = bi.img in
  let n = img.Bi.n in
  let n_writes = img.Bi.n_writes in
  let n_stores = img.Bi.n_stores in
  let f =
    {
      fid;
      gen = sim.next_gen;
      seq = sim.next_seq;
      bi;
      left = Array.make n None;
      right = Array.make n None;
      pred_matched = Array.make n false;
      pred_exc = Array.make n false;
      fired = Array.make n false;
      queued = Array.make n false;
      stores = Array.make n_stores Unresolved;
      writes = Array.make n_writes None;
      write_subs = Array.make (max 1 n_writes) [];
      branch = None;
      predicted_next = None;
      prediction_checked = false;
      outputs_left = img.Bi.outputs;
      pending_events = 0;
      deferred_loads = [];
      loads_done = [];
      unres = n_stores;
      nstored = 0;
      fstats = Stats.create ();
      complete = false;
      dispatched_at = sim.cycle;
      probe =
        (if sim.oactive then
           Some { pred_arrivals = Array.make (max 1 n) 0; null_tokens = 0 }
         else None);
    }
  in
  sim.next_seq <- sim.next_seq + 1;
  sim.next_gen <- sim.next_gen + 1;
  sim.unres_total <- sim.unres_total + n_stores;
  sim.frames.(fid) <- Some f;
  invalidate_live sim;
  f.fstats.Stats.blocks_executed <- 1;
  f.fstats.Stats.instrs_fetched <- n;
  if sim.otrace then
    emit sim
      (Ev.Dispatch
         { cycle = sim.cycle; block = img.Bi.name; seq = f.seq; fid; instrs = n });
  if sim.oactive then begin
    mincr sim "sim.blocks_dispatched";
    (* static predicate fanout: how many consumers each test instruction
       feeds through predicate slots (paper §3.3, predicate-OR trees) *)
    Array.iter
      (fun (i : Bi.inst) ->
        if i.Bi.pred_fanout > 0 then
          mobserve sim "block.pred_fanout" i.Bi.pred_fanout)
      img.Bi.instrs
  end;
  (* seed register reads *)
  for rslot = 0 to Array.length img.Bi.reads - 1 do
    resolve_read sim f rslot
  done;
  (* seed 0-operand unpredicated instructions *)
  Array.iter (fun id -> wake sim f id) img.Bi.seeds;
  (* chain the next fetch off a prediction *)
  match Predictor.predict_hashed sim.predictor ~block_hash:img.Bi.name_hash with
  | Some predicted when sim.machine.Machine.max_inflight > 1 ->
      f.predicted_next <- Some predicted;
      start_fetch sim predicted ~extra:sim.machine.Machine.predict_cycles
  | Some _ | None ->
      (match Sys.getenv_opt "DFP_BLOCK_TRACE" with
      | Some _ -> Printf.eprintf "FWAIT after %s at %d\n" img.Bi.name sim.cycle
      | None -> ());
      sim.fetch <- Fwait f.seq

(* commit the oldest frame if it is finished *)
let try_commit sim =
  match oldest_frame sim with
  | None -> ()
  | Some f ->
      let drained =
        sim.machine.Machine.early_termination || f.pending_events = 0
      in
      if f.complete && drained then begin
        let img = f.bi.img in
        (* mispredicated = predicated instructions that never fired *)
        Array.iteri
          (fun id (i : Bi.inst) ->
            if i.Bi.predicated && not f.fired.(id) then
              f.fstats.Stats.mispredicated_fetched <-
                f.fstats.Stats.mispredicated_fetched + 1)
          img.Bi.instrs;
        (* drain stores in lsid (= declaration) order *)
        for k = 0 to img.Bi.n_stores - 1 do
          match f.stores.(k) with
          | Stored { s_addr = addr; s_value = value; s_width = width; s_exc = exc }
            ->
              if exc then
                raise
                  (Fault (Printf.sprintf "store lsid %d" img.Bi.store_lsids.(k)));
              ignore (dcache_latency sim ~addr ~write:true);
              (match Mem.store sim.mem ~width ~addr value with
              | Ok () -> ()
              | Error () ->
                  raise (Fault (Printf.sprintf "store fault at %Ld" addr)))
          | Nulled -> ()
          | Unresolved -> assert false
        done;
        for w = 0 to img.Bi.n_writes - 1 do
          match f.writes.(w) with
          | Some t ->
              if t.Token.null then ()
              else if t.Token.exc then
                raise (Fault (Printf.sprintf "write W%d" w))
              else sim.regs.(img.Bi.write_regs.(w)) <- t.Token.payload
          | None -> assert false
        done;
        let target, bexc, exit_idx =
          match f.branch with Some x -> x | None -> assert false
        in
        if bexc then raise (Fault "branch");
        (match target with
        | Some t ->
            Predictor.update_hashed sim.predictor ~block_hash:img.Bi.name_hash
              ~exit_idx ~target:t
        | None ->
            Predictor.update_hashed sim.predictor ~block_hash:img.Bi.name_hash
              ~exit_idx ~target:Block.halt_exit);
        (match Sys.getenv_opt "DFP_BLOCK_TRACE" with
        | Some _ ->
            Printf.eprintf "BLK %s %d\n" img.Bi.name (sim.cycle - f.dispatched_at)
        | None -> ());
        f.fstats.Stats.blocks_committed <- 1;
        f.fstats.Stats.instrs_committed <- f.fstats.Stats.instrs_executed;
        if sim.oactive then begin
          let orphans = frame_orphans f in
          let nulls =
            match f.probe with Some p -> p.null_tokens | None -> 0
          in
          let occupancy = sim.cycle - f.dispatched_at in
          mincr sim "sim.blocks_committed";
          mincr sim ~by:f.fstats.Stats.instrs_committed "sim.instrs_committed";
          mobserve sim "block.occupancy" occupancy;
          mobserve sim "block.null_tokens" nulls;
          mobserve sim "block.mispredicated"
            f.fstats.Stats.mispredicated_fetched;
          (* work left in flight when early termination let the block
             commit before its dataflow drained (paper §4.3) *)
          if orphans > 0 then mobserve sim "block.early_orphans" orphans;
          (match f.probe with
          | Some p ->
              for i = 0 to img.Bi.n - 1 do
                if p.pred_arrivals.(i) > 0 then
                  mobserve sim "block.pred_or_arrivals" p.pred_arrivals.(i)
              done
          | None -> ());
          if sim.otrace then
            emit sim
              (Ev.Commit
                 {
                   cycle = sim.cycle;
                   block = img.Bi.name;
                   seq = f.seq;
                   instrs = f.fstats.Stats.instrs_committed;
                   nulls;
                   orphans;
                   occupancy;
                 })
        end;
        Stats.add sim.stats f.fstats;
        sim.unres_total <- sim.unres_total - f.unres;
        sim.stored_total <- sim.stored_total - f.nstored;
        sim.deferred_total <- sim.deferred_total - List.length f.deferred_loads;
        sim.loads_total <- sim.loads_total - List.length f.loads_done;
        sim.frames.(f.fid) <- None;
        invalidate_live sim;
        if Option.is_none target then begin
          sim.halted <- true;
          sim.stats.Stats.cycles <- sim.cycle
        end
      end

let step_issue sim =
  if sim.ready_count > 0 then
    for t = 0 to Array.length sim.ready - 1 do
      let q = sim.ready.(t) in
      if q.rlen > 0 then begin
        let budget = ref sim.machine.Machine.issue_per_tile in
        while !budget > 0 && q.rlen > 0 do
          let e = rq_pop q in
          let fid = ready_fid e and gen = ready_gen e and id = ready_id e in
          sim.ready_count <- sim.ready_count - 1;
          match frame_alive sim fid gen with
          | Some f when f.queued.(id) && not f.fired.(id) ->
              decr budget;
              fire sim f id
          | Some _ | None -> ()
        done
      end
    done

let step_fetch sim =
  match sim.fetch with
  | Fbusy b when sim.cycle >= b.done_at ->
      let free_slot = ref false and inflight = ref 0 in
      for k = 0 to Array.length sim.frames - 1 do
        match sim.frames.(k) with
        | Some _ -> incr inflight
        | None -> free_slot := true
      done;
      if !free_slot && !inflight < sim.machine.Machine.max_inflight then begin
        sim.fetch <- Fidle;
        dispatch sim b.idx
      end
      else b.held <- true
  | Fbusy _ | Fwait _ | Fidle -> ()

let next_interesting_cycle sim =
  (* scheduled events are strictly in the future, so when any tile has
     ready work the very next cycle is always the earliest candidate —
     skip the event-queue scan entirely *)
  if sim.ready_count > 0 then sim.cycle + 1
  else begin
    let best =
      match Event_queue.next_due sim.events with Some c -> c | None -> max_int
    in
    let best =
      match sim.fetch with
      | Fbusy b -> min best (max (sim.cycle + 1) b.done_at)
      | Fwait _ | Fidle -> best
    in
    if best = max_int then -1 else best
  end

let run ?(machine = Machine.default) ?placement ?(obs = Obs.null) program
    ~regs ~mem =
  let img = Bi.of_program program in
  let placement =
    match placement with
    | Some p -> p
    | None ->
        let num_tiles = Machine.num_tiles machine in
        fun name ->
          (match Bi.find_index img name with
          | Some i -> default_placement_n ~num_tiles img.Bi.blocks.(i).Bi.n
          | None -> [||])
  in
  let n_blocks = Array.length img.Bi.blocks in
  let dep_stride =
    let m = ref 0 in
    Array.iter
      (fun (b : Bi.t) ->
        Array.iter (fun (i : Bi.inst) -> m := max !m (i.Bi.lsid + 1)) b.Bi.instrs)
      img.Bi.blocks;
    max 1 !m
  in
  let sim =
    {
      img;
      machine;
      placement;
      regs;
      mem;
      stats = Stats.create ();
      l1d =
        Cache.create ~size_bytes:machine.Machine.l1d_size
          ~ways:machine.Machine.l1d_ways ~line_bytes:machine.Machine.line_bytes
          ~hit_latency:machine.Machine.l1d_latency;
      l1i =
        Cache.create ~size_bytes:machine.Machine.l1i_size
          ~ways:machine.Machine.l1i_ways ~line_bytes:machine.Machine.line_bytes
          ~hit_latency:machine.Machine.l1i_latency;
      l2 =
        Cache.create ~size_bytes:machine.Machine.l2_size
          ~ways:machine.Machine.l2_ways ~line_bytes:machine.Machine.line_bytes
          ~hit_latency:machine.Machine.l2_latency;
      predictor =
        Predictor.create ~history_bits:machine.Machine.predictor_history_bits
          ~table_bits:machine.Machine.predictor_table_bits ();
      binfos = Array.make (max 1 n_blocks) None;
      dep_stride;
      dep_same = Array.make (max 1 (n_blocks * dep_stride)) (-1);
      dep_cross = Array.make (max 1 (n_blocks * dep_stride)) false;
      frames = Array.make machine.Machine.max_inflight None;
      live_cache = [];
      live_dirty = false;
      next_seq = 0;
      next_gen = 0;
      fetch = Fidle;
      fetch_memo_name = "";
      fetch_memo_idx = -1;
      events = Event_queue.create ();
      cycle = 0;
      unres_total = 0;
      stored_total = 0;
      deferred_total = 0;
      loads_total = 0;
      ready = Array.init (Machine.num_tiles machine) (fun _ -> rq_create ());
      ready_count = 0;
      halted = false;
      fault = None;
      obs;
      otrace = Obs.tracing obs;
      ofull = obs.Obs.full;
      oactive = Obs.active obs;
      ometrics = obs.Obs.metrics;
    }
  in
  match
    start_fetch sim program.Program.entry ~extra:0;
    while (not sim.halted) && sim.cycle < machine.Machine.max_cycles do
      (* events due now, in scheduling order *)
      Event_queue.drain sim.events ~cycle:sim.cycle (fun ev -> exec_ev sim ev);
      step_issue sim;
      step_fetch sim;
      try_commit sim;
      if not sim.halted then begin
        match next_interesting_cycle sim with
        | c when c >= 0 -> sim.cycle <- max (sim.cycle + 1) c
        | _ ->
            if
              no_live_frames sim
              && (match sim.fetch with Fidle -> true | Fwait _ | Fbusy _ -> false)
            then
              failm "machine idle before halt"
            else if
              Array.exists
                (function Some f -> not f.complete | None -> false)
                sim.frames
              && Event_queue.is_empty sim.events
            then failm "deadlock at cycle %d" sim.cycle
            else sim.cycle <- sim.cycle + 1
      end
    done;
    if not sim.halted then Error (Printf.sprintf "watchdog: %d cycles" sim.cycle)
    else Ok sim.stats
  with
  | r -> r
  | exception Malformed m -> Error ("malformed: " ^ m)
  | exception Fault m -> Error ("fault: " ^ m)
