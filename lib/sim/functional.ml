module Block = Edge_isa.Block
module Instr = Edge_isa.Instr
module Opcode = Edge_isa.Opcode
module Token = Edge_isa.Token
module Mem = Edge_isa.Mem
module Bi = Block_image

type outcome = { exit_taken : string option; faulted : string option }

type stored = { addr : int64; value : int64; width : Opcode.width; exc : bool }
type env = { regs : int64 array; mem : Mem.t; stats : Stats.t }
type state = (Token.t, stored) Block_step.state

(* a matching predicate's exception bit taints the result *)
let taint_pred (st : state) id tok =
  match st.pred.(id) with
  | Some p when p.Token.exc -> Token.with_exc tok
  | _ -> tok

(* Byte-accurate store-to-load forwarding: read the load's bytes from
   memory, then overlay every resolved store with a lower LSID, in LSID
   order. *)
let read_with_forwarding (st : state) ~mem ~width ~addr ~lsid =
  let nbytes = Mem.width_bytes width in
  let base_tok = Mem.load mem ~width ~addr in
  if base_tok.Token.exc then base_tok
  else begin
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
    let img = st.img in
    for k = 0 to img.Bi.n_stores - 1 do
      let slot = img.Bi.store_order.(k) in
      if img.Bi.store_lsids.(slot) < lsid then
        match st.stores.(slot) with
        | Block_step.Stored { addr = sa; value; width = sw; exc = se } ->
            let sbytes = Mem.width_bytes sw in
            for i = 0 to sbytes - 1 do
              let byte_addr = Int64.add sa (Int64.of_int i) in
              let off = Int64.sub byte_addr addr in
              if off >= 0L && off < Int64.of_int nbytes then begin
                if se then exc := true;
                Bytes.set bytes (Int64.to_int off)
                  (Char.chr
                     (Int64.to_int
                        (Int64.logand
                           (Int64.shift_right_logical value (8 * i))
                           0xFFL)))
              end
            done
        | Block_step.Unresolved | Block_step.Nulled -> ()
    done;
    let v = ref 0L in
    for i = nbytes - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get bytes i)))
    done;
    (* sign extension for sub-word loads *)
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
  end

(* the step's concrete instance: tokens carry payloads, null and
   exception bits; loads read memory through the block's resolved
   stores *)
module Step = Block_step.Make (struct
  type tok = Token.t
  type store = stored
  type nonrec env = env

  let is_null t = t.Token.null
  let is_false t = not (Token.as_predicate t)
  let matches _ pred tok = Instr.predicate_matches pred tok
  let read env img rslot =
    Token.of_int64 env.regs.(img.Bi.reads.(rslot).Block.reg)

  let value env st id =
    let i = st.Block_step.img.Bi.instrs.(id) in
    match i.Bi.op with
    | Opcode.Ld width ->
        let base = Option.get st.left.(id) in
        let addr = Alu.effective_address ~base ~imm:i.Bi.imm in
        let tok =
          if base.Token.exc || base.Token.null then
            Token.taint base (Token.of_int64 0L)
          else read_with_forwarding st ~mem:env.mem ~width ~addr ~lsid:i.Bi.lsid
        in
        taint_pred st id (Token.taint base tok)
    | Opcode.Sand ->
        let l = Option.get st.left.(id) in
        let tok =
          if not (Token.as_predicate l) then Token.taint l (Token.of_int64 0L)
          else
            let r = Option.get st.right.(id) in
            Token.taint l
              (Token.taint r
                 (Token.of_int64 (if Token.as_predicate r then 1L else 0L)))
        in
        taint_pred st id tok
    | op ->
        taint_pred st id
          (Alu.exec op ~imm:i.Bi.imm ~left:st.left.(id) ~right:st.right.(id))

  (* null operands never reach a store's slots: they resolve it on
     arrival *)
  let store _ st id =
    let i = st.Block_step.img.Bi.instrs.(id) in
    let base = Option.get st.left.(id) and v = Option.get st.right.(id) in
    let width = match i.Bi.op with Opcode.St w -> w | _ -> assert false in
    {
      addr = Alu.effective_address ~base ~imm:i.Bi.imm;
      value = v.Token.payload;
      width;
      exc =
        base.Token.exc || v.Token.exc
        || (match st.pred.(id) with Some p -> p.Token.exc | None -> false);
    }

  let count env (i : Bi.inst) ~null_store =
    let s = env.stats in
    if null_store then s.Stats.nulls_executed <- s.Stats.nulls_executed + 1
    else begin
      s.Stats.instrs_executed <- s.Stats.instrs_executed + 1;
      match i.Bi.cls with
      | Bi.Smove -> s.Stats.moves_executed <- s.Stats.moves_executed + 1
      | Bi.Snull -> s.Stats.nulls_executed <- s.Stats.nulls_executed + 1
      | Bi.Stest -> s.Stats.tests_executed <- s.Stats.tests_executed + 1
      | Bi.Splain -> (
          match i.Bi.op with
          | Opcode.Sand -> s.Stats.tests_executed <- s.Stats.tests_executed + 1
          | _ -> ())
    end
end)

(* execute the block [st] was prepared for and commit its outputs *)
let exec_block (st : state) ~regs ~mem ~stats =
  match
    let img = st.img in
    stats.Stats.blocks_executed <- stats.Stats.blocks_executed + 1;
    stats.Stats.instrs_fetched <- stats.Stats.instrs_fetched + img.Bi.n;
    Step.run st { regs; mem; stats };
    if not (Block_step.complete st) then
      Block_step.fail "block %s deadlocked; missing:%s" img.Bi.name
        (Block_step.missing st);
    (* count mispredicated (fetched but never fired) instructions *)
    Array.iteri
      (fun id (i : Bi.inst) ->
        if i.Bi.predicated && not st.fired.(id) then
          stats.Stats.mispredicated_fetched <-
            stats.Stats.mispredicated_fetched + 1)
      img.Bi.instrs;
    (* commit: stores in LSID order, then register writes *)
    let fault = ref None in
    for k = 0 to img.Bi.n_stores - 1 do
      let slot = img.Bi.store_order.(k) in
      match st.stores.(slot) with
      | Block_step.Stored { addr; value; width; exc } ->
          if exc then
            fault := Some (Printf.sprintf "store lsid %d" img.Bi.store_lsids.(slot))
          else (
            match Mem.store mem ~width ~addr value with
            | Ok () -> ()
            | Error () ->
                fault := Some (Printf.sprintf "store fault at %Ld" addr))
      | Block_step.Nulled -> ()
      | Block_step.Unresolved -> assert false
    done;
    for w = 0 to img.Bi.n_writes - 1 do
      match st.writes.(w) with
      | Some t ->
          if t.Token.null then ()
          else if t.Token.exc then
            fault := Some (Printf.sprintf "write W%d" w)
          else regs.(img.Bi.write_regs.(w)) <- t.Token.payload
      | None -> assert false
    done;
    let br = img.Bi.instrs.(st.branch) in
    let exit_taken =
      match br.Bi.op with
      | Opcode.Bro ->
          let tgt = img.Bi.exits.(br.Bi.exit_idx) in
          if String.equal tgt Block.halt_exit then None else Some tgt
      | _ -> None
    in
    (match st.pred.(st.branch) with
    | Some p when p.Token.exc -> fault := Some "branch"
    | _ -> ());
    stats.Stats.blocks_committed <- stats.Stats.blocks_committed + 1;
    Ok { exit_taken; faulted = !fault }
  with
  | r -> r
  | exception Block_step.Malformed m -> Error m

let run_block block ~regs ~mem ~stats =
  let img = Bi.of_block block in
  let st =
    Block_step.make ~cap_n:img.Bi.n ~cap_w:img.Bi.n_writes
      ~cap_s:img.Bi.n_stores img
  in
  exec_block st ~regs ~mem ~stats

(* a capacity-sized state for the whole program; [prepare] repoints it
   per block *)
let state_for_program (imgp : Bi.program) =
  Block_step.make ~cap_n:imgp.Bi.max_n ~cap_w:imgp.Bi.max_writes
    ~cap_s:imgp.Bi.max_stores
    (* a placeholder image *)
    (if Array.length imgp.Bi.blocks > 0 then imgp.Bi.blocks.(0)
     else
       Bi.of_block
         {
           Block.name = "@none";
           instrs = [||];
           reads = [||];
           writes = [||];
           store_lsids = [];
           exits = [||];
         })

let run_interp ?(fuel_blocks = 10_000_000) program ~regs ~mem =
  let stats = Stats.create () in
  let imgp = Bi.of_program program in
  let st = state_for_program imgp in
  let rec go name fuel =
    if fuel <= 0 then Error "malformed: fuel exhausted"
    else
      match Bi.find_index imgp name with
      | None -> Error (Printf.sprintf "malformed: no block %s" name)
      | Some idx -> (
          Block_step.prepare st imgp.Bi.blocks.(idx);
          match exec_block st ~regs ~mem ~stats with
          | Error m -> Error ("malformed: " ^ m)
          | Ok { faulted = Some f; _ } -> Error ("fault: " ^ f)
          | Ok { exit_taken = None; _ } -> Ok stats
          | Ok { exit_taken = Some next; _ } -> go next (fuel - 1))
  in
  go program.Edge_isa.Program.entry fuel_blocks

(* ---- JIT dispatch ----

   [Block_jit] compiles block images to threaded-code closures with
   identical architectural semantics; this interpreter remains the
   reference path, selected by [~jit:false] or [set_jit false] (the
   [--no-jit] flag). *)

let jit_default = ref true

let set_jit b = jit_default := b
let jit_enabled () = !jit_default

let run ?fuel_blocks ?jit program ~regs ~mem =
  let use_jit = match jit with Some j -> j | None -> !jit_default in
  if use_jit then Block_jit.run ?fuel_blocks program ~regs ~mem
  else run_interp ?fuel_blocks program ~regs ~mem

(* ---- the reusable per-block engine ----

   [Inorder_sim] runs blocks through exactly this interpreter for
   architectural state (so it can never diverge from the functional
   simulator) and layers a timing model on top, reading back which
   instructions fired and the operands its cost model needs. *)

module Engine = struct
  type nonrec state = state

  let make = state_for_program
  let prepare = Block_step.prepare
  let exec_block = exec_block
  let fired (st : state) id = st.fired.(id)
  let left_operand (st : state) id = st.left.(id)
  let right_operand (st : state) id = st.right.(id)
end
