(* Static validation of compiled artifacts against the paper's ISA
   invariants, beyond the structural checks in [Edge_isa.Block.validate]:

   - structural well-formedness and binary encodability, the checker's
     structural tier ([Edge_check.Block_check.structural_diags], whose
     messages are reported as they are): Block.validate's caps,
     predicate-field legality, target arity and range and producer
     checks, then an encode/decode round trip of the block body
     (Figure 2 layout), which also enforces the reserved-target rule
     (no consumer at I0's left operand, whose encoding collides with
     "no target") and the 9-bit immediate limit;
   - predicate-path completeness: for every outcome of the block's
     predicate sources, the block is run through the simulator's own
     block step ([Edge_sim.Block_step]) at an abstract token domain —
     predicate parities true / false / unknown, the enumerated sources
     taking their assigned outcome. Firing, delivery and every
     malformed-block diagnostic are therefore the functional engine's,
     not a copy of them: no path may deliver two tokens to one operand
     or write slot, or two matching predicates to one consumer
     (predicate-OR well-formedness, rule 3 of Section 3.5), and every
     path must produce a token (possibly null) for every write slot,
     resolve every declared store LSID, and fire exactly one branch —
     the block-output consistency the hardware's
     completion-by-output-counting relies on (Sections 3-4).

   The variable abstraction (which sources are enumerated, which share a
   variable) lives in [Edge_ir.Gate], shared with the polynomial lattice
   checker in lib/check so the two analyses quantify over the same
   space.  Blocks whose variable count exceeds [max_vars] are skipped —
   no longer silently: [path_errors]/[block]/[program] report how many
   blocks the enumerator declined. *)

module B = Edge_isa.Block
module I = Edge_isa.Instr
module O = Edge_isa.Opcode
module Gate = Edge_ir.Gate
module Step = Edge_sim.Block_step
module Bi = Edge_sim.Block_image

let default_max_vars = 11

(* ---------- predicate-path enumeration ---------- *)

(* Abstract token values: predicates produced by tests are enumerated
   booleans; moves and sand propagate them; constants have a known
   parity; everything else is unknown (and receives an enumeration
   variable when its value feeds predicate matching). *)
type aval = VTrue | VFalse | VUnknown

type atok = { v : aval; null : bool }

(* the block step at the abstract domain: the environment is one
   assignment's value of every instruction, then of every register
   read, indexed as [Gate.variables] numbers them *)
module Path = Step.Make (struct
  type tok = atok
  type store = unit
  type env = aval array

  let is_null t = t.null
  let is_false t = t.v = VFalse

  let matches id pred t =
    match (pred, t.v) with
    | I.If_true, VTrue | I.If_false, VFalse -> true
    | I.If_true, VFalse | I.If_false, VTrue -> false
    | _ -> Step.fail "I%d: predicate arrives with underivable value" id

  let read vals (img : Bi.t) rslot =
    { v = vals.(img.Bi.n + rslot); null = false }

  let value vals (st : (atok, unit) Step.state) id =
    match st.img.Bi.instrs.(id).Bi.op with
    | O.Null -> { v = VFalse; null = true }
    (* moves copy their operand; two's-complement negation preserves
       the low bit *)
    | O.Un (O.Mov | O.Neg) | O.Mov4 -> Option.get st.left.(id)
    | O.Un O.Not ->
        (* bitwise not flips the low bit, so predicate parity inverts *)
        let l = Option.get st.left.(id) in
        let v =
          match l.v with
          | VTrue -> VFalse
          | VFalse -> VTrue
          | VUnknown -> VUnknown
        in
        { l with v }
    | O.Sand ->
        let l = Option.get st.left.(id) in
        let v =
          match l.v with
          | VFalse -> VFalse
          | VTrue -> (Option.get st.right.(id)).v
          | VUnknown -> VUnknown
        in
        { v; null = l.null }
    | _ -> { v = vals.(id); null = false }

  let store _ _ _ = ()
  let count _ _ ~null_store:_ = ()
end)

let pp_assignment names bits =
  String.concat " "
    (List.mapi
       (fun pos name -> Printf.sprintf "%s=%d" name ((bits lsr pos) land 1))
       names)

(* Returns the path errors plus whether enumeration was skipped because
   the block needs more than [max_vars] variables (2^k paths). *)
let path_errors ?(max_vars = default_max_vars) (b : B.t) :
    string list * bool =
  let n = Array.length b.B.instrs in
  let rel = Gate.boolean_relevant b in
  let names, var_of, k = Gate.variables b rel in
  if k > max_vars then ([], true)
  else begin
    let img = Bi.of_block b in
    let st =
      Step.make ~cap_n:n ~cap_w:img.Bi.n_writes ~cap_s:img.Bi.n_stores img
    in
    let vals =
      Array.init (n + Array.length b.B.reads) (fun idx ->
          if idx >= n then VUnknown
          else
            match Gate.const_parity b.B.instrs.(idx) with
            | Some true -> VTrue
            | Some false -> VFalse
            | None -> VUnknown)
    in
    let rec go bits =
      if bits >= 1 lsl k then []
      else begin
        Hashtbl.iter
          (fun idx (pos, negated) ->
            vals.(idx) <-
              (if bits land (1 lsl pos) <> 0 <> negated then VTrue else VFalse))
          var_of;
        Step.prepare st img;
        match
          Path.run st vals;
          if not (Step.complete st) then
            Step.fail "block output starves; missing:%s" (Step.missing st)
        with
        | () -> go (bits + 1)
        | exception Step.Malformed m ->
            [ Printf.sprintf "path [%s]: %s" (pp_assignment names bits) m ]
      end
    in
    (go 0, false)
  end

(* ---------- entry points ---------- *)

(* [Ok skipped]: the block is clean as far as the enumerator looked;
   [skipped] is true when path enumeration was declined (too many
   variables) and only the structural/round-trip checks ran. *)
let block ?max_vars (b : B.t) : (bool, string list) result =
  let structural =
    List.map
      (fun d -> d.Edge_check.Diag.message)
      (Edge_check.Block_check.structural_diags ~pass:"validate" b)
  in
  let path, skipped = path_errors ?max_vars b in
  match structural @ path with
  | [] -> Ok skipped
  | es -> Error es

(* [Ok n]: the program is clean; [n] blocks were too wide for path
   enumeration and got only structural checks. *)
let program ?max_vars (p : Edge_isa.Program.t) : (int, string list) result =
  let skipped = ref 0 in
  let block_errs =
    List.concat_map
      (fun (name, blk) ->
        match block ?max_vars blk with
        | Ok s ->
            if s then incr skipped;
            []
        | Error es -> List.map (fun e -> name ^ ": " ^ e) es)
      p.Edge_isa.Program.blocks
  in
  (* the inter-block exit graph *)
  let exit_errs =
    List.concat_map
      (fun (name, (blk : B.t)) ->
        Array.to_list blk.B.exits
        |> List.filter_map (fun e ->
               if
                 String.equal e B.halt_exit
                 || Edge_isa.Program.find p e <> None
               then None
               else Some (Printf.sprintf "%s: exit to unknown block %s" name e)))
      p.Edge_isa.Program.blocks
  in
  match block_errs @ exit_errs with [] -> Ok !skipped | es -> Error es
