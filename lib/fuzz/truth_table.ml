(* Regions as explicit truth tables: the exhaustive instance of
   [Edge_ir.Pgate.REGION].  Bit [a] of a table is the region's value on
   assignment [a], in which variable [v] takes bit [v] of [a].  Tables
   are packed 32 assignments per int word, so a block with k variables
   costs 2^k / 32 words per region (one word below k = 5), and every
   operation is a word-wise loop: a fixpoint over tables is the
   per-assignment fixpoint run for all assignments at once.  Nothing
   here is shared with the BDD package.  Tables are never mutated
   after construction, so the context's [top]/[bot]/[vars] tables are
   shared freely. *)

type r = int array

type ctx = {
  nvars : int;
  mask : int;  (** the word bits that are assignments *)
  top : r;
  bot : r;
  vars : r array;  (** the table of each variable *)
}

let word_bits = 5 (* log2 of the assignments per word *)

let create nvars =
  let n = 1 lsl nvars in
  let words = max 1 (n lsr word_bits) in
  let mask = (1 lsl min n (1 lsl word_bits)) - 1 in
  let bit_of_index v idx = if (idx lsr v) land 1 = 1 then 1 else 0 in
  let var v =
    Array.init words (fun w ->
        let x = ref 0 in
        for b = (1 lsl word_bits) - 1 downto 0 do
          x := (!x lsl 1) lor bit_of_index v ((w lsl word_bits) lor b)
        done;
        !x land mask)
  in
  {
    nvars;
    mask;
    top = Array.make words mask;
    bot = Array.make words 0;
    vars = Array.init nvars var;
  }

let top c = c.top
let bot c = c.bot
let var c v = c.vars.(v)
let neg c a = Array.map (fun x -> x lxor c.mask) a
let nvar c v = neg c c.vars.(v)
let conj _ a b = Array.map2 ( land ) a b
let disj _ a b = Array.map2 ( lor ) a b
let equal (a : r) b = a = b
let is_false a = Array.for_all (fun x -> x = 0) a

(* the lowest satisfying assignment, every variable listed *)
let any_sat c a =
  Array.find_index (fun x -> x <> 0) a
  |> Option.map (fun w ->
         let rec low b = if (a.(w) lsr b) land 1 = 1 then b else low (b + 1) in
         let idx = (w lsl word_bits) lor low 0 in
         List.init c.nvars (fun v -> (v, (idx lsr v) land 1 = 1)))
