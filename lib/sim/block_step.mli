(** The token-pushing block step, generic over a token-value domain.

    One executable semantics for a TRIPS block (Sections 3–4): operand
    and predicate delivery, predicate matching and predicate-OR (at
    most one matching predicate per consumer, rule 3 of Section 3.5),
    null tokens that resolve a store on arrival (Section 4.2),
    LSID-ordered load deferral, branch accounting and every
    malformed-block diagnostic. A {!DOMAIN} supplies what a token
    carries. {!Functional} instantiates it over concrete tokens (the
    simulator), [Edge_fuzz.Validate] over three-valued predicate
    parities (the path enumerator). *)

exception Malformed of string
(** A block that breaks the execution rules; the message names the rule
    and the instruction, write slot or LSID. *)

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Malformed} with a formatted message. *)

type 'store resolution = Unresolved | Stored of 'store | Nulled

type ('tok, 'store) state = {
  mutable img : Block_image.t;
  left : 'tok option array;
  right : 'tok option array;
  pred : 'tok option array;  (** the matching predicate, once it arrived *)
  fired : bool array;
  writes : 'tok option array;
  stores : 'store resolution array;  (** per declared store slot *)
  mutable branch : int;  (** id of the fired branch, -1 before *)
  mutable pending_loads : int list;  (** loads deferred on LSID order *)
  mutable q_tgt : Edge_isa.Target.t array;
  mutable q_tok : 'tok array;
  mutable q_head : int;
  mutable q_len : int;
}
(** Per-block execution state. The arrays are capacities: one state
    serves every block whose counts fit. *)

val make :
  cap_n:int -> cap_w:int -> cap_s:int -> Block_image.t -> ('tok, 'store) state

val prepare : ('tok, 'store) state -> Block_image.t -> unit
(** Point the state at a block image and clear the live prefix. *)

val complete : ('tok, 'store) state -> bool
(** Every write slot holds a token, every declared store is resolved
    and a branch fired. *)

val missing : ('tok, 'store) state -> string
(** The unproduced outputs, each preceded by a space ([" W0 S3 branch"]),
    in write-slot, store-declaration, branch order. *)

module type DOMAIN = sig
  type tok

  type store
  (** The payload of a resolved, non-null store. *)

  type env
  (** What a firing reads besides the block state. *)

  val is_null : tok -> bool

  val is_false : tok -> bool
  (** The token is definitely a false predicate: a [Sand] fires on such
      a left operand alone. *)

  val matches : int -> Edge_isa.Instr.predication -> tok -> bool
  (** Does a predicate token match instruction [id]'s (never
      [Unpredicated]) predication? May raise {!Malformed}. *)

  val read : env -> Block_image.t -> int -> tok
  (** The token register-read slot [rslot] injects. *)

  val value : env -> (tok, store) state -> int -> tok
  (** The token instruction [id] produces when it fires: every opcode
      but stores and branches. *)

  val store : env -> (tok, store) state -> int -> store

  val count : env -> Block_image.inst -> null_store:bool -> unit
  (** Statistics hook, once per firing; [null_store] when a null operand
      resolved the store instead. *)
end

module Make (D : DOMAIN) : sig
  val run : (D.tok, D.store) state -> D.env -> unit
  (** Seed the prepared block's register reads and 0-operand
      unpredicated instructions, then deliver tokens until none is
      pending. Raises {!Malformed}; completeness is the caller's
      {!complete} check. *)
end
