(* JSON well-formedness check, used by `make trace-smoke` and the tests
   to prove that the Chrome trace-event files we emit actually parse:
   {!Json}'s strict RFC 8259 parser with the value discarded. Returns
   the byte offset of the first error. *)

type error = Json.error = { offset : int; message : string }

let check (s : string) : (unit, error) result = Result.map ignore (Json.decode s)
