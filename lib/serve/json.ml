(* The serve protocol's wire format is the repo's one JSON codec; this
   re-export keeps the [Edge_serve.Json] name working for callers. *)
include Edge_obs.Json
