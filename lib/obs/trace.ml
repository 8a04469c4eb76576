(* Trace sinks and exporters.

   A sink is just a callback; the simulator never sees how events are
   consumed. The in-memory collector preserves emission order, which is
   deterministic because each simulation runs single-threaded — the
   golden tests compare the rendered bytes across [-j] values to lock
   that down. *)

type level = Blocks | Full

type sink = Event.t -> unit

let collector () =
  let events = ref [] in
  let emit e = events := e :: !events in
  (emit, fun () -> List.rev !events)

(* ---------- compact deterministic text ---------- *)

let render_text ?(header = []) events =
  let b = Buffer.create 4096 in
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "# %s: %s\n" k v))
    header;
  List.iter
    (fun e ->
      Buffer.add_string b (Event.to_line e);
      Buffer.add_char b '\n')
    events;
  Buffer.contents b

(* first line where two rendered traces diverge, for readable test
   failures *)
let first_divergence a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go n = function
    | [], [] -> None
    | x :: _, [] -> Some (n, x, "<end of golden>")
    | [], y :: _ -> Some (n, "<end of trace>", y)
    | x :: xs, y :: ys -> if String.equal x y then go (n + 1) (xs, ys) else Some (n, x, y)
  in
  go 1 (la, lb)

(* ---------- Chrome trace-event JSON (Perfetto / chrome://tracing) ----------

   Block frames become duration ("X") events laid out one row (tid) per
   frame slot; instruction issues, token deliveries, mispredicts and
   cache misses become instant ("i") events. Cycles are reported as
   microseconds — Perfetto has no notion of cycles, and 1 cycle = 1 us
   keeps the timeline readable. *)

let write_chrome ?(pid = 0) ?name buf events =
  let first = ref true in
  let item fmt =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf "  ";
    Printf.ksprintf (Buffer.add_string buf) fmt
  in
  (match name with
  | Some n ->
      item
        "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":\"%s\"}}"
        pid (Json.escape n)
  | None -> ());
  (* open frames: seq -> (block, fid, dispatch cycle) *)
  let open_frames = Hashtbl.create 16 in
  let close_frame ~seq ~cycle ~phase ~extra =
    match Hashtbl.find_opt open_frames seq with
    | None -> ()
    | Some (block, fid, t0) ->
        Hashtbl.remove open_frames seq;
        item
          "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"name\":\"%s\",\"args\":{\"seq\":%d,\"end\":\"%s\"%s}}"
          pid fid t0
          (max 1 (cycle - t0))
          (Json.escape block) seq phase extra
  in
  let instant ~cycle ~tid ~nm ~extra =
    item
      "{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"name\":\"%s\"%s}"
      pid tid cycle (Json.escape nm) extra
  in
  List.iter
    (fun (e : Event.t) ->
      match e with
      | Event.Dispatch { cycle; block; seq; fid; _ } ->
          Hashtbl.replace open_frames seq (block, fid, cycle)
      | Event.Commit { cycle; seq; instrs; orphans; _ } ->
          close_frame ~seq ~cycle ~phase:"commit"
            ~extra:
              (Printf.sprintf ",\"instrs\":%d,\"orphans\":%d" instrs orphans)
      | Event.Squash { cycle; seq; reason; orphans; _ } ->
          close_frame ~seq ~cycle ~phase:reason
            ~extra:(Printf.sprintf ",\"orphans\":%d" orphans)
      | Event.Branch { cycle; block; seq; target; mispredict } ->
          if mispredict then
            instant ~cycle ~tid:90 ~nm:("mispredict " ^ block)
              ~extra:
                (Printf.sprintf ",\"args\":{\"seq\":%d,\"target\":\"%s\"}" seq
                   (Json.escape target))
      | Event.Issue { cycle; block; seq; id; op; tile } ->
          instant ~cycle ~tid:(100 + tile) ~nm:op
            ~extra:
              (Printf.sprintf
                 ",\"args\":{\"block\":\"%s\",\"seq\":%d,\"id\":%d}"
                 (Json.escape block) seq id)
      | Event.Token { cycle; seq; dst; null; pred; _ } ->
          if null || pred then
            instant ~cycle ~tid:91
              ~nm:(if null then "null->" ^ dst else "pred->" ^ dst)
              ~extra:(Printf.sprintf ",\"args\":{\"seq\":%d}" seq)
      | Event.Cache { cycle; cache; write; hit } ->
          if not hit then
            instant ~cycle ~tid:92
              ~nm:(cache ^ (if write then " wr miss" else " rd miss"))
              ~extra:""
      | Event.Fetch _ | Event.Wakeup _ | Event.Read _ -> ())
    events;
  (* frames still open at the end of the trace (e.g. after a fault) *)
  let still_open =
    Hashtbl.fold (fun seq v acc -> (seq, v) :: acc) open_frames []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter
    (fun (seq, (_, _, t0)) ->
      close_frame ~seq ~cycle:(t0 + 1) ~phase:"open" ~extra:"")
    still_open

let chrome_to_string ?pid ?name events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  write_chrome ?pid ?name buf events;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf
