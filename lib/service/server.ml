let src = Logs.Src.create "service.server" ~doc:"socket front end"

module Log = (val Logs.src_log src : Logs.LOG)

let default_socket = "/tmp/raha.sock"

(* Reject request lines beyond this instead of buffering without
   bound. *)
let max_line = 1 lsl 20

type conn = { id : int; fd : Unix.file_descr; buf : Buffer.t }

let send_line fd line =
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  let off = ref 0 in
  try
    while !off < len do
      off := !off + Unix.write fd data !off (len - !off)
    done;
    true
  with Unix.Unix_error _ -> false

(* Pull complete lines out of a connection buffer, leaving the partial
   tail in place. *)
let drain_lines conn =
  let s = Buffer.contents conn.buf in
  let lines = ref [] and start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        lines := String.sub s !start (i - !start) :: !lines;
        start := i + 1
      end)
    s;
  Buffer.clear conn.buf;
  Buffer.add_string conn.buf (String.sub s !start (String.length s - !start));
  List.rev !lines

let oversize_msg = "request line exceeds 1 MiB"

let error_json msg =
  Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ]

let run ~socket core =
  let al = Core.alerting core in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 16;
  Log.info (fun f -> f "listening on %s" socket);
  let conns = ref [] in
  let next_id = ref 0 in
  let closed conn =
    Alerting.unsubscribe al ~id:conn.id;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    conns := List.filter (fun c -> c != conn) !conns
  in
  (* Drain subscriber queues onto their (nonblocking) sockets: write
     until the kernel pushes back, track per-line progress in the
     Alerting buffers, never wait. *)
  let flush_subscribers () =
    List.iter
      (fun id ->
        match List.find_opt (fun c -> c.id = id) !conns with
        | None -> Alerting.unsubscribe al ~id
        | Some conn ->
          let rec drain () =
            match Alerting.next_chunk al ~id with
            | None -> ()
            | Some (line, off) -> (
              let data = Bytes.of_string line in
              match Unix.write conn.fd data off (Bytes.length data - off) with
              | 0 -> ()
              | n ->
                Alerting.advance al ~id n;
                drain ()
              | exception
                  Unix.Unix_error
                    ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                ()
              | exception Unix.Unix_error _ -> closed conn)
          in
          drain ())
      (Alerting.pending_ids al)
  in
  (* A subscribed connection's responses all flow through its bounded
     queue (so a slow reader costs dropped notifications, not a stalled
     event loop); everyone else gets a direct blocking write. *)
  let respond conn json =
    if Alerting.subscribed al ~id:conn.id then begin
      Alerting.enqueue al ~id:conn.id (Json.to_string json);
      flush_subscribers ()
    end
    else ignore (send_line conn.fd (Json.to_string json))
  in
  let shutdown_requested = ref false in
  let structural_ok resp =
    Json.to_bool (Json.member "ok" resp) = Some true
    && Json.to_bool (Json.member "structural" resp) = Some true
  in
  (* Answer one request of a readiness round; the round's requests are
     answered in arrival order. *)
  let answer (conn, req) =
    match req with
    | Error msg -> respond conn (error_json msg)
    | Ok (Event.Subscribe { tolerance }) ->
      Alerting.subscribe al ~id:conn.id ~tolerance;
      (* nonblocking from here on: pushes must never stall the loop *)
      Unix.set_nonblock conn.fd;
      respond conn
        (Json.Obj
           ([ ("ok", Json.Bool true); ("subscribed", Json.Bool true) ]
           @
           match tolerance with
           | Some tol -> [ ("tolerance", Json.float tol) ]
           | None -> []))
    | Ok req ->
      let resp = Core.handle core req in
      respond conn resp;
      (* the push pipeline runs after each accepted structural ingest:
         witness notifications hit the wire before the fast solve,
         fast-stage ones before the deep solve. A socket write wakes
         its reader on the writer's CPU when that CPU looks free, and
         the reader then runs only once this loop blocks; so after a
         stage's pushes are written the loop sleeps for one timer slack
         (nanosleep 0, tens of microseconds), and a reader sharing the
         CPU takes them (and the event's ack) before the next solve *)
      (match req with
      | Event.Event _ when structural_ok resp ->
        Core.evaluate_alert
          ~flush:(fun () ->
            flush_subscribers ();
            Unix.sleepf 0.)
          core
      | _ -> ());
      if req = Event.Shutdown then shutdown_requested := true
  in
  let stop = ref false in
  let chunk = Bytes.create 65536 in
  while not !stop do
    let fds = listen_fd :: List.map (fun c -> c.fd) !conns in
    let wfds =
      List.filter_map
        (fun id ->
          Option.map
            (fun c -> c.fd)
            (List.find_opt (fun c -> c.id = id) !conns))
        (Alerting.pending_ids al)
    in
    match Unix.select fds wfds [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, writable, _ ->
      if writable <> [] then flush_subscribers ();
      if List.mem listen_fd ready then begin
        let fd, _ = Unix.accept listen_fd in
        incr next_id;
        conns := !conns @ [ { id = !next_id; fd; buf = Buffer.create 256 } ]
      end;
      (* gather every complete request line that arrived this round *)
      let batch = ref [] in
      List.iter
        (fun conn ->
          if List.mem conn.fd ready then begin
            match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
            | 0 -> closed conn
            | n ->
              Buffer.add_subbytes conn.buf chunk 0 n;
              List.iter
                (fun line ->
                  if String.length line > max_line then
                    batch := (conn, Error oversize_msg) :: !batch
                  else if String.trim line <> "" then
                    batch := (conn, Event.request_of_line line) :: !batch)
                (drain_lines conn);
              if Buffer.length conn.buf > max_line + Bytes.length chunk then begin
                (* the partial line is past the cap by more than one
                   read chunk (so this cannot be a complete oversized
                   line about to finish in the next read); answer
                   in-band and drop the connection — there is no line
                   boundary left to resync on *)
                ignore (send_line conn.fd (Json.to_string (error_json oversize_msg)));
                closed conn
              end
            | exception Unix.Unix_error _ -> closed conn
          end)
        !conns;
      List.iter answer (List.rev !batch);
      if !shutdown_requested then stop := true
  done;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  try Unix.unlink socket with Unix.Unix_error _ -> ()

let request ~socket ?(retries = 100) line =
  let rec connect attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if attempt >= retries then
        Error
          (Printf.sprintf "connect %s: %s" socket (Unix.error_message e))
      else begin
        Unix.sleepf 0.05;
        connect (attempt + 1)
      end
  in
  match connect 0 with
  | Error _ as e -> e
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        if not (send_line fd line) then Error "write failed"
        else begin
          let buf = Buffer.create 256 in
          let one = Bytes.create 4096 in
          let rec read_line () =
            match Unix.read fd one 0 (Bytes.length one) with
            | 0 ->
              if Buffer.length buf > 0 then Ok (Buffer.contents buf)
              else Error "connection closed before a response"
            | n ->
              Buffer.add_subbytes buf one 0 n;
              let s = Buffer.contents buf in
              (match String.index_opt s '\n' with
              | Some i -> Ok (String.sub s 0 i)
              | None -> read_line ())
            | exception Unix.Unix_error (e, _, _) ->
              Error (Unix.error_message e)
          in
          read_line ()
        end)
