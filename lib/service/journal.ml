let src = Logs.Src.create "service.journal" ~doc:"durable event log"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3 / zlib polynomial, reflected)                    *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* ------------------------------------------------------------------ *)
(* Record framing                                                      *)

(* A record is [u32 be length][u32 be crc32(payload)][payload]. The
   length cap rejects absurd headers produced by corruption before they
   turn into gigabyte allocations. *)
let max_record = 1 lsl 24

let put_u32 b v =
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (v land 0xFF))

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let encode payload =
  let b = Buffer.create (String.length payload + 8) in
  put_u32 b (String.length payload);
  put_u32 b (Int32.to_int (crc32 payload) land 0xFFFFFFFF);
  Buffer.add_string b payload;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Scan / recovery                                                     *)

type recovery = {
  events : Event.event list;
  valid_bytes : int;
  damage : string option;
}

let scan_string data =
  let n = String.length data in
  let events = ref [] in
  let pos = ref 0 in
  let damage = ref None in
  let stop msg =
    damage := Some (Printf.sprintf "%s at offset %d" msg !pos)
  in
  (try
     while !pos < n && !damage = None do
       if !pos + 8 > n then stop "truncated record header"
       else begin
         let len = get_u32 data !pos in
         let crc = get_u32 data (!pos + 4) in
         if len < 0 || len > max_record then
           stop (Printf.sprintf "implausible record length %d" len)
         else if !pos + 8 + len > n then stop "truncated record payload"
         else begin
           let payload = String.sub data (!pos + 8) len in
           if Int32.to_int (crc32 payload) land 0xFFFFFFFF <> crc then
             stop "crc mismatch"
           else begin
             match Json.of_string payload with
             | Error m -> stop (Printf.sprintf "unparseable payload: %s" m)
             | Ok j -> (
               match Event.request_of_json j with
               | Ok (Event.Event e) ->
                 events := e :: !events;
                 pos := !pos + 8 + len
               | Ok _ -> stop "record is not an event"
               | Error m -> stop (Printf.sprintf "bad event record: %s" m))
           end
         end
       end
     done
   with _ -> stop "unreadable record");
  { events = List.rev !events; valid_bytes = !pos; damage = !damage }

let scan path =
  if not (Sys.file_exists path) then
    { events = []; valid_bytes = 0; damage = None }
  else begin
    let ic = open_in_bin path in
    let data =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    scan_string data
  end

(* ------------------------------------------------------------------ *)
(* Append handle                                                       *)

type t = { fd : Unix.file_descr }

let open_ path =
  let r = scan path in
  (match r.damage with
  | Some reason ->
    Log.warn (fun f ->
        f "%s: discarding damaged tail (%s); %d intact event(s) kept" path
          reason (List.length r.events))
  | None -> ());
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  (* truncate away any damaged tail so appends extend a clean log *)
  Unix.ftruncate fd r.valid_bytes;
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  ({ fd }, r)

let write_all fd data =
  let len = Bytes.length data in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd data !off (len - !off)
  done

let append t ~structural ev =
  let payload = Json.to_string (Event.json_of_event ev) in
  write_all t.fd (Bytes.of_string (encode payload));
  (* structural records (capacity, demand envelope) are the ones whose
     loss forces operator intervention — push them through to disk *)
  if structural then Unix.fsync t.fd

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
