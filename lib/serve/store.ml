(* Append-only content-addressed store.  Format and recovery contract
   are documented in the .mli; the load path is deliberately paranoid —
   every field of every record is validated before it is believed, and
   the first lie truncates the log back to the last good byte. *)

let version = "1"

let header_line = "LEGO-STORE v1\n"

type t = {
  tbl : (string, Json.t) Hashtbl.t;
  mutable chan : out_channel option;  (* open for append iff persistent *)
  mutable closed : bool;
}

type load = Fresh | Loaded of int | Recovered of int * string

(* ---- keys ------------------------------------------------------------- *)

(* Length-delimited canonical encoding: ["ab"; "c"] and ["a"; "bc"]
   must hash differently, and no part may smuggle a delimiter. *)
let key parts =
  let buf = Buffer.create 64 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    (version :: parts);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---- record encoding -------------------------------------------------- *)

(* [None] for a payload over the record limit: load rejects such a
   record and truncates the log there, which would lose every record
   appended after it. *)
let encode_record ~key value =
  let payload =
    Json.to_string (Json.Obj [ ("k", Json.Str key); ("v", value) ])
  in
  let len = String.length payload in
  if len > Protocol.max_frame_bytes then None
  else begin
    let buf = Buffer.create (4 + len + 16) in
    let hdr = Bytes.create 4 in
    Bytes.set_int32_be hdr 0 (Int32.of_int len);
    Buffer.add_bytes buf hdr;
    Buffer.add_string buf payload;
    Buffer.add_string buf (Digest.string payload);
    Some (Buffer.contents buf)
  end

(* One record off [ic]; [Ok None] = clean EOF at a record boundary.
   A partial read is never a clean EOF — even a 1-byte tail must be
   reported (and truncated away) or later appends would land after
   junk and poison every future load. *)
let read_record ic =
  let read_exactly n =
    let b = Bytes.create n in
    let rec go off =
      if off = n then `Full b
      else
        let r = input ic b off (n - off) in
        if r = 0 then `Eof off else go (off + r)
    in
    go 0
  in
  match read_exactly 4 with
  | `Eof 0 -> Ok None
  | `Eof _ -> Error "truncated record header"
  | `Full hdr -> (
    let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if len <= 0 || len > Protocol.max_frame_bytes then
      Error (Printf.sprintf "record length %d out of range" len)
    else
      match read_exactly len with
      | `Eof _ -> Error "truncated record payload"
      | `Full payload -> (
        match read_exactly 16 with
        | `Eof _ -> Error "truncated record checksum"
        | `Full sum ->
          let payload = Bytes.to_string payload in
          if Digest.string payload <> Bytes.to_string sum then
            Error "record checksum mismatch"
          else (
            match Json.of_string payload with
            | Error e -> Error (Printf.sprintf "record JSON: %s" e)
            | Ok j -> (
              match (Json.mem_string "k" j, Json.member "v" j) with
              | Some k, Some v -> Ok (Some (k, v))
              | _ -> Error "record missing k/v"))))

(* ---- open / load ------------------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let default_path () =
  let cache_root =
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> d
    | _ ->
      Filename.concat
        (Option.value ~default:"." (Sys.getenv_opt "HOME"))
        ".cache"
  in
  Filename.concat (Filename.concat cache_root "lego") "store.db"

(* Replay the log into [tbl]; returns the load verdict and the byte
   offset of the end of the good prefix (for truncation). *)
let load_file path tbl =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let hlen = String.length header_line in
      let header =
        let b = Bytes.create hlen in
        try
          really_input ic b 0 hlen;
          Some (Bytes.to_string b)
        with End_of_file -> None
      in
      if header <> Some header_line then (Recovered (0, "bad header"), 0)
      else begin
        let count = ref 0 in
        let rec go () =
          let good_end = pos_in ic in
          match read_record ic with
          | Ok None -> (Loaded !count, good_end)
          | Ok (Some (k, v)) ->
            if not (Hashtbl.mem tbl k) then incr count;
            Hashtbl.replace tbl k v;
            go ()
          | Error why -> (Recovered (Hashtbl.length tbl, why), good_end)
        in
        go ()
      end)

let open_ ?path () =
  let tbl = Hashtbl.create 256 in
  match path with
  | None -> ({ tbl; chan = None; closed = false }, Fresh)
  | Some p ->
    mkdir_p (Filename.dirname p);
    (* A directory opens for reading and fails at its first read, with a
       reason that does not name it. *)
    if Sys.file_exists p && Sys.is_directory p then
      raise (Sys_error (p ^ ": " ^ Unix.error_message Unix.EISDIR));
    let verdict =
      if not (Sys.file_exists p) then begin
        (* Fresh db: write the header so the first load validates. *)
        let oc = open_out_bin p in
        output_string oc header_line;
        close_out oc;
        Fresh
      end
      else begin
        match load_file p tbl with
        | Loaded n, _ -> Loaded n
        | Fresh, _ -> Fresh
        | Recovered (0, "bad header"), _ ->
          (* Foreign/blank file: restart it wholesale. *)
          let oc = open_out_bin p in
          output_string oc header_line;
          close_out oc;
          Recovered (0, "bad header")
        | Recovered (n, why), good_end ->
          (* Cut the corrupt tail so appends land at a record boundary. *)
          let fd = Unix.openfile p [ Unix.O_WRONLY ] 0o644 in
          Unix.ftruncate fd good_end;
          Unix.close fd;
          Recovered (n, why)
      end
    in
    let chan = open_out_gen [ Open_append; Open_binary ] 0o644 p in
    ({ tbl; chan = Some chan; closed = false }, verdict)

(* ---- operations ------------------------------------------------------- *)

let get t k = Hashtbl.find_opt t.tbl k

let put t ~key value =
  if t.closed then invalid_arg "Store.put: store is closed";
  match get t key with
  | Some v when Json.equal v value -> ()
  | _ ->
    Hashtbl.replace t.tbl key value;
    Option.iter
      (fun oc ->
        match encode_record ~key value with
        | Some record ->
          output_string oc record;
          flush oc
        | None -> ())
      t.chan

let length t = Hashtbl.length t.tbl
let iter t f = Hashtbl.iter (fun key v -> f ~key v) t.tbl
let flush t = Option.iter Stdlib.flush t.chan

let close t =
  if not t.closed then begin
    t.closed <- true;
    Option.iter close_out_noerr t.chan;
    t.chan <- None
  end
