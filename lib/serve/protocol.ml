(* Length-prefixed JSON framing + the request schema.  See the .mli and
   DESIGN.md §15 for the contract. *)

let max_frame_bytes = 1 lsl 26

(* ---- framing ---------------------------------------------------------- *)

let write_all fd bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    let n = Unix.write fd bytes !off (len - !off) in
    if n = 0 then failwith "Protocol.write_frame: zero-length write";
    off := !off + n
  done

(* Read exactly [len] bytes; [`Eof n] reports how many arrived before
   the stream ended. *)
let read_exact fd len =
  let buf = Bytes.create len in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < len do
    let n = Unix.read fd buf !off (len - !off) in
    if n = 0 then eof := true else off := !off + n
  done;
  if !eof then `Eof !off else `Full buf

exception Frame_too_large of int

let write_frame fd json =
  let payload = Bytes.of_string (Json.to_string json) in
  let len = Bytes.length payload in
  if len > max_frame_bytes then raise (Frame_too_large len);
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int len);
  write_all fd header;
  write_all fd payload

let read_frame fd =
  match read_exact fd 4 with
  | `Eof 0 -> Ok None
  | `Eof n -> Error (Printf.sprintf "truncated frame header (%d of 4 bytes)" n)
  | `Full header -> (
    let len = Int32.to_int (Bytes.get_int32_be header 0) in
    if len < 0 || len > max_frame_bytes then
      Error (Printf.sprintf "bad frame length %d" len)
    else
      match read_exact fd len with
      | `Eof n -> Error (Printf.sprintf "truncated frame (%d of %d bytes)" n len)
      | `Full payload -> (
        match Json.of_string (Bytes.to_string payload) with
        | Ok j -> Ok (Some j)
        | Error e -> Error (Printf.sprintf "bad frame JSON: %s" e)))

(* ---- request schema --------------------------------------------------- *)

type tune_params = {
  slot : string;
  device : string;
  budget : int option;
  top : int option;
  seed : int;
  oracle : bool;
  conform : bool;
}

type request =
  | Compile of { layout : string; emit : string list; device : string }
  | Tune of tune_params
  | Fingerprint of { layout : string; device : string }
  | Stats
  | Shutdown

let default_device = "a100"

(* Each op's fields and their JSON types.  A request may omit any
   optional field, but every field it sends must be one its op accepts,
   with the expected type. *)
type field = Str | Int | Bool | Strs

let schema = function
  | "compile" -> Some [ ("layout", Str); ("emit", Strs); ("device", Str) ]
  | "tune" ->
    Some
      [
        ("slot", Str); ("device", Str); ("budget", Int); ("top", Int);
        ("seed", Int); ("oracle", Bool); ("conform", Bool);
      ]
  | "fingerprint" -> Some [ ("layout", Str); ("device", Str) ]
  | "stats" | "shutdown" -> Some []
  | _ -> None

let has_type kind v =
  match (kind, v) with
  | Str, Json.Str _ | Int, Json.Int _ | Bool, Json.Bool _ -> true
  | Strs, Json.List xs ->
    List.for_all (function Json.Str _ -> true | _ -> false) xs
  | _ -> false

let type_name = function
  | Str -> "a string"
  | Int -> "an integer"
  | Bool -> "a boolean"
  | Strs -> "an array of strings"

(* The first field of [j] that [op] does not accept, or that has the
   wrong type, as an error naming it. *)
let check_fields op fields j =
  let bad (name, v) =
    if name = "op" then None
    else
      match List.assoc_opt name fields with
      | None -> Some (Printf.sprintf "%s: unknown field %S" op name)
      | Some kind when not (has_type kind v) ->
        Some (Printf.sprintf "%s: %S must be %s" op name (type_name kind))
      | Some _ -> None
  in
  match j with
  | Json.Obj fs ->
    Option.fold ~none:(Ok ()) ~some:Result.error (List.find_map bad fs)
  | _ -> Ok ()

(* The artifact fields a compile request may select. *)
let emit_names = [ "simplified"; "c"; "triton"; "mlir" ]

let request_of_json j =
  let device () =
    Option.value ~default:default_device (Json.mem_string "device" j)
  in
  let parse = function
    | "compile" -> (
      match Json.mem_string "layout" j with
      | None -> Error "compile: missing \"layout\""
      | Some layout -> (
        let emit =
          match Json.member "emit" j with
          | Some (Json.List xs) -> List.filter_map Json.get_string xs
          | _ -> []
        in
        match List.find_opt (fun e -> not (List.mem e emit_names)) emit with
        | Some e ->
          Error
            (Printf.sprintf "compile: \"emit\" entry %S is not one of %s" e
               (String.concat ", " (List.map (Printf.sprintf "%S") emit_names)))
        | None -> Ok (Compile { layout; emit; device = device () })))
    | "tune" -> (
      let positive k =
        match Json.mem_int k j with
        | Some n when n < 1 -> Error (Printf.sprintf "tune: %S must be >= 1" k)
        | v -> Ok v
      in
      match (Json.mem_string "slot" j, positive "budget", positive "top") with
      | None, _, _ -> Error "tune: missing \"slot\""
      | _, Error e, _ | _, _, Error e -> Error e
      | _ when Json.mem_bool "oracle" j = Some true ->
        Error "tune: \"oracle\": true is not supported (class mode was removed)"
      | Some slot, Ok budget, Ok top ->
        Ok
          (Tune
             {
               slot;
               device = device ();
               budget;
               top;
               seed = Option.value ~default:0 (Json.mem_int "seed" j);
               oracle = false;
               conform = Option.value ~default:false (Json.mem_bool "conform" j);
             }))
    | "fingerprint" -> (
      match Json.mem_string "layout" j with
      | None -> Error "fingerprint: missing \"layout\""
      | Some layout -> Ok (Fingerprint { layout; device = device () }))
    | "stats" -> Ok Stats
    | _ (* "shutdown": [schema] admits no other op *) -> Ok Shutdown
  in
  match Json.mem_string "op" j with
  | None -> Error "request has no \"op\" field"
  | Some op -> (
    match schema op with
    | None -> Error (Printf.sprintf "unknown op %S" op)
    | Some fields ->
      Result.bind (check_fields op fields j) (fun () -> parse op))

let json_of_request = function
  | Compile { layout; emit; device } ->
    Json.Obj
      ([ ("op", Json.Str "compile"); ("layout", Json.Str layout) ]
      @ (if emit = [] then []
         else [ ("emit", Json.List (List.map (fun e -> Json.Str e) emit)) ])
      @ [ ("device", Json.Str device) ])
  | Tune { slot; device; budget; top; seed; oracle; conform } ->
    Json.Obj
      ([ ("op", Json.Str "tune"); ("slot", Json.Str slot);
         ("device", Json.Str device) ]
      @ (match budget with Some b -> [ ("budget", Json.Int b) ] | None -> [])
      @ (match top with Some t -> [ ("top", Json.Int t) ] | None -> [])
      @ (if seed <> 0 then [ ("seed", Json.Int seed) ] else [])
      @ (if oracle then [ ("oracle", Json.Bool true) ] else [])
      @ if conform then [ ("conform", Json.Bool true) ] else [])
  | Fingerprint { layout; device } ->
    Json.Obj
      [
        ("op", Json.Str "fingerprint");
        ("layout", Json.Str layout);
        ("device", Json.Str device);
      ]
  | Stats -> Json.Obj [ ("op", Json.Str "stats") ]
  | Shutdown -> Json.Obj [ ("op", Json.Str "shutdown") ]

let error_response msg =
  Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]
