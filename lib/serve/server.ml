(* The daemon core.  handle_batch is the entire service; everything
   else (socket loop, oneshot self-test, bench) is plumbing around it.

   Determinism discipline (the byte-identity contract of the .mli): a
   batch is served in one pass, each request parsed, handled and counted
   in submission order, so every counter, store write and tune-cache
   update of a request lands before the next request is read.  The only
   parallel work is inside Tune.search, whose results do not depend on
   its pool's width. *)

module G = Lego_gpusim
module T = Lego_tune

type counters = {
  mutable requests : int;
  mutable batches : int;
  mutable compile_hits : int;
  mutable compile_misses : int;
  mutable tune_hits : int;
  mutable tune_misses : int;
  mutable fingerprints : int;
  mutable searches : int;  (* actual Tune.search invocations *)
  mutable errors : int;
}

type t = {
  store : Store.t;
  load : Store.load;
  cache : T.Cache.t;
  jobs : int;
  slots : (string, T.Slot.t) Hashtbl.t;
      (* (name@preset) -> constructed slot; transpose slots carry
         multi-MB arenas, so build each at most once per server.  An
         unknown name builds nothing and is not kept. *)
  c : counters;
  mutable stopped : bool;
}

(* ---- create ------------------------------------------------------------ *)

let create ?db ?(jobs = 1) () =
  if jobs < 1 then invalid_arg "Server.create: jobs must be >= 1";
  let store, load = Store.open_ ?path:db () in
  {
    store;
    load;
    cache = T.Cache.create ();
    jobs;
    slots = Hashtbl.create 8;
    c =
      {
        requests = 0;
        batches = 0;
        compile_hits = 0;
        compile_misses = 0;
        tune_hits = 0;
        tune_misses = 0;
        fingerprints = 0;
        searches = 0;
        errors = 0;
      };
    stopped = false;
  }

let load t = t.load
let store t = t.store
let shutdown t = Store.close t.store

(* ---- request helpers --------------------------------------------------- *)

let fail t e =
  t.c.errors <- t.c.errors + 1;
  Protocol.error_response e

(* A compile or fingerprint request's device preset key, layout and
   fingerprint. *)
let target (layout : string) (device : string) =
  match G.Device.resolve device with
  | Error e -> Error e
  | Ok (device, _) -> (
    match Lego_lang.Elab.layout_of_string layout with
    | Error e -> Error (Printf.sprintf "layout: %s" e)
    | Ok g -> Ok (device, g, T.Fingerprint.of_layout g))

let slot_for t ~name ~device =
  match G.Device.resolve device with
  | Error e -> Error e
  | Ok (device, d) -> (
    let memo_key = name ^ "@" ^ device in
    match Hashtbl.find_opt t.slots memo_key with
    | Some s -> Ok s
    | None -> (
      match T.Slot.find ~device:d name with
      | Some s ->
        Hashtbl.replace t.slots memo_key s;
        Ok s
      | None ->
        Error
          (Printf.sprintf "unknown slot %S (known: %s)" name
             (String.concat ", " T.Slot.names))))

let compile_key ~fp ~device = Store.key [ "compile"; fp; device ]

(* The full compile artifact, as stored.  Pure. *)
let compile_value ~device ~fp g =
  let offset = Lego_symbolic.Sym.apply g in
  Json.Obj
    [
      ("kind", Json.Str "compile");
      ("fingerprint", Json.Str fp);
      ("digest", Json.Str (Digest.to_hex (Digest.string fp)));
      ("device", Json.Str device);
      ("numel", Json.Int (Lego_layout.Group_by.numel g));
      ("simplified", Json.Str (Lego_symbolic.Expr.to_string offset));
      ("c", Json.Str (Lego_codegen.C_printer.expr offset));
      ("triton", Json.Str (Lego_codegen.Triton_printer.expr offset));
      ("mlir", Json.Str (Lego_codegen.Mlir_gen.layout_apply_func ~name:"apply" g));
    ]

(* Project the stored artifact into a response, honouring "emit". *)
let compile_response ~emit ~key ~cached value =
  let fields = match value with Json.Obj fs -> fs | _ -> [] in
  let want name =
    match emit with
    | [] -> name <> "kind"
    | _ ->
      List.mem name [ "fingerprint"; "digest"; "device"; "numel" ]
      || List.mem name emit
  in
  Json.Obj
    ([
       ("ok", Json.Bool true);
       ("op", Json.Str "compile");
       ("key", Json.Str key);
       ("cached", Json.Bool cached);
     ]
    @ List.filter (fun (n, _) -> want n) fields)

(* A store hit, or a miss computed and stored at once: an in-batch
   duplicate reads as a hit because its first copy stored it. *)
let handle_compile t ~emit ~device g fp =
  let key = compile_key ~fp ~device in
  match Store.get t.store key with
  | Some v ->
    t.c.compile_hits <- t.c.compile_hits + 1;
    compile_response ~emit ~key ~cached:true v
  | None ->
    let v = compile_value ~device ~fp g in
    Store.put t.store ~key v;
    t.c.compile_misses <- t.c.compile_misses + 1;
    compile_response ~emit ~key ~cached:false v

let fingerprint_response ~device fp =
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("op", Json.Str "fingerprint");
      ("fingerprint", Json.Str fp);
      ("digest", Json.Str (Digest.to_hex (Digest.string fp)));
      ("device", Json.Str device);
      ("key", Json.Str (compile_key ~fp ~device));
    ]

(* ---- tune -------------------------------------------------------------- *)

let tune_options t (p : Protocol.tune_params) =
  let d = T.Tune.default_options in
  {
    d with
    T.Tune.budget = Option.value ~default:d.T.Tune.budget p.Protocol.budget;
    top = Option.value ~default:d.T.Tune.top p.Protocol.top;
    seed = p.Protocol.seed;
    jobs = t.jobs;
    conform = p.Protocol.conform;
  }

(* The content address of one search: slot identity (name, device,
   dtype) plus every option that can change the reported result.
   [jobs] is deliberately absent — results are bit-identical at any
   parallelism, that's the whole point. *)
let tune_store_key slot (o : T.Tune.options) =
  Store.key
    [
      "tune";
      T.Slot.identity slot;
      Printf.sprintf "budget=%d;top=%d;seed=%d;composed=%b;scale=%b;conform=%b"
        o.T.Tune.budget o.T.Tune.top o.T.Tune.seed o.T.Tune.composed
        o.T.Tune.scale o.T.Tune.conform;
    ]

let tune_value (r : T.Tune.result) =
  let w = r.T.Tune.winner in
  let sim_fields =
    match w.T.Tune.sim with
    | None -> []
    | Some s ->
      [
        ("time_s", Json.Float s.T.Slot.time_s);
        ("s_cycles", Json.Float s.T.Slot.s_cycles);
        ("s_accesses", Json.Float s.T.Slot.s_accesses);
        ("g_txns", Json.Float s.T.Slot.g_txns);
      ]
  in
  Json.Obj
    ([
       ("kind", Json.Str "tune");
       ("slot", Json.Str (T.Slot.identity r.T.Tune.slot));
       ("winner", Json.Str w.T.Tune.fingerprint);
     ]
    @ sim_fields
    @ [
        ("conflict_free", Json.Bool (T.Tune.conflict_free r));
        ("explored", Json.Int r.T.Tune.explored);
        ("space_size", Json.Int r.T.Tune.space_size);
        ("exhaustive", Json.Bool r.T.Tune.exhaustive);
        ("sampled_scored", Json.Int r.T.Tune.sampled_scored);
        ( "conform_ok",
          match T.Tune.conform_ok r with
          | Some b -> Json.Bool b
          | None -> Json.Null );
      ])

let tune_payload ~key ~cached value =
  let fields = match value with Json.Obj fs -> fs | _ -> [] in
  Json.Obj
    ([
       ("ok", Json.Bool true);
       ("op", Json.Str "tune");
       ("key", Json.Str key);
       ("cached", Json.Bool cached);
     ]
    @ List.filter (fun (n, _) -> n <> "kind") fields)

let handle_tune t (p : Protocol.tune_params) =
  match slot_for t ~name:p.Protocol.slot ~device:p.Protocol.device with
  | Error e -> fail t e
  | Ok slot -> (
    let options = tune_options t p in
    let key = tune_store_key slot options in
    match Store.get t.store key with
    | Some v ->
      (* Warm path: answered from the store — zero simulator
         invocations, [searches] does not move. *)
      t.c.tune_hits <- t.c.tune_hits + 1;
      tune_payload ~key ~cached:true v
    | None ->
      t.c.tune_misses <- t.c.tune_misses + 1;
      t.c.searches <- t.c.searches + 1;
      let r = T.Tune.search ~options ~cache:t.cache slot in
      let v = tune_value r in
      Store.put t.store ~key v;
      tune_payload ~key ~cached:false v)

(* ---- stats ------------------------------------------------------------- *)

(* Deliberately wall-clock-free, path-free and jobs-free: a stats
   response is a pure function of the request history, so it cannot
   break the byte-identity contract (responses must match across -j,
   so even [jobs] stays out). *)
let stats_json t =
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("op", Json.Str "stats");
      ("version", Json.Str Store.version);
      ("requests", Json.Int t.c.requests);
      ("batches", Json.Int t.c.batches);
      ("compile_hits", Json.Int t.c.compile_hits);
      ("compile_misses", Json.Int t.c.compile_misses);
      ("tune_hits", Json.Int t.c.tune_hits);
      ("tune_misses", Json.Int t.c.tune_misses);
      ("searches", Json.Int t.c.searches);
      ("fingerprints", Json.Int t.c.fingerprints);
      ("errors", Json.Int t.c.errors);
      ("store_entries", Json.Int (Store.length t.store));
      ("cache_entries", Json.Int (T.Cache.length t.cache));
    ]

(* ---- batch ------------------------------------------------------------- *)

let handle t request =
  t.c.requests <- t.c.requests + 1;
  match request with
  | Error e -> fail t e
  | Ok (Protocol.Compile { layout; emit; device }) -> (
    match target layout device with
    | Error e -> fail t e
    | Ok (device, g, fp) -> handle_compile t ~emit ~device g fp)
  | Ok (Protocol.Fingerprint { layout; device }) -> (
    match target layout device with
    | Error e -> fail t e
    | Ok (device, _, fp) ->
      t.c.fingerprints <- t.c.fingerprints + 1;
      fingerprint_response ~device fp)
  | Ok (Protocol.Tune p) -> handle_tune t p
  | Ok Protocol.Stats -> stats_json t
  | Ok Protocol.Shutdown ->
    t.stopped <- true;
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("op", Json.Str "shutdown");
        ("stopping", Json.Bool true);
      ]

let handle_batch t batch =
  match batch with
  | Json.List reqs ->
    t.c.batches <- t.c.batches + 1;
    let out =
      List.map (fun r -> handle t (Protocol.request_of_json r)) reqs
    in
    Store.flush t.store;
    Json.List out
  | _ -> Protocol.error_response "batch must be a JSON array of requests"

(* ---- socket loop ------------------------------------------------------- *)

(* A reply too large for one frame cannot be sent, and dropping the
   connection would leave the client without an answer.  Each request
   of the batch gets an error naming the size instead; what the batch
   stored stays stored. *)
let oversized_reply batch bytes =
  let error =
    Protocol.error_response
      (Printf.sprintf "reply of %d bytes exceeds the frame limit of %d bytes"
         bytes Protocol.max_frame_bytes)
  in
  match batch with
  | Json.List reqs -> Json.List (List.map (fun _ -> error) reqs)
  | _ -> error

type listener = { srv : Unix.file_descr; socket : string }

(* A socket file that refuses connections is a dead daemon's leftover,
   safe to replace.  Anything else at the path stays, a live daemon's
   socket or a regular file, and [bind] fails on it. *)
let stale socket =
  match Unix.lstat socket with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close probe) @@ fun () ->
    match Unix.connect probe (Unix.ADDR_UNIX socket) with
    | () -> false
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> true
    | exception Unix.Unix_error _ -> false)
  | _ | (exception Unix.Unix_error _) -> false

let listen ~socket =
  if stale socket then Unix.unlink socket;
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.bind srv (Unix.ADDR_UNIX socket);
    Unix.listen srv 16;
    { srv; socket }
  with e ->
    Unix.close srv;
    raise e

let serve t { srv; socket } =
  (* A client that hangs up before reading its reply must not kill the
     process: with SIGPIPE ignored, the write fails with EPIPE instead,
     which the per-connection handler below treats as a dropped
     client. *)
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigpipe sigpipe;
      (try Unix.close srv with Unix.Unix_error _ -> ());
      try Unix.unlink socket with Unix.Unix_error _ -> ())
    (fun () ->
      while not t.stopped do
        let conn, _ = Unix.accept srv in
        (* One client at a time, one batch at a time.  A broken
           connection (EPIPE, reset, bad framing) drops that client and
           keeps serving. *)
        Fun.protect
          ~finally:(fun () ->
            try Unix.close conn with Unix.Unix_error _ -> ())
          (fun () ->
            try
              let continue = ref true in
              while !continue && not t.stopped do
                match Protocol.read_frame conn with
                | Ok None -> continue := false
                | Ok (Some batch) -> (
                  try Protocol.write_frame conn (handle_batch t batch)
                  with Protocol.Frame_too_large bytes ->
                    Protocol.write_frame conn (oversized_reply batch bytes))
                | Error e ->
                  (* Framing is desynchronized: answer once, hang up. *)
                  (try
                     Protocol.write_frame conn
                       (Json.List [ Protocol.error_response e ])
                   with _ -> ());
                  continue := false
              done
            with Unix.Unix_error _ -> ())
      done)
