(* The daemon core.  handle_batch is the entire service; everything
   else (socket loop, oneshot self-test, bench) is plumbing around it.

   Determinism discipline (the byte-identity contract of the .mli):
   phase 1 fans the pure requests (compile, fingerprint) over the Exec
   pool — store reads only, no mutation anywhere; phase 2 walks the
   drafts sequentially in submission order and is the only place that
   touches counters, the store, the tune cache, or runs a search.
   Tune.search spins up its own pool, so it must run here in the
   sequential walk, never inside a pool task. *)

module G = Lego_gpusim
module T = Lego_tune
module Exec = Lego_exec.Exec

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
  pool : Exec.pool Lazy.t;  (* forced in the serving domain *)
  slots : (string, (T.Slot.t, string) result) Hashtbl.t;
      (* (name@preset) -> constructed slot; transpose slots carry
         multi-MB arenas, so build each at most once per server *)
  c : counters;
  mutable stopped : bool;
  mutable released : bool;
}

(* ---- store record shapes ---------------------------------------------- *)

let sim_key ~identity ~fp_hex ~rung = Store.key [ "sim"; identity; fp_hex; rung ]

let sim_value ~identity ~fp_hex ~rung (s : T.Slot.sim) =
  Json.Obj
    [
      ("kind", Json.Str "sim");
      ("slot", Json.Str identity);
      ("fp", Json.Str fp_hex);
      ("rung", Json.Str rung);
      ("time_s", Json.Float s.T.Slot.time_s);
      ("s_accesses", Json.Float s.T.Slot.s_accesses);
      ("s_cycles", Json.Float s.T.Slot.s_cycles);
      ("g_txns", Json.Float s.T.Slot.g_txns);
    ]

(* Re-inflate persisted sim records into the tune cache, so even a tune
   request with a never-seen search shape reuses every simulator result
   a previous run paid for. *)
let warm_start store cache =
  Store.iter store (fun ~key:_ v ->
      if Json.mem_string "kind" v = Some "sim" then
        match
          ( Json.mem_string "slot" v,
            Json.mem_string "fp" v,
            Json.mem_string "rung" v,
            Json.mem_float "time_s" v,
            Json.mem_float "s_accesses" v,
            Json.mem_float "s_cycles" v,
            Json.mem_float "g_txns" v )
        with
        | ( Some slot,
            Some fp_hex,
            Some rung,
            Some time_s,
            Some s_accesses,
            Some s_cycles,
            Some g_txns ) -> (
          match Digest.from_hex fp_hex with
          | exception _ -> ()  (* unreadable key: skip, never crash *)
          | fp_digest ->
            let e = T.Cache.ensure cache ~slot ~fp_digest in
            let sim =
              { T.Slot.time_s; s_accesses; s_cycles; g_txns }
            in
            (match rung with
            | "sampled" -> if e.T.Cache.sampled = None then e.T.Cache.sampled <- Some sim
            | "full" -> if e.T.Cache.full = None then e.T.Cache.full <- Some sim
            | _ -> ()))
        | _ -> ())

(* Persist every sim result the cache holds; Store.put drops identical
   re-puts, so warm-started entries cost nothing on disk. *)
let flush_sims t =
  T.Cache.iter t.cache (fun ~slot ~fp_digest e ->
      let fp_hex = Digest.to_hex fp_digest in
      let put rung s =
        Store.put t.store
          ~key:(sim_key ~identity:slot ~fp_hex ~rung)
          (sim_value ~identity:slot ~fp_hex ~rung s)
      in
      Option.iter (put "sampled") e.T.Cache.sampled;
      Option.iter (put "full") e.T.Cache.full)

(* ---- create ------------------------------------------------------------ *)

let create ?db ?(jobs = 1) () =
  if jobs < 1 then invalid_arg "Server.create: jobs must be >= 1";
  let store, load = Store.open_ ?path:db () in
  let cache = T.Cache.create () in
  warm_start store cache;
  {
    store;
    load;
    cache;
    jobs;
    pool = lazy (Exec.create ~jobs ());
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
    released = false;
  }

let load t = t.load
let jobs t = t.jobs
let store t = t.store
let stopped t = t.stopped

let shutdown t =
  if not t.released then begin
    t.released <- true;
    Store.close t.store;
    if Lazy.is_val t.pool then Exec.shutdown (Lazy.force t.pool)
  end

(* ---- request helpers --------------------------------------------------- *)

let device_key name =
  let k = String.lowercase_ascii name in
  if G.Device.find k = None then
    Error
      (Printf.sprintf "unknown device %S (known: %s)" name
         (String.concat ", " (List.map fst G.Device.presets)))
  else Ok k

let slot_for t ~name ~device =
  let memo_key = name ^ "@" ^ device in
  match Hashtbl.find_opt t.slots memo_key with
  | Some r -> r
  | None ->
    let r =
      match G.Device.find device with
      | None -> Error (Printf.sprintf "unknown device %S" device)
      | Some d -> (
        match T.Slot.find ~device:d name with
        | Some s -> Ok s
        | None ->
          Error
            (Printf.sprintf "unknown slot %S (known: %s)" name
               (String.concat ", "
                  (List.map (fun s -> s.T.Slot.name) (T.Slot.all ())))))
    in
    Hashtbl.replace t.slots memo_key r;
    r

let compile_key ~fp ~device = Store.key [ "compile"; fp; device ]

(* The full compile artifact, as stored.  Pure. *)
let compile_value ~device g =
  let fp = T.Fingerprint.of_layout g in
  let offset = Lego_symbolic.Sym.apply g in
  ( fp,
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
      ] )

type compile_draft =
  | C_hit of string * Json.t  (* store key, stored value *)
  | C_new of string * Json.t  (* store key, freshly computed value *)
  | C_err of string

(* Phase-1 work: parse, validate, look up or compute.  Store reads
   only — a second identical compile in the same batch also computes
   C_new here; the sequential walk converts it to a hit. *)
let compile_draft t (layout : string) (device : string) =
  match device_key device with
  | Error e -> C_err e
  | Ok device -> (
    match Lego_lang.Elab.layout_of_string layout with
    | Error e -> C_err (Printf.sprintf "layout: %s" e)
    | Ok g -> (
      let fp = T.Fingerprint.of_layout g in
      let key = compile_key ~fp ~device in
      match Store.get t.store key with
      | Some v -> C_hit (key, v)
      | None ->
        let _, v = compile_value ~device g in
        C_new (key, v)))

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

let fingerprint_response (layout : string) (device : string) =
  match device_key device with
  | Error e -> Protocol.error_response e
  | Ok device -> (
    match Lego_lang.Elab.layout_of_string layout with
    | Error e -> Protocol.error_response (Printf.sprintf "layout: %s" e)
    | Ok g ->
      let fp = T.Fingerprint.of_layout g in
      Json.Obj
        [
          ("ok", Json.Bool true);
          ("op", Json.Str "fingerprint");
          ("fingerprint", Json.Str fp);
          ("digest", Json.Str (Digest.to_hex (Digest.string fp)));
          ("device", Json.Str device);
          ("key", Json.Str (compile_key ~fp ~device));
        ])

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

let tune_value slot (r : T.Tune.result) =
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
  let conflict_free =
    T.Predict.conflict_free w.T.Tune.static_score
    && ((not slot.T.Slot.full_warps)
       ||
       match w.T.Tune.sim with
       | Some s -> T.Slot.sim_conflict_free ~device:slot.T.Slot.device s
       | None -> false)
  in
  Json.Obj
    ([
       ("kind", Json.Str "tune");
       ("slot", Json.Str (T.Slot.identity slot));
       ("winner", Json.Str w.T.Tune.fingerprint);
     ]
    @ sim_fields
    @ [
        ("conflict_free", Json.Bool conflict_free);
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

(* Sequential phase only: runs the tuner (which builds its own pool). *)
let handle_tune t (p : Protocol.tune_params) =
  match slot_for t ~name:p.Protocol.slot ~device:(String.lowercase_ascii p.Protocol.device) with
  | Error e ->
    t.c.errors <- t.c.errors + 1;
    Protocol.error_response e
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
      let v = tune_value slot r in
      Store.put t.store ~key v;
      flush_sims t;
      tune_payload ~key ~cached:false v)

(* ---- stats ------------------------------------------------------------- *)

(* Deliberately wall-clock-free, path-free and jobs-free: a stats
   response is a pure function of the request history, so it cannot
   break the byte-identity contract (responses must match across -j,
   so even the pool width stays out). *)
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

type draft =
  | D_compile of string list * compile_draft  (* emit selection, draft *)
  | D_fingerprint of Json.t  (* finished response (pure) *)
  | D_seq of Protocol.request  (* tune / stats / shutdown: phase 2 *)
  | D_error of string

let phase1 t = function
  | Error e -> D_error e
  | Ok (Protocol.Compile { layout; emit; device }) ->
    D_compile (emit, compile_draft t layout device)
  | Ok (Protocol.Fingerprint { layout; device }) ->
    D_fingerprint (fingerprint_response layout device)
  | Ok r -> D_seq r

let phase2 t = function
  | D_error e ->
    t.c.requests <- t.c.requests + 1;
    t.c.errors <- t.c.errors + 1;
    Protocol.error_response e
  | D_fingerprint j ->
    t.c.requests <- t.c.requests + 1;
    if Json.mem_bool "ok" j = Some true then
      t.c.fingerprints <- t.c.fingerprints + 1
    else t.c.errors <- t.c.errors + 1;
    j
  | D_compile (emit, draft) -> (
    t.c.requests <- t.c.requests + 1;
    match draft with
    | C_err e ->
      t.c.errors <- t.c.errors + 1;
      Protocol.error_response e
    | C_hit (key, v) ->
      t.c.compile_hits <- t.c.compile_hits + 1;
      compile_response ~emit ~key ~cached:true v
    | C_new (key, v) -> (
      (* An earlier request in this batch (or a racing draft of the
         same layout) may have stored it already — re-check now that
         we are sequential, so duplicates inside one batch read as
         hits regardless of -j. *)
      match Store.get t.store key with
      | Some stored ->
        t.c.compile_hits <- t.c.compile_hits + 1;
        compile_response ~emit ~key ~cached:true stored
      | None ->
        Store.put t.store ~key v;
        t.c.compile_misses <- t.c.compile_misses + 1;
        compile_response ~emit ~key ~cached:false v))
  | D_seq (Protocol.Tune p) ->
    t.c.requests <- t.c.requests + 1;
    handle_tune t p
  | D_seq Protocol.Stats ->
    t.c.requests <- t.c.requests + 1;
    stats_json t
  | D_seq Protocol.Shutdown ->
    t.c.requests <- t.c.requests + 1;
    t.stopped <- true;
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("op", Json.Str "shutdown");
        ("stopping", Json.Bool true);
      ]
  | D_seq (Protocol.Compile _) | D_seq (Protocol.Fingerprint _) ->
    assert false (* handled in phase 1 *)

let handle_batch t batch =
  match batch with
  | Json.List reqs ->
    t.c.batches <- t.c.batches + 1;
    let parsed = Array.of_list (List.map Protocol.request_of_json reqs) in
    let drafts =
      if Array.length parsed <= 1 then Array.map (phase1 t) parsed
      else Exec.map ~pool:(Lazy.force t.pool) parsed (phase1 t)
    in
    let n = Array.length drafts in
    let out = Array.make n Json.Null in
    for i = 0 to n - 1 do
      out.(i) <- phase2 t drafts.(i)
    done;
    Store.flush t.store;
    Json.List (Array.to_list out)
  | _ -> Protocol.error_response "batch must be a JSON array of requests"

(* ---- socket loop ------------------------------------------------------- *)

let serve t ~socket =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
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
      Unix.bind srv (Unix.ADDR_UNIX socket);
      Unix.listen srv 16;
      while not t.stopped do
        let conn, _ = Unix.accept srv in
        (* One client at a time: batches are the concurrency unit, the
           pool is the parallelism.  A broken connection (EPIPE, reset,
           bad framing) drops that client and keeps serving. *)
        Fun.protect
          ~finally:(fun () ->
            try Unix.close conn with Unix.Unix_error _ -> ())
          (fun () ->
            try
              let continue = ref true in
              while !continue && not t.stopped do
                match Protocol.read_frame conn with
                | Ok None -> continue := false
                | Ok (Some batch) ->
                  Protocol.write_frame conn (handle_batch t batch)
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
