(* lib/serve: the persistent compile service.  JSON codec round-trips,
   frame framing, store durability (QCheck2 round-trip plus truncation /
   corruption recovery), the (slot, device) cache-identity regression,
   the warm-path contract (zero tuner invocations, >= 10x latency),
   batch byte-identity across pool widths, and a spawned daemon that
   outlives a client hanging up early and a tune request with [top] 0. *)

module Sv = Lego_serve
module T = Lego_tune
module G = Lego_gpusim

let tmp_name () = Filename.temp_file "lego-test-serve" ".db"

let with_tmp f =
  let path = tmp_name () in
  Sys.remove path;
  (* Store creates it *)
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ---- JSON -------------------------------------------------------------- *)

let json_gen =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           let scalar =
             oneof
               [
                 return Sv.Json.Null;
                 map (fun b -> Sv.Json.Bool b) bool;
                 map (fun i -> Sv.Json.Int i) int;
                 map
                   (fun f ->
                     Sv.Json.Float (if Float.is_finite f then f else 0.5))
                   float;
                 map (fun s -> Sv.Json.Str s) (string_size (0 -- 12));
               ]
           in
           if n <= 0 then scalar
           else
             oneof
               [
                 scalar;
                 map (fun xs -> Sv.Json.List xs) (list_size (0 -- 4) (self (n / 2)));
                 map
                   (fun kvs -> Sv.Json.Obj kvs)
                   (list_size (0 -- 4)
                      (pair (string_size (0 -- 6)) (self (n / 2))));
               ]))

let prop_json_round_trip =
  QCheck2.Test.make ~name:"JSON print |> parse is the identity" ~count:500
    ~print:(fun j -> Sv.Json.to_string j) json_gen (fun j ->
      match Sv.Json.of_string (Sv.Json.to_string j) with
      | Ok j' -> Sv.Json.equal j j'
      | Error _ -> false)

let test_json_fixed_points () =
  (* Deterministic printing fixtures: the exact bytes are the contract. *)
  List.iter
    (fun (j, s) ->
      Alcotest.(check string) s s (Sv.Json.to_string j);
      match Sv.Json.of_string s with
      | Ok j' -> Alcotest.(check bool) ("reparse " ^ s) true (Sv.Json.equal j j')
      | Error e -> Alcotest.failf "reparse %s: %s" s e)
    [
      (Sv.Json.Null, "null");
      (Sv.Json.Int 42, "42");
      (Sv.Json.Float 2.0, "2.0");
      (Sv.Json.Float 0.1, "0.1");
      (Sv.Json.Str "a\"b\\c\nd\x01e\xfff", {|"a\"b\\c\nd\u0001e\u00fff"|});
      ( Sv.Json.Obj [ ("b", Sv.Json.Int 1); ("a", Sv.Json.List [] ) ],
        {|{"b":1,"a":[]}|} );
    ];
  (match Sv.Json.of_string "{\"a\":1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Sv.Json.to_string (Sv.Json.Float Float.nan) with
  | exception Invalid_argument _ -> ()
  | s -> Alcotest.failf "nan printed as %s" s

(* ---- framing ----------------------------------------------------------- *)

let test_frame_round_trip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let payloads =
        [
          Sv.Json.Null;
          Sv.Json.List [ Sv.Json.Int 1; Sv.Json.Str (String.make 5000 'x') ];
          Sv.Json.Obj [ ("op", Sv.Json.Str "stats") ];
        ]
      in
      List.iter (Sv.Protocol.write_frame a) payloads;
      List.iter
        (fun expected ->
          match Sv.Protocol.read_frame b with
          | Ok (Some j) ->
            Alcotest.(check bool) "frame round-trips" true
              (Sv.Json.equal expected j)
          | Ok None -> Alcotest.fail "unexpected EOF"
          | Error e -> Alcotest.fail e)
        payloads;
      (* Clean EOF at a frame boundary... *)
      Unix.close a;
      (match Sv.Protocol.read_frame b with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "frame from closed peer"
      | Error e -> Alcotest.failf "clean EOF reported as error: %s" e);
      (* ...but a mid-frame EOF is an error, not a silent truncation. *)
      let c, d = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let partial = Bytes.of_string "\x00\x00\x00\x10{\"tru" in
      ignore (Unix.write c partial 0 (Bytes.length partial));
      Unix.close c;
      (match Sv.Protocol.read_frame d with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "truncated frame accepted");
      Unix.close d)

let test_request_round_trip () =
  let reqs =
    [
      Sv.Protocol.Compile
        { layout = "Col(4, 4)"; emit = [ "c"; "mlir" ]; device = "h100" };
      Sv.Protocol.Tune
        {
          Sv.Protocol.slot = "matmul";
          device = "a100";
          budget = Some 64;
          top = None;
          seed = 7;
          oracle = false;
          conform = true;
        };
      Sv.Protocol.Fingerprint { layout = "Col(2, 3)"; device = "rtx4090" };
      Sv.Protocol.Stats;
      Sv.Protocol.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      match Sv.Protocol.request_of_json (Sv.Protocol.json_of_request r) with
      | Ok r' ->
        Alcotest.(check bool) "request round-trips" true (r = r')
      | Error e -> Alcotest.fail e)
    reqs;
  (match
     Sv.Protocol.request_of_json (Sv.Json.Obj [ ("op", Sv.Json.Str "frob") ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown op accepted");
  (* F₂ class mode is gone: asking for it is an error, not a default
     search. *)
  match
    Sv.Protocol.request_of_json
      (Sv.Json.Obj
         [
           ("op", Sv.Json.Str "tune");
           ("slot", Sv.Json.Str "matmul");
           ("oracle", Sv.Json.Bool true);
         ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "\"oracle\": true accepted"

(* ---- store ------------------------------------------------------------- *)

let prop_store_round_trip =
  let kv_gen =
    QCheck2.Gen.(
      list_size (1 -- 12)
        (pair (list_size (1 -- 3) (string_size (0 -- 8))) (json_gen)))
  in
  QCheck2.Test.make ~name:"store put |> close |> open is the identity"
    ~count:30 kv_gen (fun kvs ->
      with_tmp (fun path ->
          let kvs =
            List.map (fun (parts, v) -> (Sv.Store.key parts, v)) kvs
          in
          let s, verdict = Sv.Store.open_ ~path () in
          (match verdict with
          | Sv.Store.Fresh -> ()
          | _ -> QCheck2.Test.fail_report "fresh store not Fresh");
          List.iter (fun (key, v) -> Sv.Store.put s ~key v) kvs;
          Sv.Store.close s;
          let s', verdict' = Sv.Store.open_ ~path () in
          let distinct =
            List.length
              (List.sort_uniq compare (List.map fst kvs))
          in
          (match verdict' with
          | Sv.Store.Loaded n when n = distinct -> ()
          | _ -> QCheck2.Test.fail_report "reload not Loaded(distinct)");
          (* Last put wins per key. *)
          let ok =
            List.for_all
              (fun (key, _) ->
                let last =
                  List.fold_left
                    (fun acc (k, v) -> if k = key then Some v else acc)
                    None kvs
                in
                match (Sv.Store.get s' key, last) with
                | Some a, Some b -> Sv.Json.equal a b
                | _ -> false)
              kvs
          in
          Sv.Store.close s';
          ok))

let populate path n =
  let s, _ = Sv.Store.open_ ~path () in
  for i = 1 to n do
    Sv.Store.put s
      ~key:(Sv.Store.key [ "entry"; string_of_int i ])
      (Sv.Json.Obj
         [ ("i", Sv.Json.Int i); ("payload", Sv.Json.Str (String.make 40 'p')) ])
  done;
  Sv.Store.close s

let test_store_truncation_recovery () =
  with_tmp (fun path ->
      populate path 6;
      let size = (Unix.stat path).Unix.st_size in
      (* Chop the file at every byte length from full down to the bare
         header: the load must never crash, must salvage a prefix, and
         the file must stay appendable afterwards. *)
      let header_len = String.length Sv.Store.header_line in
      let original = In_channel.with_open_bin path In_channel.input_all in
      List.iter
        (fun cut ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (String.sub original 0 cut));
          let s, verdict = Sv.Store.open_ ~path () in
          let n = Sv.Store.length s in
          (match verdict with
          | Sv.Store.Loaded l -> Alcotest.(check int) "loaded count" n l
          | Sv.Store.Recovered (l, _why) -> Alcotest.(check int) "salvaged count" n l
          | Sv.Store.Fresh -> Alcotest.fail "existing file loaded as Fresh");
          Alcotest.(check bool)
            (Printf.sprintf "cut %d: salvaged %d <= 6" cut n)
            true (n <= 6);
          (* Salvaged entries are intact. *)
          for i = 1 to n do
            match Sv.Store.get s (Sv.Store.key [ "entry"; string_of_int i ]) with
            | Some v ->
              Alcotest.(check (option int))
                "salvaged value intact" (Some i) (Sv.Json.mem_int "i" v)
            | None -> ()
          done;
          (* Appends after recovery land at a clean boundary. *)
          Sv.Store.put s ~key:(Sv.Store.key [ "post" ]) (Sv.Json.Int 99);
          Sv.Store.close s;
          let s', verdict' = Sv.Store.open_ ~path () in
          (match verdict' with
          | Sv.Store.Loaded _ -> ()
          | _ -> Alcotest.failf "cut %d: post-recovery file not clean" cut);
          Alcotest.(check (option int))
            "post-recovery append survives" (Some 99)
            (Option.bind
               (Sv.Store.get s' (Sv.Store.key [ "post" ]))
               Sv.Json.get_int);
          Sv.Store.close s')
        [ size - 1; size - 17; size - 60; header_len + 3; header_len ])

let test_store_corruption_recovery () =
  with_tmp (fun path ->
      populate path 6;
      (* Flip one payload byte in the middle: the checksum must catch
         it, keep the prefix, truncate the rest — degrade, not crash. *)
      let bytes =
        Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
      in
      let mid = Bytes.length bytes / 2 in
      Bytes.set bytes mid
        (Char.chr (Char.code (Bytes.get bytes mid) lxor 0x5a));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc bytes);
      let s, verdict = Sv.Store.open_ ~path () in
      (match verdict with
      | Sv.Store.Recovered (n, why) ->
        Alcotest.(check bool) "salvaged a strict prefix" true (n < 6);
        Alcotest.(check bool) "warning is non-empty" true (why <> "")
      | Sv.Store.Loaded _ | Sv.Store.Fresh ->
        Alcotest.fail "corruption not reported");
      Sv.Store.close s)

let test_store_foreign_header_cold_start () =
  with_tmp (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "not a lego store at all\n");
      let s, verdict = Sv.Store.open_ ~path () in
      (match verdict with
      | Sv.Store.Recovered (0, _) -> ()
      | _ -> Alcotest.fail "foreign file must cold-start as Recovered(0)");
      Sv.Store.put s ~key:(Sv.Store.key [ "k" ]) (Sv.Json.Bool true);
      Sv.Store.close s;
      let s', verdict' = Sv.Store.open_ ~path () in
      (match verdict' with
      | Sv.Store.Loaded 1 -> ()
      | _ -> Alcotest.fail "rewritten store must load clean");
      Sv.Store.close s')

(* ---- cache identity: the (slot, device, dtype) regression ---------------- *)

let test_cache_identity_no_cross_device_contamination () =
  let options =
    {
      T.Tune.default_options with
      T.Tune.budget = 40;
      top = 3;
      conform = false;
    }
  in
  let a100 = T.Slot.matmul_smem ~device:G.Device.a100 () in
  let h100 = T.Slot.matmul_smem ~device:G.Device.h100 () in
  Alcotest.(check string) "a100 identity" "matmul@a100/fp16"
    (T.Slot.identity a100);
  Alcotest.(check string) "h100 identity" "matmul@h100/fp16"
    (T.Slot.identity h100);
  (* One cache shared across devices (the CLI's pattern): tuning a100
     first must not leak its simulations into the h100 search. *)
  let shared = T.Cache.create () in
  let _warm_a100 = T.Tune.search ~options ~cache:shared a100 in
  let h_shared = T.Tune.search ~options ~cache:shared h100 in
  let h_fresh = T.Tune.search ~options ~cache:(T.Cache.create ()) h100 in
  let key (r : T.Tune.result) =
    List.map
      (fun (sc : T.Tune.scored) ->
        let s = Option.get sc.T.Tune.sim in
        (sc.T.Tune.fingerprint, s.T.Slot.time_s, s.T.Slot.s_cycles))
      r.T.Tune.ranking
  in
  Alcotest.(check bool)
    "h100 results identical with and without a100-warmed cache" true
    (key h_shared = key h_fresh);
  (* And the devices genuinely disagree on absolute time (different
     clocks), so a collision would have been visible above. *)
  let t (r : T.Tune.result) =
    (Option.get r.T.Tune.winner.T.Tune.sim).T.Slot.time_s
  in
  Alcotest.(check bool) "a100 and h100 winner times differ" true
    (t _warm_a100 <> t h_fresh)

(* ---- server ------------------------------------------------------------ *)

let tune_req ?(budget = 40) ?(top = 3) () =
  Sv.Protocol.json_of_request
    (Sv.Protocol.Tune
       {
         Sv.Protocol.slot = "matmul";
         device = "a100";
         budget = Some budget;
         top = Some top;
         seed = 0;
         oracle = false;
         conform = false;
       })

let stats_of t =
  match Sv.Server.stats_json t with
  | Sv.Json.Obj _ as j -> j
  | _ -> Alcotest.fail "stats not an object"

let stat name t =
  Option.value ~default:(-1) (Sv.Json.mem_int name (stats_of t))

let test_server_warm_path_zero_searches () =
  with_tmp (fun db ->
      let t = Sv.Server.create ~db ~jobs:1 () in
      let batch = Sv.Json.List [ tune_req () ] in
      let timed () =
        let t0 = Unix.gettimeofday () in
        let r = Sv.Server.handle_batch t batch in
        (Unix.gettimeofday () -. t0, r)
      in
      let cold_t, cold = timed () in
      let warm_t, warm = timed () in
      let first = function
        | Sv.Json.List [ r ] -> r
        | _ -> Alcotest.fail "batch shape"
      in
      Alcotest.(check (option bool)) "cold is a miss" (Some false)
        (Sv.Json.mem_bool "cached" (first cold));
      Alcotest.(check (option bool)) "warm is a hit" (Some true)
        (Sv.Json.mem_bool "cached" (first warm));
      (* Identical payload either way (the "cached" flag apart). *)
      let strip r =
        match r with
        | Sv.Json.Obj fs ->
          Sv.Json.Obj (List.filter (fun (k, _) -> k <> "cached") fs)
        | r -> r
      in
      Alcotest.(check bool) "warm answer = cold answer" true
        (Sv.Json.equal (strip (first cold)) (strip (first warm)));
      Alcotest.(check int) "exactly one tuner invocation" 1 (stat "searches" t);
      Alcotest.(check bool)
        (Printf.sprintf "warm >= 10x faster (cold %.1f ms, warm %.3f ms)"
           (cold_t *. 1e3) (warm_t *. 1e3))
        true
        (warm_t *. 10.0 < cold_t);
      Sv.Server.shutdown t;
      (* Restart on the same db: the tune answer survives (store hit,
         still zero searches) and the per-layout sim records warm-start
         the cache for near-miss searches. *)
      let t2 = Sv.Server.create ~db ~jobs:1 () in
      (match Sv.Server.load t2 with
      | Sv.Store.Loaded n -> Alcotest.(check bool) "entries persisted" true (n > 0)
      | _ -> Alcotest.fail "restart did not load the db");
      Alcotest.(check bool) "cache warm-started from sim records" true
        (stat "cache_entries" t2 > 0);
      let r2 = Sv.Server.handle_batch t2 batch in
      Alcotest.(check (option bool)) "post-restart tune is a store hit"
        (Some true)
        (Sv.Json.mem_bool "cached" (first r2));
      Alcotest.(check int) "zero tuner invocations after restart" 0
        (stat "searches" t2);
      Sv.Server.shutdown t2)

let mixed_batch =
  lazy
    (Sv.Json.List
       [
         Sv.Protocol.json_of_request
           (Sv.Protocol.Compile
              {
                layout = "TileOrderBy(Col(8, 6)).TileBy([4,2],[2,3])";
                emit = [];
                device = "a100";
              });
         Sv.Protocol.json_of_request
           (Sv.Protocol.Compile
              {
                layout = "OrderBy(GenP(antidiag[4,4])).GroupBy([4,4])";
                emit = [ "c" ];
                device = "h100";
              });
         (* duplicate of the first: must read as a hit in-batch *)
         Sv.Protocol.json_of_request
           (Sv.Protocol.Compile
              {
                layout = "TileOrderBy(Col(8, 6)).TileBy([4,2],[2,3])";
                emit = [];
                device = "a100";
              });
         Sv.Protocol.json_of_request
           (Sv.Protocol.Fingerprint
              {
                layout = "OrderBy(GenP(antidiag[4,4])).GroupBy([4,4])";
                device = "a100";
              });
         (* malformed: parse error must stay an error, deterministically *)
         Sv.Protocol.json_of_request
           (Sv.Protocol.Compile
              { layout = "Tile((("; emit = []; device = "a100" });
         tune_req ~budget:24 ~top:2 ();
         Sv.Protocol.json_of_request Sv.Protocol.Stats;
       ])

let test_server_byte_identical_across_jobs () =
  let run jobs =
    let t = Sv.Server.create ~jobs () in
    (* memory-only store: no paths anywhere near the responses *)
    let r1 = Sv.Json.to_string (Sv.Server.handle_batch t (Lazy.force mixed_batch)) in
    let r2 = Sv.Json.to_string (Sv.Server.handle_batch t (Lazy.force mixed_batch)) in
    Sv.Server.shutdown t;
    (r1, r2)
  in
  let c1, w1 = run 1 in
  let c3, w3 = run 3 in
  Alcotest.(check string) "cold batch bytes identical at -j1/-j3" c1 c3;
  Alcotest.(check string) "warm batch bytes identical at -j1/-j3" w1 w3;
  Alcotest.(check bool) "warm differs from cold (cached flags)" true (c1 <> w1)

let test_server_batch_semantics () =
  let t = Sv.Server.create ~jobs:2 () in
  (match Sv.Server.handle_batch t (Sv.Json.Str "nope") with
  | Sv.Json.Obj _ as r ->
    Alcotest.(check (option bool)) "non-array rejected" (Some false)
      (Sv.Json.mem_bool "ok" r)
  | _ -> Alcotest.fail "non-array: expected an error object");
  (match Sv.Server.handle_batch t (Lazy.force mixed_batch) with
  | Sv.Json.List rs ->
    Alcotest.(check int) "submission-order length" 7 (List.length rs);
    let nth = List.nth rs in
    Alcotest.(check (option bool)) "dup compile is an in-batch hit"
      (Some true)
      (Sv.Json.mem_bool "cached" (nth 2));
    Alcotest.(check (option bool)) "malformed layout errors" (Some false)
      (Sv.Json.mem_bool "ok" (nth 4));
    (* distinct devices address distinct store entries *)
    Alcotest.(check bool) "a100 and h100 compile keys differ" true
      (Sv.Json.mem_string "key" (nth 0) <> Sv.Json.mem_string "key" (nth 1));
    (* emit filtering: request 1 asked for "c" only *)
    Alcotest.(check bool) "emit filter keeps c" true
      (Sv.Json.mem_string "c" (nth 1) <> None);
    Alcotest.(check bool) "emit filter drops mlir" true
      (Sv.Json.mem_string "mlir" (nth 1) = None);
    Alcotest.(check bool) "full emit keeps mlir" true
      (Sv.Json.mem_string "mlir" (nth 0) <> None);
    Alcotest.(check (option bool)) "fingerprint op succeeds" (Some true)
      (Sv.Json.mem_bool "ok" (nth 3));
    Alcotest.(check (option int)) "stats sees the fingerprint" (Some 1)
      (Sv.Json.mem_int "fingerprints" (nth 6));
    (* only the malformed layout: a rejected non-array batch is a
       protocol error on the connection, not a request error *)
    Alcotest.(check (option int)) "stats sees 1 error" (Some 1)
      (Sv.Json.mem_int "errors" (nth 6))
  | _ -> Alcotest.fail "batch response not an array");
  Sv.Server.shutdown t

(* Regression: a tune request with [top] 0 raised [Invalid_argument]
   out of [handle_batch], killing the daemon, and [top] 2⁴⁰ raised
   [Out_of_memory] from the heap's up-front allocation.  A [top] or
   [budget] below 1 is now a request error, the rest of the batch is
   served, and a huge [top] is an ordinary search. *)
let test_server_out_of_range_tune () =
  let t = Sv.Server.create ~jobs:1 () in
  let batch =
    match
      Sv.Json.of_string
        {|[{"op":"tune","slot":"matmul","top":0},
           {"op":"compile","layout":"TileOrderBy(Col(8, 6)).TileBy([4,2],[2,3])"},
           {"op":"tune","slot":"nw","budget":-1},
           {"op":"tune","slot":"nw","top":1099511627776},
           {"op":"tune","slot":"nw","top":4611686018427387903},
           {"op":"stats"}]|}
    with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  (match Sv.Server.handle_batch t batch with
  | Sv.Json.List rs ->
    Alcotest.(check (list (option bool))) "ok flags"
      [ Some false; Some true; Some false; Some true; Some true; Some true ]
      (List.map (Sv.Json.mem_bool "ok") rs);
    Alcotest.(check (option int)) "stats counts the 2 errors" (Some 2)
      (Sv.Json.mem_int "errors" (List.nth rs 5))
  | _ -> Alcotest.fail "batch response not an array");
  Sv.Server.shutdown t

(* Regression: the daemon answered a compile of a layout whose element
   count overflowed [ok:true] with ["numel": 0].  Each overflow (one
   shape, across levels, wrapping negative) is now a request error
   naming the extents; the well-formed compile of the same batch still
   succeeds. *)
let test_server_rejects_overflowing_counts () =
  let t = Sv.Server.create ~jobs:1 () in
  let compile layout =
    Sv.Protocol.json_of_request
      (Sv.Protocol.Compile { layout; emit = [ "c" ]; device = "a100" })
  in
  let layouts =
    [
      "GroupBy([65536,65536,65536,65536])";
      "GroupBy([65536,65536],[65536,65536])";
      "GroupBy([4611686018427387903,4])";
      "GroupBy([4,4])";
    ]
  in
  (match
     Sv.Server.handle_batch t (Sv.Json.List (List.map compile layouts))
   with
  | Sv.Json.List rs ->
    Alcotest.(check (list (option bool))) "ok flags"
      [ Some false; Some false; Some false; Some true ]
      (List.map (Sv.Json.mem_bool "ok") rs);
    List.iteri
      (fun i r ->
        if i < 3 then
          Alcotest.(check bool)
            (List.nth layouts i ^ ": error names the overflow")
            true
            (match Sv.Json.mem_string "error" r with
            | Some e -> Test_tune.contains e "exceeds max_int"
            | None -> false))
      rs;
    Alcotest.(check (option int)) "the good compile's numel" (Some 16)
      (Sv.Json.mem_int "numel" (List.nth rs 3))
  | _ -> Alcotest.fail "batch response not an array");
  Sv.Server.shutdown t

(* Regression: an ill-typed or unknown request field fell back to the
   default — ["budget":"64"] searched the default 256 candidates,
   ["scale":true] ran a default search, ["device":5, "emit":"c"]
   compiled for a100 with every backend, and a misspelt ["devcie"]
   compiled for a100.  An unknown emit entry (["C"]) answered with no
   code, and ["kind"] leaked the store-internal field.  Each is now a
   request error naming the field or entry; the well-formed requests of
   the same batch still succeed. *)
let test_server_rejects_bad_fields () =
  let t = Sv.Server.create ~jobs:1 () in
  let batch =
    match
      Sv.Json.of_string
        {|[{"op":"tune","slot":"nw","budget":"64"},
           {"op":"tune","slot":"nw","scale":true},
           {"op":"compile","layout":"GroupBy([4,4])","device":5,"emit":"c"},
           {"op":"compile","layout":"GroupBy([4,4])","devcie":"h100"},
           {"op":"tune","slot":"nw","oracle":true},
           {"op":"compile","layout":"GroupBy([4,4])","emit":["c",1]},
           {"op":"fingerprint","layout":"GroupBy([4,4])","seed":1},
           {"op":"stats","verbose":true},
           {"op":"compile","layout":"OrderBy(GenP(antidiag[3,3])).GroupBy([3,3])","emit":["C"]},
           {"op":"compile","layout":"OrderBy(GenP(antidiag[3,3])).GroupBy([3,3])","emit":["kind"]},
           {"op":"tune","slot":"matmul","budget":8,"top":2,"oracle":false},
           {"op":"compile","layout":"GroupBy([4,4])","device":"h100","emit":["c"]},
           {"op":"fingerprint","layout":"GroupBy([4,4])"},
           {"op":"stats"}]|}
    with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  (match Sv.Server.handle_batch t batch with
  | Sv.Json.List rs ->
    Alcotest.(check (list (option bool))) "ok flags"
      (List.init 10 (fun _ -> Some false) @ List.init 4 (fun _ -> Some true))
      (List.map (Sv.Json.mem_bool "ok") rs);
    List.iter2
      (fun field r ->
        let err = Option.value ~default:"" (Sv.Json.mem_string "error" r) in
        Alcotest.(check bool)
          (Printf.sprintf "error %S names %S" err field)
          true
          (Str.string_match (Str.regexp (".*\"" ^ field ^ "\"")) err 0))
      [ "budget"; "scale"; "device"; "devcie"; "oracle"; "emit"; "seed"; "verbose";
        "C"; "kind" ]
      (List.filteri (fun i _ -> i < 10) rs);
    let nth = List.nth rs in
    Alcotest.(check (option string)) "the well-formed compile is for h100"
      (Some "h100") (Sv.Json.mem_string "device" (nth 11));
    Alcotest.(check bool) "and honours its emit" true
      (Sv.Json.mem_string "mlir" (nth 11) = None
      && Sv.Json.mem_string "c" (nth 11) <> None);
    Alcotest.(check (option int)) "the well-formed tune explores its budget"
      (Some 8) (Sv.Json.mem_int "explored" (nth 10));
    Alcotest.(check (option int)) "stats counts the 10 errors" (Some 10)
      (Sv.Json.mem_int "errors" (nth 13))
  | _ -> Alcotest.fail "batch response not an array");
  Sv.Server.shutdown t

let test_fingerprint_key_matches_server () =
  (* The debug subcommand's key must be the daemon's address. *)
  let layout = "TileOrderBy(Col(8, 6)).TileBy([4,2],[2,3])" in
  let g =
    match Lego_lang.Elab.layout_of_string layout with
    | Ok g -> g
    | Error e -> Alcotest.fail e
  in
  let fp = T.Fingerprint.of_layout g in
  let expected = Sv.Server.compile_key ~fp ~device:"a100" in
  let t = Sv.Server.create ~jobs:1 () in
  (match
     Sv.Server.handle_batch t
       (Sv.Json.List
          [
            Sv.Protocol.json_of_request
              (Sv.Protocol.Fingerprint { layout; device = "a100" });
          ])
   with
  | Sv.Json.List [ r ] ->
    Alcotest.(check (option string)) "fingerprint op reports the store key"
      (Some expected)
      (Sv.Json.mem_string "key" r)
  | _ -> Alcotest.fail "fingerprint round-trip");
  Sv.Server.shutdown t

(* ---- daemon process ---------------------------------------------------- *)

let legoc_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/legoc.exe"

(* Regression: a client that sends a batch and hangs up before reading
   the reply killed [legoc serve] with SIGPIPE, and so did a tune
   request with [top] 0 (an uncaught [Invalid_argument]).  The daemon
   must drop the first client, answer the second with an error, and
   answer the next one. *)
let test_daemon_survives_early_hangup () =
  let dir = Filename.temp_dir "lego-test-hangup" "" in
  let socket = Filename.concat dir "legoc.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process legoc_exe
      [| legoc_exe; "serve"; "--socket"; socket; "--no-db"; "-j"; "1" |]
      Unix.stdin devnull devnull
  in
  Unix.close devnull;
  let stats_ok () =
    match Sv.Client.connect ~retries:500 ~socket () with
    | Error e -> Error e
    | Ok c ->
      let r = Sv.Client.batch c [ Sv.Protocol.Stats ] in
      Sv.Client.close c;
      (match r with
      | Ok [ r ] when Sv.Json.mem_bool "ok" r = Some true -> Ok ()
      | Ok _ -> Error "malformed stats reply"
      | Error e -> Error e)
  in
  let finish () =
    (match Sv.Client.connect ~socket () with
    | Ok c ->
      ignore (Sv.Client.batch c [ Sv.Protocol.Shutdown ]);
      Sv.Client.close c
    | Error _ -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()));
    let _, status = Unix.waitpid [] pid in
    (try Sys.remove socket with Sys_error _ -> ());
    (try Unix.rmdir dir with Unix.Unix_error _ -> ());
    status
  in
  (* The daemon is up once it answers a first client. *)
  let up = stats_ok () in
  if up = Ok () then begin
    let batch =
      Sv.Json.List
        (List.init 64 (fun index ->
             Sv.Protocol.json_of_request
               (Sv.Protocol.Compile
                  {
                    layout =
                      Format.asprintf "%a" Lego_layout.Group_by.pp
                        (Lego_conform.Lgen.layout_of_seed ~seed:1 ~index);
                    emit = [];
                    device = "a100";
                  })))
    in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    Sv.Protocol.write_frame fd batch;
    Unix.close fd
  end;
  let top0 =
    if up <> Ok () then up
    else
      match Sv.Client.connect ~socket () with
      | Error e -> Error e
      | Ok c -> (
        let r =
          Sv.Client.batch c
            [
              Sv.Protocol.Tune
                {
                  Sv.Protocol.slot = "matmul";
                  device = "a100";
                  budget = None;
                  top = Some 0;
                  seed = 0;
                  oracle = false;
                  conform = false;
                };
            ]
        in
        Sv.Client.close c;
        match r with
        | Ok [ r ] when Sv.Json.mem_bool "ok" r = Some false -> Ok ()
        | Ok _ -> Error "top 0 not answered with ok:false"
        | Error e -> Error e)
  in
  let after = if up = Ok () then stats_ok () else up in
  let status = finish () in
  Alcotest.(check (result unit string)) "daemon answers first client" (Ok ())
    up;
  Alcotest.(check (result unit string)) "daemon rejects top 0" (Ok ()) top0;
  Alcotest.(check (result unit string)) "daemon answers after a hang-up"
    (Ok ()) after;
  Alcotest.(check bool) "daemon exits 0 on shutdown" true
    (status = Unix.WEXITED 0)

(* Regression: a compile whose reply (20.8 MB simplified, 20.8 MB of C,
   26.4 MB of Triton) is over the 64 MiB frame limit made [write_frame]
   raise, and the daemon exited with an uncaught exception.  It must
   answer that request with an error naming the limit and go on serving
   the same connection. *)
let test_daemon_answers_oversized_reply () =
  let dir = Filename.temp_dir "lego-test-oversized" "" in
  let socket = Filename.concat dir "legoc.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process legoc_exe
      [| legoc_exe; "serve"; "--socket"; socket; "--no-db"; "-j"; "1" |]
      Unix.stdin devnull devnull
  in
  Unix.close devnull;
  let layout =
    "OrderBy2(GenP(swizzle[2, 2]), GenP(antidiag[8, 8])).OrderBy2(GenP(hilbert[16, \
     16])).OrderBy2(GenP(hilbert[16, 16])).GroupBy1([256])"
  in
  let limit = string_of_int Sv.Protocol.max_frame_bytes in
  (* A daemon that died mid-connection must fail this test, not kill the
     test process with SIGPIPE on the next send. *)
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let replies, status =
    Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe sigpipe)
    @@ fun () ->
    let kill () = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> () in
    let replies =
      try
        match Sv.Client.connect ~retries:500 ~socket () with
        | Error e -> Error e
        | Ok c ->
          let compile =
            Sv.Client.batch c
              [ Sv.Protocol.Compile { layout; emit = []; device = "a100" } ]
          in
          let stats = Sv.Client.batch c [ Sv.Protocol.Stats ] in
          Sv.Client.close c;
          Ok (compile, stats)
      with Unix.Unix_error (e, fn, _) ->
        Error (fn ^ ": " ^ Unix.error_message e)
    in
    (try
       match Sv.Client.connect ~socket () with
       | Ok c ->
         ignore (Sv.Client.batch c [ Sv.Protocol.Shutdown ]);
         Sv.Client.close c
       | Error _ -> kill ()
     with Unix.Unix_error _ -> kill ());
    (replies, snd (Unix.waitpid [] pid))
  in
  (try Sys.remove socket with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  (match replies with
  | Error e -> Alcotest.failf "daemon connection: %s" e
  | Ok (compile, stats) ->
    (match compile with
    | Ok [ r ] ->
      Alcotest.(check (option bool)) "oversized reply is ok:false" (Some false)
        (Sv.Json.mem_bool "ok" r);
      let error = Option.value ~default:"" (Sv.Json.mem_string "error" r) in
      Alcotest.(check bool)
        (Printf.sprintf "error %S names the limit" error)
        true
        (Str.string_match (Str.regexp (".*" ^ limit)) error 0)
    | Ok rs -> Alcotest.failf "%d replies to one request" (List.length rs)
    | Error e -> Alcotest.failf "compile: %s" e);
    match stats with
    | Ok [ r ] ->
      Alcotest.(check (option bool)) "stats answered on the same connection"
        (Some true) (Sv.Json.mem_bool "ok" r)
    | Ok _ -> Alcotest.fail "malformed stats reply"
    | Error e -> Alcotest.failf "stats: %s" e);
  Alcotest.(check bool) "daemon exits 0 on shutdown" true
    (status = Unix.WEXITED 0)

(* Regression: a record over the frame limit was appended to the log,
   where load rejects it and truncates the file, losing every record
   written after it — e.g. everything a daemon stored after answering
   an oversized compile. *)
let test_store_keeps_oversized_record_off_the_log () =
  with_tmp (fun path ->
      let s, _ = Sv.Store.open_ ~path () in
      let big = Sv.Json.Str (String.make (Sv.Protocol.max_frame_bytes + 1) 'x') in
      Sv.Store.put s ~key:"big" big;
      Alcotest.(check bool) "kept in memory" true (Sv.Store.get s "big" = Some big);
      Sv.Store.put s ~key:"after" (Sv.Json.Int 1);
      Sv.Store.close s;
      let s', verdict = Sv.Store.open_ ~path () in
      (match verdict with
      | Sv.Store.Loaded 1 -> ()
      | Sv.Store.Loaded n -> Alcotest.failf "loaded %d records" n
      | Sv.Store.Recovered (_, why) -> Alcotest.failf "recovered: %s" why
      | Sv.Store.Fresh -> Alcotest.fail "existing file loaded as Fresh");
      Alcotest.(check (option int))
        "the record after it survives" (Some 1)
        (Option.bind (Sv.Store.get s' "after") Sv.Json.get_int);
      Sv.Store.close s')

let suite =
  ( "serve",
    [
      QCheck_alcotest.to_alcotest ~long:false prop_json_round_trip;
      Alcotest.test_case "JSON deterministic printing fixtures" `Quick
        test_json_fixed_points;
      Alcotest.test_case "frame round-trip, EOF and truncation" `Quick
        test_frame_round_trip;
      Alcotest.test_case "protocol request round-trip" `Quick
        test_request_round_trip;
      QCheck_alcotest.to_alcotest ~long:false prop_store_round_trip;
      Alcotest.test_case "store: truncated db degrades, never crashes" `Quick
        test_store_truncation_recovery;
      Alcotest.test_case "store: corrupted record salvages the prefix" `Quick
        test_store_corruption_recovery;
      Alcotest.test_case "store: foreign header cold-starts" `Quick
        test_store_foreign_header_cold_start;
      Alcotest.test_case "cache identity: no a100/h100 cross-contamination"
        `Quick test_cache_identity_no_cross_device_contamination;
      Alcotest.test_case "server: warm path = store hit, zero searches, 10x"
        `Quick test_server_warm_path_zero_searches;
      Alcotest.test_case "server: byte-identical batches at any -j" `Quick
        test_server_byte_identical_across_jobs;
      Alcotest.test_case "server: batch semantics (dup, emit, errors)" `Quick
        test_server_batch_semantics;
      Alcotest.test_case "server: out-of-range tune top/budget" `Quick
        test_server_out_of_range_tune;
      Alcotest.test_case "fingerprint op key = server store key" `Quick
        test_fingerprint_key_matches_server;
      Alcotest.test_case "daemon survives a client hanging up early" `Quick
        test_daemon_survives_early_hangup;
      Alcotest.test_case "server: overflowing element counts rejected" `Quick
        test_server_rejects_overflowing_counts;
      Alcotest.test_case "server: unknown or ill-typed fields rejected" `Quick
        test_server_rejects_bad_fields;
      Alcotest.test_case "daemon answers a reply over the frame limit" `Quick
        test_daemon_answers_oversized_reply;
      Alcotest.test_case "store: an over-limit record stays off the log"
        `Quick test_store_keeps_oversized_record_off_the_log;
    ] )
