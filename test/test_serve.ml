(* lib/serve: the persistent compile service.  JSON codec round-trips,
   frame framing, store durability (QCheck2 round-trip plus truncation /
   corruption recovery), the (slot, device) cache-identity regression,
   the warm-path contract (zero tuner invocations, >= 10x latency),
   batch byte-identity at any -j and pinned reply digests, a spawned
   daemon that outlives a client hanging up early and a tune request
   with [top] 0, and daemons started where a file or a live daemon's
   socket already is. *)

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
      let kinds = ref [] in
      Sv.Store.iter (Sv.Server.store t) (fun ~key:_ v ->
          kinds := Sv.Json.mem_string "kind" v :: !kinds);
      Alcotest.(check bool) "the cold tune stored no sim record" false
        (List.mem (Some "sim") !kinds);
      Sv.Server.shutdown t;
      (* Restart on the same db: the tune answer survives (store hit,
         still zero searches), and the new process's tune cache starts
         empty. *)
      let t2 = Sv.Server.create ~db ~jobs:1 () in
      (match Sv.Server.load t2 with
      | Sv.Store.Loaded n -> Alcotest.(check bool) "entries persisted" true (n > 0)
      | _ -> Alcotest.fail "restart did not load the db");
      Alcotest.(check int) "restarted tune cache is empty" 0
        (stat "cache_entries" t2);
      let r2 = Sv.Server.handle_batch t2 batch in
      Alcotest.(check (option bool)) "post-restart tune is a store hit"
        (Some true)
        (Sv.Json.mem_bool "cached" (first r2));
      Alcotest.(check int) "zero tuner invocations after restart" 0
        (stat "searches" t2);
      Sv.Server.shutdown t2)

(* Regression: the daemon re-injected stored per-layout [sim] records
   into its tune cache at startup, so a record that no longer matched
   the simulator decided later searches.  One planted record, in the
   format those daemons wrote, gave nw's runner-up a 1 ns full-rung
   time, and a never-stored tune returned it as the winner at 1e-9 s.
   Such a record must not change any reply. *)
let test_server_ignores_stored_sim_records () =
  with_tmp (fun db ->
      let planted = "OrderBy2(GenP(antidiag[17, 17])).GroupBy2([17, 17])" in
      let fp_hex = Digest.to_hex (Digest.string planted) in
      let s, _ = Sv.Store.open_ ~path:db () in
      Sv.Store.put s
        ~key:(Sv.Store.key [ "sim"; "nw@a100/fp32"; fp_hex; "full" ])
        (Sv.Json.Obj
           [
             ("kind", Sv.Json.Str "sim");
             ("slot", Sv.Json.Str "nw@a100/fp32");
             ("fp", Sv.Json.Str fp_hex);
             ("rung", Sv.Json.Str "full");
             ("time_s", Sv.Json.Float 1e-9);
             ("s_accesses", Sv.Json.Float 1.0);
             ("s_cycles", Sv.Json.Float 1.0);
             ("g_txns", Sv.Json.Float 1.0);
           ]);
      Sv.Store.close s;
      let batch =
        Result.get_ok
          (Sv.Json.of_string {|[{"op":"tune","slot":"nw","budget":12,"top":2}]|})
      in
      let reply t =
        let r = Sv.Server.handle_batch t batch in
        Sv.Server.shutdown t;
        match r with
        | Sv.Json.List [ r ] -> r
        | _ -> Alcotest.fail "batch shape"
      in
      let fresh = reply (Sv.Server.create ()) in
      let planted_db = reply (Sv.Server.create ~db ()) in
      Alcotest.(check (option string)) "fresh winner"
        (Some "OrderBy2(GenP(cyclicdiag[17, 17])).GroupBy2([17, 17])")
        (Sv.Json.mem_string "winner" fresh);
      Alcotest.(check (option (float 1e-15))) "fresh time_s" (Some 3.402e-4)
        (Sv.Json.mem_float "time_s" fresh);
      Alcotest.(check string) "reply with the planted record = fresh reply"
        (Sv.Json.to_string fresh)
        (Sv.Json.to_string planted_db))

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
  (* 2⁶⁰ and 2⁶¹ are regressions: the pool's default chunk divided by
     [8 * jobs], which wraps there, and the daemon died on its first
     batch of more than one request. *)
  List.iter
    (fun jobs ->
      let c, w = run jobs in
      Alcotest.(check string)
        (Printf.sprintf "cold batch bytes identical at -j1/-j%d" jobs) c1 c;
      Alcotest.(check string)
        (Printf.sprintf "warm batch bytes identical at -j1/-j%d" jobs) w1 w)
    [ 3; 1 lsl 60; 1 lsl 61 ];
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

(* The exact reply bytes of one batch that takes every path of
   [handle_batch]: an in-batch duplicate compile, a layout parse error,
   an unknown op, a non-object request, a compile for an unknown
   device, a fingerprint, a small nw tune and a stats mid-batch and
   last.  The cold and warm replies and a [shutdown]+[stats] batch's are
   each pinned by MD5, first recorded when the server still drafted
   compiles and fingerprints on a domain pool, and re-recorded when the
   tune stopped storing two sim records: only the four [stats] replies'
   [store_entries] moved, from 5 to 3. *)
let test_server_reply_digests_pinned () =
  let parse s = Result.get_ok (Sv.Json.of_string s) in
  let batch =
    parse
      {|[{"op":"compile","layout":"TileOrderBy(Col(8, 6)).TileBy([4,2],[2,3])","emit":["c","mlir"]},
         {"op":"compile","layout":"OrderBy(GenP(antidiag[4,4])).GroupBy([4,4])","device":"H100"},
         {"op":"compile","layout":"TileOrderBy(Col(8, 6)).TileBy([4,2],[2,3])","emit":["c","mlir"]},
         {"op":"compile","layout":"Tile((("},
         {"op":"frobnicate"},
         42,
         {"op":"stats"},
         {"op":"compile","layout":"GroupBy([4,4])","device":"volta"},
         {"op":"fingerprint","layout":"OrderBy(GenP(antidiag[3,3])).GroupBy([3,3])","device":"rtx4090"},
         {"op":"tune","slot":"nw","budget":12,"top":2},
         {"op":"stats"}]|}
  in
  let closing = parse {|[{"op":"shutdown"},{"op":"stats"}]|} in
  let md5 j = Digest.to_hex (Digest.string (Sv.Json.to_string j)) in
  List.iter
    (fun jobs ->
      let t = Sv.Server.create ~jobs () in
      let cold = md5 (Sv.Server.handle_batch t batch) in
      let warm = md5 (Sv.Server.handle_batch t batch) in
      let last = md5 (Sv.Server.handle_batch t closing) in
      Sv.Server.shutdown t;
      List.iter
        (fun (what, want, got) ->
          Alcotest.(check string)
            (Printf.sprintf "%s reply at -j%d" what jobs)
            want got)
        [
          ("cold", "8153e277df5cd078000864f8fa2ab015", cold);
          ("warm", "d65c791e682b768aa92e2c1d8cf6664a", warm);
          ("shutdown+stats", "3fb9186875ed3545f8e3a4bd3ba4a0a4", last);
        ])
    [ 1; 3; 1 lsl 60 ]

(* Regression: a tune for an unknown device answered [unknown device
   "volta"] without the preset list that a compile for the same device
   names. *)
let test_server_unknown_device_tune () =
  let t = Sv.Server.create () in
  let batch =
    Sv.Json.of_string
      {|[{"op":"tune","slot":"matmul","device":"volta"},
         {"op":"compile","layout":"GroupBy([4,4])","device":"volta"},
         {"op":"stats"}]|}
  in
  (match Sv.Server.handle_batch t (Result.get_ok batch) with
  | Sv.Json.List [ tune; compile; stats ] ->
    let known = {|unknown device "volta" (known: a100, h100, rtx4090)|} in
    Alcotest.(check (option string)) "tune error" (Some known)
      (Sv.Json.mem_string "error" tune);
    Alcotest.(check (option string)) "compile error" (Some known)
      (Sv.Json.mem_string "error" compile);
    Alcotest.(check (option int)) "stats counts both" (Some 2)
      (Sv.Json.mem_int "errors" stats)
  | _ -> Alcotest.fail "batch response shape");
  Sv.Server.shutdown t

(* Regression: a tune naming an unknown slot built all three slots to
   look it up and all three again for its message (about 38 MB), and
   the server kept the error for its lifetime. *)
let test_server_unknown_slot_tune () =
  let t = Sv.Server.create ~jobs:1 () in
  let batch =
    Result.get_ok (Sv.Json.of_string {|[{"op":"tune","slot":"x"}]|})
  in
  let before = Gc.allocated_bytes () in
  let reply = Sv.Json.to_string (Sv.Server.handle_batch t batch) in
  let mb = (Gc.allocated_bytes () -. before) /. 1e6 in
  Alcotest.(check string) "reply"
    {|[{"ok":false,"error":"unknown slot \"x\" (known: matmul, transpose, nw)"}]|}
    reply;
  if mb >= 1.0 then Alcotest.failf "unknown-slot tune allocated %.1f MB" mb;
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

(* Starts [legoc serve --socket SOCKET --no-db -j 1] with its stdout and
   stderr in the file [out]. *)
let spawn_daemon ~socket ~out =
  let fd =
    Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process legoc_exe
      [| legoc_exe; "serve"; "--socket"; socket; "--no-db"; "-j"; "1" |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  pid

(* [pid]'s exit status, or [None] if it was still running after
   [seconds] and had to be killed: a daemon that should have refused
   to start must fail its test, not hang it. *)
let wait_for ~seconds pid =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.02;
      go ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      None
    | _, status -> Some status
  in
  go ()

(* One request to the daemon at [socket] on a fresh connection: [Ok]
   when it answers ok:true.  [retries] as {!Sv.Client.connect}'s. *)
let request ?retries ~socket req =
  match Sv.Client.connect ?retries ~socket () with
  | Error e -> Error e
  | Ok c -> (
    let r =
      try Sv.Client.batch c [ req ]
      with Unix.Unix_error (e, fn, _) ->
        Error (fn ^ ": " ^ Unix.error_message e)
    in
    Sv.Client.close c;
    match r with
    | Ok [ r ] when Sv.Json.mem_bool "ok" r = Some true -> Ok ()
    | Ok _ -> Error "malformed reply"
    | Error e -> Error e)

(* Regression: a client that sends a batch and hangs up before reading
   the reply killed [legoc serve] with SIGPIPE, and so did a tune
   request with [top] 0 (an uncaught [Invalid_argument]).  The daemon
   must drop the first client, answer the second with an error, and
   answer the next one. *)
let test_daemon_survives_early_hangup () =
  let dir = Filename.temp_dir "lego-test-hangup" "" in
  let socket = Filename.concat dir "legoc.sock" in
  let pid = spawn_daemon ~socket ~out:"/dev/null" in
  let stats_ok () = request ~retries:500 ~socket Sv.Protocol.Stats in
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
  let pid = spawn_daemon ~socket ~out:"/dev/null" in
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

let test_cli_rejects_negative_jobs () =
  Test_tune.check_negative_jobs_rejected [ "serve"; "--oneshot" ]

(* Regression: [-j 0] resolved through [LEGO_JOBS], so with LEGO_JOBS=5
   [legoc serve --oneshot -j 0] ran at jobs=5 on a 2-core machine.  An
   explicit 0 selects the machine's recommended domain count, whatever
   LEGO_JOBS says; without [-j], LEGO_JOBS still sets the count. *)
let test_cli_jobs_zero_ignores_env () =
  let recommended = Domain.recommended_domain_count () in
  let env = [ ("LEGO_JOBS", string_of_int (recommended + 3)) ] in
  List.iter
    (fun (args, jobs) ->
      let status, out = Test_tune.run_legoc ~env ("serve" :: "--oneshot" :: args) in
      let what = String.concat " " args in
      Alcotest.(check bool) (Printf.sprintf "%s exits 0:\n%s" what out) true
        (status = Unix.WEXITED 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s prints jobs=%d:\n%s" what jobs out)
        true
        (Test_tune.contains out (Printf.sprintf "jobs=%d)" jobs)))
    [ ([ "-j"; "0" ], recommended); ([], recommended + 3) ]

(* Regression: a db or socket path the daemon cannot use died with an
   uncaught exception and exit 125: a directory as the db, a db under a
   regular file, and a socket in a missing directory (after printing
   "listening on").  [--oneshot] failed only once its client's connect
   retries ran out.  Each must exit 1 with one line naming the path and
   the OS reason, before any connect attempt. *)
let test_cli_serve_rejects_unusable_paths () =
  let dir = Filename.temp_dir "lego-test-paths" "" in
  let sub = Filename.concat dir in
  Unix.mkdir (sub "dir") 0o755;
  close_out (open_out (sub "file"));
  Fun.protect
    ~finally:(fun () ->
      Sys.remove (sub "file");
      Unix.rmdir (sub "dir");
      Unix.rmdir dir)
  @@ fun () ->
  List.iter
    (fun (args, want) ->
      let status, out = Test_tune.run_legoc ("serve" :: args @ [ "-j"; "1" ]) in
      let what = String.concat " " args in
      Alcotest.(check string) (what ^ ": output") (want ^ "\n") out;
      Alcotest.(check bool) (what ^ ": exits 1") true (status = Unix.WEXITED 1))
    [
      ( [ "--socket"; sub "s.sock"; "--db"; sub "dir" ],
        Printf.sprintf "error: db %s: Is a directory" (sub "dir") );
      ( [ "--socket"; sub "s.sock"; "--db"; sub "file/x.db" ],
        Printf.sprintf "error: db %s: Not a directory" (sub "file/x.db") );
      ( [ "--socket"; sub "missing/s.sock"; "--no-db" ],
        Printf.sprintf "error: bind %s: No such file or directory"
          (sub "missing/s.sock") );
      ( [ "--oneshot"; "--db"; sub "dir" ],
        Printf.sprintf "error: db %s: Is a directory" (sub "dir") );
    ]

(* ---- what is already at --socket ------------------------------------- *)

(* Runs [f] on a function naming files in a fresh directory, with
   SIGPIPE ignored (a daemon that dies mid-connection must fail the
   test, not kill it); the directory and its files go afterwards. *)
let with_dir name f =
  let dir = Filename.temp_dir name "" in
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigpipe sigpipe;
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f (Filename.concat dir))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let check_refused ~socket ~out status =
  Alcotest.(check bool) "the daemon exits 1" true
    (status = Some (Unix.WEXITED 1));
  Alcotest.(check string) "its output"
    (Printf.sprintf "error: bind %s: Address already in use\n" socket)
    (read_file out)

(* Regression: the daemon unlinked whatever was at [--socket] before it
   bound, so a regular file there was replaced by the socket and gone
   after shutdown. *)
let test_cli_serve_keeps_a_file_at_socket () =
  with_dir "lego-test-file-socket" @@ fun path ->
  let notes = path "notes.txt" in
  Out_channel.with_open_bin notes (fun oc ->
      output_string oc "notes kept here\n");
  let status =
    wait_for ~seconds:10. (spawn_daemon ~socket:notes ~out:(path "out"))
  in
  check_refused ~socket:notes ~out:(path "out") status;
  Alcotest.(check string) "the file's bytes" "notes kept here\n"
    (read_file notes)

(* Regression: a second daemon on a live daemon's socket unlinked it,
   bound its own, and took the next client's shutdown, leaving the
   first daemon running with no socket to reach it. *)
let test_cli_serve_leaves_a_live_socket () =
  with_dir "lego-test-live-socket" @@ fun path ->
  let socket = path "live.sock" in
  let first = spawn_daemon ~socket ~out:(path "first") in
  let up = request ~retries:500 ~socket Sv.Protocol.Stats in
  let second =
    if up = Ok () then
      Some (wait_for ~seconds:10. (spawn_daemon ~socket ~out:(path "second")))
    else None
  in
  let stats = request ~socket Sv.Protocol.Stats in
  let shutdown = request ~socket Sv.Protocol.Shutdown in
  let status = wait_for ~seconds:10. first in
  Alcotest.(check (result unit string)) "the first daemon is up" (Ok ()) up;
  Option.iter (check_refused ~socket ~out:(path "second")) second;
  Alcotest.(check (result unit string)) "the first daemon answers --stats"
    (Ok ()) stats;
  Alcotest.(check (result unit string)) "the first daemon takes --shutdown"
    (Ok ()) shutdown;
  Alcotest.(check bool) "the first daemon exits 0" true
    (status = Some (Unix.WEXITED 0))

(* A killed daemon leaves its socket file behind; the next daemon on
   that path must still start. *)
let test_cli_serve_reuses_a_stale_socket () =
  with_dir "lego-test-stale-socket" @@ fun path ->
  let socket = path "stale.sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.close fd;
  let pid = spawn_daemon ~socket ~out:(path "out") in
  let stats = request ~retries:500 ~socket Sv.Protocol.Stats in
  let shutdown = request ~socket Sv.Protocol.Shutdown in
  let status = wait_for ~seconds:10. pid in
  Alcotest.(check (result unit string)) "the daemon answers --stats" (Ok ())
    stats;
  Alcotest.(check (result unit string)) "the daemon takes --shutdown" (Ok ())
    shutdown;
  Alcotest.(check bool) "the daemon exits 0" true
    (status = Some (Unix.WEXITED 0))

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
      Alcotest.test_case "server: a stored sim record changes no reply"
        `Quick test_server_ignores_stored_sim_records;
      Alcotest.test_case "server: byte-identical batches at any -j" `Quick
        test_server_byte_identical_across_jobs;
      Alcotest.test_case "server: batch semantics (dup, emit, errors)" `Quick
        test_server_batch_semantics;
      Alcotest.test_case "server: reply bytes pinned by digest at any -j"
        `Quick test_server_reply_digests_pinned;
      Alcotest.test_case "server: unknown device tune names the presets"
        `Quick test_server_unknown_device_tune;
      Alcotest.test_case "server: unknown slot tune builds no slot" `Quick
        test_server_unknown_slot_tune;
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
      Alcotest.test_case "CLI serve rejects a negative --jobs" `Quick
        test_cli_rejects_negative_jobs;
      Alcotest.test_case "CLI serve -j 0 ignores LEGO_JOBS" `Quick
        test_cli_jobs_zero_ignores_env;
      Alcotest.test_case "CLI serve rejects unusable --db/--socket" `Quick
        test_cli_serve_rejects_unusable_paths;
      Alcotest.test_case "CLI serve keeps a file at --socket" `Quick
        test_cli_serve_keeps_a_file_at_socket;
      Alcotest.test_case "CLI serve leaves a live daemon's socket" `Quick
        test_cli_serve_leaves_a_live_socket;
      Alcotest.test_case "CLI serve reuses a stale socket" `Quick
        test_cli_serve_reuses_a_stale_socket;
    ] )
