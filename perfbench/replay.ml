(* The traced run: each workload replayed through the public functions
   of every layer it calls, one span per call (see {!Trace}).  The
   replay is serial and separate from the untraced run, which alone
   gives the end-to-end numbers; [trace.coverage] sets the layer times
   against that run's CPU time.

   Spans under a ["breakdown"] root re-run work a timed span already
   covered, to split it further (conformance legs, and the compiles
   inside the daemon); they are left out of the coverage sum. *)

open Work
module Sp = T.Space
module Tr = Trace

let span = Tr.with_span

(* ---- symbolic / codegen ------------------------------------------------ *)

(* Sym.apply / Sym.inv split into instantiation and simplification. *)
let symbolic ?item ~inv g =
  let env_a = S.Sym.ranges_of g in
  let env_p =
    S.Range.env_of_list [ ("p", S.Range.of_extent (L.Group_by.numel g)) ]
  in
  let raw_a, raw_inv =
    span ?item "symbolic.instantiate" (fun () ->
        ( S.Sym.apply ~simplify:false g,
          if inv then S.Sym.inv ~simplify:false g else [] ))
  in
  let a, invs, ops =
    span ?item "symbolic.simplify" (fun () ->
        let a = S.Simplify.simplify ~env:env_a raw_a in
        let invs = List.map (S.Simplify.simplify ~env:env_p) raw_inv in
        (a, invs, List.fold_left (fun n e -> n + S.Cost.ops e) 0 (a :: invs)))
  in
  (a, invs, ops)

let codegen_bytes = ref 0

let codegen ?item g a =
  let c = span ?item "codegen.c" (fun () -> Cg.C_printer.expr a) in
  let t = span ?item "codegen.triton" (fun () -> Cg.Triton_printer.expr a) in
  let m =
    span ?item "codegen.mlir" (fun () ->
        Cg.Mlir_gen.layout_apply_func ~name:"apply" g)
  in
  codegen_bytes :=
    !codegen_bytes + String.length c + String.length t + String.length m

(* ---- conformance ------------------------------------------------------- *)

let points = ref 0
let f2_covered = ref 0

(* The points Conform.check_layout visits, in its order. *)
let conform_points ~sample_seed g =
  let n = L.Group_by.numel g and dims = L.Group_by.dims g in
  if n <= 2048 then List.of_seq (L.Shape.indices dims)
  else
    let rng = Random.State.make [| 0x5A11; sample_seed |] in
    List.init 2048 (fun _ -> List.map (fun e -> Random.State.int rng e) dims)

(* Each semantics leg of the check, replayed on its own over the same
   points, so the legs' shares of [conform.check] show. *)
let legs ?item ~sample_seed g =
  let pts = conform_points ~sample_seed g in
  let names = List.mapi (fun k _ -> Printf.sprintf "i%d" k) (L.Group_by.dims g) in
  let env_of idx v = List.assoc v (List.combine names idx) in
  let offsets =
    span ?item "conform.leg.interp" (fun () ->
        List.map
          (fun idx ->
            let p = L.Group_by.apply_ints g idx in
            ignore (L.Group_by.inv_ints g p);
            p)
          pts)
  in
  let n = L.Group_by.numel g in
  let env_p = S.Range.env_of_list [ ("p", S.Range.of_extent n) ] in
  let a = S.Sym.apply g and invs = S.Sym.inv g in
  span ?item "conform.leg.symbolic" (fun () ->
      List.iter2
        (fun idx p ->
          ignore (S.Expr.eval ~env:(env_of idx) a);
          List.iter (fun e -> ignore (S.Expr.eval ~env:(fun _ -> p) e)) invs)
        pts offsets);
  span ?item "conform.leg.c" (fun () ->
      if
        Cg.C_printer.guard_nonneg ~env:(S.Sym.ranges_of g) a = Ok ()
        && List.for_all (fun e -> Cg.C_printer.guard_nonneg ~env:env_p e = Ok ()) invs
      then
        match
          ( C.Cexpr.parse (Cg.C_printer.expr a),
            List.map (fun e -> C.Cexpr.parse (Cg.C_printer.expr e)) invs )
        with
        | Ok ca, cis ->
          let cis = List.filter_map Result.to_option cis in
          List.iter2
            (fun idx p ->
              ignore (C.Cexpr.eval ~env:(env_of idx) ca);
              List.iter (fun e -> ignore (C.Cexpr.eval ~env:(fun _ -> p) e)) cis)
            pts offsets
        | Error _, _ -> ());
  span ?item "conform.leg.mlir" (fun () ->
      let ma = Lego_mlirsim.Mparser.parse_module (Cg.Mlir_gen.layout_apply_func ~name:"apply" g) in
      let mi = Lego_mlirsim.Mparser.parse_module (Cg.Mlir_gen.layout_inv_func ~name:"inv" g) in
      List.iter2
        (fun idx p ->
          let module Mi = Lego_mlirsim.Minterp in
          ignore (Mi.run_func ma "apply" (List.map (fun i -> Mi.Int i) idx));
          ignore (Mi.run_func mi "inv" [ Mi.Int p ]))
        pts offsets);
  span ?item "conform.leg.f2" (fun () ->
      match Lego_f2.Linear.of_layout g with
      | None -> ()
      | Some lin -> (
        match Lego_f2.Linear.inverse lin with
        | None -> ()
        | Some li ->
          let dims = L.Group_by.dims g in
          List.iter2
            (fun idx p ->
              ignore (Lego_f2.Linear.apply lin (L.Shape.flatten_ints dims idx));
              ignore (Lego_f2.Linear.apply li p))
            pts offsets))

let conform ?item ?(sample_seed = 0) g =
  let o =
    span ?item "conform.check" (fun () -> C.Conform.check_layout ~sample_seed g)
  in
  points := !points + o.C.Conform.points;
  if o.C.Conform.f2_checked then incr f2_covered;
  (try span ?item "breakdown" (fun () -> legs ?item ~sample_seed g) with _ -> ());
  o

(* ---- tune -------------------------------------------------------------- *)

let candidates = ref 0
let rung_members = ref 0
let sims = ref 0
let exec_speedup = ref 0.0

let elem_bytes (slot : T.Slot.t) =
  List.fold_left
    (fun acc -> function
      | T.Predict.Shared { elem_bytes; _ } -> max acc elem_bytes
      | T.Predict.Global _ -> acc)
    1 slot.T.Slot.phases

let cmp_static (s1, fp1, _) (s2, fp2, _) = T.Predict.compare_ranked (s1, fp1) (s2, fp2)

let cmp_sim ((sa : T.Slot.sim), st_a) ((sb : T.Slot.sim), st_b) =
  let c = compare sa.T.Slot.time_s sb.T.Slot.time_s in
  if c <> 0 then c
  else
    let c = compare sa.T.Slot.s_cycles sb.T.Slot.s_cycles in
    if c <> 0 then c else cmp_static st_a st_b

(* [-j 2] over [-j 1] on one fixed batch of static scores. *)
let exec_batch ~jobs ~scale (slot : T.Slot.t) batch =
  let score g =
    if scale then
      T.Predict.score ~memoize:false ~ops:(T.Predict.decomposed_ops g) g slot.T.Slot.phases
    else T.Predict.score ~memoize:false g slot.T.Slot.phases
  in
  let time j =
    Exec.with_pool ~jobs:j (fun pool ->
        ignore (Exec.map ~pool batch score);
        let t0 = now () in
        ignore (Exec.map ~pool batch score);
        now () -. t0)
  in
  let t1 = time 1 in
  let tj = time jobs in
  t1 /. tj

let tune_slot ~scale ~seed ~jobs ~k (slot : T.Slot.t) =
  List.iter
    (fun (_, l) ->
      incr sims;
      ignore (span "gpusim.baseline" (fun () -> Lazy.force l)))
    slot.T.Slot.baselines;
  let sp =
    Sp.make ~seed ~elem_bytes:(elem_bytes slot) ~scale ~rows:slot.T.Slot.rows
      ~cols:slot.T.Slot.cols ()
  in
  (* Tune.search's geometry: a 32-wide sampled rung in scale mode only,
     then the best 8 fully simulated. *)
  let use_sampled = scale && slot.T.Slot.simulate_sampled <> None in
  let heap = T.Topk.create ~cap:(if use_sampled then 32 else 8) ~cmp:cmp_static in
  let rng = Random.State.make [| 0x7ACE; seed |] in
  let stream = ref (Sp.stream sp) and over = ref false in
  let batch = ref [] in
  let batch_cap = if scale then 4096 else 512 in
  while not !over do
    let chunk =
      span "tune.stream" (fun () ->
          let rec pull n acc =
            if n = 0 then List.rev acc
            else
              match !stream () with
              | Seq.Nil ->
                over := true;
                List.rev acc
              | Seq.Cons (g, tl) ->
                stream := tl;
                pull (n - 1) (g :: acc)
          in
          pull 1024 [])
    in
    List.iter
      (fun g ->
        let item = !candidates in
        incr candidates;
        if item < batch_cap then batch := g :: !batch;
        if k = 1 || Random.State.int rng k = 0 then begin
          let fp =
            span ~item "tune.fingerprint" (fun () ->
                let fp = T.Fingerprint.of_layout g in
                ignore (Digest.string fp);
                fp)
          in
          let ops =
            if scale then span ~item "tune.ops" (fun () -> T.Predict.decomposed_ops g)
            else
              let _, _, ops = span ~item "tune.ops" (fun () -> symbolic ~item ~inv:false g) in
              ops
          in
          let s =
            span ~item "tune.score" (fun () ->
                T.Predict.score ~memoize:(not scale) ~ops g slot.T.Slot.phases)
          in
          T.Topk.add heap (s, fp, g)
        end)
      chunk
  done;
  let survivors = T.Topk.sorted heap in
  let finalists =
    match slot.T.Slot.simulate_sampled with
    | Some simulate when use_sampled ->
      let ranked =
        List.map
          (fun ((_, _, g) as c) ->
            incr sims;
            incr rung_members;
            (span "gpusim.sampled" (fun () -> simulate ~fast:true g), c))
          survivors
        |> List.sort cmp_sim
      in
      List.filteri (fun i _ -> i < 8) (List.map snd ranked)
    | _ -> List.filteri (fun i _ -> i < 8) survivors
  in
  let ranked =
    List.map
      (fun ((_, _, g) as c) ->
        incr sims;
        incr rung_members;
        (span "gpusim.full" (fun () -> slot.T.Slot.simulate ~fast:true g), c))
      finalists
    |> List.sort cmp_sim
  in
  let _, (_, _, winner) = List.hd ranked in
  let o = conform winner in
  let a, _, _ = symbolic ~inv:false winner in
  codegen winner a;
  if !exec_speedup = 0.0 then
    exec_speedup := exec_batch ~jobs ~scale slot (Array.of_list (List.rev !batch));
  o

(* ---- compile-verify ---------------------------------------------------- *)

let parse_failed = ref 0

let compile_replay ~seed =
  Array.iteri
    (fun item (_, text) ->
      match span ~item "lang.parse" (fun () -> Lego_lang.Elab.layout_of_string text) with
      | Error _ -> incr parse_failed
      | Ok g -> (
        (* An input that raises was already counted as failed by the
           untraced unit; the replay only times. *)
        try
          let a, _, _ = symbolic ~item ~inv:true g in
          codegen ~item g a;
          ignore (conform ~item ~sample_seed:seed g)
        with _ -> ()))
    (compile_inputs ())

(* ---- serve-mix --------------------------------------------------------- *)

let serve_metrics = Hashtbl.create 16

let serve_replay ~seed ~fixture ~expect ~work ~untraced_rt =
  let ex = load_expect expect in
  let script = script ~seed ~ex ~fresh:(fresh_texts ()) in
  let copy name =
    let p = Filename.concat work name in
    copy_file fixture p;
    p
  in
  (* One untimed open first, so heap growth is not billed to the load. *)
  let warm = copy "replay-warm.db" in
  let s, _ = Sv.Store.open_ ~path:warm () in
  Sv.Store.close s;
  let a = copy "replay-load.db" in
  span "serve.store.load" (fun () ->
      let s, _ = Sv.Store.open_ ~path:a () in
      Sv.Store.close s);
  let b = copy "replay-batch.db" in
  let t = span "serve.create" (fun () -> Sv.Server.create ~db:b ~jobs:1 ()) in
  let entries () = Sv.Store.length (Sv.Server.store t) in
  let before = entries () in
  List.iteri
    (fun item kinds ->
      let req =
        span ~item "serve.json" (fun () ->
            match J.of_string (J.to_string (J.List (List.map (request_json ex) kinds))) with
            | Ok j -> j
            | Error e -> failwith e)
      in
      let reply = span ~item "serve.handle" (fun () -> Sv.Server.handle_batch t req) in
      span ~item "serve.json" (fun () -> ignore (J.of_string (J.to_string reply))))
    script;
  let stats = Sv.Server.stats_json t in
  let appends = entries () - before in
  Sv.Server.shutdown t;
  let get k = float_of_int (Option.value ~default:0 (J.mem_int k stats)) in
  let hits = get "compile_hits" and misses = get "compile_misses" in
  let rt_table = Tr.table () in
  let self name = match Hashtbl.find_opt rt_table name with Some r -> r.Tr.self_s | None -> 0.0 in
  Hashtbl.replace serve_metrics "serve.hit_ratio" (hits /. Float.max 1.0 (hits +. misses));
  Hashtbl.replace serve_metrics "serve.store.appends" (float_of_int appends);
  Hashtbl.replace serve_metrics "serve.store.db_bytes" (float_of_int (Unix.stat b).Unix.st_size);
  Hashtbl.replace serve_metrics "serve.wire_s"
    (Float.max 0.0 (untraced_rt -. self "serve.handle" -. self "serve.json"));
  (* Per-request handling, one request per batch on a third copy, to
     split hit and miss latency. *)
  let c = copy "replay-single.db" in
  let t1 = Sv.Server.create ~db:c ~jobs:1 () in
  let hit = ref [] and miss = ref [] in
  span "breakdown" (fun () ->
      List.iter
        (fun kinds ->
          List.iter
            (fun k ->
              let req = J.List [ request_json ex k ] in
              let t0 = now () in
              let r = Sv.Server.handle_batch t1 req in
              let d = (now () -. t0) *. 1e3 in
              match (k, r) with
              | (Hot _ | Fresh _), J.List [ r ] -> (
                match J.mem_bool "cached" r with
                | Some true -> hit := d :: !hit
                | Some false -> miss := d :: !miss
                | None -> ())
              | _ -> ())
            kinds)
        script;
      (* The layers inside the daemon's compile misses, replayed. *)
      Array.iteri
        (fun item text ->
          match span ~item "lang.parse" (fun () -> Lego_lang.Elab.layout_of_string text) with
          | Error _ -> incr parse_failed
          | Ok g ->
            ignore (T.Fingerprint.of_layout g);
            let a, _, _ = symbolic ~item ~inv:false g in
            codegen ~item g a)
        (fresh_texts ()));
  Sv.Server.shutdown t1;
  let median xs =
    match List.sort compare xs with
    | [] -> 0.0
    | s -> List.nth s (List.length s / 2)
  in
  Hashtbl.replace serve_metrics "serve.hit_ms.p50" (median !hit);
  Hashtbl.replace serve_metrics "serve.miss_ms.p50" (median !miss)

(* ---- metrics ----------------------------------------------------------- *)

(* Program work the replay timed; breakdown spans re-run some of it. *)
let coverage_layers =
  [
    "tune.stream"; "tune.fingerprint"; "tune.ops"; "tune.score";
    "symbolic.instantiate"; "symbolic.simplify"; "lang.parse"; "codegen.c";
    "codegen.triton"; "codegen.mlir"; "conform.check"; "gpusim.baseline";
    "gpusim.sampled"; "gpusim.full"; "serve.create";
    "serve.handle"; "serve.json";
  ]

let covered () =
  let t = Tr.table () in
  (* Self time of spans nested under a breakdown root does not count. *)
  let in_breakdown = Hashtbl.create 64 in
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.Tr.id s) !Tr.spans;
  let rec under s =
    s.Tr.name = "breakdown"
    || (s.Tr.parent >= 0
       &&
       match Hashtbl.find_opt by_id s.Tr.parent with
       | Some p -> under p
       | None -> false)
  in
  List.iter
    (fun s ->
      if under s then
        Hashtbl.replace in_breakdown s.Tr.name
          (Option.value ~default:0.0 (Hashtbl.find_opt in_breakdown s.Tr.name)
          +. (s.Tr.stop -. s.Tr.start -. s.Tr.child_s)))
    !Tr.spans;
  List.fold_left
    (fun acc n ->
      match Hashtbl.find_opt t n with
      | None -> acc
      | Some r ->
        let own = r.Tr.self_s -. Option.value ~default:0.0 (Hashtbl.find_opt in_breakdown n) in
        acc +. Tr.scaled n own)
    0.0 coverage_layers

(* tune-scale replays a seeded 1 in [sample] candidates through
   fingerprint, op count and score, and scales those totals back up. *)
let sample = 10

let run ~workload ~seed ~jobs ~fixture ~expect ~work ~out ~untraced_rt ~untraced_cpu =
  Tr.reset ();
  S.Simplify.reset_cache_stats ();
  let p0 = S.Prover.snapshot () in
  let failed = ref 0 in
  (match workload with
  | "tune-scale" | "tune-default" ->
    let scale = workload = "tune-scale" in
    let k = if scale then sample else 1 in
    List.iter
      (fun n -> Hashtbl.replace Tr.scale n (float_of_int k))
      [ "tune.fingerprint"; "tune.ops"; "tune.score" ];
    List.iter
      (fun slot ->
        let o = tune_slot ~scale ~seed ~jobs ~k slot in
        if o.C.Conform.mismatch <> None then incr failed)
      (tune_slots workload)
  | "compile-verify" -> compile_replay ~seed
  | "serve-mix" -> serve_replay ~seed ~fixture ~expect ~work ~untraced_rt
  | w -> failwith ("unknown workload " ^ w));
  let pd = S.Prover.diff (S.Prover.snapshot ()) p0 in
  let queries = pd.S.Prover.queries and proved = pd.S.Prover.proved in
  let cs = S.Simplify.cache_stats () in
  let ratio a b = if b > 0 then float_of_int a /. float_of_int b else 0.0 in
  let self = Tr.self_s in
  let serve n = Option.value ~default:0.0 (Hashtbl.find_opt serve_metrics n) in
  let cnt n = float_of_int n in
  let metrics =
    [
      ("tune.stream_s", self "tune.stream");
      ("tune.fingerprint_s", self "tune.fingerprint");
      ("tune.ops_s", self "tune.ops");
      ("tune.score_s", self "tune.score");
      ("tune.candidates", cnt !candidates);
      ("tune.rung_members", cnt !rung_members);
      ("symbolic.instantiate_s", self "symbolic.instantiate");
      ("symbolic.simplify_s", self "symbolic.simplify");
      ("symbolic.prover.queries", cnt queries);
      ("symbolic.prover.proved_ratio", ratio proved queries);
      ( "symbolic.cache.hit_ratio",
        ratio cs.S.Simplify.hits (cs.S.Simplify.hits + cs.S.Simplify.misses) );
      ("lang.parse_s", self "lang.parse");
      ("lang.parse_failed", cnt !parse_failed);
      ("codegen.c_s", self "codegen.c");
      ("codegen.triton_s", self "codegen.triton");
      ("codegen.mlir_s", self "codegen.mlir");
      ("codegen.bytes", cnt !codegen_bytes);
      ("conform.check_s", self "conform.check");
      ("conform.points", cnt !points);
      ("conform.f2_covered", cnt !f2_covered);
      ("conform.leg.interp_s", self "conform.leg.interp");
      ("conform.leg.symbolic_s", self "conform.leg.symbolic");
      ("conform.leg.c_s", self "conform.leg.c");
      ("conform.leg.mlir_s", self "conform.leg.mlir");
      ("conform.leg.f2_s", self "conform.leg.f2");
      ("gpusim.baseline_s", self "gpusim.baseline");
      ("gpusim.sampled_s", self "gpusim.sampled");
      ("gpusim.full_s", self "gpusim.full");
      ("gpusim.sims", cnt !sims);
      ("exec.speedup", !exec_speedup);
      ("serve.store.load_s", self "serve.store.load");
      ("serve.warm_start_s", Float.max 0.0 (self "serve.create" -. self "serve.store.load"));
      ("serve.handle_s", self "serve.handle");
      ("serve.json_s", self "serve.json");
      ("serve.wire_s", serve "serve.wire_s");
      ("serve.hit_ms.p50", serve "serve.hit_ms.p50");
      ("serve.miss_ms.p50", serve "serve.miss_ms.p50");
      ("serve.hit_ratio", serve "serve.hit_ratio");
      ("serve.store.appends", serve "serve.store.appends");
      ("serve.store.db_bytes", serve "serve.store.db_bytes");
      ("trace.coverage", if untraced_cpu > 0.0 then covered () /. untraced_cpu else 0.0);
    ]
  in
  Tr.write_chrome (out ^ ".json");
  Tr.write_table (out ^ ".tsv");
  result
    [
      ("metrics", J.Obj (List.map (fun (n, v) -> (n, J.Float v)) metrics));
      ("unexplained", J.Int !failed);
      ("spans", J.Int (List.length !Tr.spans));
    ]
