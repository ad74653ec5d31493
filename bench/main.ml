(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 6) on the simulated A100.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- fig12a  -- one experiment
     dune exec bench/main.exe -- micro   -- Bechamel micro-benchmarks

   --json FILE writes every recorded (experiment, metric, value) triple
   as JSON for machine consumption (see README).

   Absolute numbers correspond to the simulator's no-cache memory system
   (see DESIGN.md); the paper's claims are relative and those shapes are
   asserted by the test suite. *)

open Lego_apps
module L = Lego_layout
module S = Lego_symbolic
module X = Lego_exec.Exec

let header title =
  Printf.printf "\n=== %s ===\n%!" title

let row fmt = Printf.printf fmt

(* ---- Execution layer --------------------------------------------------- *)

(* Figure sweeps fan independent gpusim configurations out across the
   pool: each task builds (and simulates) its own kernel run, so the
   effect-handler simulator state is domain-local by construction.
   Results are merged in submission order — rows print identically at
   any -j. *)

let jobs = ref 1
let the_pool : X.pool option ref = ref None

let pmap xs f =
  match !the_pool with
  | Some pool -> Array.to_list (X.map ~chunk:1 ~pool (Array.of_list xs) f)
  | None -> List.map f xs

(* ---- Machine-readable results (--json FILE) ---------------------------- *)

(* Experiments push (experiment, metric, value) triples here; the main
   driver writes them out at exit so future runs can track a performance
   trajectory (BENCH_*.json). *)

let json_file : string option ref = ref None
let json_results : (string * string * float) list ref = ref []

let record ~experiment ~metric value =
  json_results := (experiment, metric, value) :: !json_results

let write_json () =
  Option.iter
    (fun path ->
      let items = List.rev !json_results in
      let oc = open_out path in
      output_string oc "{\n  \"results\": [\n";
      let last = List.length items - 1 in
      List.iteri
        (fun i (e, m, v) ->
          Printf.fprintf oc
            "    {\"experiment\": %S, \"metric\": %S, \"value\": %.9g}%s\n" e m
            v
            (if i = last then "" else ","))
        items;
      output_string oc "  ]\n}\n";
      close_out oc;
      Printf.printf "\nwrote %d results to %s\n" (List.length items) path)
    !json_file

(* Hit/miss/eviction counters of the memoized symbolic engine (process
   lifetime; see lib/symbolic). *)
let engine_counters () =
  let i = S.Expr.intern_stats () in
  row "expr intern:  %d hits / %d misses / %d evictions (%d live nodes)\n"
    i.S.Expr.hits i.S.Expr.misses i.S.Expr.evictions (S.Expr.intern_size ());
  let rc = S.Range.cache_stats () in
  row "range cache:  %d hits / %d misses / %d evictions\n" rc.S.Range.hits
    rc.S.Range.misses rc.S.Range.evictions;
  let p = S.Prover.snapshot () in
  row "prover cache: %d hits / %d misses; %d/%d goals proved\n"
    p.S.Prover.cache_hits p.S.Prover.cache_misses p.S.Prover.proved
    p.S.Prover.queries;
  let sc = S.Simplify.cache_stats () in
  row "simplify memo: %d hits / %d misses / %d evictions\n" sc.S.Simplify.hits
    sc.S.Simplify.misses sc.S.Simplify.evictions

(* ---- Table 1: simplification rules ----------------------------------- *)

let table1 () =
  header "Table 1: div/mod simplification rules on layout-generated indices";
  let corpus = Lego_conform.Corpus.all in
  row "%-28s %6s %6s %6s %6s %6s %6s | %9s %9s | %15s\n" "layout" "r1" "r2"
    "r3" "r4" "r5" "extra" "ops-raw" "ops-simpl" "prover p/q";
  let totals = S.Simplify.stats () in
  S.Prover.reset ();
  List.iter
    (fun (name, layout) ->
      let stats = S.Simplify.stats () in
      let before = S.Prover.snapshot () in
      let process roots =
        List.map
          (fun e -> S.Simplify.simplify ~stats ~env:(S.Sym.ranges_of layout) e)
          roots
      in
      let raw_apply = S.Sym.apply ~simplify:false layout in
      let raw_inv = S.Sym.inv ~simplify:false layout in
      let simplified = process (raw_apply :: raw_inv) in
      let prover = S.Prover.(diff (snapshot ()) before) in
      let raw_ops =
        List.fold_left (fun a e -> a + S.Cost.ops e) 0 (raw_apply :: raw_inv)
      in
      let simpl_ops =
        List.fold_left (fun a e -> a + S.Cost.ops e) 0 simplified
      in
      row "%-28s %6d %6d %6d %6d %6d %6d | %9d %9d | %7d/%7d\n" name
        stats.S.Simplify.r1 stats.S.Simplify.r2 stats.S.Simplify.r3
        stats.S.Simplify.r4 stats.S.Simplify.r5 stats.S.Simplify.extra raw_ops
        simpl_ops prover.S.Prover.proved prover.S.Prover.queries;
      totals.S.Simplify.r1 <- totals.S.Simplify.r1 + stats.S.Simplify.r1;
      totals.S.Simplify.r2 <- totals.S.Simplify.r2 + stats.S.Simplify.r2;
      totals.S.Simplify.r3 <- totals.S.Simplify.r3 + stats.S.Simplify.r3;
      totals.S.Simplify.r4 <- totals.S.Simplify.r4 + stats.S.Simplify.r4;
      totals.S.Simplify.r5 <- totals.S.Simplify.r5 + stats.S.Simplify.r5;
      totals.S.Simplify.extra <- totals.S.Simplify.extra + stats.S.Simplify.extra;
      totals.S.Simplify.passes <- totals.S.Simplify.passes + stats.S.Simplify.passes;
      totals.S.Simplify.fuel_exhausted <-
        totals.S.Simplify.fuel_exhausted + stats.S.Simplify.fuel_exhausted)
    corpus;
  let prover_totals = S.Prover.snapshot () in
  row "TOTAL rule applications: %d;  prover: %d/%d side conditions proved\n"
    (S.Simplify.total totals) prover_totals.S.Prover.proved
    prover_totals.S.Prover.queries;
  row "simplify: %s\n" (Format.asprintf "%a" S.Simplify.pp_stats totals);
  engine_counters ();
  (* Wall-clock for the whole corpus, the engine's hot path end to end. *)
  let reps = 20 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    List.iter
      (fun (_, layout) ->
        let env = S.Sym.ranges_of layout in
        let raw_apply = S.Sym.apply ~simplify:false layout in
        let raw_inv = S.Sym.inv ~simplify:false layout in
        List.iter
          (fun e -> ignore (S.Simplify.simplify ~env e))
          (raw_apply :: raw_inv))
      corpus
  done;
  let t1 = Unix.gettimeofday () in
  row "corpus x%d: %.1f ms total, %.2f ms/iter\n" reps
    ((t1 -. t0) *. 1e3)
    ((t1 -. t0) *. 1e3 /. float_of_int reps)

(* ---- Figures 12a/12b: matmul ------------------------------------------ *)

let matmul_sizes = [ 256; 512; 1024; 2048; 4096; 8192 ]

let fig12_matmul ~dtype ~label () =
  header label;
  let tasks =
    List.concat_map
      (fun variant -> List.map (fun size -> (variant, size)) matmul_sizes)
      Matmul.variants
  in
  let results =
    pmap tasks (fun (variant, size) ->
        let cfg = Matmul.default_config ~dtype size in
        let lego = Matmul.run_lego cfg variant in
        let triton = Matmul.run_triton_ref cfg variant in
        let cublas = Matmul.run_cublas cfg variant in
        (lego.Matmul.gflops, triton.Matmul.gflops, cublas.Matmul.gflops))
  in
  List.iter2
    (fun (variant, size) (lego, triton, cublas) ->
      if size = List.hd matmul_sizes then begin
        row "-- %s --\n" (Matmul.variant_name variant);
        row "%8s %12s %12s %12s\n" "size" "LEGO" "Triton" "cuBLAS"
      end;
      row "%8d %12.0f %12.0f %12.0f\n" size lego triton cublas)
    tasks results

let fig12a () =
  fig12_matmul ~dtype:Lego_gpusim.Mem.F16
    ~label:"Figure 12a: FP16 matmul, GFLOP/s (4 transpose variants)" ()

let fig12b () =
  fig12_matmul ~dtype:Lego_gpusim.Mem.F8
    ~label:"Figure 12b: FP8 matmul, GFLOP/s (4 transpose variants)" ()

(* ---- Figure 12c: group GEMM ------------------------------------------- *)

let fig12c () =
  header "Figure 12c: group GEMM (8 members), GFLOP/s";
  row "%8s %14s %14s %8s\n" "size" "individual" "grouped" "ratio";
  let sizes = [ 128; 256; 512; 1024; 2048 ] in
  let results =
    pmap sizes (fun size ->
        let cfg = Group_gemm.default_config ~gemms:8 size in
        (Group_gemm.run_individual cfg, Group_gemm.run_grouped cfg))
  in
  List.iter2
    (fun size (individual, grouped) ->
      row "%8d %14.0f %14.0f %8.2f\n" size individual.Matmul.gflops
        grouped.Matmul.gflops
        (grouped.Matmul.gflops /. individual.Matmul.gflops))
    sizes results

(* ---- Figure 12d: softmax ---------------------------------------------- *)

let fig12d () =
  header "Figure 12d: fused softmax vs eager PyTorch, GB/s";
  row "%8s %10s %10s %10s %8s\n" "cols" "LEGO" "Triton" "PyTorch" "speedup";
  let cols_list = [ 256; 1024; 4096; 16384; 65536 ] in
  let results =
    pmap cols_list (fun cols ->
        let cfg = Softmax.default_config cols in
        (* The LEGO-generated and reference Triton kernels are the same
           code; both are reported, as in the paper's figure. *)
        (Softmax.run_fused cfg, Softmax.run_eager cfg))
  in
  List.iter2
    (fun cols (fused, eager) ->
      row "%8d %10.0f %10.0f %10.0f %8.2f\n" cols fused.Softmax.gbps
        fused.Softmax.gbps eager.Softmax.gbps
        (eager.Softmax.time_s /. fused.Softmax.time_s))
    cols_list results

(* ---- Figure 13: transpose --------------------------------------------- *)

let fig13 () =
  header "Figure 13: 2-D transpose, GB/s (MLIR backend vs CUDA)";
  row "%8s %12s %12s %12s %12s\n" "size" "MLIR-naive" "CUDA-naive"
    "MLIR-shared" "CUDA-shared";
  let sizes = [ 512; 1024; 2048; 4096; 8192 ] in
  let results =
    pmap sizes (fun size ->
        let cfg = Transpose.default_config size in
        (* The MLIR and CUDA paths generate the same data movement from the
           same layouts (validated in the test suite); both columns run the
           kernel, reproducing the paper's ``comparable performance''. *)
        let naive = Transpose.run_naive cfg in
        let naive' = Transpose.run_naive cfg in
        let shared = Transpose.run_shared ~smem_layout:Transpose.Swizzled cfg in
        let shared' = Transpose.run_shared ~smem_layout:Transpose.Padded cfg in
        (naive, naive', shared, shared'))
  in
  List.iter2
    (fun size (naive, naive', shared, shared') ->
      row "%8d %12.0f %12.0f %12.0f %12.0f\n" size naive.Transpose.gbps
        naive'.Transpose.gbps shared.Transpose.gbps shared'.Transpose.gbps;
      record ~experiment:"fig13"
        ~metric:(Printf.sprintf "shared_over_naive_%d" size)
        (shared.Transpose.gbps /. naive.Transpose.gbps))
    sizes results

(* ---- Figure 14: NW ----------------------------------------------------- *)

let fig14 () =
  header "Figure 14: Rodinia NW vs anti-diagonal layout";
  row "%8s %12s %12s %9s\n" "length" "rodinia(ms)" "antidiag(ms)" "speedup";
  let lengths = [ 512; 1024; 2048; 4096; 8192; 16384 ] in
  let results =
    pmap lengths (fun len ->
        let cfg = Nw.default_config len in
        (Nw.run Nw.RowMajor cfg, Nw.run Nw.AntiDiagonal cfg))
  in
  List.iter2
    (fun len (rm, ad) ->
      row "%8d %12.2f %12.2f %9.2f\n" len (rm.Nw.time_s *. 1e3)
        (ad.Nw.time_s *. 1e3)
        (rm.Nw.time_s /. ad.Nw.time_s);
      record ~experiment:"fig14"
        ~metric:(Printf.sprintf "antidiag_speedup_%d" len)
        (rm.Nw.time_s /. ad.Nw.time_s))
    lengths results

(* ---- Section 4.1 ablation: pre-expansion vs cost model ----------------- *)

let ablation () =
  header "Ablation (section 4.1): pre-expansion vs original form (op count)";
  row "%-28s %10s %10s %10s\n" "index expression" "plain" "expanded" "chosen";
  let cases =
    [
      ("NW anti-diagonal apply",
       L.Group_by.make ~chain:[ L.Order_by.make [ L.Gallery.antidiag 17 ] ]
         [ [ 17; 17 ] ]);
      ("tiled row-major apply",
       L.Sugar.tiled_view ~group:[ [ 8; 4 ]; [ 16; 32 ] ] ());
      ("tiled col-major apply",
       L.Sugar.tiled_view ~order:[ L.Sugar.col [ 128; 128 ] ]
         ~group:[ [ 8; 4 ]; [ 16; 32 ] ] ());
    ]
  in
  List.iter
    (fun (name, layout) ->
      let env = S.Sym.ranges_of layout in
      let raw = S.Sym.apply ~simplify:false layout in
      let plain = S.Simplify.simplify ~env raw in
      let expanded = S.Simplify.simplify ~env (S.Expand.expand raw) in
      let chosen = S.Cost.best_of_expansion ~env raw in
      row "%-28s %10d %10d %10d\n" name (S.Cost.ops plain)
        (S.Cost.ops expanded) (S.Cost.ops chosen))
    cases;
  row "(the cost model keeps the cheaper variant, as the paper does for NW)\n"

(* ---- Conformance: four-semantics differential check -------------------- *)

let conform () =
  header "Conformance: interpreter vs symbolic vs C vs MLIR";
  let open Lego_conform.Conform in
  (* Serial and parallel runs of the same corpus: identical reports
     (asserted by the test suite), differing only in wall clock.  Both
     points/sec figures land in BENCH_*.json so the speedup is tracked. *)
  let serial = run ~random:100 ~seed:42 ~jobs:1 () in
  let par_jobs = max 2 !jobs in
  let parallel = run ~random:100 ~seed:42 ~jobs:par_jobs () in
  row "%-24s %10d\n" "layouts" serial.layouts;
  row "%-24s %10d\n" "points" serial.points;
  row "%-24s %10d\n" "C-guard-skipped" serial.c_skipped;
  row "%-24s %10d\n" "mismatches" (List.length serial.failures);
  let pps r = float_of_int r.points /. r.seconds in
  row "%-24s %10.0f points/s\n" "throughput -j 1" (pps serial);
  row "%-24s %10.0f points/s (x%.2f)\n"
    (Printf.sprintf "throughput -j %d" par_jobs)
    (pps parallel)
    (pps parallel /. pps serial);
  record ~experiment:"conform" ~metric:"points_per_s_j1" (pps serial);
  record ~experiment:"conform"
    ~metric:(Printf.sprintf "points_per_s_j%d" par_jobs)
    (pps parallel);
  List.iter
    (fun f -> row "%s\n" (Format.asprintf "%a" pp_failure f))
    serial.failures

(* ---- Autotuner: rediscovering the paper's layouts ----------------------- *)

module T = Lego_tune

(* Runs the lib/tune search per slot at -j 1 and -j N and asserts the
   determinism contract (identical winner, identical score at any -j),
   plus the paper's qualitative claims: a conflict-free swizzle for the
   matmul staging tile, a speedup over the naive transpose, and the
   anti-diagonal family beating row-major for NW. *)
let tune () =
  header "Autotune: layout search against the simulator (lib/tune)";
  (* Throughputs only compare between hosts with the same core count. *)
  let cores = Domain.recommended_domain_count () in
  row "host cores: %d\n" cores;
  record ~experiment:"tune" ~metric:"host_cores" (float_of_int cores);
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let jn = max 2 !jobs in
  List.iter
    (fun (slot : T.Slot.t) ->
      (* Tune.search builds its own pool; it must run from the main
         domain (never inside [pmap]) because pools don't nest. *)
      let search jobs =
        T.Tune.search ~options:{ T.Tune.default_options with jobs } slot
      in
      let r = search 1 in
      let r' = search jn in
      let name = slot.T.Slot.name in
      let w = r.T.Tune.winner and w' = r'.T.Tune.winner in
      row "-- %s: %s --\n" name slot.T.Slot.descr;
      row "winner %s\n" w.T.Tune.fingerprint;
      let wtime = (Option.get w.T.Tune.sim).T.Slot.time_s in
      row "%-18s %10.3f us\n" "winner" (wtime *. 1e6);
      record ~experiment:"tune" ~metric:(name ^ "_winner_us") (wtime *. 1e6);
      List.iter
        (fun (bname, (b : T.Slot.sim)) ->
          row "%-18s %10.3f us\n" bname (b.T.Slot.time_s *. 1e6);
          record ~experiment:"tune"
            ~metric:(Printf.sprintf "%s_%s_us" name bname)
            (b.T.Slot.time_s *. 1e6))
        r.T.Tune.baselines;
      row "explored %d of %d (%s); %.0f cand/s -j1, %.0f cand/s -j%d (x%.2f)\n"
        r.T.Tune.explored r.T.Tune.space_size
        (if r.T.Tune.exhaustive then "exhaustive" else "budget-truncated")
        r.T.Tune.candidates_per_s r'.T.Tune.candidates_per_s jn
        (r'.T.Tune.candidates_per_s /. r.T.Tune.candidates_per_s);
      record ~experiment:"tune" ~metric:(name ^ "_space_size")
        (float_of_int r.T.Tune.space_size);
      record ~experiment:"tune" ~metric:(name ^ "_cand_per_s_j1")
        r.T.Tune.candidates_per_s;
      record ~experiment:"tune"
        ~metric:(Printf.sprintf "%s_cand_per_s_j%d" name jn)
        r'.T.Tune.candidates_per_s;
      (* Determinism: bit-identical winner and score at any -j. *)
      if w.T.Tune.fingerprint <> w'.T.Tune.fingerprint then
        fail "%s: winners differ across -j1/-j%d (%s vs %s)" name jn
          w.T.Tune.fingerprint w'.T.Tune.fingerprint;
      let wtime' = (Option.get w'.T.Tune.sim).T.Slot.time_s in
      if wtime <> wtime' then
        fail "%s: winner times differ across -j1/-j%d (%g vs %g)" name jn
          wtime wtime';
      (match T.Tune.conform_ok r with
      | Some false -> fail "%s: winner failed conformance" name
      | _ -> ());
      let baseline bname = List.assoc bname r.T.Tune.baselines in
      (match name with
      | "matmul" ->
        if not (T.Predict.conflict_free w.T.Tune.static_score) then
          fail "matmul: winner is not predicted conflict-free";
        if not (T.Slot.sim_conflict_free (Option.get w.T.Tune.sim)) then
          fail "matmul: winner is not conflict-free in simulation";
        if wtime >= (baseline "row-major").T.Slot.time_s then
          fail "matmul: winner does not beat row-major"
      | "transpose" ->
        let naive = (baseline "naive").T.Slot.time_s in
        let speedup = naive /. wtime in
        row "transpose speedup over naive: %.2fx\n" speedup;
        record ~experiment:"tune" ~metric:"transpose_speedup_over_naive"
          speedup;
        (* The L2 sector model credits naive's uncoalesced column writes
           with cross-warp sector reuse, so the modelled gap over naive
           narrows from >2x (pre-L2) to ~1.5x; the ordering is what the
           paper claims, the margin threshold just tracks the model. *)
        if speedup < 1.4 then
          fail "transpose: winner only %.2fx over naive (< 1.4x)" speedup
      | "nw" ->
        (* The hand-written baselines use their own (cheaper) address
           code, so the figure-14 claim is asserted within the ranking,
           where every candidate pays the same capped address cost. *)
        if wtime >= (baseline "row-major").T.Slot.time_s then
          fail "nw: winner does not beat the row-major baseline";
        let ranked sub =
          List.find_opt
            (fun (sc : T.Tune.scored) ->
              let fp = sc.T.Tune.fingerprint in
              let n = String.length sub in
              let rec has i =
                i + n <= String.length fp
                && (String.sub fp i n = sub || has (i + 1))
              in
              has 0)
            r.T.Tune.ranking
        in
        (match (ranked "antidiag", ranked "RegP([17, 17], [1, 2])") with
        | Some ad, Some rm ->
          let t (sc : T.Tune.scored) = (Option.get sc.T.Tune.sim).T.Slot.time_s in
          record ~experiment:"tune" ~metric:"nw_antidiag_over_row_major"
            (t rm /. t ad);
          if t ad >= t rm then
            fail "nw: anti-diagonal candidate does not beat row-major"
        | _ -> fail "nw: ranking is missing the antidiag or row-major candidate")
      | _ -> ());
      row "\n")
    (T.Slot.all ());
  (* Mega-space scale mode: the full product space (three-level tilings
     x vectorization x the whole masked-swizzle grid) streamed through
     the successive-halving funnel with O(top-K) ranking memory.  The
     per-candidate throughput floor keeps the static pass at least as
     cheap per candidate as on the default space, even though this
     space is ~100x larger.  The transpose row is perfbench's
     tune-scale input. *)
  List.iter
    (fun ((slot : T.Slot.t), min_space) ->
      let name = slot.T.Slot.name in
      let rscale =
        T.Tune.search
          ~options:
            {
              T.Tune.default_options with
              scale = true;
              budget = 250_000;
              jobs = 1;
              conform = false;
            }
          slot
      in
      row
        "%s --scale: %d of %d candidates (%s); funnel %d -> %d sampled -> %d \
         simulated; %.0f cand/s -j1\n"
        name rscale.T.Tune.explored rscale.T.Tune.space_size
        (if rscale.T.Tune.exhaustive then "exhaustive" else "budget-truncated")
        rscale.T.Tune.explored rscale.T.Tune.sampled_scored
        (List.length rscale.T.Tune.ranking)
        rscale.T.Tune.candidates_per_s;
      record ~experiment:"tune" ~metric:(name ^ "_scale_space_size")
        (float_of_int rscale.T.Tune.space_size);
      record ~experiment:"tune" ~metric:(name ^ "_cand_per_s_scaled")
        rscale.T.Tune.candidates_per_s;
      if rscale.T.Tune.space_size < min_space then
        fail "%s --scale: space only %d candidates (< %d)" name
          rscale.T.Tune.space_size min_space;
      if rscale.T.Tune.candidates_per_s < 2000.0 then
        fail "%s --scale: only %.0f cand/s (< 2000)" name
          rscale.T.Tune.candidates_per_s;
      if
        not
          (T.Slot.sim_conflict_free
             (Option.get rscale.T.Tune.winner.T.Tune.sim))
      then fail "%s --scale: winner is not conflict-free in simulation" name)
    [ (T.Slot.matmul_smem (), 100_000); (T.Slot.transpose_smem (), 50_000) ];
  match !failures with
  | [] -> row "all tuning assertions hold\n"
  | fs ->
    List.iter (fun f -> Printf.eprintf "FAIL: %s\n" f) (List.rev fs);
    exit 1

(* ---- Compile service: req/s, hit rates, latency ------------------------- *)

module Sv = Lego_serve

(* Drives a real daemon (spawned domain, Unix socket, framed batches)
   with a seeded adversarial request mix — skewed layout popularity,
   in-batch duplicates, malformed layouts, unknown devices — twice: a
   cold pass against an empty store and a warm pass repeating the
   identical mix.  Reports sustained req/s, per-batch p50/p99 latency,
   compile hit rates for both passes, and the cold-vs-warm latency of a
   tune request (the warm one is answered from the store with zero
   simulator work — asserted >= 10x faster). *)
let serve_bench () =
  header "Compile service: sustained req/s, hit rates, latency (lib/serve)";
  let dir = Filename.temp_dir "lego-bench-serve" "" in
  let socket = Filename.concat dir "legoc.sock" in
  let db = Filename.concat dir "store.db" in
  let sjobs = max 2 !jobs in
  (* The server owns its Exec pool, so the whole server lives in the
     spawned domain; this domain plays a real client over the socket. *)
  let server =
    Domain.spawn (fun () ->
        let t = Sv.Server.create ~db ~jobs:sjobs () in
        Fun.protect
          ~finally:(fun () -> Sv.Server.shutdown t)
          (fun () -> Sv.Server.serve t ~socket))
  in
  let c =
    match Sv.Client.connect ~socket () with
    | Ok c -> c
    | Error e ->
      Printf.eprintf "serve bench: %s\n" e;
      exit 1
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (* A gallery of distinct layouts: tiled column-major views over a grid
     of tile shapes, plus the anti-diagonal family. *)
  let layouts =
    Array.of_list
      (List.concat_map
         (fun (a, b) ->
           List.map
             (fun (c, d) ->
               Printf.sprintf "TileOrderBy(Col(%d, %d)).TileBy([%d,%d],[%d,%d])"
                 (a * b) (c * d) a b c d)
             [ (2, 3); (3, 2); (2, 2); (4, 2) ])
         [ (2, 2); (4, 2); (2, 4); (8, 2); (4, 4) ]
      @ List.map
          (fun n ->
            Printf.sprintf "OrderBy(GenP(antidiag[%d,%d])).GroupBy([%d,%d])" n
              n n n)
          [ 3; 4; 5; 6 ])
  in
  (* Zipf-ish popularity: weight 1/(rank+1) — a few hot layouts, a long
     cold tail, plenty of duplicates inside and across batches. *)
  let rng = Random.State.make [| 0xC0FFEE |] in
  let zipf_total =
    Array.fold_left ( +. ) 0.0
      (Array.init (Array.length layouts) (fun r -> 1.0 /. float_of_int (r + 1)))
  in
  let draw_layout () =
    let u = Random.State.float rng zipf_total in
    let rec go r acc =
      let acc = acc +. (1.0 /. float_of_int (r + 1)) in
      if u < acc || r = Array.length layouts - 1 then layouts.(r)
      else go (r + 1) acc
    in
    go 0 0.0
  in
  let compile ?(device = "a100") layout =
    Sv.Json.Obj
      [
        ("op", Sv.Json.Str "compile");
        ("layout", Sv.Json.Str layout);
        ("emit", Sv.Json.List [ Sv.Json.Str "c" ]);
        ("device", Sv.Json.Str device);
      ]
  in
  let mk_request () =
    let u = Random.State.float rng 1.0 in
    if u < 0.05 then
      Sv.Json.Obj
        [
          ("op", Sv.Json.Str "fingerprint");
          ("layout", Sv.Json.Str (draw_layout ()));
        ]
    else if u < 0.08 then compile "Tile((("  (* parse error *)
    else if u < 0.10 then compile ~device:"volta" (draw_layout ())
      (* unknown device *)
    else compile (draw_layout ())
  in
  let n_batches = 40 and batch_size = 16 in
  (* One fixed script, replayed for the warm pass: identical requests,
     this time all answerable from the store. *)
  let script =
    Array.init n_batches (fun _ ->
        Sv.Json.List (List.init batch_size (fun _ -> mk_request ())))
  in
  let stats () =
    match Sv.Client.batch c [ Sv.Protocol.Stats ] with
    | Ok [ r ] -> r
    | Ok _ | Error _ ->
      fail "stats round-trip failed";
      Sv.Json.Null
  in
  let stat name j = Option.value ~default:0 (Sv.Json.mem_int name j) in
  let run_pass label =
    let before = stats () in
    let times =
      Array.map
        (fun b ->
          let t0 = Unix.gettimeofday () in
          (match Sv.Client.rpc c b with
          | Ok (Sv.Json.List rs) ->
            if List.length rs <> batch_size then
              fail "%s: response batch length mismatch" label
          | Ok _ -> fail "%s: non-array response" label
          | Error e -> fail "%s: %s" label e);
          Unix.gettimeofday () -. t0)
        script
    in
    let after = stats () in
    let hits = stat "compile_hits" after - stat "compile_hits" before in
    let misses = stat "compile_misses" after - stat "compile_misses" before in
    let wall = Array.fold_left ( +. ) 0.0 times in
    let sorted = Array.copy times in
    Array.sort compare sorted;
    let pct p =
      let n = Array.length sorted in
      sorted.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))
    in
    let reqs = n_batches * batch_size in
    let rps = float_of_int reqs /. wall in
    let hit_rate =
      if hits + misses = 0 then 0.0
      else float_of_int hits /. float_of_int (hits + misses)
    in
    row
      "%-6s %6d reqs in %6.1f ms: %8.0f req/s; batch p50 %6.3f ms, p99 %6.3f \
       ms; compile hits %d / misses %d (%.2f)\n"
      label reqs (wall *. 1e3) rps
      (pct 50.0 *. 1e3)
      (pct 99.0 *. 1e3)
      hits misses hit_rate;
    record ~experiment:"serve" ~metric:("reqs_per_s_" ^ label) rps;
    record ~experiment:"serve"
      ~metric:("batch_p50_ms_" ^ label)
      (pct 50.0 *. 1e3);
    record ~experiment:"serve"
      ~metric:("batch_p99_ms_" ^ label)
      (pct 99.0 *. 1e3);
    record ~experiment:"serve" ~metric:("hit_rate_" ^ label) hit_rate;
    hit_rate
  in
  let cold_rate = run_pass "cold" in
  let warm_rate = run_pass "warm" in
  (* The mix repeats hot layouts, so even the cold pass hits sometimes;
     the warm pass must hit on every well-formed compile. *)
  if warm_rate < 1.0 then fail "warm pass hit rate %.2f < 1.0" warm_rate;
  if cold_rate >= warm_rate then
    fail "cold hit rate %.2f not below warm %.2f" cold_rate warm_rate;
  (* Tune: one cold search, then the identical request answered from
     the store — the >= 10x warm-path contract, measured end to end. *)
  let tune_req =
    Sv.Protocol.Tune
      {
        Sv.Protocol.slot = "matmul";
        device = "a100";
        budget = Some 48;
        top = Some 3;
        seed = 0;
        oracle = false;
        conform = false;
      }
  in
  let timed_tune label =
    let t0 = Unix.gettimeofday () in
    match Sv.Client.batch c [ tune_req ] with
    | Ok [ r ] when Sv.Json.mem_bool "ok" r = Some true ->
      let dt = Unix.gettimeofday () -. t0 in
      (dt, Sv.Json.mem_bool "cached" r)
    | _ ->
      fail "%s tune round-trip failed" label;
      (0.0, None)
  in
  let tune_cold, cached_cold = timed_tune "cold" in
  let tune_warm, cached_warm = timed_tune "warm" in
  if cached_cold <> Some false then fail "cold tune unexpectedly cached";
  if cached_warm <> Some true then fail "warm tune not served from the store";
  let speedup = if tune_warm > 0.0 then tune_cold /. tune_warm else 0.0 in
  row "tune:  cold %8.2f ms -> warm %8.3f ms (x%.0f, store-answered)\n"
    (tune_cold *. 1e3) (tune_warm *. 1e3) speedup;
  record ~experiment:"serve" ~metric:"tune_cold_ms" (tune_cold *. 1e3);
  record ~experiment:"serve" ~metric:"tune_warm_ms" (tune_warm *. 1e3);
  record ~experiment:"serve" ~metric:"tune_warm_speedup" speedup;
  if speedup < 10.0 then
    fail "warm tune only %.1fx faster than cold (< 10x)" speedup;
  let final = stats () in
  row "server: %d requests, %d store entries, %d errors (malformed mix lines)\n"
    (stat "requests" final) (stat "store_entries" final) (stat "errors" final);
  record ~experiment:"serve" ~metric:"store_entries"
    (float_of_int (stat "store_entries" final));
  (match Sv.Client.batch c [ Sv.Protocol.Shutdown ] with
  | Ok [ r ] when Sv.Json.mem_bool "ok" r = Some true -> ()
  | _ -> fail "shutdown round-trip failed");
  Sv.Client.close c;
  Domain.join server;
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ db; socket ];
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  match !failures with
  | [] -> row "all serve assertions hold\n"
  | fs ->
    List.iter (fun f -> Printf.eprintf "FAIL: %s\n" f) (List.rev fs);
    exit 1

(* ---- Bechamel micro-benchmarks ----------------------------------------- *)

let micro () =
  header "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let fig9 =
    L.Group_by.make
      ~chain:
        [
          L.Order_by.make
            [
              L.Piece.reg ~dims:[ 2; 2 ] ~sigma:(L.Sigma.of_one_based [ 2; 1 ]);
              L.Gallery.antidiag 3;
            ];
          L.Order_by.make
            [
              L.Piece.reg ~dims:[ 2; 3; 2; 3 ]
                ~sigma:(L.Sigma.of_one_based [ 1; 3; 2; 4 ]);
            ];
        ]
      [ [ 6; 6 ] ]
  in
  let tiled = L.Sugar.tiled_view ~group:[ [ 8; 4 ]; [ 16; 32 ] ] () in
  let notation =
    "OrderBy2(RegP([2,2],[2,1]), \
     GenP(antidiag[3,3])).OrderBy4(RegP([2,3,2,3],[1,3,2,4])).GroupBy2([6,6])"
  in
  let raw = Lego_symbolic.Sym.apply ~simplify:false tiled in
  let env = Lego_symbolic.Sym.ranges_of tiled in
  let tests =
    [
      Test.make ~name:"apply_ints (fig 9)"
        (Staged.stage (fun () -> L.Group_by.apply_ints fig9 [ 4; 2 ]));
      Test.make ~name:"inv_ints (fig 9)"
        (Staged.stage (fun () -> L.Group_by.inv_ints fig9 15));
      Test.make ~name:"apply_ints (tiled view)"
        (Staged.stage (fun () ->
             L.Group_by.apply_ints tiled [ 3; 2; 11; 17 ]));
      Test.make ~name:"symbolic apply + simplify"
        (Staged.stage (fun () -> Lego_symbolic.Simplify.simplify ~env raw));
      Test.make ~name:"parse + elaborate notation"
        (Staged.stage (fun () -> Lego_lang.Elab.layout_of_string notation));
    ]
  in
  let grouped = Test.make_grouped ~name:"lego" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> (name, t) :: acc
        | _ -> (name, nan) :: acc)
      results []
  in
  List.iter
    (fun (name, t) -> Printf.printf "%-44s %12.1f ns/run\n" name t)
    (List.sort compare rows);
  Printf.printf "\n-- engine counters (process lifetime) --\n";
  engine_counters ()

let experiments =
  [
    ("table1", table1);
    ("fig12a", fig12a);
    ("fig12b", fig12b);
    ("fig12c", fig12c);
    ("fig12d", fig12d);
    ("fig13", fig13);
    ("fig14", fig14);
    ("ablation", ablation);
    ("conform", conform);
    ("tune", tune);
    ("serve", serve_bench);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  (* -j / --jobs N selects the pool width; default is LEGO_JOBS or the
     recommended domain count. *)
  let rec parse acc = function
    | [] -> List.rev acc
    | ("-j" | "--jobs") :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        jobs := n;
        parse acc rest
      | _ ->
        Printf.eprintf "-j expects a positive integer, got %S\n" n;
        exit 1)
    | ("-j" | "--jobs") :: [] ->
      Printf.eprintf "-j expects an argument\n";
      exit 1
    | "--json" :: path :: rest ->
      json_file := Some path;
      parse acc rest
    | "--json" :: [] ->
      Printf.eprintf "--json expects a file path\n";
      exit 1
    | a :: rest -> parse (a :: acc) rest
  in
  jobs := X.default_jobs ();
  let names = parse [] args in
  (* at_exit so results are flushed even when an experiment exits 1. *)
  at_exit write_json;
  if !jobs > 1 then the_pool := Some (X.create ~jobs:!jobs ());
  let shutdown () =
    match !the_pool with
    | Some pool ->
      X.shutdown pool;
      the_pool := None
    | None -> ()
  in
  Fun.protect ~finally:shutdown (fun () ->
      match names with
      | [] ->
        List.iter (fun (_, f) -> f ())
          (List.filter (fun (n, _) -> n <> "micro") experiments);
        micro ()
      | names ->
        List.iter
          (fun name ->
            match List.assoc_opt name experiments with
            | Some f -> f ()
            | None ->
              Printf.eprintf "unknown experiment %S; known: %s\n" name
                (String.concat ", " (List.map fst experiments));
              exit 1)
          names)
