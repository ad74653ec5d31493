(* Differential tests for the warp-vectorized fast path: for every
   program, [Fastpath.run p] and [Simt.run (Fastpath.interpret p)] must
   produce bit-identical counters — over hand-written programs covering
   each op and over layout-driven programs from the conformance corpus
   and the seeded random generator. *)

open Lego_gpusim
module L = Lego_layout

let check_counters msg (a : Simt.counters) (b : Simt.counters) =
  let f name x y = Alcotest.(check (float 0.0)) (msg ^ ": " ^ name) x y in
  f "insn_warp" a.Simt.insn_warp b.Simt.insn_warp;
  f "g_txns" a.Simt.g_txns b.Simt.g_txns;
  f "g_bytes" a.Simt.g_bytes b.Simt.g_bytes;
  f "l2_hits" a.Simt.l2_hits b.Simt.l2_hits;
  f "s_accesses" a.Simt.s_accesses b.Simt.s_accesses;
  f "s_cycles" a.Simt.s_cycles b.Simt.s_cycles;
  f "flops_fp32" a.Simt.flops_fp32 b.Simt.flops_fp32;
  f "flops_fp16" a.Simt.flops_fp16 b.Simt.flops_fp16;
  f "flops_fp8" a.Simt.flops_fp8 b.Simt.flops_fp8;
  f "flops_tensor_fp16" a.Simt.flops_tensor_fp16 b.Simt.flops_tensor_fp16;
  f "flops_tensor_fp8" a.Simt.flops_tensor_fp8 b.Simt.flops_tensor_fp8;
  f "syncs" a.Simt.syncs b.Simt.syncs

let differential ?device ?smem_dtype ?sample_blocks ?key ~msg ~grid ~block
    ~smem_words prog =
  let fast =
    Fastpath.run ?device ?smem_dtype ?sample_blocks ?key ~grid ~block
      ~smem_words prog
  in
  let slow =
    Simt.run ?device ?smem_dtype ?sample_blocks ~grid ~block ~smem_words
      (Fastpath.interpret prog)
  in
  check_counters msg fast.Simt.counters slow.Simt.counters;
  fast

let tid ctx = Simt.linear_tid ctx

let test_uniform_ops () =
  let buf = Mem.create Mem.F32 4096 in
  let prog =
    [
      Fastpath.Alu 4;
      Fastpath.Gload (buf, fun ctx -> ((ctx.Simt.bx * 61) + tid ctx) mod 4096);
      Fastpath.Sstore (fun ctx -> (tid ctx * 3) mod 128);
      Fastpath.Sync;
      Fastpath.Sload (fun ctx -> tid ctx mod 128);
      Fastpath.Flops (Mem.F16, true, 8);
      Fastpath.Gstore
        (buf, fun ctx -> ((ctx.Simt.by * 131) + (tid ctx * 2)) mod 4096);
      Fastpath.Alu 0 (* dropped on both paths *);
    ]
  in
  ignore
    (differential ~msg:"uniform" ~grid:(2, 2) ~block:(32, 2) ~smem_words:128
       prog)

let test_masked_ops () =
  let buf = Mem.create Mem.F32 1024 in
  let lane_lt n ctx = ctx.Simt.tx < n in
  let prog =
    [
      Fastpath.Masked (lane_lt 16, Fastpath.Alu 3);
      Fastpath.Masked
        (lane_lt 7, Fastpath.Gload (buf, fun ctx -> tid ctx * 9 mod 1024));
      Fastpath.Masked (lane_lt 20, Fastpath.Sstore (fun ctx -> tid ctx * 2));
      Fastpath.Sync;
      (* mask depending on the block: legal when no cache key is used *)
      Fastpath.Masked
        ( (fun ctx -> (ctx.Simt.bx + ctx.Simt.tx) mod 2 = 0),
          Fastpath.Sload (fun ctx -> tid ctx) );
      Fastpath.Masked (lane_lt 5, Fastpath.Flops (Mem.F32, false, 6));
      (* fully-masked: must cost nothing on either path *)
      Fastpath.Masked ((fun _ -> false), Fastpath.Sstore (fun _ -> 0));
      (* nested masks conjoin *)
      Fastpath.Masked
        ( lane_lt 24,
          Fastpath.Masked
            ((fun ctx -> ctx.Simt.tx >= 8), Fastpath.Sload (fun ctx -> tid ctx))
        );
      Fastpath.Masked (lane_lt 16, Fastpath.Alu 0) (* dropped on both paths *);
    ]
  in
  ignore
    (differential ~msg:"masked" ~grid:(3, 1) ~block:(32, 2) ~smem_words:128
       prog)

let test_partial_warp () =
  (* NW-style 16-thread block: one warp with 16 lanes. *)
  let buf = Mem.create Mem.F32 256 in
  let prog =
    [
      Fastpath.Gload (buf, fun ctx -> (ctx.Simt.bx * 16) + ctx.Simt.tx);
      Fastpath.Sstore (fun ctx -> ctx.Simt.tx * 17 mod 64);
      Fastpath.Sync;
      Fastpath.Masked
        ( (fun ctx -> ctx.Simt.tx mod 3 = 0),
          Fastpath.Sload (fun ctx -> ctx.Simt.tx) );
      Fastpath.Alu 2;
    ]
  in
  ignore
    (differential ~msg:"partial warp" ~grid:(4, 1) ~block:(16, 1)
       ~smem_words:64 prog)

let test_sampled_grid () =
  let buf = Mem.create Mem.F32 (100 * 32) in
  let prog =
    [
      Fastpath.Gload
        ( buf,
          fun ctx ->
            if ctx.Simt.bx >= 80 then (ctx.Simt.bx * 32) + ctx.Simt.tx
            else ctx.Simt.bx * 32 );
      Fastpath.Flops (Mem.F8, false, 4);
    ]
  in
  let r =
    differential ~msg:"sampled" ~sample_blocks:40 ~grid:(100, 1) ~block:(32, 1)
      ~smem_words:0 prog
  in
  Alcotest.(check int) "subset simulated" 40 r.Simt.blocks_simulated

let test_l2_reuse () =
  (* The same working set read twice: the stateful L2 makes the second
     pass all hits; both paths must agree on the hit count too. *)
  let buf = Mem.create Mem.F32 2048 in
  let prog =
    [
      Fastpath.Gload (buf, fun ctx -> tid ctx * 8);
      Fastpath.Gload (buf, fun ctx -> tid ctx * 8);
      Fastpath.Gload (buf, fun ctx -> (tid ctx * 8) + 1);
    ]
  in
  let r =
    differential ~msg:"l2 reuse" ~grid:(1, 1) ~block:(32, 2) ~smem_words:0 prog
  in
  Alcotest.(check bool) "hits observed" true (r.Simt.counters.l2_hits > 0.0)

(* A layout-driven shared-tile program in the shape of the tuner's
   slots: threads store through the layout's physical map, sync, then
   read a shifted pattern back.  Exercises arbitrary [Group_by]s from
   the corpus / generator as address maps. *)
let layout_program g =
  let n = L.Group_by.numel g in
  let dims = L.Group_by.dims g in
  let phys flat = L.Group_by.apply_ints g (L.Shape.unflatten_ints dims flat) in
  [
    Fastpath.Alu 4;
    Fastpath.Sstore (fun ctx -> phys (tid ctx mod n));
    Fastpath.Sync;
    Fastpath.Sload (fun ctx -> phys (((tid ctx * 7) + 3) mod n));
    Fastpath.Masked
      ( (fun ctx -> ctx.Simt.tx < 16),
        Fastpath.Sload (fun ctx -> phys ((tid ctx * 5) mod n)) );
  ]

let check_layout ~msg ~smem_dtype g =
  let n = L.Group_by.numel g in
  ignore
    (differential ~msg ~smem_dtype ~grid:(2, 1) ~block:(32, 2) ~smem_words:n
       (layout_program g))

let test_corpus_layouts () =
  List.iter
    (fun (name, g) -> check_layout ~msg:name ~smem_dtype:Mem.F32 g)
    Lego_conform.Corpus.all

let test_lgen_layouts () =
  for index = 0 to 11 do
    let g = Lego_conform.Lgen.layout_of_seed ~seed:2026 ~index in
    let dt = match index mod 3 with 0 -> Mem.F32 | 1 -> Mem.F16 | _ -> Mem.F8 in
    check_layout
      ~msg:(Printf.sprintf "lgen seed=2026 #%d" index)
      ~smem_dtype:dt g
  done

let test_summary_cache_consistent () =
  (* A keyed run must produce the same counters as an uncached one, on
     the first (cold) and second (fully cached) evaluation alike. *)
  let g = snd (List.hd Lego_conform.Corpus.all) in
  let n = L.Group_by.numel g in
  let prog = layout_program g in
  let run ?key () =
    (Fastpath.run ?key ~grid:(4, 1) ~block:(32, 2) ~smem_words:n prog)
      .Simt.counters
  in
  Fastpath.clear_cache ();
  let plain = run () in
  let cold = run ~key:"test:cache" () in
  let warm = run ~key:"test:cache" () in
  check_counters "cold = plain" cold plain;
  check_counters "warm = plain" warm plain;
  (* and the effect path still agrees *)
  let slow =
    (Simt.run ~grid:(4, 1) ~block:(32, 2) ~smem_words:n
       (Fastpath.interpret prog))
      .Simt.counters
  in
  check_counters "warm = slow" warm slow

(* Regression: summaries were cached per key alone, so a keyed run on a
   16-bank device replayed the bank cycles an A100 run had cached for
   the same key (and vice versa). *)
let test_summary_cache_keyed_on_device () =
  let g = snd (List.hd Lego_conform.Corpus.all) in
  let n = L.Group_by.numel g in
  let prog = layout_program g in
  let narrow = { Device.a100 with smem_banks = 16 } in
  Fastpath.clear_cache ();
  List.iter
    (fun (name, device) ->
      ignore
        (differential ~device ~key:"test:device" ~msg:name ~grid:(4, 1)
           ~block:(32, 2) ~smem_words:n prog))
    [ ("a100", Device.a100); ("16 banks", narrow); ("a100 again", Device.a100) ]

let test_masked_sync_rejected () =
  Alcotest.check_raises "masked sync"
    (Invalid_argument "Fastpath: sync must be uniform, not masked") (fun () ->
      ignore
        (Fastpath.run ~grid:(1, 1) ~block:(32, 1) ~smem_words:0
           [ Fastpath.Masked ((fun _ -> true), Fastpath.Sync) ]))

let test_oob_rejected_before_costing () =
  let c = Simt.fresh_counters () in
  (try
     ignore
       (Fastpath.run ~counters:c ~grid:(1, 1) ~block:(32, 1) ~smem_words:8
          [
            Fastpath.Sstore (fun ctx -> ctx.Simt.tx mod 8);
            Fastpath.Sload (fun ctx -> ctx.Simt.tx) (* lanes 8.. go OOB *);
          ]);
     Alcotest.fail "should have raised"
   with Invalid_argument _ -> ());
  Alcotest.(check (float 0.0)) "counters untouched" 0.0
    (c.Simt.insn_warp +. c.Simt.s_accesses +. c.Simt.s_cycles)

let suite =
  ( "fastpath",
    [
      Alcotest.test_case "uniform ops" `Quick test_uniform_ops;
      Alcotest.test_case "masked ops" `Quick test_masked_ops;
      Alcotest.test_case "partial warp" `Quick test_partial_warp;
      Alcotest.test_case "sampled grid" `Quick test_sampled_grid;
      Alcotest.test_case "l2 reuse" `Quick test_l2_reuse;
      Alcotest.test_case "corpus layouts bit-identical" `Quick
        test_corpus_layouts;
      Alcotest.test_case "lgen layouts bit-identical" `Quick test_lgen_layouts;
      Alcotest.test_case "summary cache consistent" `Quick
        test_summary_cache_consistent;
      Alcotest.test_case "summary cache keyed on device" `Quick
        test_summary_cache_keyed_on_device;
      Alcotest.test_case "masked sync rejected" `Quick test_masked_sync_rejected;
      Alcotest.test_case "oob rejected before costing" `Quick
        test_oob_rejected_before_costing;
    ] )
