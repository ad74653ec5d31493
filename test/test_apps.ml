(* Integration tests: the paper's evaluation kernels compute correct
   values on the simulator and reproduce the relative performance shapes
   of figures 12-14. *)

open Lego_apps

let ok what = Alcotest.(check (result unit string)) what (Ok ())

let small_matmul =
  { (Matmul.default_config 64) with Matmul.bm = 32; bn = 32; bk = 16; gm = 2 }

let test_matmul_numerics () =
  List.iter
    (fun v -> ok (Matmul.variant_name v) (Matmul.check_numerics small_matmul v))
    Matmul.variants

let test_matmul_layout_shapes () =
  let ls = Matmul.layouts small_matmul Matmul.NT in
  Alcotest.(check (list int))
    "A view" [ 2; 4; 32; 16 ]
    (Lego_layout.Group_by.dims ls.Matmul.dla);
  Alcotest.(check (result unit string))
    "CL bijective" (Ok ())
    (Lego_layout.Check.layout ls.Matmul.cl)

let test_matmul_rejects_partial_tiles () =
  Alcotest.(check bool) "indivisible size rejected" true
    (match Matmul.layouts (Matmul.default_config 100) Matmul.NN with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_matmul_rejects_degenerate_configs () =
  (* Every degenerate configuration must die in [check_divisible] with a
     clear [Matmul: ...] message, not deep in layout construction — in
     particular negative extents, which OCaml's [mod] lets through
     ((-128) mod 32 = 0). *)
  let rejected name cfg =
    match Matmul.layouts cfg Matmul.NN with
    | exception Invalid_argument msg ->
      if not (String.length msg >= 7 && String.sub msg 0 7 = "Matmul:") then
        Alcotest.failf "%s: unexpected message %S" name msg
    | _ -> Alcotest.failf "%s: degenerate config accepted" name
  in
  let base = Matmul.default_config 128 in
  rejected "K smaller than BK" { base with Matmul.k = 16 };
  rejected "zero tile" { base with Matmul.bm = 0 };
  rejected "negative M" { base with Matmul.m = -128 };
  rejected "negative tile" { base with Matmul.bk = -32; k = -128 };
  rejected "sub-footprint tile" { base with Matmul.bm = 8; m = 64 };
  (* The boundary case stays accepted. *)
  Alcotest.(check bool) "square 128 accepted" true
    (match Matmul.layouts base Matmul.NN with
    | _ -> true
    | exception Invalid_argument _ -> false)

let test_matmul_systems_comparable () =
  (* Figure 12a: LEGO within a few percent of the Triton reference. *)
  let cfg = Matmul.default_config 2048 in
  List.iter
    (fun v ->
      let lego = Matmul.run_lego cfg v in
      let triton = Matmul.run_triton_ref cfg v in
      let ratio = lego.Matmul.time_s /. triton.Matmul.time_s in
      if ratio > 1.1 || ratio < 0.9 then
        Alcotest.failf "%s: lego/triton ratio %.2f" (Matmul.variant_name v)
          ratio)
    Matmul.variants

let test_matmul_index_cost_reported () =
  Alcotest.(check bool) "positive cost" true
    (Matmul.index_cost small_matmul Matmul.NN > 0)

let test_softmax_numerics () =
  ok "softmax"
    (Softmax.check_numerics
       {
         Softmax.rows = 16;
         cols = 777;
         dtype = Lego_gpusim.Mem.F32;
         compute_values = true;
       })

let test_softmax_fused_beats_eager () =
  (* Figure 12d: the fused kernel wins at large N (less traffic, one
     launch). *)
  let cfg = Softmax.default_config 8192 in
  let fused = Softmax.run_fused cfg and eager = Softmax.run_eager cfg in
  Alcotest.(check bool)
    (Printf.sprintf "fused %.0f GB/s > eager %.0f GB/s" fused.Softmax.gbps
       eager.Softmax.gbps)
    true
    (fused.Softmax.time_s < eager.Softmax.time_s)

let test_group_gemm_shape () =
  (* Figure 12c: grouping many small GEMMs into one launch wins. *)
  let cfg = Group_gemm.default_config 256 in
  let individual = Group_gemm.run_individual cfg in
  let grouped = Group_gemm.run_grouped cfg in
  Alcotest.(check bool) "grouped faster" true
    (grouped.Matmul.time_s < individual.Matmul.time_s);
  Alcotest.(check (result unit string))
    "pid layout bijective" (Ok ())
    (Lego_layout.Check.layout (Group_gemm.pid_layout cfg))

let test_transpose_numerics () =
  List.iter
    (fun l -> ok "transpose" (Transpose.check_numerics ~smem_layout:l
                                (Transpose.default_config 64)))
    [ Transpose.Unpadded; Transpose.Padded; Transpose.Swizzled ]

let test_transpose_shapes () =
  (* Figure 13: shared-tile beats naive; a conflict-free shared layout
     beats the conflicted one. *)
  let cfg = Transpose.default_config 2048 in
  let naive = Transpose.run_naive cfg in
  let swizzled = Transpose.run_shared ~smem_layout:Transpose.Swizzled cfg in
  let unpadded = Transpose.run_shared ~smem_layout:Transpose.Unpadded cfg in
  let padded = Transpose.run_shared ~smem_layout:Transpose.Padded cfg in
  Alcotest.(check bool) "shared beats naive" true
    (swizzled.Transpose.time_s < naive.Transpose.time_s);
  Alcotest.(check bool) "swizzle beats conflicted" true
    (swizzled.Transpose.time_s < unpadded.Transpose.time_s);
  Alcotest.(check bool) "padding ~ swizzling" true
    (padded.Transpose.time_s < unpadded.Transpose.time_s)

let test_nw_numerics () =
  List.iter
    (fun k -> ok "nw" (Nw.check_numerics k (Nw.default_config 64)))
    [ Nw.RowMajor; Nw.AntiDiagonal ]

let test_nw_speedup_shape () =
  (* Figure 14: the anti-diagonal layout wins, more so at larger sizes. *)
  let speedup len =
    let cfg = Nw.default_config len in
    let rm = Nw.run Nw.RowMajor cfg and ad = Nw.run Nw.AntiDiagonal cfg in
    rm.Nw.time_s /. ad.Nw.time_s
  in
  let s1k = speedup 1024 and s4k = speedup 4096 in
  Alcotest.(check bool)
    (Printf.sprintf "antidiag wins (%.2fx @1k, %.2fx @4k)" s1k s4k)
    true
    (s1k > 1.05 && s4k > s1k)

let test_nw_buff_index () =
  Alcotest.(check int) "row-major" 18 (Nw.buff_index Nw.RowMajor ~b:16 1 1);
  (* Anti-diagonal layout: (1,1) lies on diagonal 2 (third), after
     (0,0),(0,1),(1,0) and (0,2). *)
  Alcotest.(check int) "antidiag" 4 (Nw.buff_index Nw.AntiDiagonal ~b:16 1 1)

let test_fill_input_roundtrip () =
  let ls = Matmul.layouts small_matmul Matmul.TN in
  let f i j = float_of_int ((i * 100) + j) in
  let buf =
    Matmul.fill_input ls.Matmul.dla f ~rows:64 ~cols:64 Lego_gpusim.Mem.F16
  in
  (* Element (3, 5) read back through the layout. *)
  let idx = [ 3 / 32; 5 / 16; 3 mod 32; 5 mod 16 ] in
  Alcotest.(check (float 0.0))
    "readback" (f 3 5)
    (Lego_gpusim.Mem.get buf
       (Lego_layout.Group_by.apply_ints ls.Matmul.dla idx))

(* Regression: a transpose tile of 0 or a NW block of 0 raised
   [Division_by_zero]; tile 512 died in [Simt.run] ("empty block");
   tiles 8 and 12 timed a kernel that moved nothing, and its numerics
   check failed; [Nw.default_config (-16)] was accepted and reported
   [cells_per_s = inf] with numerics [Ok ()].  Each must now die up front
   with [Invalid_argument] naming the app. *)
let test_apps_reject_bad_configs () =
  let rejected app name f =
    match f () with
    | exception Invalid_argument msg ->
      let prefix = app ^ ":" in
      if not (String.starts_with ~prefix msg) then
        Alcotest.failf "%s: unexpected message %S" name msg
    | _ -> Alcotest.failf "%s: bad config accepted" name
  in
  List.iter
    (fun (tile, size) ->
      let cfg = { (Transpose.default_config size) with tile } in
      let name what = Printf.sprintf "transpose tile %d: %s" tile what in
      rejected "Transpose" (name "naive") (fun () -> Transpose.run_naive cfg);
      rejected "Transpose" (name "shared") (fun () -> Transpose.run_shared cfg);
      rejected "Transpose" (name "numerics") (fun () ->
          Transpose.check_numerics cfg))
    [ (0, 64); (8, 64); (12, 96); (512, 1024); (32, 48) ];
  rejected "Transpose" "negative extent" (fun () ->
      Transpose.run_shared { (Transpose.default_config 64) with m = -64 });
  rejected "Nw" "negative length" (fun () -> Nw.default_config (-16));
  rejected "Nw" "hand-built b = 0" (fun () ->
      Nw.run Nw.RowMajor { (Nw.default_config 64) with b = 0 });
  rejected "Nw" "hand-built negative length" (fun () ->
      Nw.check_numerics Nw.AntiDiagonal
        { (Nw.default_config 64) with length = -16 });
  (* The boundary cases stay accepted. *)
  ok "transpose tile 16"
    (Transpose.check_numerics { (Transpose.default_config 32) with tile = 16 });
  ok "transpose tile 256"
    (Transpose.check_numerics { (Transpose.default_config 256) with tile = 256 });
  ok "nw b = length" (Nw.check_numerics Nw.AntiDiagonal (Nw.default_config 16))

let suite =
  ( "apps",
    [
      Alcotest.test_case "matmul numerics (4 variants)" `Quick
        test_matmul_numerics;
      Alcotest.test_case "matmul layouts" `Quick test_matmul_layout_shapes;
      Alcotest.test_case "matmul rejects degenerate configs" `Quick
        test_matmul_rejects_degenerate_configs;
      Alcotest.test_case "matmul rejects partial tiles" `Quick
        test_matmul_rejects_partial_tiles;
      Alcotest.test_case "fig 12a: LEGO ~ Triton" `Slow
        test_matmul_systems_comparable;
      Alcotest.test_case "matmul index cost" `Quick
        test_matmul_index_cost_reported;
      Alcotest.test_case "softmax numerics" `Quick test_softmax_numerics;
      Alcotest.test_case "fig 12d: fused softmax wins" `Quick
        test_softmax_fused_beats_eager;
      Alcotest.test_case "fig 12c: grouped GEMM wins" `Slow
        test_group_gemm_shape;
      Alcotest.test_case "transpose numerics (3 shared layouts)" `Quick
        test_transpose_numerics;
      Alcotest.test_case "fig 13: transpose ordering" `Quick
        test_transpose_shapes;
      Alcotest.test_case "NW numerics (both layouts)" `Quick test_nw_numerics;
      Alcotest.test_case "fig 14: NW speedup shape" `Slow test_nw_speedup_shape;
      Alcotest.test_case "NW buffer indexing" `Quick test_nw_buff_index;
      Alcotest.test_case "fill_input respects layout" `Quick
        test_fill_input_roundtrip;
      Alcotest.test_case "transpose and NW reject bad configs" `Quick
        test_apps_reject_bad_configs;
    ] )
