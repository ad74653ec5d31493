(* Tests for the layout autotuner (lib/tune): the masked-swizzle gallery
   family, the candidate space, the static predictor's agreement with the
   simulator, search determinism across pool sizes, and the legoc CLI
   overview. *)

module L = Lego_layout
module T = Lego_tune

(* --- Masked XOR swizzles -------------------------------------------------- *)

let swizzle_layout ~rows ~cols ~mask ~shift =
  L.Group_by.make
    ~chain:
      [ L.Order_by.make [ L.Gallery.xor_swizzle_masked ~rows ~cols ~mask ~shift ] ]
    [ [ rows; cols ] ]

let test_masked_swizzle_bijective () =
  List.iter
    (fun (rows, cols, mask, shift) ->
      match L.Check.layout (swizzle_layout ~rows ~cols ~mask ~shift) with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "swizzlex_m%d_s%d on %dx%d: %s" mask shift rows cols e)
    [
      (8, 8, 7, 0);   (* prefix mask, the classic swizzle *)
      (8, 8, 5, 1);   (* non-prefix mask, shifted key *)
      (16, 4, 3, 2);
      (4, 8, 0, 0);   (* mask 0 = row-major *)
      (1, 4, 1, 0);   (* single row *)
    ];
  (* Parameters are part of the identity: distinct (mask, shift) pairs
     give unequal pieces, equal pairs equal pieces. *)
  let p a b = L.Gallery.xor_swizzle_masked ~rows:8 ~cols:8 ~mask:a ~shift:b in
  Alcotest.(check bool) "same params equal" true (L.Piece.equal (p 5 1) (p 5 1));
  Alcotest.(check bool) "mask differs" false (L.Piece.equal (p 5 1) (p 7 1));
  Alcotest.(check bool) "shift differs" false (L.Piece.equal (p 5 1) (p 5 0))

let test_masked_swizzle_rejects_bad_params () =
  let bad f = Alcotest.(check bool) "rejected" true
      (match f () with
       | exception Invalid_argument _ -> true
       | _ -> false)
  in
  bad (fun () -> L.Gallery.xor_swizzle_masked ~rows:4 ~cols:6 ~mask:1 ~shift:0);
  bad (fun () -> L.Gallery.xor_swizzle_masked ~rows:4 ~cols:8 ~mask:8 ~shift:0);
  bad (fun () -> L.Gallery.xor_swizzle_masked ~rows:4 ~cols:8 ~mask:(-1) ~shift:0);
  bad (fun () -> L.Gallery.xor_swizzle_masked ~rows:0 ~cols:8 ~mask:1 ~shift:0);
  bad (fun () -> L.Gallery.xor_swizzle_masked ~rows:4 ~cols:8 ~mask:1 ~shift:(-1))

let test_masked_swizzle_name_round_trip () =
  (* The printed name re-resolves through the gallery registry (this is
     what makes tuner winners re-parseable as notation). *)
  let piece = L.Gallery.xor_swizzle_masked ~rows:16 ~cols:8 ~mask:5 ~shift:1 in
  (match L.Gallery.lookup "swizzlex_m5_s1" [ 16; 8 ] ~args:[] with
  | Some p -> Alcotest.(check bool) "lookup equals constructor" true
      (L.Piece.equal p piece)
  | None -> Alcotest.fail "swizzlex_m5_s1 not found in gallery");
  (* Out-of-range mask for the given dims must not resolve. *)
  (match L.Gallery.lookup "swizzlex_m8_s0" [ 16; 8 ] ~args:[] with
  | None -> ()
  | Some _ -> Alcotest.fail "mask 8 must be rejected for 8 columns");
  let g = swizzle_layout ~rows:16 ~cols:8 ~mask:5 ~shift:1 in
  let printed = Format.asprintf "%a" L.Group_by.pp g in
  match Lego_lang.Elab.layout_of_string printed with
  | Error e -> Alcotest.failf "%S does not parse: %s" printed e
  | Ok g' ->
    Alcotest.(check bool) "notation round-trips" true (L.Group_by.equal g g')

(* --- Candidate space ------------------------------------------------------ *)

let test_space_closure_dedup_and_seed_stability () =
  let fps sp =
    List.map T.Fingerprint.of_layout (T.Space.closure sp)
  in
  let c0 = fps (T.Space.make ~rows:16 ~cols:8 ()) in
  Alcotest.(check bool) "non-empty" true (c0 <> []);
  let sorted = List.sort_uniq compare c0 in
  Alcotest.(check int) "closure has no duplicates" (List.length c0)
    (List.length sorted);
  (* Same seed, same sequence; different seed, same *set*. *)
  let c0' = fps (T.Space.make ~rows:16 ~cols:8 ()) in
  Alcotest.(check bool) "seed 0 reproducible" true (c0 = c0');
  let c5 = fps (T.Space.make ~seed:5 ~rows:16 ~cols:8 ()) in
  Alcotest.(check bool) "seeds enumerate the same set" true
    (List.sort compare c5 = List.sort compare c0);
  (* Non-power-of-two columns: no swizzle children anywhere. *)
  let odd = fps (T.Space.make ~rows:9 ~cols:9 ()) in
  Alcotest.(check bool) "no swizzles on 9x9" true
    (not
       (List.exists
          (fun fp ->
            let rec has i =
              i + 8 <= String.length fp
              && (String.sub fp i 8 = "swizzlex" || has (i + 1))
            in
            has 0)
          odd))

(* --- Pinned stream order ------------------------------------------------ *)

(* A stream's count and the MD5 of its fingerprints, one per line. *)
let stream_digest sp =
  let buf = Buffer.create 4096 and n = ref 0 in
  Seq.iter
    (fun g ->
      incr n;
      Buffer.add_string buf (T.Fingerprint.of_layout g);
      Buffer.add_char buf '\n')
    (T.Space.stream sp);
  (!n, Digest.string (Buffer.contents buf))

(* The candidate order is part of the determinism contract: a
   budget-truncated search scores a prefix of it.  These values were
   produced by the breadth-first refinement closure the generator
   replaced (roots, then each candidate's swizzles and tilings, level
   by level); the bases x swizzles generator must reproduce them
   element for element. *)
let test_stream_matches_legacy_closure () =
  List.iter
    (fun (label, sp, count, md5) ->
      let n, d = stream_digest sp in
      Alcotest.(check int) (label ^ ": count") count n;
      Alcotest.(check int) (label ^ ": Space.count") count (T.Space.count sp);
      Alcotest.(check string)
        (label ^ ": fingerprint MD5") md5 (Digest.to_hex d))
    [
      ( "16x8", T.Space.make ~rows:16 ~cols:8 (), 261,
        "a4872f53b898d74ccef5072e098453a1" );
      ( "16x8 seed5", T.Space.make ~seed:5 ~rows:16 ~cols:8 (), 261,
        "f2d6b4267e237cf8fadb840c2ae271b6" );
      ( "9x9", T.Space.make ~rows:9 ~cols:9 (), 9,
        "e6f6f5e16c6b168bed0872c6d33b1a5b" );
      ( "16x8 composed", T.Space.make ~composed:true ~rows:16 ~cols:8 (), 299,
        "3cfa76c71ac27b6bf8cf14a1fc34a2e1" );
      ( "128x32", T.Space.make ~rows:128 ~cols:32 (), 1569,
        "99266fb4028d34f4155c73692a7d7a1f" );
      ( "32x32 scale", T.Space.make ~scale:true ~rows:32 ~cols:32 (), 57725,
        "68acde1ca2a3afd02a89ae91100b95ea" );
    ]

let stream_domain_rows = [ 2; 3; 4; 6; 8; 9; 12; 16 ]
let stream_domain_cols = [ 2; 3; 4; 6; 8; 9; 16 ]

let prop_stream_no_duplicate_fingerprints =
  QCheck2.Test.make ~name:"stream yields no duplicate fingerprints" ~count:25
    ~print:(fun (r, c, seed, scale, composed) ->
      Printf.sprintf "rows=%d cols=%d seed=%d scale=%b composed=%b" r c seed
        scale composed)
    QCheck2.Gen.(
      oneofl stream_domain_rows >>= fun rows ->
      oneofl stream_domain_cols >>= fun cols ->
      int_range 0 7 >>= fun seed ->
      bool >>= fun scale ->
      bool >>= fun composed -> pure (rows, cols, seed, scale, composed))
    (fun (rows, cols, seed, scale, composed) ->
      let sp = T.Space.make ~seed ~composed ~scale ~rows ~cols () in
      let fps =
        List.of_seq (Seq.map T.Fingerprint.of_layout (T.Space.stream sp))
      in
      List.length fps = List.length (List.sort_uniq compare fps)
      && T.Space.count sp = List.length fps)

(* Every space of the property's domain, in a fixed nesting (rows, then
   cols, seed, scale, composed; [false] before [true]), chained as
   [ctx := MD5(ctx ^ MD5(stream))] over raw 16-byte digests from
   [MD5("")]: 1,792 spaces, 565,744 candidates, one pinned value from
   the same breadth-first closure as above. *)
let test_stream_digests_pinned_over_domain () =
  let ctx = ref (Digest.string "") and spaces = ref 0 and total = ref 0 in
  List.iter
    (fun rows ->
      List.iter
        (fun cols ->
          for seed = 0 to 7 do
            List.iter
              (fun scale ->
                List.iter
                  (fun composed ->
                    let n, d =
                      stream_digest
                        (T.Space.make ~seed ~scale ~composed ~rows ~cols ())
                    in
                    incr spaces;
                    total := !total + n;
                    ctx := Digest.string (!ctx ^ d))
                  [ false; true ])
              [ false; true ]
          done)
        stream_domain_cols)
    stream_domain_rows;
  Alcotest.(check int) "spaces" 1792 !spaces;
  Alcotest.(check int) "candidates" 565_744 !total;
  Alcotest.(check string) "chained MD5" "7ae99efa1d66ce05db9aa8d3817b8c66"
    (Digest.to_hex !ctx)

let test_scale_space_product_axes () =
  let base = T.Space.make ~rows:32 ~cols:8 () in
  let scaled = T.Space.make ~rows:32 ~cols:8 ~scale:true () in
  let nb = T.Space.count base and ns = T.Space.count scaled in
  Alcotest.(check bool)
    (Printf.sprintf "scale axes multiply the space (%d -> %d)" nb ns)
    true
    (ns > 5 * nb);
  (* The base dag is a prefix of the scale stream: same search, more
     tail — a budget covering only the prefix sees the old space. *)
  let prefix =
    List.of_seq
      (Seq.map T.Fingerprint.of_layout (Seq.take nb (T.Space.stream scaled)))
  in
  Alcotest.(check bool) "base closure is the stream's prefix" true
    (prefix = List.map T.Fingerprint.of_layout (T.Space.closure base))

(* --- Bounded top-K ---------------------------------------------------------- *)

let rec take_k n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: xs -> x :: take_k (n - 1) xs

let prop_topk_equals_sort_take =
  QCheck2.Test.make ~name:"bounded top-K = sort |> take K" ~count:200
    ~print:(fun (k, xs) ->
      Printf.sprintf "k=%d xs=[%s]" k
        (String.concat ";" (List.map string_of_int xs)))
    QCheck2.Gen.(
      pair
        (oneof [ int_range 1 80; return max_int ])
        (list_size (int_range 0 200) (int_range (-50) 50)))
    (fun (k, xs) ->
      let tk = T.Topk.create ~cap:k ~cmp:compare in
      List.iter (T.Topk.add tk) xs;
      T.Topk.sorted tk = take_k k (List.sort compare xs)
      && T.Topk.size tk = min k (List.length xs))

(* --- Predictor vs simulator ----------------------------------------------- *)

let prepend_swizzle ~mask ~shift g ~rows ~cols =
  L.Group_by.prepend
    (L.Order_by.make [ L.Gallery.xor_swizzle_masked ~rows ~cols ~mask ~shift ])
    g

let test_predictor_agrees_with_simulator () =
  let slot = T.Slot.matmul_smem () in
  let rows = slot.T.Slot.rows and cols = slot.T.Slot.cols in
  let rm = T.Slot.row_major ~rows ~cols in
  let sw = prepend_swizzle ~mask:(cols - 1) ~shift:0 rm ~rows ~cols in
  let check name g expect_cf =
    let sc = T.Predict.score g slot.T.Slot.phases in
    Alcotest.(check bool)
      (name ^ ": predictor verdict") expect_cf
      (T.Predict.conflict_free sc);
    let sim = slot.T.Slot.simulate ~fast:true g in
    Alcotest.(check bool)
      (name ^ ": simulator verdict") expect_cf
      (T.Slot.sim_conflict_free sim)
  in
  check "row-major" rm false;
  check "full-mask swizzle" sw true

(* --- Compiled layout closures ---------------------------------------------- *)

(* The corpus layouts plus a seeded Lgen batch: every flat index must map
   identically through the compiled closure and the structural
   interpreter — this is the contract that keeps fast-path simulations
   bit-identical to the effect-handler reference. *)
let compiled_test_layouts () =
  Lego_conform.Corpus.all
  @ List.init 8 (fun index ->
        ( Printf.sprintf "lgen-2026-%d" index,
          Lego_conform.Lgen.layout_of_seed ~seed:2026 ~index ))

let test_compiled_matches_interpreter () =
  List.iter
    (fun (name, g) ->
      let c = T.Compiled.compile g in
      let dims = T.Compiled.dims c in
      Alcotest.(check (list int)) (name ^ ": dims") (L.Group_by.dims g) dims;
      for flat = 0 to T.Compiled.numel c - 1 do
        let idx = L.Shape.unflatten_ints dims flat in
        let expect = L.Group_by.apply_ints g idx in
        let got = T.Compiled.apply_flat c flat in
        if got <> expect then
          Alcotest.failf "%s: flat %d: compiled %d <> interpreted %d" name flat
            got expect;
        let got' = T.Compiled.apply c idx in
        if got' <> expect then
          Alcotest.failf "%s: idx of flat %d: compiled %d <> interpreted %d"
            name flat got' expect
      done)
    (compiled_test_layouts ())

(* --- Predictor arithmetic vs simulator counters ---------------------------- *)

(* [Predict.bank_cycles] / [Predict.txn_count] must agree {e exactly}
   with what one [Simt.cost_shared] / [cost_global] warp round adds to
   the counters, for warp access patterns drawn from real layouts — the
   soundness condition that lets stage one prune for stage two. *)
let test_predict_arithmetic_matches_simt_costs () =
  let module G = Lego_gpusim in
  let device = G.Device.a100 in
  let buf, _ = G.Mem.create_arena ~label:"diff" G.Mem.F32 4096 ~cap:4096 in
  List.iter
    (fun (name, g) ->
      let c = T.Compiled.of_layout g in
      let n = T.Compiled.numel c in
      List.iteri
        (fun p stride ->
          let addrs =
            List.init device.G.Device.warp_size (fun t ->
                T.Compiled.apply_flat c (((t * stride) + p) mod n))
          in
          (* Shared: one warp round through the simulator's counter. *)
          let cnt = G.Simt.fresh_counters () in
          G.Simt.cost_shared device ~elem_bytes:4 cnt addrs;
          Alcotest.(check int)
            (Printf.sprintf "%s stride %d: bank cycles" name stride)
            (T.Predict.bank_cycles device ~elem_bytes:4 addrs)
            (int_of_float cnt.G.Simt.s_cycles);
          Alcotest.(check int)
            (Printf.sprintf "%s stride %d: accesses" name stride)
            (List.length addrs)
            (int_of_float cnt.G.Simt.s_accesses);
          (* Global: one warp round, cold L2 so every txn counts once. *)
          let cnt = G.Simt.fresh_counters () in
          let l2 = G.L2.create device in
          G.Simt.cost_global device l2 cnt
            (List.map (fun a -> (buf, a mod 4096)) addrs);
          Alcotest.(check int)
            (Printf.sprintf "%s stride %d: txns" name stride)
            (T.Predict.txn_count device ~elem_bytes:4
               (List.map (fun a -> a mod 4096) addrs))
            (int_of_float cnt.G.Simt.g_txns))
        [ 1; 2; 17; 32 ])
    (compiled_test_layouts ())

(* --- Slot fast path vs effect-handler reference ---------------------------- *)

let test_slot_fast_matches_slow () =
  List.iter
    (fun (slot : T.Slot.t) ->
      let rows = slot.T.Slot.rows and cols = slot.T.Slot.cols in
      let rm = T.Slot.row_major ~rows ~cols in
      let layouts =
        (* A second, conflict-shaping candidate per slot: the XOR swizzle
           where columns are a power of two, the anti-diagonal gallery
           layout for NW's 17-wide buffer. *)
        if cols land (cols - 1) = 0 then
          [ ("row-major", rm);
            ("swizzle", prepend_swizzle ~mask:7 ~shift:0 rm ~rows ~cols) ]
        else
          [ ("row-major", rm);
            ( "antidiag",
              L.Group_by.make
                ~chain:[ L.Order_by.make [ L.Gallery.antidiag rows ] ]
                [ [ rows; cols ] ] ) ]
      in
      List.iter
        (fun (lname, g) ->
          let fast = slot.T.Slot.simulate ~fast:true g in
          let slow = slot.T.Slot.simulate ~fast:false g in
          let msg field =
            Printf.sprintf "%s/%s: %s" slot.T.Slot.name lname field
          in
          Alcotest.(check (float 0.0)) (msg "time_s") slow.T.Slot.time_s
            fast.T.Slot.time_s;
          Alcotest.(check (float 0.0)) (msg "s_accesses")
            slow.T.Slot.s_accesses fast.T.Slot.s_accesses;
          Alcotest.(check (float 0.0)) (msg "s_cycles") slow.T.Slot.s_cycles
            fast.T.Slot.s_cycles)
        layouts)
    (T.Slot.all ())

(* --- Search: determinism and rediscovery ---------------------------------- *)

let search_opts jobs =
  { T.Tune.default_options with budget = 48; top = 4; jobs; conform = false }

(* The search simulates only on the slots' fast path; the Simt effect
   handler stays the reference.  A copy of each slot whose simulations
   always run [~fast:false] must lead the same search (both rungs, via
   scale mode) to the same ranking, sim counters and winner. *)
let test_search_fast_matches_effect_handler () =
  let sim_key (sc : T.Tune.scored) =
    let s = Option.get sc.T.Tune.sim in
    ( sc.T.Tune.fingerprint,
      s.T.Slot.time_s,
      s.T.Slot.s_accesses,
      s.T.Slot.s_cycles,
      s.T.Slot.g_txns )
  in
  List.iter
    (fun (slot : T.Slot.t) ->
      let slow =
        {
          slot with
          T.Slot.simulate = (fun ~fast:_ g -> slot.T.Slot.simulate ~fast:false g);
          simulate_sampled =
            Option.map
              (fun sim ~fast:_ g -> sim ~fast:false g)
              slot.T.Slot.simulate_sampled;
        }
      in
      let options = { (search_opts 2) with scale = true } in
      let r = T.Tune.search ~options slot in
      let rs = T.Tune.search ~options slow in
      let name = slot.T.Slot.name in
      Alcotest.(check int) (name ^ ": sampled rung") r.T.Tune.sampled_scored
        rs.T.Tune.sampled_scored;
      Alcotest.(check bool) (name ^ ": ranking and sim counters") true
        (List.map sim_key r.T.Tune.ranking = List.map sim_key rs.T.Tune.ranking);
      Alcotest.(check bool) (name ^ ": winner") true
        (sim_key r.T.Tune.winner = sim_key rs.T.Tune.winner))
    (T.Slot.all ())

(* Regression: the static pass scored every candidate on the default
   A100, so a slot built on a 16-bank device had its winner reported
   conflict-free at 64 cycles while that device runs it at 128. *)
let test_static_pass_uses_slot_device () =
  let device = { Lego_gpusim.Device.a100 with smem_banks = 16 } in
  let slot = T.Slot.transpose_smem ~device () in
  let r = T.Tune.search ~options:{ (search_opts 1) with budget = 64 } slot in
  let pp = Format.asprintf "%a" T.Predict.pp in
  List.iter
    (fun (sc : T.Tune.scored) ->
      Alcotest.(check string)
        (sc.T.Tune.fingerprint ^ ": static score on the slot's device")
        (pp (T.Predict.score ~device sc.T.Tune.layout slot.T.Slot.phases))
        (pp sc.T.Tune.static_score))
    r.T.Tune.ranking

let test_search_deterministic_across_jobs () =
  let slot = T.Slot.matmul_smem () in
  let r1 = T.Tune.search ~options:(search_opts 1) slot in
  let r4 = T.Tune.search ~options:(search_opts 4) slot in
  let key (sc : T.Tune.scored) =
    (sc.T.Tune.fingerprint, (Option.get sc.T.Tune.sim).T.Slot.time_s)
  in
  Alcotest.(check bool) "same winner" true
    (key r1.T.Tune.winner = key r4.T.Tune.winner);
  Alcotest.(check int) "same explored count" r1.T.Tune.explored
    r4.T.Tune.explored;
  Alcotest.(check bool) "same full ranking" true
    (List.map key r1.T.Tune.ranking = List.map key r4.T.Tune.ranking);
  (* The tiny budget still rediscovers the conflict-free swizzle. *)
  Alcotest.(check bool) "winner predicted conflict-free" true
    (T.Predict.conflict_free r1.T.Tune.winner.T.Tune.static_score);
  Alcotest.(check bool) "winner simulated conflict-free" true
    (T.Slot.sim_conflict_free (Option.get r1.T.Tune.winner.T.Tune.sim))

(* --- Staged funnel: sampled rung, determinism, cache ------------------------ *)

let scored_key (sc : T.Tune.scored) =
  (sc.T.Tune.fingerprint, (Option.get sc.T.Tune.sim).T.Slot.time_s)

let result_key (r : T.Tune.result) =
  ( scored_key r.T.Tune.winner,
    List.map scored_key r.T.Tune.ranking,
    r.T.Tune.explored,
    r.T.Tune.sampled_scored )

(* The static pass has one op count in every mode: each finalist's
   [ops] is {!Predict.decomposed_ops} of its layout, in the default
   space as under [scale]. *)
let test_static_ops_decomposed_in_every_mode () =
  List.iter
    (fun (slot : T.Slot.t) ->
      List.iter
        (fun scale ->
          let r = T.Tune.search ~options:{ (search_opts 2) with scale } slot in
          List.iter
            (fun (sc : T.Tune.scored) ->
              Alcotest.(check int)
                (Printf.sprintf "%s (scale %b) %s: ops" slot.T.Slot.name scale
                   sc.T.Tune.fingerprint)
                (T.Predict.decomposed_ops sc.T.Tune.layout)
                sc.T.Tune.static_score.T.Predict.ops)
            r.T.Tune.ranking)
        [ false; true ])
    (T.Slot.all ())

(* Regression: the heap was allocated [top] (or [4 * top]) slots up
   front, so [top = 2⁴⁰] raised [Out_of_memory] and [top = max_int]
   overflowed [4 * top] in scale mode.  Any [top] at least the space
   size ranks the whole 5-candidate nw space. *)
let test_huge_top_ranks_whole_space () =
  let slot = T.Slot.nw_smem () in
  List.iter
    (fun scale ->
      let options =
        { T.Tune.default_options with conform = false; scale }
      in
      let want = T.Tune.search ~options slot in
      Alcotest.(check int) "nw ranks its whole space" want.T.Tune.space_size
        (List.length want.T.Tune.ranking);
      List.iter
        (fun top ->
          let r = T.Tune.search ~options:{ options with top } slot in
          Alcotest.(check bool)
            (Printf.sprintf "top %d, scale %b: same ranking" top scale)
            true
            (result_key r = result_key want))
        [ 1 lsl 40; max_int ])
    [ false; true ]

let test_funnel_sampled_rung_accounting () =
  let slot = T.Slot.matmul_smem () in
  let options = { (search_opts 1) with scale = true } in
  let r = T.Tune.search ~options slot in
  Alcotest.(check int) "explored = budget" 48 r.T.Tune.explored;
  Alcotest.(check int) "sampled rung width = 4 * top" 16
    r.T.Tune.sampled_scored;
  Alcotest.(check int) "full rung width" options.T.Tune.top
    (List.length r.T.Tune.ranking);
  (* Successive halving widens what reaches simulation (16 sampled
     instead of 4 full), so the funnel's winner can only improve on the
     two-stage search's over the same stream: the matmul sampled sim
     scales every counter by the block count exactly, so promotion by
     sampled time finds the true best-by-time of the whole retained
     heap. *)
  let r0 =
    T.Tune.search ~options { slot with T.Slot.simulate_sampled = None }
  in
  Alcotest.(check int) "no sampled rung without simulate_sampled" 0
    r0.T.Tune.sampled_scored;
  let time r = (Option.get r.T.Tune.winner.T.Tune.sim).T.Slot.time_s in
  Alcotest.(check bool) "funnel winner no slower than two-stage winner" true
    (time r <= time r0)

let test_funnel_deterministic_across_jobs_and_runs () =
  let slot = T.Slot.matmul_smem () in
  let opts jobs = { (search_opts jobs) with scale = true; seed = 3 } in
  let r1 = T.Tune.search ~options:(opts 1) slot in
  let r4 = T.Tune.search ~options:(opts 4) slot in
  let r1' = T.Tune.search ~options:(opts 1) slot in
  Alcotest.(check bool) "-j1 = -j4 (winner, top-K, counters)" true
    (result_key r1 = result_key r4);
  Alcotest.(check bool) "same seed, same run" true
    (result_key r1 = result_key r1')

let test_cache_reuses_without_changing_results () =
  let slot = T.Slot.matmul_smem () in
  let options = search_opts 1 in
  let cold = T.Tune.search ~options slot in
  let cache = T.Cache.create () in
  let r1 = T.Tune.search ~options ~cache slot in
  let h1 = T.Cache.hits cache in
  let r2 = T.Tune.search ~options ~cache slot in
  Alcotest.(check bool) "cacheless = cold cache" true
    (result_key cold = result_key r1);
  Alcotest.(check bool) "warm cache: identical result" true
    (result_key r1 = result_key r2);
  Alcotest.(check bool)
    (Printf.sprintf "second search hit the cache (%d -> %d hits)" h1
       (T.Cache.hits cache))
    true
    (T.Cache.hits cache > h1);
  (* A different slot shares the cache object without key collisions. *)
  let nw = T.Slot.nw_smem () in
  let rnw = T.Tune.search ~options ~cache nw in
  let rnw' = T.Tune.search ~options nw in
  Alcotest.(check bool) "cross-slot isolation" true
    (result_key rnw = result_key rnw')

(* Satellite regression: on the tiny nw space with expensive
   per-candidate sims, -j2 used to run ~25% slower than -j1
   (oversubscribed domains + stop-the-world GC handshakes).  With the
   hardware clamp and adaptive chunking, parallel never loses more
   than measurement noise.  The search itself is only ~25ms of work, so
   the two sides are measured in alternating rounds (same load profile)
   and each keeps its best-of-5. *)
let test_nw_parallel_scaling_no_regression () =
  let slot = T.Slot.nw_smem () in
  let one jobs =
    (T.Tune.search ~options:(search_opts jobs) slot).T.Tune.candidates_per_s
  in
  let measure rounds =
    let j1 = ref 0.0 and j2 = ref 0.0 in
    for _ = 1 to rounds do
      j1 := Float.max !j1 (one 1);
      j2 := Float.max !j2 (one 2)
    done;
    (!j1, !j2)
  in
  let j1, j2 =
    let j1, j2 = measure 5 in
    (* Inside the full suite a GC-pressure or scheduling burst can still
       skew one side of a ~25ms measurement; escalate once before
       declaring a regression. *)
    if j2 >= 0.9 *. j1 then (j1, j2) else measure 12
  in
  Alcotest.(check bool)
    (Printf.sprintf "nw j2 %.1f >= 0.9 * j1 %.1f cand/s" j2 j1)
    true
    (j2 >= 0.9 *. j1)

let toy_slot () =
  (* 3x3: no tilings (prime extents), no swizzles (not a power of two) —
     a five-candidate space the default budget covers exhaustively.  The
     fake simulation is a pure function of the layout, so the test stays
     fast and fully deterministic. *)
  let rows = 3 and cols = 3 in
  let phases =
    [
      T.Predict.Shared
        {
          elem_bytes = 4;
          lanes = (fun t -> if t < 9 then Some [ t / 3; t mod 3 ] else None);
        };
    ]
  in
  let simulate ~fast:_ g =
    {
      T.Slot.time_s = float_of_int (L.Group_by.apply_ints g [ 1; 2 ]);
      s_accesses = 9.0;
      s_cycles = 1.0;
      g_txns = 0.0;
    }
  in
  {
    T.Slot.name = "toy";
    descr = "3x3 toy space";
    rows;
    cols;
    device = Lego_gpusim.Device.a100;
    smem_dtype = Lego_gpusim.Mem.F32;
    phases;
    simulate;
    simulate_sampled = None;
    baselines = [];
    full_warps = false;
  }

let test_small_space_is_exhaustive () =
  let slot = toy_slot () in
  let r =
    T.Tune.search ~options:{ (search_opts 1) with budget = 64; top = 16 } slot
  in
  Alcotest.(check bool) "exhaustive" true r.T.Tune.exhaustive;
  Alcotest.(check int) "explored = space" r.T.Tune.space_size r.T.Tune.explored;
  Alcotest.(check int) "everything simulated" r.T.Tune.space_size
    (List.length r.T.Tune.ranking);
  (* The winner heads a ranking sorted by simulated time. *)
  let times =
    List.map (fun sc -> (Option.get sc.T.Tune.sim).T.Slot.time_s) r.T.Tune.ranking
  in
  Alcotest.(check bool) "ranking sorted" true
    (List.sort compare times = times)

(* --- Algebra-built composed candidates ------------------------------------- *)

(* The composed family (masked swizzles composed with logical divides
   through the prover-discharged algebra) must contain a member that
   costs exactly the known conflict-free full-mask swizzle, and a search
   over the composed-extended space must still land on a conflict-free
   winner for the matmul slot. *)
let test_composed_space_rediscovers_swizzle () =
  let slot = T.Slot.matmul_smem () in
  let rows = slot.T.Slot.rows and cols = slot.T.Slot.cols in
  let sp = T.Space.make ~composed:true ~rows ~cols () in
  let family = T.Space.composed sp in
  Alcotest.(check bool) "composed family non-empty" true (family <> []);
  (* The swizzled composites are GenP leaves (no swizzle stacks on
     them); the bare divides stay strided RegP candidates. *)
  Alcotest.(check bool) "family contains GenP composites" true
    (List.exists T.Space.has_gen family);
  Alcotest.(check bool) "family contains strided divides" true
    (List.exists (fun g -> not (T.Space.has_gen g)) family);
  let sim g = (slot.T.Slot.simulate ~fast:true g).T.Slot.time_s in
  let swz_time =
    sim
      (prepend_swizzle ~mask:(cols - 1) ~shift:0
         (T.Slot.row_major ~rows ~cols)
         ~rows ~cols)
  in
  Alcotest.(check bool) "a composed member matches the swizzle cost" true
    (List.exists (fun g -> sim g = swz_time) family);
  let options = { (search_opts 2) with T.Tune.composed = true } in
  let r = T.Tune.search ~options slot in
  Alcotest.(check bool) "winner predicted conflict-free" true
    (T.Predict.conflict_free r.T.Tune.winner.T.Tune.static_score);
  Alcotest.(check bool) "winner simulated conflict-free" true
    (T.Slot.sim_conflict_free (Option.get r.T.Tune.winner.T.Tune.sim));
  (* Without the flag the composed family stays out of the space. *)
  Alcotest.(check (list bool)) "family gated by the flag" []
    (List.map (fun _ -> true) (T.Space.composed (T.Space.make ~rows ~cols ())))

let test_search_rejects_bad_options () =
  let slot = toy_slot () in
  List.iter
    (fun options ->
      Alcotest.(check bool) "rejected" true
        (match T.Tune.search ~options slot with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [
      { T.Tune.default_options with budget = 0 };
      { T.Tune.default_options with top = 0 };
    ]

(* --- Swizzle-name parsing: canonical decimal only -------------------------- *)

let test_parse_swizzlex_decimal_only () =
  (* Regression: [int_of_string_opt] accepts hex/octal/binary and
     underscore separators, so "swizzlex_m0x1f_s0" used to alias
     "swizzlex_m31_s0" under a different name — breaking name
     round-trips, [Piece.equal] on re-parsed winners, and every
     name-keyed memo.  Only the canonical decimal spelling may
     resolve. *)
  (match L.Gallery.parse_swizzlex "swizzlex_m31_s0" with
  | Some (31, 0) -> ()
  | _ -> Alcotest.fail "canonical decimal form must parse");
  (match L.Gallery.parse_swizzlex "swizzlex_m5_s12" with
  | Some (5, 12) -> ()
  | _ -> Alcotest.fail "multi-digit shift must parse");
  List.iter
    (fun name ->
      match L.Gallery.parse_swizzlex name with
      | None -> ()
      | Some (m, s) ->
        Alcotest.failf "%S must not parse (got mask %d shift %d)" name m s)
    [
      "swizzlex_m0x1f_s0" (* hex alias of m31 *);
      "swizzlex_m0o17_s0" (* octal *);
      "swizzlex_m0b101_s0" (* binary *);
      "swizzlex_m1_0_s0" (* underscore separator *);
      "swizzlex_m-1_s0" (* negative *);
      "swizzlex_m05_s0" (* leading zero *);
      "swizzlex_m3_s00" (* leading zero in shift *);
      "swizzlex_m_s0" (* empty mask *);
      "swizzlex_m3_s" (* empty shift *);
    ];
  (* The registry path agrees: aliases do not resolve to pieces. *)
  (match L.Gallery.lookup "swizzlex_m0x1f_s0" [ 128; 32 ] ~args:[] with
  | None -> ()
  | Some _ -> Alcotest.fail "hex alias must not resolve in the gallery");
  match L.Gallery.lookup "swizzlex_m1_0_s0" [ 128; 32 ] ~args:[] with
  | None -> ()
  | Some _ -> Alcotest.fail "underscore alias must not resolve in the gallery"

(* --- F2 closed form vs staged scoring and measured counters --------------- *)

let pow2_slots () =
  List.filter
    (fun (s : T.Slot.t) ->
      s.T.Slot.cols land (s.T.Slot.cols - 1) = 0 && s.T.Slot.cols > 1)
    (T.Slot.all ())

let slot_elem_bytes (slot : T.Slot.t) =
  List.fold_left
    (fun acc -> function
      | T.Predict.Shared { elem_bytes; _ } -> max acc elem_bytes
      | T.Predict.Global _ -> acc)
    1 slot.T.Slot.phases

let family_layouts (slot : T.Slot.t) =
  let rows = slot.T.Slot.rows and cols = slot.T.Slot.cols in
  List.map
    (fun (mask, shift) ->
      ( (mask, shift),
        prepend_swizzle ~mask ~shift (T.Slot.row_major ~rows ~cols) ~rows ~cols
      ))
    (T.Space.swizzle_family (T.Space.make ~rows ~cols ()))

let slot_classes (slot : T.Slot.t) =
  Reference.swizzle_classes ~rows:slot.T.Slot.rows ~cols:slot.T.Slot.cols
    ~elem_bytes:(slot_elem_bytes slot)

(* The closed-form score of an F₂-linear family member; every member
   is affine, so the closed form must engage (not be skipped). *)
let closed_form (slot : T.Slot.t) ((mask, shift), g) =
  match Reference.closed_form_score g slot.T.Slot.phases with
  | Some s -> s
  | None ->
    Alcotest.failf "%s m%d_s%d: not F2-linear" slot.T.Slot.name mask shift

(* Over the {e entire} masked-swizzle family of each power-of-two slot,
   the closed-form score must equal the staged address-level score bit
   for bit — the closed form is exact, not approximate. *)
let test_oracle_score_matches_compiled_full_family () =
  List.iter
    (fun (slot : T.Slot.t) ->
      let fam = family_layouts slot in
      List.iter
        (fun (((mask, shift), g) as m) ->
          let staged = T.Predict.score g slot.T.Slot.phases in
          let closed = closed_form slot m in
          if staged <> closed then
            Alcotest.failf "%s m%d_s%d: staged %s <> closed form %s"
              slot.T.Slot.name mask shift
              (Format.asprintf "%a" T.Predict.pp staged)
              (Format.asprintf "%a" T.Predict.pp closed))
        fam)
    (pow2_slots ())

(* The closed form's per-phase cycle counts, summed over the slot's phase
   list, must reproduce the measured simulator counters exactly: each
   slot kernel runs every predicted phase a fixed number of times (the
   warp-round multiplier, a structural constant of the kernel), so
   [simulated = k * predicted] with one integer [k] across the whole
   family — any per-member deviation would break the equality. *)
let test_oracle_matches_measured_counters () =
  List.iter
    (fun (slot : T.Slot.t) ->
      let fam = family_layouts slot in
      let k = ref 0 in
      List.iter
        (fun (((mask, shift), g) as m) ->
          let sc = closed_form slot m in
          let sim = slot.T.Slot.simulate ~fast:true g in
          let name = Printf.sprintf "%s m%d_s%d" slot.T.Slot.name mask shift in
          let acc = int_of_float sim.T.Slot.s_accesses in
          if acc mod sc.T.Predict.smem_accesses <> 0 then
            Alcotest.failf "%s: %d accesses not a multiple of predicted %d"
              name acc sc.T.Predict.smem_accesses;
          let k' = acc / sc.T.Predict.smem_accesses in
          if !k = 0 then k := k';
          Alcotest.(check int) (name ^ ": warp-round multiplier") !k k';
          Alcotest.(check int)
            (name ^ ": measured cycles = k * predicted")
            (!k * sc.T.Predict.smem_cycles)
            (int_of_float sim.T.Slot.s_cycles))
        fam;
      (* A Simt effect-handler subsample: the fast path is bit-identical
         by contract (and tested above), but pin a few members to the
         reference interpreter directly. *)
      List.iter
        (fun (((mask, shift), g) as m) ->
          if (mask, shift) = (0, 0) || (mask = 7 && shift = 2) then begin
            let sc = closed_form slot m in
            let sim = slot.T.Slot.simulate ~fast:false g in
            Alcotest.(check int)
              (Printf.sprintf "%s m%d_s%d: Simt cycles" slot.T.Slot.name mask
                 shift)
              (!k * sc.T.Predict.smem_cycles)
              (int_of_float sim.T.Slot.s_cycles)
          end)
        fam)
    (pow2_slots ())

(* --- F2 equivalence classes ------------------------------------------------ *)

let test_swizzle_classes_partition_and_cost_constancy () =
  List.iter
    (fun (slot : T.Slot.t) ->
      let fam = family_layouts slot in
      let classes = slot_classes slot in
      (* The classes partition the full family. *)
      let members =
        List.concat_map (fun c -> c.Reference.sw_members) classes
      in
      Alcotest.(check int)
        (slot.T.Slot.name ^ ": classes cover the family")
        (List.length fam) (List.length members);
      Alcotest.(check int)
        (slot.T.Slot.name ^ ": members are distinct")
        (List.length members)
        (List.length (List.sort_uniq compare members));
      (* The collapse is real: far fewer classes than members. *)
      Alcotest.(check bool)
        (slot.T.Slot.name ^ ": classes < family / 4")
        true
        (4 * List.length classes <= List.length fam);
      (* Every member of a class scores identically on the slot's phase
         list — the invariant that makes searching one representative
         per class complete. *)
      let score_of =
        let tbl = Hashtbl.create 256 in
        List.iter
          (fun ((ms, _) as m) ->
            let s = closed_form slot m in
            Hashtbl.add tbl ms (s.T.Predict.smem_cycles, s.T.Predict.gmem_txns))
          fam;
        Hashtbl.find tbl
      in
      List.iter
        (fun c ->
          let rep = score_of (c.Reference.sw_mask, c.Reference.sw_shift) in
          List.iter
            (fun m ->
              if score_of m <> rep then
                Alcotest.failf "%s: class (m%d,s%d) member (m%d,s%d) scores differently"
                  slot.T.Slot.name c.Reference.sw_mask c.Reference.sw_shift (fst m)
                  (snd m))
            c.Reference.sw_members)
        classes)
    (pow2_slots ())

(* --- Class-space coverage ---------------------------------------------- *)

(* The tuner's F₂ class mode searched one representative per non-trivial
   class ({!Reference.class_representatives}) prepended to every
   swizzle-free candidate of the default space.  It was deleted because
   the other modes cover it: on matmul and transpose the default
   search's winner simulates no slower than the best class
   representative over row-major, and every class-space candidate is in
   the [--scale] stream. *)
let test_oracle_search_class_space () =
  List.iter
    (fun ((slot : T.Slot.t), class_space) ->
      let rows = slot.T.Slot.rows and cols = slot.T.Slot.cols in
      let name = slot.T.Slot.name in
      let reps =
        Reference.class_representatives ~rows ~cols
          ~elem_bytes:(slot_elem_bytes slot)
      in
      let r =
        T.Tune.search
          ~options:{ T.Tune.default_options with jobs = 2; conform = false }
          slot
      in
      let w = r.T.Tune.winner in
      let wtime = (Option.get w.T.Tune.sim).T.Slot.time_s in
      let rm = T.Slot.row_major ~rows ~cols in
      let best =
        List.fold_left
          (fun acc (mask, shift) ->
            let g = prepend_swizzle ~mask ~shift rm ~rows ~cols in
            min acc (slot.T.Slot.simulate ~fast:true g).T.Slot.time_s)
          infinity reps
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: default winner %.3f us <= best class rep %.3f us"
           name (wtime *. 1e6) (best *. 1e6))
        true (wtime <= best);
      Alcotest.(check bool)
        (name ^ ": winner static score = closed form")
        true
        (Some w.T.Tune.static_score
        = Reference.closed_form_score w.T.Tune.layout slot.T.Slot.phases);
      (* The class space: the default space's unswizzled candidates,
         plus every representative over every swizzle-free one. *)
      let default = T.Space.closure (T.Space.make ~rows ~cols ()) in
      let unswizzled =
        List.filter
          (fun g ->
            not
              (String.starts_with ~prefix:"OrderBy2(GenP(swizzlex"
                 (T.Fingerprint.of_layout g)))
          default
      in
      let classes = Hashtbl.create 4096 in
      let add g = Hashtbl.replace classes (T.Fingerprint.digest g) g in
      List.iter add unswizzled;
      List.iter
        (fun base ->
          if not (T.Space.has_gen base) then
            List.iter
              (fun (mask, shift) ->
                add (prepend_swizzle ~mask ~shift base ~rows ~cols))
              reps)
        unswizzled;
      Alcotest.(check int) (name ^ ": class space size") class_space
        (Hashtbl.length classes);
      let scale = Hashtbl.create (1 lsl 16) in
      Seq.iter
        (fun g -> Hashtbl.replace scale (T.Fingerprint.digest g) ())
        (T.Space.stream (T.Space.make ~scale:true ~rows ~cols ()));
      Hashtbl.iter
        (fun d g ->
          if not (Hashtbl.mem scale d) then
            Alcotest.failf "%s: class-space candidate %s not in --scale" name
              (T.Fingerprint.of_layout g))
        classes)
    [ (T.Slot.matmul_smem (), 3725); (T.Slot.transpose_smem (), 2117) ]

(* --- Direct printers and pinned store keys --------------------------------- *)

let slot_space ?(scale = false) ?(composed = false) ?(seed = 0)
    (slot : T.Slot.t) =
  T.Space.make ~seed ~scale ~composed ~rows:slot.T.Slot.rows
    ~cols:slot.T.Slot.cols ()

(* The Buffer printers must reproduce the Format printers they replaced
   byte for byte: fingerprints are the ranking tie-break, the dedup key
   and the store key.  Inputs: every slot's default, --scale and
   --composed streams, plus the seed-7 random and algebra layouts.  The
   text {!Space.candidates} hands out with each candidate (assembled
   from its stages' texts) must be the printed layout too. *)
let test_printers_match_format_reference () =
  let check ?text what g =
    let want = Reference.group_by_to_string g in
    List.iter
      (fun (how, got) ->
        if got <> want then
          Alcotest.failf "%s: %s %S, reference %S" what how got want)
      (("printed", L.Group_by.to_string g)
      :: Option.to_list (Option.map (fun t -> ("candidate text", t)) text))
  in
  List.iter
    (fun (slot : T.Slot.t) ->
      List.iter
        (fun (mode, sp) ->
          Seq.iter
            (fun (g, text) -> check ~text (slot.T.Slot.name ^ " " ^ mode) g)
            (T.Space.candidates sp))
        [
          ("default", slot_space slot);
          ("--scale", slot_space ~scale:true slot);
          ("--composed", slot_space ~composed:true slot);
        ])
    (T.Slot.all ());
  let module Lgen = Lego_conform.Lgen in
  let lgen =
    List.init 2000 (fun index -> Lgen.layout_of_seed ~seed:7 ~index)
    @ List.init 300 (fun index -> Lgen.algebra_layout_of_seed ~seed:7 ~index)
  in
  List.iter
    (fun g ->
      check "lgen seed 7" g;
      List.iter
        (fun o ->
          Alcotest.(check string)
            "OrderBy text" (Reference.order_by_to_string o)
            (L.Order_by.to_string o);
          List.iter
            (fun p ->
              Alcotest.(check string)
                "piece text" (Reference.piece_to_string p)
                (L.Piece.to_string p))
            (L.Order_by.pieces o))
        (L.Group_by.chain g))
    lgen

(* Store keys are MD5s of the printed text; any byte change to the
   printer must fail here (and bump the store version), never silently
   orphan a store. *)
let test_fingerprint_digest_pinned () =
  let swizzled =
    prepend_swizzle ~mask:31 ~shift:0
      (T.Slot.row_major ~rows:128 ~cols:32)
      ~rows:128 ~cols:32
  in
  let tiled =
    L.Group_by.make
      ~chain:
        (L.Sugar.tile_order_by
           [
             L.Piece.reg ~dims:[ 4; 8 ] ~sigma:(L.Sigma.of_list [ 1; 0 ]);
             L.Piece.reg ~dims:[ 8; 4 ] ~sigma:(L.Sigma.identity 2);
           ])
      [ [ 32; 32 ] ]
  in
  List.iter
    (fun (g, text, hex) ->
      Alcotest.(check string) "fingerprint" text (T.Fingerprint.of_layout g);
      Alcotest.(check string)
        "digest" hex
        (Digest.to_hex (T.Fingerprint.digest g)))
    [
      ( swizzled,
        "OrderBy2(GenP(swizzlex_m31_s0[128, 32])).OrderBy2(RegP([128, 32], \
         [1, 2])).GroupBy2([128, 32])",
        "37ed2302cd04d55b04f93bfc4a01f0f4" );
      ( tiled,
        "OrderBy2(RegP([4, 8], [2, 1]), RegP([8, 4], [1, \
         2])).OrderBy4(RegP([4, 8, 8, 4], [1, 3, 2, 4])).GroupBy2([32, 32])",
        "72652944be4b7492cda11fa728807ef2" );
    ]

(* --- Staged static scoring ------------------------------------------------- *)

(* Regression: the phase precomputation counts global transactions with
   the device's segment size, but its cache was keyed on the phase list,
   warp size and dims only — so a score under a 128-byte-segment device
   was replayed for the 32-byte A100. *)
let test_precomp_keyed_on_device () =
  let module G = Lego_gpusim in
  let g = T.Slot.row_major ~rows:32 ~cols:32 in
  let phases =
    [ T.Predict.Global { elem_bytes = 4; addrs = (fun t -> Some (4 * t)) } ]
  in
  let addrs = List.init 32 (fun t -> 4 * t) in
  let wide = { G.Device.a100 with global_txn_bytes = 128 } in
  List.iter
    (fun device ->
      Alcotest.(check int)
        (Printf.sprintf "%d-byte segments" device.G.Device.global_txn_bytes)
        (T.Predict.txn_count device ~elem_bytes:4 addrs)
        (T.Predict.score ~device ~ops:0 g phases).T.Predict.gmem_txns)
    [ wide; G.Device.a100; wide ];
  (* A preparation is for one shape: its indices are flattened with its
     dims, so a layout of other dims is rejected, not mis-scored. *)
  Alcotest.(check bool) "a 16x16 layout on a 32x32 preparation" true
    (match
       T.Predict.step
         (T.Predict.prepare ~dims:[ 32; 32 ] phases)
         (T.Slot.row_major ~rows:16 ~cols:16)
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* {!Predict.score} is a per-candidate step (op count and F₂ map, kept
   for the chain tail in a one-entry memo) and a per-map evaluation
   read off the bit-matrix.  It must score every candidate exactly as
   the interpreter does — in stream order, where the tail memo hits on
   almost every candidate, and in a seeded shuffle, where consecutive
   candidates rarely share a tail and it misses; then alternating with
   diagonal sweeps (other indices in another order) on candidates that
   share a tail, where a preparation cached without its phase list in
   the key would serve the first list's indices.  The interpreter costs ~4 ms a
   candidate, so its reference scores are computed on two domains. *)
let test_staged_score_matches_interpreter () =
  let slot = T.Slot.transpose_smem () in
  let phases = slot.T.Slot.phases in
  let cands =
    Array.of_seq (Seq.take 3000 (T.Space.stream (slot_space ~scale:true slot)))
  in
  let interpret phases cands =
    Lego_exec.Exec.with_pool ~jobs:2 (fun pool ->
        Lego_exec.Exec.map ~pool cands (fun g ->
            Reference.interpret_score ~ops:0 g phases))
  in
  let interp = interpret phases cands in
  let check order =
    Array.iter
      (fun i ->
        let got = T.Predict.score ~memoize:false ~ops:0 cands.(i) phases in
        if got <> interp.(i) then
          Alcotest.failf "%s: staged %s <> interpreted %s"
            (T.Fingerprint.of_layout cands.(i))
            (Format.asprintf "%a" T.Predict.pp got)
            (Format.asprintf "%a" T.Predict.pp interp.(i)))
      order
  in
  let order = Array.init (Array.length cands) Fun.id in
  check order;
  let st = Random.State.make [| 14 |] in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  check order;
  let diagonal =
    List.init 32 (fun d ->
        T.Predict.Shared
          { elem_bytes = 4; lanes = (fun t -> Some [ t; (t + d) mod 32 ]) })
  in
  let first = 1100 in
  let window = Array.sub cands first 200 in
  let interp_diagonal = interpret diagonal window in
  Array.iteri
    (fun k g ->
      Alcotest.(check bool)
        (T.Fingerprint.of_layout g ^ ": alternating phase lists")
        true
        (T.Predict.score ~ops:0 g diagonal = interp_diagonal.(k)
        && T.Predict.score ~ops:0 g phases = interp.(first + k)))
    window

(* --- The search's F₂ map table: the memory part of a score, by map ------ *)

let check_score what (want : T.Predict.score) (got : T.Predict.score) =
  if got <> want then
    Alcotest.failf "%s: scored %s (%d accesses), reference %s (%d accesses)"
      what
      (Format.asprintf "%a" T.Predict.pp got)
      got.T.Predict.smem_accesses
      (Format.asprintf "%a" T.Predict.pp want)
      want.T.Predict.smem_accesses

let with_fingerprints gs =
  Array.map (fun g -> (g, T.Fingerprint.of_layout g)) gs

(* Feeds [chunks] of [(layout, fingerprint)] candidates, in order, to
   one static pass on [slot], the way {!T.Tune.search} feeds its stream;
   returns the pass and every candidate's static score in order. *)
let static_pass ?(jobs = 1) slot chunks =
  let static = T.Tune.Static.create slot in
  let scores =
    Lego_exec.Exec.with_pool ~jobs (fun pool ->
        List.map (T.Tune.Static.score ~pool static) chunks)
  in
  ( static,
    Array.map (fun sc -> sc.T.Tune.static_score) (Array.concat scores) )

(* [xs] in consecutive chunks of [n] (the search's chunking). *)
let chunks_of n xs =
  let len = Array.length xs in
  List.init
    ((len + n - 1) / n)
    (fun k -> Array.sub xs (k * n) (min n (len - (k * n))))

(* Each search keeps its own map table on its slot's device.  Neither
   the map nor the phase indices depend on bank geometry, so a table
   shared across devices would replay the A100's cycles for a 16-bank
   device ({!Fastpath}'s summary cache once mixed devices the same way).
   Tables on alternating devices must each score as the interpreter does
   on their own device. *)
let test_map_memo_keyed_on_bank_geometry () =
  let module G = Lego_gpusim in
  let g =
    prepend_swizzle ~mask:31 ~shift:0
      (T.Slot.row_major ~rows:32 ~cols:32)
      ~rows:32 ~cols:32
  in
  let banks16 = { G.Device.a100 with smem_banks = 16 } in
  let want (slot : T.Slot.t) =
    Reference.interpret_score ~device:slot.T.Slot.device g slot.T.Slot.phases
  in
  Alcotest.(check bool) "the two geometries score differently" true
    (want (T.Slot.transpose_smem ())
    <> want (T.Slot.transpose_smem ~device:banks16 ()));
  List.iter
    (fun device ->
      let slot = T.Slot.transpose_smem ~device () in
      let static, scores = static_pass slot [ with_fingerprints [| g |] ] in
      Alcotest.(check int) "one map" 1 (T.Tune.Static.maps static);
      check_score
        (Printf.sprintf "%d banks" device.G.Device.smem_banks)
        (want slot) scores.(0))
    [ G.Device.a100; banks16; G.Device.a100 ]

(* Two texts of one map: the swizzle's top mask bit shifts past the
   32 rows, so m19 and m3 are one piece matrix over the same tiling,
   but the printed stages differ and so do their op counts.  Each order
   starts from an empty table, in one chunk (the second text is found
   in the scan) and in two (it hits the first chunk's entry): the map
   is evaluated once, the memory fields agree with the interpreter and
   each text keeps its own ops. *)
let test_map_memo_keeps_ops_per_text () =
  let slot = T.Slot.transpose_smem () in
  let layout mask =
    let text =
      Printf.sprintf
        "OrderBy2(GenP(swizzlex_m%d_s1[32, 32])).OrderBy2(RegP([16, 16], [1, \
         2]), RegP([2, 2], [1, 2])).OrderBy4(RegP([16, 2, 16, 2], [1, 3, 2, \
         4])).GroupBy2([32, 32])"
        mask
    in
    match Lego_lang.Elab.layout_of_string text with
    | Ok g -> g
    | Error e -> Alcotest.failf "%S: %s" text e
  in
  let a = layout 19 and b = layout 3 in
  Alcotest.(check bool) "one F2 map" true
    (match (Lego_f2.Linear.of_layout a, Lego_f2.Linear.of_layout b) with
    | Some la, Some lb -> Lego_f2.Linear.equal la lb
    | _ -> false);
  Alcotest.(check (pair int int)) "per-text op counts" (142, 148)
    (T.Predict.decomposed_ops a, T.Predict.decomposed_ops b);
  let want = Reference.interpret_score ~ops:0 a slot.T.Slot.phases in
  List.iter
    (fun (what, order, split) ->
      let cands =
        with_fingerprints (Array.of_list (List.map (fun (_, g, _) -> g) order))
      in
      let static, scores =
        static_pass slot
          (if split then [ [| cands.(0) |]; [| cands.(1) |] ] else [ cands ])
      in
      List.iteri
        (fun i (name, _, ops) ->
          check_score (what ^ ": " ^ name) { want with ops } scores.(i))
        order;
      Alcotest.(check (pair int int))
        (what ^ ": one map, one evaluation") (1, 1)
        (T.Tune.Static.maps static, T.Tune.Static.evaluations static))
    [
      ("one chunk", [ ("m19", a, 142); ("m3", b, 148) ], false);
      ("one chunk, reversed", [ ("m3", b, 148); ("m19", a, 142) ], false);
      ("two chunks", [ ("m19", a, 142); ("m3", b, 148) ], true);
      ("two chunks, reversed", [ ("m3", b, 148); ("m19", a, 142) ], true);
    ]

(* Every table hit must be exact.  The whole transpose --scale stream
   goes through one static pass in the search's chunks at -j 2.  Every
   F₂-linear candidate's score must equal
   {!Reference.closed_form_score}, which reads a candidate only through
   its map and its op count, so it is computed once per distinct map;
   every op count must be the sum of its stages' counts, each taken
   alone; and a seeded sample of candidates whose map was first
   evaluated under another text must equal the interpreter (~4 ms
   each, so the references run on two domains).  The pass evaluates
   memory once per distinct map and once per non-linear candidate. *)
let test_map_memo_hits_are_exact () =
  let module F2 = Lego_f2 in
  let slot = T.Slot.transpose_smem () in
  let fps = Array.of_seq (T.Space.candidates (slot_space ~scale:true slot)) in
  let cands = Array.map fst fps in
  let static, scores = static_pass ~jobs:2 slot (chunks_of 8192 fps) in
  let stage_sum g =
    List.fold_left
      (fun acc o ->
        acc
        + T.Predict.decomposed_ops
            (L.Group_by.make ~chain:[ o ] [ [ L.Order_by.numel o ] ]))
      0 (L.Group_by.chain g)
  in
  let key lin =
    ( F2.Linear.const lin,
      List.init (F2.Linear.bits lin) (F2.Bitmat.col (F2.Linear.mat lin)) )
  in
  let first = Hashtbl.create 16384 in
  let map_of = Array.make (Array.length cands) (-1) in
  let repeats = ref [] and reps = ref [] and nonlinear = ref 0 in
  Array.iteri
    (fun i g ->
      match F2.Linear.of_layout g with
      | None -> incr nonlinear
      | Some lin -> (
        let k = key lin in
        match Hashtbl.find_opt first k with
        | Some r ->
          map_of.(i) <- r;
          repeats := i :: !repeats
        | None ->
          let r = List.length !reps in
          Hashtbl.add first k r;
          map_of.(i) <- r;
          reps := i :: !reps))
    cands;
  let reps = Array.of_list (List.rev !reps) in
  Alcotest.(check (pair int int))
    "distinct maps, non-linear candidates" (9398, 3)
    (Array.length reps, !nonlinear);
  Alcotest.(check int) "table size" (Array.length reps)
    (T.Tune.Static.maps static);
  Alcotest.(check int) "memory evaluations = maps + non-linear"
    (Array.length reps + !nonlinear)
    (T.Tune.Static.evaluations static);
  let st = Random.State.make [| 17 |] in
  let sample =
    Array.of_list
      (take_k 256
         (List.map snd
            (List.sort compare
               (List.map (fun i -> (Random.State.bits st, i)) !repeats))))
  in
  let closed, interp =
    Lego_exec.Exec.with_pool ~jobs:2 (fun pool ->
        ( Lego_exec.Exec.map ~pool reps (fun i ->
              Option.get
                (Reference.closed_form_score ~ops:0 cands.(i)
                   slot.T.Slot.phases)),
          Lego_exec.Exec.map ~pool sample (fun i ->
              Reference.interpret_score ~ops:0 cands.(i) slot.T.Slot.phases) ))
  in
  Alcotest.(check int) "sampled repeats" 256 (Array.length sample);
  Array.iteri
    (fun i g ->
      let what = snd fps.(i) in
      Alcotest.(check int) (what ^ ": ops") (stage_sum g) scores.(i).T.Predict.ops;
      if map_of.(i) >= 0 then
        check_score (what ^ ": closed form")
          { (closed.(map_of.(i))) with ops = scores.(i).T.Predict.ops }
          scores.(i))
    cands;
  Array.iteri
    (fun k i ->
      check_score
        (snd fps.(i) ^ ": interpreter")
        { (interp.(k)) with ops = scores.(i).T.Predict.ops }
        scores.(i))
    sample

(* Translation classes are exact: {!Predict.memory} of any affine map
   equals the count over every phase through [Access], the test
   oracle's phase fold.  Maps are 4 to 12 bits wide with random columns
   and constants.  A phase list mixes XOR-translates of one offset set
   with unrelated phases; lanes may be inactive or repeat an index.
   Widths are 1, 2, 4, 8 and 6 bytes, mostly one per list so that
   translates meet, and the device is the A100 or one whose bank count
   or bank width is not a power of two.  The class count must be the
   number of distinct (width, lane-offset vector) keys when the width
   and the bank geometry are powers of two, and one per active phase
   otherwise. *)
let prop_translation_classes_exact =
  let module G = Lego_gpusim in
  let module F2 = Lego_f2 in
  let devices =
    [|
      G.Device.a100;
      { G.Device.a100 with smem_banks = 24 };
      { G.Device.a100 with smem_bank_bytes = 6 };
    |]
  in
  let widths = [ 1; 2; 4; 8; 6 ] in
  let pow2 x = x land (x - 1) = 0 in
  QCheck2.Test.make ~name:"memory per class = count per phase" ~count:300
    ~print:(fun (lin, dev, phases) ->
      Format.asprintf "%a on device %d, phases %s" F2.Linear.pp lin dev
        (String.concat "; "
           (List.map
              (fun (elem, lanes) ->
                Printf.sprintf "%d:[%s]" elem
                  (String.concat ","
                     (List.map
                        (function None -> "-" | Some x -> string_of_int x)
                        lanes)))
              phases)))
    QCheck2.Gen.(
      int_range 4 12 >>= fun bits ->
      let top = (1 lsl bits) - 1 in
      list_repeat bits (int_bound top) >>= fun cols ->
      int_bound top >>= fun c ->
      int_bound (Array.length devices - 1) >>= fun dev ->
      oneofl widths >>= fun main ->
      let lane =
        frequency
          [
            (1, return None);
            (1, map Option.some (int_bound 3));
            (6, map Option.some (int_bound top));
          ]
      in
      list_repeat 32 lane >>= fun offsets ->
      let phase =
        frequency [ (3, return main); (1, oneofl widths) ] >>= fun elem ->
        frequency
          [
            ( 3,
              int_bound top >|= fun d ->
              List.map (Option.map (fun o -> o lxor d)) offsets );
            (1, list_repeat 32 lane);
          ]
        >|= fun lanes -> (elem, lanes)
      in
      list_size (int_range 1 12) phase >|= fun phases ->
      ( F2.Linear.make ~bits ~mat:(F2.Bitmat.of_cols ~rows:bits cols) ~c,
        dev,
        phases ))
    (fun (lin, dev, phases) ->
      let device = devices.(dev) in
      let preds =
        List.map
          (fun (elem_bytes, lanes) ->
            let lanes = Array.of_list lanes in
            T.Predict.Shared
              {
                elem_bytes;
                lanes = (fun t -> Option.map (fun x -> [ x ]) lanes.(t));
              })
          phases
      in
      let prep =
        T.Predict.prepare ~device ~dims:[ 1 lsl F2.Linear.bits lin ] preds
      in
      let want =
        Reference.fold_phases ~device ~ops:0 preds
          ~shared:(fun ~elem_bytes idxs ->
            G.Access.bank_cycles device ~elem_bytes
              (List.map (fun idx -> F2.Linear.apply lin (List.hd idx)) idxs))
          ~global:(fun ~elem_bytes:_ _ -> assert false)
      in
      let geometry =
        pow2 device.G.Device.smem_banks && pow2 device.G.Device.smem_bank_bytes
      in
      let keys = Hashtbl.create 16 in
      List.iteri
        (fun i (elem, lanes) ->
          match List.filter_map Fun.id lanes with
          | [] -> ()
          | x0 :: _ as xs ->
            Hashtbl.replace keys
              (if geometry && pow2 elem then
                 `Translates (elem, List.map (fun x -> x lxor x0) xs)
               else `Alone i)
              ())
        phases;
      T.Predict.memory prep lin = want
      && T.Predict.classes prep = Hashtbl.length keys)

(* A new map costs one point evaluation per index of its translation
   classes' representatives and one bank count per class.  On the
   matmul and transpose slots the 32 row sweeps are translates of one
   another, and so are the 32 column sweeps: 2 classes over 63 points
   (the two representatives share index 0), where the 64 phases touch
   1,024 indices.  nw's 8 wavefront phases fall into 5 classes.  Under
   a 24-bank device nothing is grouped. *)
let test_phase_classes_pinned () =
  let banks24 = { Lego_gpusim.Device.a100 with smem_banks = 24 } in
  List.iter
    (fun ((slot : T.Slot.t), want) ->
      let prep =
        T.Predict.prepare ~device:slot.T.Slot.device
          ~dims:[ slot.T.Slot.rows; slot.T.Slot.cols ]
          slot.T.Slot.phases
      in
      let phases =
        (T.Predict.score ~device:slot.T.Slot.device ~ops:0
           (T.Slot.row_major ~rows:slot.T.Slot.rows ~cols:slot.T.Slot.cols)
           slot.T.Slot.phases)
          .T.Predict.smem_phases
      in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "%s on %d banks: phases, classes, points"
           slot.T.Slot.name slot.T.Slot.device.Lego_gpusim.Device.smem_banks)
        want
        (phases, T.Predict.classes prep, Array.length (T.Predict.indices prep)))
    [
      (T.Slot.matmul_smem (), (64, 2, 63));
      (T.Slot.transpose_smem (), (64, 2, 63));
      (T.Slot.nw_smem (), (8, 5, 51));
      (T.Slot.matmul_smem ~device:banks24 (), (64, 64, 1024));
    ]

(* The per-map step reads a map's values off its bit-matrix, and a
   candidate's score is right only if its map equals the candidate
   wherever the slot's phases read, not only at the translation classes'
   representatives.  At every flat index of the slot (the 64 phases of
   matmul and transpose touch all 1,024) the map must equal the compiled
   closures, for the map {!Predict.step} builds (the outer stage's after
   the tail's), on every linear candidate of the matmul and transpose
   default and --composed spaces and on a seeded 2,000-candidate sample
   of each --scale stream (out of stream order, so the tail memo
   misses).  A candidate is scored directly exactly when it has no F₂
   form. *)
let test_map_values_match_compiled () =
  List.iter
    (fun (slot : T.Slot.t) ->
      let prep =
        T.Predict.prepare ~device:slot.T.Slot.device
          ~dims:[ slot.T.Slot.rows; slot.T.Slot.cols ]
          slot.T.Slot.phases
      in
      let numel = slot.T.Slot.rows * slot.T.Slot.cols in
      let linear g =
        match (T.Predict.step prep g, Lego_f2.Linear.of_layout g) with
        | T.Predict.Scored _, None -> false
        | T.Predict.Map { map; _ }, Some lin ->
          let what = T.Fingerprint.of_layout g in
          if not (Lego_f2.Linear.equal map lin) then
            Alcotest.failf "%s: step map <> Linear.of_layout" what;
          let c = T.Compiled.compile g in
          for x = 0 to numel - 1 do
            let want = T.Compiled.apply_flat c x
            and got = Lego_f2.Linear.apply map x in
            if got <> want then
              Alcotest.failf "%s at %d: compiled %d, bit-matrix %d" what x want
                got
          done;
          true
        | _ ->
          Alcotest.failf "%s: step and Linear.of_layout disagree on linearity"
            (T.Fingerprint.of_layout g)
      in
      let count what gs =
        let n = Seq.fold_left (fun n g -> if linear g then n + 1 else n) 0 gs in
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: %d linear candidates" slot.T.Slot.name what n)
          true (n > 500)
      in
      count "default" (T.Space.stream (slot_space slot));
      count "--composed" (T.Space.stream (slot_space ~composed:true slot));
      let scale = Array.of_seq (T.Space.stream (slot_space ~scale:true slot)) in
      let st = Random.State.make [| 22 |] in
      let order = Array.map (fun g -> (Random.State.bits st, g)) scale in
      Array.stable_sort (fun (a, _) (b, _) -> compare a b) order;
      count "--scale sample"
        (Seq.map snd (Seq.take 2000 (Array.to_seq order))))
    [ T.Slot.matmul_smem (); T.Slot.transpose_smem () ]

(* Drains the whole 57,725-candidate space: each -j splits the
   per-candidate and per-map steps differently between domains, and
   none may change a result. *)
let test_scale_search_deterministic_across_jobs () =
  let slot = T.Slot.transpose_smem () in
  let opts jobs =
    { (search_opts jobs) with budget = 250_000; scale = true; seed = 2 }
  in
  let r1 = T.Tune.search ~options:(opts 1) slot in
  let r2 = T.Tune.search ~options:(opts 2) slot in
  Alcotest.(check bool) "-j1 = -j2 (winner, top-K, counters)" true
    (result_key r1 = result_key r2)

(* The per-candidate step's tail memo holds only the chain tail's F₂
   map and op sum, keyed on the tail's physical identity; its hit rate
   rests on stream order: a base is followed by its whole swizzle grid,
   so consecutive candidates share their chain tail physically.  A
   space change that interleaves bases must fail here rather than
   silently recompute every tail. *)
let test_scale_stream_tail_locality () =
  let slot = T.Slot.transpose_smem () in
  List.iter
    (fun seed ->
      let tail g =
        match L.Group_by.chain g with [] -> [] | _ :: rest -> rest
      in
      let pairs = ref 0 and shared = ref 0 and prev = ref None in
      Seq.iter
        (fun g ->
          let t = tail g in
          (match !prev with
          | Some p ->
            incr pairs;
            if p == t then incr shared
          | None -> ());
          prev := Some t)
        (T.Space.stream (slot_space ~scale:true ~seed slot));
      let ratio = float_of_int !shared /. float_of_int !pairs in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: %d of %d pairs share a tail (%.3f >= 0.95)"
           seed !shared !pairs ratio)
        true (ratio >= 0.95))
    [ 0; 5 ]

(* A traversal builds each swizzle stage once and prepends that one
   object to every base: over the transpose --scale stream, the outer
   swizzle stages are exactly one physical object per (mask, shift)
   pair the space uses (every mask >= 1 with shifts 0..4).  A [Space]
   change that rebuilds stages per base fails here. *)
let test_swizzle_stages_shared () =
  let slot = T.Slot.transpose_smem () in
  List.iter
    (fun seed ->
      let stages = Hashtbl.create 256 in
      Seq.iter
        (fun g ->
          match L.Group_by.chain g with
          | o :: _ -> (
            match L.Order_by.pieces o with
            | [ L.Piece.Gen { name; _ } ] -> (
              match L.Gallery.parse_swizzlex name with
              | Some pair ->
                let seen =
                  Option.value ~default:[] (Hashtbl.find_opt stages pair)
                in
                if not (List.memq o seen) then
                  Hashtbl.replace stages pair (o :: seen)
              | None -> ())
            | _ -> ())
          | [] -> ())
        (T.Space.stream (slot_space ~scale:true ~seed slot));
      Alcotest.(check int)
        (Printf.sprintf "seed %d: (mask, shift) pairs" seed)
        (31 * 5) (Hashtbl.length stages);
      Hashtbl.iter
        (fun (mask, shift) objs ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d: m%d_s%d stage objects" seed mask shift)
            1 (List.length objs))
        stages)
    [ 0; 5 ]

(* --- Rankings and map counts pinned across the map-first static pass ---- *)

(* Every finalist's fingerprint, five static fields and four sim fields
   (floats in hex), one line each, as one MD5. *)
let ranking_digest (r : T.Tune.result) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (sc : T.Tune.scored) ->
      let s = sc.T.Tune.static_score and m = Option.get sc.T.Tune.sim in
      Printf.bprintf buf "%s %d %d %d %d %d %h %h %h %h\n" sc.T.Tune.fingerprint
        s.T.Predict.smem_phases s.T.Predict.smem_accesses
        s.T.Predict.smem_cycles s.T.Predict.gmem_txns s.T.Predict.ops
        m.T.Slot.time_s m.T.Slot.s_accesses m.T.Slot.s_cycles m.T.Slot.g_txns)
    r.T.Tune.ranking;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Computed before the map-first static pass, when each domain scored
   through its own F₂ memo over staged compiled closures: the map
   table must reproduce every ranking bit for bit, at seeds 0 and 3
   and at -j 1 and -j 2.  A drained space ranks the same at every
   seed; a budget-truncated one ranks its seed's prefix. *)
let test_rankings_pinned () =
  List.iter
    (fun (name, scale, budget, explored, digests) ->
      let slot = Option.get (T.Slot.find name) in
      List.iter
        (fun (seed, md5) ->
          List.iter
            (fun jobs ->
              let r =
                T.Tune.search
                  ~options:
                    {
                      T.Tune.default_options with
                      budget;
                      scale;
                      seed;
                      jobs;
                      conform = false;
                    }
                  slot
              in
              let what =
                Printf.sprintf "%s scale %b budget %d seed %d -j %d" name scale
                  budget seed jobs
              in
              Alcotest.(check int) (what ^ ": explored") explored r.T.Tune.explored;
              Alcotest.(check string) (what ^ ": ranking") md5 (ranking_digest r))
            [ 1; 2 ])
        digests)
    [
      ( "transpose", true, 250_000, 57_725,
        [ (0, "aafc700a6e9cee335b00e5ebe560bb6e");
          (3, "aafc700a6e9cee335b00e5ebe560bb6e") ] );
      ( "matmul", true, 250_000, 182_685,
        [ (0, "18587f82c77db7c4dd5d7cbee576d42c");
          (3, "18587f82c77db7c4dd5d7cbee576d42c") ] );
      ( "matmul", false, 1_000_000, 1569,
        [ (0, "0e86a76f1494e38c57e1ec0d5cb92e4e");
          (3, "0e86a76f1494e38c57e1ec0d5cb92e4e") ] );
      ( "transpose", false, 1_000_000, 1061,
        [ (0, "27c2e5365944265d7a97a7ec1daec4df");
          (3, "27c2e5365944265d7a97a7ec1daec4df") ] );
      ( "nw", false, 1_000_000, 5,
        [ (0, "36667417b42114ed88d58aad2b65f1bf");
          (3, "36667417b42114ed88d58aad2b65f1bf") ] );
      ( "matmul", false, 256, 256,
        [ (0, "90cb68023c9dada27b364ba0e33bc8d7");
          (3, "86a0328ac5746a8db63baada95bc5416") ] );
      ( "transpose", false, 256, 256,
        [ (0, "16b006b1fc978f1f8d585125499f590b");
          (3, "05756c5b2af7757a2e701ef98f9e591e") ] );
    ]

(* [maps] counts the distinct F₂ maps among the explored candidates, at
   any -j, and [pp_result] prints it after the explored count.  Each
   pin is checked against a count of distinct [Linear.of_layout] maps
   over the drained stream. *)
let test_result_reports_distinct_maps () =
  let own_count sp =
    let seen = Hashtbl.create 4096 in
    Seq.iter
      (fun g ->
        match Lego_f2.Linear.of_layout g with
        | Some lin ->
          Hashtbl.replace seen
            ( Lego_f2.Linear.const lin,
              List.init (Lego_f2.Linear.bits lin)
                (Lego_f2.Bitmat.col (Lego_f2.Linear.mat lin)) )
            ()
        | None -> ())
      (T.Space.stream sp);
    Hashtbl.length seen
  in
  List.iter
    (fun (slot, scale, jobs, maps) ->
      let name = slot.T.Slot.name in
      Alcotest.(check int)
        (Printf.sprintf "%s scale %b: distinct maps" name scale)
        maps
        (own_count (slot_space ~scale slot));
      List.iter
        (fun jobs ->
          let r =
            T.Tune.search
              ~options:
                {
                  T.Tune.default_options with
                  budget = 1_000_000;
                  scale;
                  jobs;
                  conform = false;
                }
              slot
          in
          let what = Printf.sprintf "%s scale %b -j %d" name scale jobs in
          Alcotest.(check bool) (what ^ ": drained") true r.T.Tune.exhaustive;
          Alcotest.(check int) (what ^ ": maps") maps r.T.Tune.maps;
          let line =
            Printf.sprintf
              "explored %d of %d candidates (exhaustive), %d distinct F₂ maps, \
               simulated %d,"
              r.T.Tune.explored r.T.Tune.explored maps
              (List.length r.T.Tune.ranking)
          in
          let out = Format.asprintf "%a" T.Tune.pp_result r in
          Alcotest.(check bool)
            (Printf.sprintf "%s: report has %S:\n%s" what line out)
            true
            (Str.string_match (Str.regexp_string line)
               out
               (String.index out '\n' + 1)))
        jobs)
    [
      (T.Slot.transpose_smem (), true, [ 1; 2 ], 9398);
      (T.Slot.matmul_smem (), false, [ 1 ], 961);
      (T.Slot.transpose_smem (), false, [ 1 ], 548);
      (T.Slot.nw_smem (), false, [ 1 ], 0);
    ]

(* --- legoc CLI overview ---------------------------------------------------- *)

let legoc_exe =
  (* Robust under both `dune runtest` (cwd = test dir) and `dune exec`
     (cwd = workspace root): the built binary sits next to this test in
     the build tree. *)
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/legoc.exe"

let run_legoc args =
  let cmd = Filename.quote_command legoc_exe args in
  let ic = Unix.open_process_in (cmd ^ " 2>&1") in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Buffer.contents buf)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_cli_overview_lists_subcommands () =
  List.iter
    (fun args ->
      let status, out = run_legoc args in
      Alcotest.(check bool)
        (Printf.sprintf "legoc %s exits 0" (String.concat " " args))
        true
        (status = Unix.WEXITED 0);
      List.iter
        (fun sub ->
          Alcotest.(check bool)
            (Printf.sprintf "legoc %s mentions %S" (String.concat " " args) sub)
            true (contains out sub))
        [ "conform"; "tune"; "serve"; "client"; "fingerprint"; "LAYOUT" ])
    [ []; [ "--help" ] ]

(* Regression: under --scale, a --budget equal to the default 256 read
   as "no budget given" and drained the whole 57,725-candidate
   transpose space. *)
let test_cli_scale_explicit_budget () =
  let status, out =
    run_legoc
      [ "tune"; "transpose"; "--scale"; "--budget"; "256"; "--no-conform"; "-j"; "1" ]
  in
  Alcotest.(check bool) "legoc tune exits 0" true (status = Unix.WEXITED 0);
  Alcotest.(check bool)
    (Printf.sprintf "explores exactly the budget:\n%s" out)
    true
    (contains out "explored 256 of")

(* Regression: [--top 0] and [--budget 0] reached [Tune.search]'s
   [Invalid_argument] and exited 125 with "internal error, uncaught
   exception". *)
let test_cli_rejects_non_positive_top_and_budget () =
  List.iter
    (fun flag ->
      let status, out =
        run_legoc [ "tune"; "nw"; flag; "0"; "--no-conform"; "-j"; "1" ]
      in
      let msg = Printf.sprintf "error: %s must be >= 1" flag in
      Alcotest.(check bool) (flag ^ " 0 exits 2") true (status = Unix.WEXITED 2);
      Alcotest.(check bool)
        (Printf.sprintf "%s 0 prints %S:\n%s" flag msg out)
        true (contains out msg))
    [ "--top"; "--budget" ]

(* F₂ class mode is gone: [--oracle] is an unknown option, a usage
   error (cmdliner's exit code 124), not a silent default search. *)
let test_cli_rejects_oracle () =
  let status, out =
    run_legoc [ "tune"; "matmul"; "--oracle"; "--no-conform"; "-j"; "1" ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "legoc tune matmul --oracle exits 124:\n%s" out)
    true
    (status = Unix.WEXITED 124)

(* Tune winners are checked on every point, with the bijectivity
   array: the matmul tile's 4,096, not a 2,048-point sample. *)
let test_winner_checked_on_every_point () =
  let r =
    T.Tune.search
      ~options:{ T.Tune.default_options with jobs = 1 }
      (T.Slot.matmul_smem ())
  in
  Alcotest.(check string)
    "winner"
    "OrderBy2(GenP(swizzlex_m31_s0[128, 32])).OrderBy2(RegP([128, 32], [1, \
     2])).GroupBy2([128, 32])"
    r.T.Tune.winner.T.Tune.fingerprint;
  match r.T.Tune.conform with
  | None -> Alcotest.fail "conformance skipped"
  | Some o ->
    Alcotest.(check int) "points" 4096 o.Lego_conform.Conform.points;
    Alcotest.(check bool)
      "no mismatch" true
      (o.Lego_conform.Conform.mismatch = None)

let suite =
  ( "tune",
    [
      Alcotest.test_case "masked swizzles are bijections" `Quick
        test_masked_swizzle_bijective;
      Alcotest.test_case "masked swizzle parameter validation" `Quick
        test_masked_swizzle_rejects_bad_params;
      Alcotest.test_case "swizzle name round-trips" `Quick
        test_masked_swizzle_name_round_trip;
      Alcotest.test_case "space closure: dedup + seed stability" `Quick
        test_space_closure_dedup_and_seed_stability;
      Alcotest.test_case "stream = legacy eager closure" `Quick
        test_stream_matches_legacy_closure;
      QCheck_alcotest.to_alcotest ~long:false prop_stream_no_duplicate_fingerprints;
      Alcotest.test_case "scale axes multiply the space" `Quick
        test_scale_space_product_axes;
      QCheck_alcotest.to_alcotest ~long:false prop_topk_equals_sort_take;
      Alcotest.test_case "predictor agrees with simulator" `Quick
        test_predictor_agrees_with_simulator;
      Alcotest.test_case "compiled closures match interpreter" `Quick
        test_compiled_matches_interpreter;
      Alcotest.test_case "predictor arithmetic = simulator costs" `Quick
        test_predict_arithmetic_matches_simt_costs;
      Alcotest.test_case "slot fast path = effect-handler path" `Quick
        test_slot_fast_matches_slow;
      Alcotest.test_case "search: fast path = effect handler" `Quick
        test_search_fast_matches_effect_handler;
      Alcotest.test_case "static pass scores on the slot's device" `Quick
        test_static_pass_uses_slot_device;
      Alcotest.test_case "static ops = decomposed_ops in every mode" `Quick
        test_static_ops_decomposed_in_every_mode;
      Alcotest.test_case "swizzlex names parse canonical decimal only" `Quick
        test_parse_swizzlex_decimal_only;
      Alcotest.test_case "oracle score = compiled score (full family)" `Quick
        test_oracle_score_matches_compiled_full_family;
      Alcotest.test_case "oracle predictions = measured counters" `Quick
        test_oracle_matches_measured_counters;
      Alcotest.test_case "swizzle classes partition + cost constancy" `Quick
        test_swizzle_classes_partition_and_cost_constancy;
      Alcotest.test_case "oracle search: class-space winner" `Quick
        test_oracle_search_class_space;
      Alcotest.test_case "search deterministic across -j" `Quick
        test_search_deterministic_across_jobs;
      Alcotest.test_case "funnel: sampled-rung accounting" `Quick
        test_funnel_sampled_rung_accounting;
      Alcotest.test_case "funnel deterministic across -j and runs" `Quick
        test_funnel_deterministic_across_jobs_and_runs;
      Alcotest.test_case "cache reuses without changing results" `Quick
        test_cache_reuses_without_changing_results;
      Alcotest.test_case "nw parallel scaling: j2 >= 0.9 j1" `Quick
        test_nw_parallel_scaling_no_regression;
      Alcotest.test_case "small space searched exhaustively" `Quick
        test_small_space_is_exhaustive;
      Alcotest.test_case "composed space rediscovers the swizzle" `Quick
        test_composed_space_rediscovers_swizzle;
      Alcotest.test_case "bad options rejected" `Quick
        test_search_rejects_bad_options;
      Alcotest.test_case "huge top ranks the whole space" `Quick
        test_huge_top_ranks_whole_space;
      Alcotest.test_case "printers = Format reference" `Quick
        test_printers_match_format_reference;
      Alcotest.test_case "fingerprint digests pinned" `Quick
        test_fingerprint_digest_pinned;
      Alcotest.test_case "precomputation keyed on device" `Quick
        test_precomp_keyed_on_device;
      Alcotest.test_case "staged score = interpreter" `Quick
        test_staged_score_matches_interpreter;
      Alcotest.test_case "scale search deterministic across -j" `Quick
        test_scale_search_deterministic_across_jobs;
      Alcotest.test_case "scale stream tail locality" `Quick
        test_scale_stream_tail_locality;
      Alcotest.test_case "CLI overview lists subcommands" `Quick
        test_cli_overview_lists_subcommands;
      Alcotest.test_case "CLI --scale honours an explicit --budget" `Quick
        test_cli_scale_explicit_budget;
      Alcotest.test_case "CLI rejects --top 0 and --budget 0" `Quick
        test_cli_rejects_non_positive_top_and_budget;
      Alcotest.test_case "F2 memo keyed on bank geometry" `Quick
        test_map_memo_keyed_on_bank_geometry;
      Alcotest.test_case "F2 memo keeps ops per text" `Quick
        test_map_memo_keeps_ops_per_text;
      Alcotest.test_case "F2 memo hits are exact" `Quick
        test_map_memo_hits_are_exact;
      Alcotest.test_case "map values = compiled closures" `Quick
        test_map_values_match_compiled;
      Alcotest.test_case "phase classes pinned per slot" `Quick
        test_phase_classes_pinned;
      QCheck_alcotest.to_alcotest ~long:false prop_translation_classes_exact;
      Alcotest.test_case "swizzle stages shared across bases" `Quick
        test_swizzle_stages_shared;
      Alcotest.test_case "rankings pinned across -j and seeds" `Quick
        test_rankings_pinned;
      Alcotest.test_case "result reports distinct F2 maps" `Quick
        test_result_reports_distinct_maps;
      Alcotest.test_case "stream digests pinned over the domain" `Quick
        test_stream_digests_pinned_over_domain;
      Alcotest.test_case "CLI rejects the deleted --oracle" `Quick
        test_cli_rejects_oracle;
      Alcotest.test_case "winner conformance covers every point" `Quick
        test_winner_checked_on_every_point;
    ] )
