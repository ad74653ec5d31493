module L = Lego_layout
module S = Lego_symbolic
module G = Lego_gpusim
open G

type variant = NN | NT | TN | TT

let variant_name = function
  | NN -> "AB"
  | NT -> "AB^T"
  | TN -> "A^TB"
  | TT -> "A^TB^T"

let variants = [ NN; NT; TN; TT ]

type config = {
  m : int;
  n : int;
  k : int;
  bm : int;
  bn : int;
  bk : int;
  gm : int;
  dtype : Mem.dtype;
  compute_values : bool;
}

let default_config ?(dtype = Mem.F16) size =
  {
    m = size;
    n = size;
    k = size;
    bm = 128;
    bn = 128;
    bk = 32;
    gm = 8;
    dtype;
    compute_values = false;
  }

type layouts = {
  cl : L.Group_by.t;
  dla : L.Group_by.t;
  dlb : L.Group_by.t;
  dlc : L.Group_by.t;
}

let check_divisible cfg =
  (* Positivity first: OCaml's [mod] lets negative multiples through
     ((-128) mod 32 = 0), so a divisibility check alone would accept
     negative problem or tile extents and fail much later, deep in
     layout construction, with an unrelated message. *)
  let pos what v =
    if v <= 0 then
      invalid_arg (Printf.sprintf "Matmul: %s (%d) must be positive" what v)
  in
  pos "M" cfg.m;
  pos "N" cfg.n;
  pos "K" cfg.k;
  pos "BM" cfg.bm;
  pos "BN" cfg.bn;
  pos "BK" cfg.bk;
  let ok what a b =
    if a mod b <> 0 then
      invalid_arg
        (Printf.sprintf "Matmul: %s (%d) must be divisible by its tile (%d)"
           what a b)
  in
  ok "M" cfg.m cfg.bm;
  ok "N" cfg.n cfg.bn;
  ok "K" cfg.k cfg.bk;
  ok "BM" cfg.bm 16;
  ok "BN" cfg.bn 16;
  ok "BM*BK" (cfg.bm * cfg.bk) 256;
  ok "BK*BN" (cfg.bk * cfg.bn) 256

let data_layout ~rows ~cols ~brows ~bcols major =
  let order =
    match major with
    | `Row -> L.Sugar.row [ rows; cols ]
    | `Col -> L.Sugar.col [ rows; cols ]
  in
  L.Sugar.tiled_view ~order:[ order ]
    ~group:[ [ rows / brows; cols / bcols ]; [ brows; bcols ] ]
    ()

let layouts cfg variant =
  check_divisible cfg;
  let num_pid_m = cfg.m / cfg.bm and num_pid_n = cfg.n / cfg.bn in
  let gm = if cfg.gm > 0 && num_pid_m mod cfg.gm = 0 then cfg.gm else 1 in
  let cl =
    L.Sugar.tiled_view
      ~order:
        [ L.Sugar.col [ num_pid_m / gm; 1 ]; L.Sugar.col [ gm; num_pid_n ] ]
      ~group:[ [ num_pid_m; num_pid_n ] ]
      ()
  in
  let a_major, b_major =
    match variant with
    | NN -> (`Row, `Row)
    | NT -> (`Row, `Col)
    | TN -> (`Col, `Row)
    | TT -> (`Col, `Col)
  in
  {
    cl;
    dla = data_layout ~rows:cfg.m ~cols:cfg.k ~brows:cfg.bm ~bcols:cfg.bk a_major;
    dlb = data_layout ~rows:cfg.k ~cols:cfg.n ~brows:cfg.bk ~bcols:cfg.bn b_major;
    dlc = data_layout ~rows:cfg.m ~cols:cfg.n ~brows:cfg.bm ~bcols:cfg.bn `Row;
  }

let addr_costs cfg variant =
  let ls = layouts cfg variant in
  let cost l = S.Cost.ops (S.Sym.apply l) in
  (cost ls.dla, cost ls.dlb, cost ls.dlc)

let index_cost cfg variant =
  let a, b, c = addr_costs cfg variant in
  a + b + c

let fill_input layout f ~rows ~cols dtype =
  let buf = Mem.create ~label:"input" dtype (rows * cols) in
  let dims = L.Group_by.dims layout in
  let brows, bcols =
    match dims with
    | [ _tr; _tc; brows; bcols ] -> (brows, bcols)
    | _ -> invalid_arg "Matmul.fill_input: expected a 2-level tiled layout"
  in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let idx = [ i / brows; j / bcols; i mod brows; j mod bcols ] in
      Mem.set buf (L.Group_by.apply_ints layout idx) (f i j)
    done
  done;
  buf

type result = {
  time_s : float;
  gflops : float;
  reports : Simt.report list;
}

(* The layout-independent kernel template: stage A and B tiles through
   shared memory, accumulate a per-thread fragment, write C back.  All
   addresses come from the supplied LEGO layouts. *)
let kernel ~cfg ~ls ~majors:(a_major, b_major) ~alu_a ~alu_b ~alu_c ~k_tiles
    ~a_buf ~b_buf ~c_buf ~wrap_a ~wrap_b ~wrap_c ~sa ~sb (ctx : Simt.ctx) =
  let tid = Simt.linear_tid ctx in
  let pid = ctx.bx in
  let lpid_m, lpid_n =
    match L.Group_by.inv_ints ls.cl pid with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  let fm = cfg.bm / 16 and fn = cfg.bn / 16 in
  let acc =
    if cfg.compute_values then Array.make (fm * fn) 0.0 else [||]
  in
  let nthreads = 256 in
  let a_elems = cfg.bm * cfg.bk / nthreads in
  let b_elems = cfg.bk * cfg.bn / nthreads in
  for kt = 0 to k_tiles - 1 do
    (* Stage the A tile.  The index expression is evaluated once per tile
       as a vectorized tensor computation (Triton semantics), so its cost
       is charged per tile, not per element. *)
    Simt.alu alu_a;
    for l = 0 to a_elems - 1 do
      let e = tid + (l * nthreads) in
      (* Walk the tile along its physically contiguous dimension so that
         consecutive threads load consecutive addresses — the assignment a
         layout-driven generator derives from the data layout. *)
      let tm, tk =
        match a_major with
        | `Row -> (e / cfg.bk, e mod cfg.bk)
        | `Col -> (e mod cfg.bm, e / cfg.bm)
      in
      let g = wrap_a (L.Group_by.apply_ints ls.dla [ lpid_m; kt; tm; tk ]) in
      let v = Simt.gload a_buf g in
      Simt.sstore ((tm * cfg.bk) + tk) v;
      if cfg.compute_values then sa.((tm * cfg.bk) + tk) <- v
    done;
    (* Stage the B tile. *)
    Simt.alu alu_b;
    for l = 0 to b_elems - 1 do
      let e = tid + (l * nthreads) in
      let tk, tn =
        match b_major with
        | `Row -> (e / cfg.bn, e mod cfg.bn)
        | `Col -> (e mod cfg.bk, e / cfg.bk)
      in
      let g = wrap_b (L.Group_by.apply_ints ls.dlb [ kt; lpid_n; tk; tn ]) in
      let v = Simt.gload b_buf g in
      Simt.sstore ((cfg.bm * cfg.bk) + (tk * cfg.bn) + tn) v;
      if cfg.compute_values then sb.((tk * cfg.bn) + tn) <- v
    done;
    Simt.sync ();
    (* Fragment loads modelling ldmatrix: one vectorized shared read per
       fragment row/column. *)
    for f = 0 to fm - 1 do
      ignore (Simt.sload ((((ctx.ty * fm) + f) * cfg.bk) mod (cfg.bm * cfg.bk)))
    done;
    for f = 0 to fn - 1 do
      ignore
        (Simt.sload
           (cfg.bm * cfg.bk + (((ctx.tx * fn) + f) mod (cfg.bk * cfg.bn))))
    done;
    Simt.flops ~tensor:true cfg.dtype (2 * fm * fn * cfg.bk);
    if cfg.compute_values then
      for fi = 0 to fm - 1 do
        let row = (ctx.ty * fm) + fi in
        for fj = 0 to fn - 1 do
          let col = (ctx.tx * fn) + fj in
          let s = ref acc.((fi * fn) + fj) in
          for kk = 0 to cfg.bk - 1 do
            s := !s +. (sa.((row * cfg.bk) + kk) *. sb.((kk * cfg.bn) + col))
          done;
          acc.((fi * fn) + fj) <- !s
        done
      done;
    Simt.sync ()
  done;
  (* Write the C fragment (index tensor computed once). *)
  Simt.alu alu_c;
  for fi = 0 to fm - 1 do
    for fj = 0 to fn - 1 do
      let tm = (ctx.ty * fm) + fi and tn = (ctx.tx * fn) + fj in
      let g = wrap_c (L.Group_by.apply_ints ls.dlc [ lpid_m; lpid_n; tm; tn ]) in
      let v = if cfg.compute_values then acc.((fi * fn) + fj) else 0.0 in
      Simt.gstore c_buf g v
    done
  done

let majors_of = function
  | NN -> (`Row, `Row)
  | NT -> (`Row, `Col)
  | TN -> (`Col, `Row)
  | TT -> (`Col, `Col)

let arena_cap = 1 lsl 22

let run_generic ~alu ~cfg ~variant ?(wraps = (Fun.id, Fun.id, Fun.id)) ~a_buf
    ~b_buf ~c_buf () =
  let ls = layouts cfg variant in
  let alu_a, alu_b, alu_c = alu in
  let full_k_tiles = cfg.k / cfg.bk in
  (* Perf runs truncate the (uniform) K loop and rescale the body time. *)
  let k_tiles =
    if cfg.compute_values then full_k_tiles else min full_k_tiles 8
  in
  let grid = ((cfg.m / cfg.bm) * (cfg.n / cfg.bn), 1) in
  let sample_blocks = if cfg.compute_values then None else Some 2 in
  let sa = Array.make (cfg.bm * cfg.bk) 0.0
  and sb = Array.make (cfg.bk * cfg.bn) 0.0 in
  let smem_words = (cfg.bm * cfg.bk) + (cfg.bk * cfg.bn) in
  let wrap_a, wrap_b, wrap_c = wraps in
  let report =
    Simt.run ?sample_blocks ~grid ~block:(16, 16) ~smem_words
      (kernel ~cfg ~ls ~majors:(majors_of variant) ~alu_a ~alu_b ~alu_c
         ~k_tiles ~a_buf ~b_buf ~c_buf ~wrap_a ~wrap_b ~wrap_c ~sa ~sb)
  in
  let b = Metrics.breakdown report in
  let scale = float_of_int full_k_tiles /. float_of_int k_tiles in
  let time_s = b.Metrics.launch_s +. ((b.Metrics.total_s -. b.Metrics.launch_s) *. scale) in
  let useful_flops = 2.0 *. float_of_int cfg.m *. float_of_int cfg.n *. float_of_int cfg.k in
  { time_s; gflops = Metrics.gflops ~useful_flops time_s; reports = [ report ] }

(* Performance runs sample a few blocks; the operands need not be
   materialized at full size (see Mem.create_arena). *)
let dummy_buffers cfg =
  let a, wa = Mem.create_arena ~label:"A" cfg.dtype (cfg.m * cfg.k) ~cap:arena_cap in
  let b, wb = Mem.create_arena ~label:"B" cfg.dtype (cfg.k * cfg.n) ~cap:arena_cap in
  let c, wc = Mem.create_arena ~label:"C" cfg.dtype (cfg.m * cfg.n) ~cap:arena_cap in
  ((a, b, c), (wa, wb, wc))

let run_lego cfg variant =
  let (a_buf, b_buf, c_buf), wraps = dummy_buffers cfg in
  run_generic ~alu:(addr_costs cfg variant) ~cfg ~variant ~wraps ~a_buf ~b_buf
    ~c_buf ()

(* The hand-written reference of figure 1 strength-reduces its pointers
   (a_ptrs += BK * stride per iteration), so its per-address arithmetic is
   a small constant; transposed loads pay one extra op (the paper notes
   Triton's slight edge on A^T B^T and slight loss on A^T B in FP8). *)
let triton_addr_cost variant =
  match variant with
  | NN -> (3, 3, 4)
  | NT -> (3, 4, 4)
  | TN -> (5, 3, 4)
  | TT -> (4, 4, 4)

let run_triton_ref cfg variant =
  let (a_buf, b_buf, c_buf), wraps = dummy_buffers cfg in
  run_generic ~alu:(triton_addr_cost variant) ~cfg ~variant ~wraps ~a_buf
    ~b_buf ~c_buf ()

let cublas_palette = [ (64, 64, 32); (128, 128, 32); (256, 128, 32) ]

let run_cublas cfg variant =
  (* Library heuristics: try a small palette of tile shapes, keep the
     fastest legal one. *)
  let candidates =
    List.filter_map
      (fun (bm, bn, bk) ->
        let cfg' = { cfg with bm; bn; bk; gm = 8 } in
        match layouts cfg' variant with
        | _ -> Some cfg'
        | exception Invalid_argument _ -> None)
      cublas_palette
  in
  let candidates = if candidates = [] then [ cfg ] else candidates in
  let results =
    List.map
      (fun cfg' ->
        let (a_buf, b_buf, c_buf), wraps = dummy_buffers cfg' in
        run_generic ~alu:(3, 3, 3) ~cfg:cfg' ~variant ~wraps ~a_buf ~b_buf
          ~c_buf ())
      candidates
  in
  List.fold_left
    (fun best r -> if r.time_s < best.time_s then r else best)
    (List.hd results) (List.tl results)

let cpu_reference cfg fa fb =
  Array.init (cfg.m * cfg.n) (fun idx ->
      let i = idx / cfg.n and j = idx mod cfg.n in
      let acc = ref 0.0 in
      for kk = 0 to cfg.k - 1 do
        acc := !acc +. (fa i kk *. fb kk j)
      done;
      !acc)

let check_numerics cfg variant =
  let cfg = { cfg with compute_values = true } in
  let ls = layouts cfg variant in
  let fa i j = Float.of_int (((i * 7) + (j * 3)) mod 11) -. 5.0 in
  let fb i j = Float.of_int (((i * 5) + (j * 2)) mod 13) -. 6.0 in
  let a_buf = fill_input ls.dla fa ~rows:cfg.m ~cols:cfg.k cfg.dtype in
  let b_buf = fill_input ls.dlb fb ~rows:cfg.k ~cols:cfg.n cfg.dtype in
  let c_buf = Mem.create ~label:"C" cfg.dtype (cfg.m * cfg.n) in
  let _ =
    run_generic ~alu:(addr_costs cfg variant) ~cfg ~variant ~a_buf ~b_buf
      ~c_buf ()
  in
  let expect = cpu_reference cfg fa fb in
  (* C is written through dlc (row-major tiled = plain row-major order
     after flattening); read it back through the layout. *)
  let worst = ref 0.0 in
  for i = 0 to cfg.m - 1 do
    for j = 0 to cfg.n - 1 do
      let idx = [ i / cfg.bm; j / cfg.bn; i mod cfg.bm; j mod cfg.bn ] in
      let got = Mem.get c_buf (L.Group_by.apply_ints ls.dlc idx) in
      worst := Float.max !worst (Float.abs (got -. expect.((i * cfg.n) + j)))
    done
  done;
  if !worst <= 1e-6 then Ok ()
  else
    Error
      (Printf.sprintf "matmul %s: max |err| = %g" (variant_name variant) !worst)
