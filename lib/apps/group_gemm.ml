module L = Lego_layout

type config = { gemms : int; base : Matmul.config }

let default_config size = { gemms = 8; base = Matmul.default_config size }

let pid_layout cfg =
  let npm = cfg.base.Matmul.m / cfg.base.Matmul.bm in
  let npn = cfg.base.Matmul.n / cfg.base.Matmul.bn in
  L.Sugar.tiled_view ~group:[ [ cfg.gemms; npm; npn ] ] ()

let run_individual cfg =
  let one = Matmul.run_lego cfg.base Matmul.NN in
  let time_s = float_of_int cfg.gemms *. one.Matmul.time_s in
  let useful =
    2.0
    *. float_of_int (cfg.gemms * cfg.base.Matmul.m)
    *. float_of_int cfg.base.Matmul.n
    *. float_of_int cfg.base.Matmul.k
  in
  {
    Matmul.time_s;
    gflops = useful /. time_s /. 1e9;
    reports = one.Matmul.reports;
  }

let run_grouped cfg =
  (* One launch whose grid covers every tile of every member; for
     same-shaped members this is cost-equivalent to a single GEMM with
     [gemms]-times as many M tiles (the pid mapping is {!pid_layout}),
     which is how we simulate it. *)
  let base = cfg.base in
  let stacked = { base with Matmul.m = base.Matmul.m * cfg.gemms } in
  let r = Matmul.run_lego stacked Matmul.NN in
  let useful =
    2.0
    *. float_of_int (cfg.gemms * base.Matmul.m)
    *. float_of_int base.Matmul.n
    *. float_of_int base.Matmul.k
  in
  { r with Matmul.gflops = useful /. r.Matmul.time_s /. 1e9 }
