(* Worker processes of the end-to-end benchmark (see README.md).

   [run.py] starts one fresh process per unit of work, so caches and
   heap start the way a [legoc] invocation starts them, and reads the
   single [RESULT {...}] line each process prints.  Untraced units time
   only around the public entry points; the [trace] mode replays a
   workload through each layer's public functions under {!Trace}. *)

open Work

let () =
  let mode = ref "" and workload = ref "" and seed = ref 0 and jobs = ref 2 in
  let plant = ref false and legoc = ref "" and fixture = ref "" in
  let expect = ref "" and work = ref "" and out = ref "" in
  let rt = ref 0.0 and cpu = ref 0.0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--jobs", Arg.Set_int jobs, "N");
      ("--plant", Arg.Set plant, " plant a wrong answer the checks must catch");
      ("--legoc", Arg.Set_string legoc, "PATH legoc executable (serve-mix)");
      ("--fixture", Arg.Set_string fixture, "PATH store fixture (serve-mix)");
      ("--expect", Arg.Set_string expect, "PATH fixture expectations (serve-mix)");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--out", Arg.Set_string out, "PREFIX trace output prefix");
      ("--untraced-rt", Arg.Set_float rt, "S untraced round-trip total (serve-mix)");
      ("--untraced-cpu", Arg.Set_float cpu, "S untraced CPU time");
    ]
    (fun m -> mode := m)
    "perfbench MODE [options]  (modes: ready, setup, unit, fixture, trace)";
  match (!mode, !workload) with
  | "ready", _ -> print_string "READY\n"
  | "setup", "serve-mix" ->
    serve_setup ~legoc:!legoc ~fixture:!fixture ~work:!work ~jobs:!jobs
  | "setup", w ->
    ignore (tune_setup w);
    print_string "READY\n"
  | "unit", (("tune-scale" | "tune-default") as w) ->
    tune_unit ~workload:w ~seed:!seed ~jobs:!jobs ~plant:!plant
  | "unit", "compile-verify" -> compile_unit ~seed:!seed ~plant:!plant
  | "unit", "serve-mix" ->
    serve_unit ~legoc:!legoc ~fixture:!fixture ~expect:!expect ~work:!work
      ~seed:!seed ~jobs:!jobs ~plant:!plant
  | "fixture", _ -> fixture_build ~db:!fixture ~expect:!expect
  | "trace", w ->
    Replay.run ~workload:w ~seed:!seed ~jobs:!jobs ~fixture:!fixture ~expect:!expect
      ~work:!work ~out:!out ~untraced_rt:!rt ~untraced_cpu:!cpu
  | m, w ->
    Printf.eprintf "perfbench: unknown mode %S / workload %S\n" m w;
    exit 2
