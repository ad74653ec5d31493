(* Tests for the execution layer (lib/exec): deterministic order of the
   merged results, per-task exception capture with lowest-index re-raise,
   many maps on one pool, helpers spawned and joined per map, the jobs=1
   degenerate pool, and misuse guards. *)

module X = Lego_exec.Exec

exception Boom of int

(* [oversubscribe:true] in the interleaving-sensitive tests: the pool
   clamps spawned domains to the hardware count, so on a small host a
   plain ~jobs:4 pool would degrade to the sequential path and stop
   exercising multi-domain scheduling at all. *)
let test_map_preserves_order () =
  X.with_pool ~jobs:4 ~oversubscribe:true (fun pool ->
      let n = 1000 in
      let xs = Array.init n (fun i -> i) in
      let ys = X.map ~pool xs (fun i -> (i * i) + 1) in
      Alcotest.(check int) "length" n (Array.length ys);
      Array.iteri
        (fun i y -> Alcotest.(check int) (Printf.sprintf "slot %d" i)
            ((i * i) + 1) y)
        ys;
      (* Tiny chunks exercise the work-stealing cursor on many claims. *)
      let zs = X.map ~chunk:1 ~pool xs (fun i -> i - 7) in
      Array.iteri
        (fun i z -> Alcotest.(check int) (Printf.sprintf "chunk1 slot %d" i)
            (i - 7) z)
        zs)

let test_map_empty_and_jobs1 () =
  X.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "empty" 0
        (Array.length (X.map ~pool [||] (fun i -> i)));
      let ys = X.map ~pool [| 10; 20; 30 |] (fun i -> i + 1) in
      Alcotest.(check (list int)) "jobs=1" [ 11; 21; 31 ]
        (Array.to_list ys))

let test_exception_lowest_index_and_no_abort () =
  X.with_pool ~jobs:4 ~oversubscribe:true (fun pool ->
      let n = 200 in
      let ran = Atomic.make 0 in
      let xs = Array.init n (fun i -> i) in
      (* Several tasks raise; the caller must see the lowest-index one,
         and the batch must still run every other task (no early abort —
         that is what makes the failure deterministic at any -j). *)
      (match
         X.map ~chunk:1 ~pool xs (fun i ->
             Atomic.incr ran;
             if i = 17 || i = 3 || i = 150 then raise (Boom i);
             i)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "lowest index wins" 3 i);
      Alcotest.(check int) "all tasks still ran" n (Atomic.get ran);
      (* The pool survives a raising batch. *)
      let ys = X.map ~pool xs (fun i -> 2 * i) in
      Alcotest.(check int) "pool reusable after raise" 398 ys.(199))

let test_pool_reuse_across_batches () =
  X.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check int) "jobs" 3 (X.jobs pool);
      for round = 1 to 20 do
        let xs = Array.init 50 (fun i -> i) in
        let ys = X.map ~pool xs (fun i -> (round * 1000) + i) in
        Alcotest.(check int)
          (Printf.sprintf "round %d" round)
          ((round * 1000) + 49)
          ys.(49)
      done)

let test_misuse_guards () =
  X.with_pool ~jobs:2 ~oversubscribe:true (fun pool ->
      (* A task's map on the pool running it must raise, on the calling
         domain (nested) and on a helper (foreign), so fan-outs never
         multiply past the pool's width. *)
      (match
         X.map ~chunk:1 ~pool [| 0; 1 |] (fun _ ->
             X.map ~pool [| 1 |] (fun i -> i))
       with
      | _ -> Alcotest.fail "nested map must be rejected"
      | exception Invalid_argument _ -> ());
      match X.map ~chunk:0 ~pool [| 1 |] (fun i -> i) with
      | _ -> Alcotest.fail "chunk 0 must be rejected"
      | exception Invalid_argument _ -> ());
  (match X.with_pool ~jobs:0 (fun _ -> ()) with
  | () -> Alcotest.fail "jobs 0 must be rejected"
  | exception Invalid_argument _ -> ());
  (* A pool kept past its [with_pool] refuses further batches. *)
  let pool = X.with_pool ~jobs:2 Fun.id in
  match X.map ~pool [| 1 |] (fun i -> i) with
  | _ -> Alcotest.fail "map after with_pool must be rejected"
  | exception Invalid_argument _ -> ()

(* Each map spawns its own helper domains and joins them before it
   returns, so two successive maps on one pool run on two different
   helpers (a pool that parked its domains between maps reused one).
   A two-party barrier holds each map's first task until a second
   domain has taken the other. *)
let test_fork_join_per_map () =
  X.with_pool ~jobs:2 ~oversubscribe:true (fun pool ->
      let helper () =
        let arrived = Atomic.make 0 in
        let ran =
          X.map ~chunk:1 ~pool [| (); () |] (fun () ->
              Atomic.incr arrived;
              while Atomic.get arrived < 2 do
                Domain.cpu_relax ()
              done;
              Domain.self ())
        in
        match
          List.filter (fun d -> d <> Domain.self ()) (Array.to_list ran)
        with
        | [ d ] -> d
        | _ -> Alcotest.fail "each map runs on the caller and one helper"
      in
      let first = helper () in
      let second = helper () in
      Alcotest.(check bool) "a fresh helper domain per map" true
        (first <> second))

let test_hardware_clamp_preserves_semantics () =
  (* A pool far wider than any host still reports its requested size,
     and produces exactly the same merged results as an oversubscribed
     pool of the same width — the clamp is a scheduling detail, not an
     observable one. *)
  let xs = Array.init 500 (fun i -> i) in
  let clamped =
    X.with_pool ~jobs:32 (fun pool ->
        Alcotest.(check int) "requested size reported" 32 (X.jobs pool);
        X.map ~pool xs (fun i -> (i * 3) - 1))
  in
  let oversub =
    X.with_pool ~jobs:32 ~oversubscribe:true (fun pool ->
        X.map ~pool xs (fun i -> (i * 3) - 1))
  in
  Alcotest.(check bool) "identical results" true (clamped = oversub)

(* Regression: the default chunk was [n / (8 * jobs)], and the product
   wraps to 0 at [jobs] = 2⁶⁰ and 2⁶¹, so every map without a [chunk]
   raised [Division_by_zero] ([legoc serve -j 2⁶⁰] died on its first
   batch of more than one request).  Such a pool spawns no more domains than the
   host has cores, reports its requested size, and maps as a one-job
   pool does. *)
let test_huge_jobs () =
  let xs = Array.init 500 (fun i -> i) and f i = (i * 7) + 1 in
  let want = X.with_pool ~jobs:1 (fun pool -> X.map ~pool xs f) in
  List.iter
    (fun (what, jobs) ->
      X.with_pool ~jobs (fun pool ->
          Alcotest.(check int) (what ^ ": requested size") jobs (X.jobs pool);
          Alcotest.(check (array int)) (what ^ ": = -j 1") want
            (X.map ~pool xs f)))
    [ ("2^60", 1 lsl 60); ("2^61", 1 lsl 61) ]

(* Reads the environment and never writes it: a test that set
   [LEGO_JOBS] could not unset it again (OCaml's [Unix] has no
   unsetenv), and every later [legoc] run in the process would read
   what it left. *)
let test_default_jobs_env () =
  let fallback = Domain.recommended_domain_count () in
  List.iter
    (fun (value, want) ->
      Alcotest.(check int)
        (match value with None -> "unset" | Some v -> Printf.sprintf "%S" v)
        want (X.jobs_of_env value))
    [
      (Some "3", 3);
      (Some " 4 ", 4);
      (Some "not-a-number", fallback);
      (Some "", fallback);
      (Some "0", fallback);
      (Some "-2", fallback);
      (None, fallback);
    ];
  Alcotest.(check int)
    "default_jobs reads LEGO_JOBS"
    (X.jobs_of_env (Sys.getenv_opt "LEGO_JOBS"))
    (X.default_jobs ())

let suite =
  ( "exec",
    [
      Alcotest.test_case "map preserves submission order" `Quick
        test_map_preserves_order;
      Alcotest.test_case "empty input and jobs=1" `Quick
        test_map_empty_and_jobs1;
      Alcotest.test_case "lowest-index exception, no early abort" `Quick
        test_exception_lowest_index_and_no_abort;
      Alcotest.test_case "pool reuse across batches" `Quick
        test_pool_reuse_across_batches;
      Alcotest.test_case "misuse guards" `Quick test_misuse_guards;
      Alcotest.test_case "fork-join: fresh helpers per map" `Quick
        test_fork_join_per_map;
      Alcotest.test_case "hardware clamp preserves semantics" `Quick
        test_hardware_clamp_preserves_semantics;
      Alcotest.test_case "default_jobs reads LEGO_JOBS" `Quick
        test_default_jobs_env;
      Alcotest.test_case "huge jobs map as -j 1" `Quick test_huge_jobs;
    ] )
