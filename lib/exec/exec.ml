(* A domain pool with deterministic fan-out/merge.

   Batches are published by bumping a generation counter under [lock];
   workers wait for the generation to move, claim chunks from the
   batch's atomic cursor, and write results into slots owned by exactly
   one task each.  The caller participates as a worker, then blocks
   until [active] drops to zero — that mutex round-trip is also the
   happens-before edge that makes every slot written by a worker
   visible to the caller.  A worker that sleeps through an entire batch
   wakes to an exhausted cursor and simply moves on: every batch's work
   function is a no-op once its cursor has passed the end. *)

type batch = { work : unit -> unit }

type pool = {
  size : int;
  lock : Mutex.t;
  cond : Condition.t;
  mutable generation : int;
  mutable current : batch option;
  mutable active : int; (* workers inside the current batch's work fn *)
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  owner : Domain.id;
  mutable busy : bool; (* a map call is in flight on the owner domain *)
}

let jobs_of_env value =
  match Option.bind value (fun s -> int_of_string_opt (String.trim s)) with
  | Some j when j >= 1 -> j
  | Some _ | None -> Domain.recommended_domain_count ()

let default_jobs () = jobs_of_env (Sys.getenv_opt "LEGO_JOBS")

let jobs p = p.size

let worker pool () =
  let gen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.lock;
    while pool.generation = !gen && not pool.stopping do
      Condition.wait pool.cond pool.lock
    done;
    if pool.stopping then begin
      Mutex.unlock pool.lock;
      running := false
    end
    else begin
      gen := pool.generation;
      let batch = pool.current in
      pool.active <- pool.active + 1;
      Mutex.unlock pool.lock;
      (match batch with Some b -> b.work () | None -> ());
      Mutex.lock pool.lock;
      pool.active <- pool.active - 1;
      if pool.active = 0 then Condition.broadcast pool.cond;
      Mutex.unlock pool.lock
    end
  done

(* Spawning more domains than the machine has cores is a strict loss
   for this pool: OCaml 5 minor collections are stop-the-world
   handshakes across every running domain, so oversubscribed workers
   add GC synchronization and OS timeslicing without adding
   parallelism (the cause of the nw j2 < j1 regression measured on a
   single-core host).  [create] therefore clamps the number of
   {e spawned} domains to the hardware count; the pool still reports
   the requested [jobs] (the determinism contract makes results
   independent of how many domains actually run). *)
let create ?jobs ?(oversubscribe = false) () =
  let size = match jobs with Some j -> j | None -> default_jobs () in
  if size < 1 then invalid_arg "Exec.create: jobs must be >= 1";
  let spawned =
    if oversubscribe then size - 1
    else min (size - 1) (max 0 (Domain.recommended_domain_count () - 1))
  in
  let pool =
    {
      size;
      lock = Mutex.create ();
      cond = Condition.create ();
      generation = 0;
      current = None;
      active = 0;
      stopping = false;
      domains = [];
      owner = Domain.self ();
      busy = false;
    }
  in
  pool.domains <- List.init spawned (fun _ -> Domain.spawn (worker pool));
  pool

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stopping <- true;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.domains;
  pool.domains <- []

let with_pool ?jobs ?oversubscribe f =
  let pool = create ?jobs ?oversubscribe () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* One slot per task: the task's value or its captured exception. *)
type 'b slot =
  | Pending
  | Value of 'b
  | Raised of exn * Printexc.raw_backtrace

let map ?chunk ~pool xs f =
  if Domain.self () <> pool.owner then
    invalid_arg "Exec.map: pool used from a foreign domain";
  if pool.busy then invalid_arg "Exec.map: nested map on the same pool";
  if pool.stopping then invalid_arg "Exec.map: pool is shut down";
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    pool.busy <- true;
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some _ -> invalid_arg "Exec.map: chunk must be >= 1"
      (* Adaptive default: n / 8 / jobs amortizes cursor traffic, but
         on mega-batches an uncapped chunk lets one slow chunk strand
         the batch tail on a single worker; 1024 keeps >= 8 steals per
         worker beyond ~8k tasks while tiny batches still get chunk 1
         (perfect balance for few expensive sims).  Two divisions, not
         [n / (8 * jobs)], whose product overflows for a huge [jobs]. *)
      | None -> max 1 (min 1024 (n / 8 / pool.size))
    in
    let slots = Array.make n Pending in
    let cursor = Atomic.make 0 in
    let work () =
      let continue_ = ref true in
      while !continue_ do
        let start = Atomic.fetch_and_add cursor chunk in
        if start >= n then continue_ := false
        else
          for i = start to min n (start + chunk) - 1 do
            slots.(i) <-
              (match f xs.(i) with
              | v -> Value v
              | exception e -> Raised (e, Printexc.get_raw_backtrace ()))
          done
      done
    in
    Fun.protect
      ~finally:(fun () -> pool.busy <- false)
      (fun () ->
        (* Publish the batch, participate, then join it. *)
        Mutex.lock pool.lock;
        pool.current <- Some { work };
        pool.generation <- pool.generation + 1;
        Condition.broadcast pool.cond;
        Mutex.unlock pool.lock;
        work ();
        Mutex.lock pool.lock;
        while pool.active > 0 do
          Condition.wait pool.cond pool.lock
        done;
        Mutex.unlock pool.lock;
        Array.map
          (function
            | Value v -> v
            | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
            | Pending -> assert false)
          slots)
  end
