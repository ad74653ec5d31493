(* Deterministic fork-join fan-out.

   Each [map] spawns its helper domains, works through the batch's
   atomic cursor alongside them, and joins them before it returns:
   [Domain.join] is the happens-before edge that makes every slot a
   helper wrote visible to the caller, and no domain outlives its map.
   Results land in slots owned by exactly one task each. *)

type pool = {
  size : int;
  helpers : int; (* domains a map may spawn, after the hardware clamp *)
  owner : Domain.id;
  mutable busy : bool; (* a map call is in flight on the owner domain *)
  mutable closed : bool; (* [with_pool]'s function has returned *)
}

let jobs_of_env value =
  match Option.bind value (fun s -> int_of_string_opt (String.trim s)) with
  | Some j when j >= 1 -> j
  | Some _ | None -> Domain.recommended_domain_count ()

let default_jobs () = jobs_of_env (Sys.getenv_opt "LEGO_JOBS")

let jobs p = p.size

(* The hardware clamp (see the interface) bounds the domains a map
   spawns, not the pool's reported width: results never depend on how
   many domains actually run. *)
let with_pool ~jobs:size ?(oversubscribe = false) f =
  if size < 1 then invalid_arg "Exec.with_pool: jobs must be >= 1";
  let helpers =
    if oversubscribe then size - 1
    else min (size - 1) (max 0 (Domain.recommended_domain_count () - 1))
  in
  let pool =
    { size; helpers; owner = Domain.self (); busy = false; closed = false }
  in
  Fun.protect ~finally:(fun () -> pool.closed <- true) (fun () -> f pool)

(* One slot per task: the task's value or its captured exception. *)
type 'b slot =
  | Pending
  | Value of 'b
  | Raised of exn * Printexc.raw_backtrace

let map ?chunk ~pool xs f =
  if Domain.self () <> pool.owner then
    invalid_arg "Exec.map: pool used from a foreign domain";
  if pool.busy then invalid_arg "Exec.map: nested map on the same pool";
  if pool.closed then invalid_arg "Exec.map: pool used after with_pool";
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
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
    (* The batch has [(n - 1) / chunk + 1] chunks and the caller takes
       one, so a helper beyond the rest would find the cursor exhausted:
       a one-chunk batch runs on the caller alone. *)
    let helpers = min pool.helpers ((n - 1) / chunk) in
    let domains = ref [] in
    pool.busy <- true;
    Fun.protect
      ~finally:(fun () ->
        List.iter Domain.join !domains;
        pool.busy <- false)
      (fun () ->
        for _ = 1 to helpers do
          domains := Domain.spawn work :: !domains
        done;
        work ());
    Array.map
      (function
        | Value v -> v
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
        | Pending -> assert false)
      slots
  end
