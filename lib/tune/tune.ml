module L = Lego_layout
module Exec = Lego_exec.Exec

type options = {
  budget : int;
  top : int;
  seed : int;
  jobs : int;
  conform : bool;
  composed : bool;
  scale : bool;
}

let default_options =
  {
    budget = 256;
    top = 8;
    seed = 0;
    jobs = 1;
    conform = true;
    composed = false;
    scale = false;
  }

type scored = {
  layout : L.Group_by.t;
  fingerprint : string;
  static_score : Predict.score;
  sim : Slot.sim option;
}

type result = {
  slot : Slot.t;
  winner : scored;
  ranking : scored list;
  explored : int;
  space_size : int;
  exhaustive : bool;
  sampled_scored : int;
  static_seconds : float;
  sim_seconds : float;
  candidates_per_s : float;
  conform : Lego_conform.Conform.outcome option;
  baselines : (string * Slot.sim) list;
}

let rec take_prefix n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: xs -> x :: take_prefix (n - 1) xs

(* Pull up to [n] elements off a sequence; returns them in order, the
   rest of the sequence, and whether the sequence ended inside the
   pull.  Each node of {!Space.stream} is forced exactly once across
   the whole search — the dedup state threads through the returned
   tail. *)
let take_seq n seq =
  let rec go n s acc =
    if n <= 0 then (List.rev acc, s, false)
    else
      match s () with
      | Seq.Nil -> (List.rev acc, Seq.empty, true)
      | Seq.Cons (x, tl) -> go (n - 1) tl (x :: acc)
  in
  go n seq []

let cmp_static a b =
  Predict.compare_ranked (a.static_score, a.fingerprint)
    (b.static_score, b.fingerprint)

(* Simulated order: roofline time first; among roofline ties (the time
   model saturates on whichever resource bounds the kernel) prefer
   fewer simulated bank cycles, then the static order — ending, as
   always, at the fingerprint, so the order is total. *)
let cmp_sim (a, sa) (b, sb) =
  let c = compare sa.Slot.time_s sb.Slot.time_s in
  if c <> 0 then c
  else
    let c = compare sa.Slot.s_cycles sb.Slot.s_cycles in
    if c <> 0 then c else cmp_static a b

(* The search is deterministic at any [jobs] by construction:

   - candidate generation is a pure function of
     [(shape, seed, composed, scale)]
     ({!Space}'s contract), and the stream arrives pre-deduplicated;
   - every parallel step is an {!Exec.map}, whose submission-order merge
     returns exactly the sequential result;
   - every {e decision} (budget truncation, top-K retention, rung
     promotion, final ranking) happens sequentially in this driver,
     over totally ordered keys ({!Predict.compare_ranked}, and
     [(time_s, s_cycles, static, fingerprint)] for the sim rungs) — the
     chunk size only groups work, never reorders it, and the top-K
     retained set is order-independent under a total comparator;
   - the {!Cache} of sim results is read inside parallel sections
     (pure [find]) and written only between them, and every reported
     counter tallies the funnel's structure (rung sizes), not cache
     traffic — so a warm cache changes wall-clock only.

   Only the [*_seconds] / [candidates_per_s] timings may vary. *)
let search ?(options = default_options) ?cache (slot : Slot.t) =
  if options.budget < 1 then invalid_arg "Tune.search: budget must be >= 1";
  if options.top < 1 then invalid_arg "Tune.search: top must be >= 1";
  let cache =
    match cache with Some c -> c | None -> Cache.create ~max_entries:0 ()
  in
  (* Cache keys carry the full slot identity (name, device preset, smem
     dtype): sims depend on the device model and element width, so
     "matmul" tuned under a100 must never satisfy a lookup for the same
     layout under h100. *)
  let cache_slot = Slot.identity slot in
  let sp =
    Space.make ~seed:options.seed ~composed:options.composed
      ~scale:options.scale ~rows:slot.rows ~cols:slot.cols ()
  in
  (* Successive-halving geometry: in scale mode the sampled rung is
     4 x [top] wide, so the full-sim rung sees a 4:1 halving; otherwise
     the rung is absent and the search is two-stage.  The heap never
     holds more than [budget] candidates, so that caps it too, whatever
     [top] a caller asks for. *)
  let use_sampled = options.scale && slot.simulate_sampled <> None in
  let heap_cap =
    min options.budget
      (if use_sampled then 4 * min options.top (max_int / 4) else options.top)
  in
  Exec.with_pool ~jobs:(max 1 options.jobs) @@ fun pool ->
  let t0 = Unix.gettimeofday () in
  (* Stage one: stream the space through the static predictor in
     chunks, retaining only the best [heap_cap] candidates (plus
     counters).  Memory is O(heap_cap) + the stream's own dedup set,
     whatever the space size. *)
  let chunk_len =
    max 64 (min 8192 (options.budget / (4 * max 1 options.jobs)))
  in
  let heap = Topk.create ~cap:heap_cap ~cmp:cmp_static in
  let explored = ref 0 and drained = ref false in
  let stream = ref (Space.stream sp) in
  let score_candidate g =
    {
      layout = g;
      fingerprint = Fingerprint.of_layout g;
      static_score = Predict.score ~device:slot.device g slot.phases;
      sim = None;
    }
  in
  while (not !drained) && !explored < options.budget do
    let want = min chunk_len (options.budget - !explored) in
    let batch, rest, ended = take_seq want !stream in
    stream := rest;
    if ended then drained := true;
    if batch <> [] then begin
      (* Sequential merge: top-K retention in submission order. *)
      let scored = Exec.map ~pool (Array.of_list batch) score_candidate in
      Array.iter (Topk.add heap) scored;
      explored := !explored + Array.length scored
    end
  done;
  (* Peek once past the budget so [exhaustive] reflects the space, not
     the budget, when the budget lands exactly on the last candidate. *)
  if not !drained then begin
    match !stream () with
    | Seq.Nil -> drained := true
    | Seq.Cons _ -> ()
  end;
  let static_seconds = Unix.gettimeofday () -. t0 in
  let explored = !explored in
  (* Sim rung helper: look up the cached sim for [sc] under [field],
     simulate on a miss (in parallel, chunk 1 — few expensive tasks),
     write back, and pair each candidate with its sim. *)
  let run_rung ~get ~set ~simulate cands =
    let arr = Array.of_list cands in
    let digests =
      Array.map (fun sc -> Digest.string sc.fingerprint) arr
    in
    let sims =
      Exec.map ~chunk:1 ~pool
        (Array.mapi (fun i sc -> (sc, digests.(i))) arr)
        (fun (sc, dg) ->
          match Cache.find cache ~slot:cache_slot ~fp_digest:dg with
          | Some e when get e <> None -> (Option.get (get e), true)
          | _ -> (simulate ~fast:true sc.layout, false))
    in
    let hits = ref 0 in
    Array.iteri
      (fun i (sim, hit) ->
        if hit then incr hits
        else begin
          let e = Cache.ensure cache ~slot:cache_slot ~fp_digest:digests.(i) in
          set e sim
        end)
      sims;
    Cache.note_hits cache !hits;
    Cache.note_misses cache (Array.length arr - !hits);
    List.mapi (fun i sc -> (sc, fst sims.(i))) cands
  in
  let t1 = Unix.gettimeofday () in
  (* Middle rung: sampled simulation of every heap survivor, promoting
     the best [top] to full simulation. *)
  let promoted = Topk.sorted heap in
  let sampled_scored, finalists =
    match slot.simulate_sampled with
    | Some simulate when use_sampled ->
      let ranked =
        List.sort cmp_sim
          (run_rung
             ~get:(fun e -> e.Cache.sampled)
             ~set:(fun e s -> e.Cache.sampled <- Some s)
             ~simulate promoted)
      in
      (List.length ranked, take_prefix options.top (List.map fst ranked))
    | _ -> (0, take_prefix options.top promoted)
  in
  (* Final rung: full simulation, ranked by roofline time. *)
  let ranking =
    List.sort
      (fun a b -> cmp_sim (a, Option.get a.sim) (b, Option.get b.sim))
      (List.map
         (fun (sc, sim) -> { sc with sim = Some sim })
         (run_rung
            ~get:(fun e -> e.Cache.full)
            ~set:(fun e s -> e.Cache.full <- Some s)
            ~simulate:slot.simulate finalists))
  in
  let sim_seconds = Unix.gettimeofday () -. t1 in
  let winner =
    match ranking with
    | w :: _ -> w
    | [] -> invalid_arg "Tune.search: empty candidate space"
  in
  (* Outside the timed sections: sizing a drained stream is free
     ([explored] covered it); otherwise one dedicated traversal. *)
  let space_size = if !drained then explored else Space.count sp in
  let conform =
    if options.conform then
      Some (Lego_conform.Conform.check_layout winner.layout)
    else None
  in
  let baselines = List.map (fun (n, s) -> (n, Lazy.force s)) slot.baselines in
  let wall = static_seconds +. sim_seconds in
  {
    slot;
    winner;
    ranking;
    explored;
    space_size;
    exhaustive = !drained;
    sampled_scored;
    static_seconds;
    sim_seconds;
    candidates_per_s = (if wall > 0.0 then float_of_int explored /. wall else 0.0);
    conform;
    baselines;
  }

let conform_ok r =
  match r.conform with
  | None -> None
  | Some o -> Some (o.Lego_conform.Conform.mismatch = None)

let pp_scored ppf sc =
  Format.fprintf ppf "@[<v 2>%s@,static: %a" sc.fingerprint Predict.pp
    sc.static_score;
  (match sc.sim with
  | Some s ->
    Format.fprintf ppf "@,simulated: %.3f us (smem %.0f cycles / %.0f accesses)"
      (s.Slot.time_s *. 1e6) s.Slot.s_cycles s.Slot.s_accesses
  | None -> ());
  Format.fprintf ppf "@]"

let pp_result ppf r =
  Format.fprintf ppf "@[<v>slot %s: %s@," r.slot.Slot.name r.slot.Slot.descr;
  Format.fprintf ppf
    "explored %d of %d candidates (%s), simulated %d, %.0f cand/s@," r.explored
    r.space_size
    (if r.exhaustive then "exhaustive" else "budget-truncated")
    (List.length r.ranking) r.candidates_per_s;
  if r.sampled_scored > 0 then
    Format.fprintf ppf "funnel: %d streamed -> %d sampled -> %d simulated@,"
      r.explored r.sampled_scored (List.length r.ranking);
  List.iter
    (fun (n, s) ->
      Format.fprintf ppf "baseline %-14s %.3f us@," n (s.Slot.time_s *. 1e6))
    r.baselines;
  Format.fprintf ppf "winner: %a@," pp_scored r.winner;
  (match r.conform with
  | Some { mismatch = None; points; c_checked; _ } ->
    Format.fprintf ppf "conformance: ok (%d points%s)@," points
      (if c_checked then "" else ", C path skipped")
  | Some { mismatch = Some m; _ } ->
    Format.fprintf ppf "conformance: MISMATCH at %s: %s@,"
      m.Lego_conform.Conform.stage m.Lego_conform.Conform.detail
  | None -> ());
  Format.fprintf ppf "@]"
