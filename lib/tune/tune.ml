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
  maps : int;
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

let cmp_static a b =
  Predict.compare_ranked (a.static_score, a.fingerprint)
    (b.static_score, b.fingerprint)

(* The static order on [(score, candidate)] before any text is built:
   {!cmp_static}'s order, since {!Space.compare_text} orders as the
   fingerprints do. *)
let cmp_candidate (s1, c1) (s2, c2) =
  let c = Predict.compare_score s1 s2 in
  if c <> 0 then c else Space.compare_text c1 c2

(* The static pass of one search.  A candidate is a pair of shared
   parts ({!Space.candidates}): a base, optionally behind a swizzle
   stage.  Its op count is its parts' op counts summed, and its F₂ map
   the stage's after the base's, so the pass keeps one entry per part,
   filled the first time the part appears.  The memory part of a linear
   candidate's score is a function of its map, and a space holds far
   fewer maps than candidates (57,725 transpose [--scale] candidates,
   9,398 maps), so the pass also keeps one map -> memory table for the
   whole search, filled the first time a map appears.  A candidate with
   no F₂ map is scored in full through its compiled chain.

   The pass runs on the calling domain, one candidate at a time, and
   each entry is a pure function of its key, so every score is what
   {!Predict.score} gives, and a search computes each part's entry and
   each distinct map's memory exactly once. *)
module Maps = Hashtbl.Make (struct
  type t = Lego_f2.Linear.t

  let equal = Lego_f2.Linear.equal
  let hash = Lego_f2.Linear.hash
end)

module Static = struct
  (* A part's entry: its op count and its map.  A base's chain is never
     empty, so its {!Predict.decomposed_ops} is its stages' sum, and a
     stage over it adds the stage's own count. *)
  type part = { ops : int; map : Lego_f2.Linear.t option }

  (* Entries by part id, filled on first use. *)
  type 'a parts = { mutable slots : 'a option array; mutable filled : int }

  let parts () = { slots = [||]; filled = 0 }
  let find p id = if id < Array.length p.slots then p.slots.(id) else None

  let add p id e =
    let n = Array.length p.slots in
    if id >= n then begin
      let grown = Array.make (max (id + 1) (2 * n)) None in
      Array.blit p.slots 0 grown 0 n;
      p.slots <- grown
    end;
    p.slots.(id) <- Some e;
    p.filled <- p.filled + 1;
    e

  type t = {
    prep : Predict.prep;
    dims : L.Shape.t;
    stages : part parts;
    bases : part parts;
    table : Predict.score Maps.t;
    mutable evaluations : int;
  }

  let create (slot : Slot.t) =
    let dims = [ slot.rows; slot.cols ] in
    {
      prep = Predict.prepare ~device:slot.device ~dims slot.phases;
      dims;
      stages = parts ();
      bases = parts ();
      table = Maps.create 4096;
      evaluations = 0;
    }

  let maps t = Maps.length t.table
  let evaluations t = t.evaluations
  let stages t = t.stages.filled
  let bases t = t.bases.filled

  let stage t (s : Space.stage) =
    match find t.stages s.s_id with
    | Some e -> e
    | None ->
      add t.stages s.s_id
        {
          ops = Predict.stage_ops s.s_order;
          map = Lego_f2.Linear.of_stage s.s_order;
        }

  let base t (b : Space.base) =
    match find t.bases b.b_id with
    | Some e -> e
    | None ->
      let g = b.b_layout in
      if L.Group_by.dims g <> t.dims then
        invalid_arg "Tune.Static: candidate dims differ from the slot's";
      add t.bases b.b_id
        {
          ops = Predict.decomposed_ops g;
          map = Lego_f2.Linear.of_layout g;
        }

  (* A candidate's op count and map from its parts' entries. *)
  let parts_of t (c : Space.candidate) =
    let b = base t c.base in
    match c.stage with
    | None -> (b.ops, b.map)
    | Some s ->
      let st = stage t s in
      ( st.ops + b.ops,
        match (st.map, b.map) with
        | Some sm, Some bm when Lego_f2.Linear.bits sm = Lego_f2.Linear.bits bm
          ->
          Some (Lego_f2.Linear.compose sm bm)
        | _ -> None )

  let map t c = snd (parts_of t c)

  let score t (c : Space.candidate) =
    match parts_of t c with
    | ops, Some map ->
      let memory =
        match Maps.find_opt t.table map with
        | Some memory -> memory
        | None ->
          let memory = Predict.memory t.prep map in
          Maps.add t.table map memory;
          t.evaluations <- t.evaluations + 1;
          memory
      in
      { memory with ops }
    | ops, None ->
      t.evaluations <- t.evaluations + 1;
      let base = Compiled.compile c.base.b_layout in
      let chain =
        match c.stage with
        | None -> base
        | Some s -> Compiled.prepend s.s_order base
      in
      { (Predict.direct t.prep chain) with ops }
end

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
   - the static pass runs on the calling domain, in stream order;
   - every {e decision} (budget truncation, top-K retention, rung
     promotion, final ranking) happens sequentially in this driver,
     over totally ordered keys ({!Predict.compare_ranked} or its
     two-part form [cmp_candidate], and [(time_s, s_cycles, static,
     fingerprint)] for the sim rungs), and the top-K retained set is
     order-independent under a total comparator;
   - the only parallel step is each sim rung's {!Exec.map}, whose
     submission-order merge returns exactly the sequential result;
   - the {!Cache} of sim results is read inside those parallel sections
     (pure [find]) and written only between them, and every reported
     counter tallies the funnel's structure (rung sizes), not cache
     traffic — so a warm cache changes wall-clock only.

   Only the [*_seconds] / [candidates_per_s] timings may vary. *)
let search ?(options = default_options) ?cache (slot : Slot.t) =
  if options.budget < 1 then invalid_arg "Tune.search: budget must be >= 1";
  if options.top < 1 then invalid_arg "Tune.search: top must be >= 1";
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
  let t0 = Unix.gettimeofday () in
  (* Stage one: stream the space through the static pass, retaining
     only the best [heap_cap] candidates (plus counters).  Memory is
     O(heap_cap) + the stream's parts and dedup bits + one table entry
     per part and per distinct F₂ map, whatever the space size.  At the
     budget the pass forces one node more, so [exhaustive] reflects the
     space, not the budget, when the budget lands exactly on the last
     candidate. *)
  let heap = Topk.create ~cap:heap_cap ~cmp:cmp_candidate in
  let static = Static.create slot in
  let rec pass explored stream =
    match stream () with
    | Seq.Nil -> (explored, true)
    | Seq.Cons _ when explored >= options.budget -> (explored, false)
    | Seq.Cons (c, rest) ->
      Topk.add heap (Static.score static c, c);
      pass (explored + 1) rest
  in
  let explored, drained = pass 0 (Space.candidates sp) in
  let static_seconds = Unix.gettimeofday () -. t0 in
  (* Sim rung helper: simulate each candidate (in parallel, chunk 1 —
     few expensive tasks) and pair it with its sim.  Given a [cache],
     a candidate whose sim is cached under [get] is read instead, and
     each fresh sim is written back after the map. *)
  let run_rung ~pool ~get ~set ~simulate cands =
    let key sc = Digest.string sc.fingerprint in
    let cached sc =
      Option.bind cache (fun c ->
          Option.bind (Cache.find c ~slot:cache_slot ~fp_digest:(key sc)) get)
    in
    let sims =
      Exec.map ~chunk:1 ~pool (Array.of_list cands) (fun sc ->
          match cached sc with
          | Some sim -> (sim, true)
          | None -> (simulate ~fast:true sc.layout, false))
    in
    Option.iter
      (fun c ->
        List.iteri
          (fun i sc ->
            match sims.(i) with
            | _, true -> Cache.note_hits c 1
            | sim, false ->
              Cache.note_misses c 1;
              set (Cache.ensure c ~slot:cache_slot ~fp_digest:(key sc)) sim)
          cands)
      cache;
    List.mapi (fun i sc -> (sc, fst sims.(i))) cands
  in
  (* The sim rungs hold the search's only parallel sections, so the pool
     lives only around them.  Each rung's map spawns and joins its own
     helper domains, so [sim_seconds] includes both. *)
  let sampled_scored, ranking, sim_seconds =
    Exec.with_pool ~jobs:(max 1 options.jobs) @@ fun pool ->
    let t1 = Unix.gettimeofday () in
    let promoted =
      List.map
        (fun (static_score, c) ->
          {
            layout = Space.layout c;
            fingerprint = Space.text c;
            static_score;
            sim = None;
          })
        (Topk.sorted heap)
    in
    (* Middle rung: sampled simulation of every heap survivor, promoting
       the best [top] to full simulation. *)
    let sampled_scored, finalists =
      match slot.simulate_sampled with
      | Some simulate when use_sampled ->
        let ranked =
          List.sort cmp_sim
            (run_rung ~pool
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
           (run_rung ~pool
              ~get:(fun e -> e.Cache.full)
              ~set:(fun e s -> e.Cache.full <- Some s)
              ~simulate:slot.simulate finalists))
    in
    (sampled_scored, ranking, Unix.gettimeofday () -. t1)
  in
  let winner =
    match ranking with
    | w :: _ -> w
    | [] -> invalid_arg "Tune.search: empty candidate space"
  in
  (* Outside the timed sections: sizing a drained stream is free
     ([explored] covered it); otherwise one dedicated traversal. *)
  let space_size = if drained then explored else Space.count sp in
  (* The winner is checked on every point, with its injectivity array. *)
  let conform =
    if options.conform then
      let g = winner.layout in
      Some
        (Lego_conform.Conform.check_layout
           ~max_points:(L.Group_by.numel g) g)
    else None
  in
  let baselines = List.map (fun (n, s) -> (n, Lazy.force s)) slot.baselines in
  let wall = static_seconds +. sim_seconds in
  {
    slot;
    winner;
    ranking;
    explored;
    maps = Static.maps static;
    space_size;
    exhaustive = drained;
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

let conflict_free { slot; winner; _ } =
  Predict.conflict_free winner.static_score
  && ((not slot.Slot.full_warps)
     ||
     match winner.sim with
     | Some s -> Slot.sim_conflict_free ~device:slot.Slot.device s
     | None -> false)

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
    "explored %d of %d candidates (%s), %d distinct F₂ maps, simulated %d, \
     %.0f cand/s@,"
    r.explored r.space_size
    (if r.exhaustive then "exhaustive" else "budget-truncated")
    r.maps (List.length r.ranking) r.candidates_per_s;
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
