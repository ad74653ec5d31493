module L = Lego_layout
module G = Lego_gpusim

type phase =
  | Shared of { elem_bytes : int; lanes : int -> int list option }
  | Global of { elem_bytes : int; addrs : int -> int option }

type score = {
  smem_phases : int;
  smem_accesses : int;
  smem_cycles : int;
  gmem_txns : int;
  ops : int;
}

let conflict_free s = s.smem_phases > 0 && s.smem_cycles = s.smem_phases

(* The warp-access arithmetic is {!Lego_gpusim.Access} — the {e same}
   code the simulator's [cost_shared]/[cost_global] run, so predictor
   and simulator cannot drift (the conformance suite checks the
   agreement differentially anyway). *)
let bank_cycles (device : G.Device.t) ~elem_bytes addrs =
  G.Access.bank_cycles device ~elem_bytes addrs

let txn_count (device : G.Device.t) ~elem_bytes addrs =
  G.Access.txn_count device ~elem_bytes addrs

(* Phase lanes are a property of the {e slot}, not the candidate: every
   candidate in a space shares the same logical dims, so each shared
   phase's active-lane logical indices flatten to the same int array
   once, and scoring a candidate is then one evaluation per distinct
   index.  Global phases never route through the candidate at all, so
   their transaction total is a constant of the phase list. *)
type shared_phase = {
  sp_elem : int;
  sp_pos : int array;
      (** Positions into [p_uniq].  Phases overlap heavily (a store
          sweep and a load sweep cover the same tile), so each distinct
          index is evaluated through the candidate once and the phases
          gather from the shared value buffer. *)
}

type prep = {
  p_phases : phase list;
  p_device : G.Device.t;
  p_dims : L.Shape.t;
  p_uniq : int array;  (** Distinct flat logical indices, all phases. *)
  p_shared : shared_phase list;  (** Shared phases with an active lane. *)
  p_fixed : score;
      (** Every field no candidate changes: the active shared phases,
          their lanes, the global transactions; [smem_cycles] and [ops]
          are 0. *)
}

let indices pc = pc.p_uniq

let prepare ?(device = G.Device.a100) ~dims phases =
  let lanes_of f =
    List.filter_map f (List.init device.warp_size Fun.id)
  in
  let pos_of = Hashtbl.create 256 in
  let uniq = ref [] and nuniq = ref 0 in
  let position flat =
    match Hashtbl.find_opt pos_of flat with
    | Some p -> p
    | None ->
      let p = !nuniq in
      Hashtbl.add pos_of flat p;
      uniq := flat :: !uniq;
      incr nuniq;
      p
  in
  let shared, txns =
    List.fold_left
      (fun (shared, txns) phase ->
        match phase with
        | Shared { elem_bytes; lanes } -> (
          match lanes_of lanes with
          | [] -> (shared, txns)
          | idxs ->
            let flat idx = position (L.Shape.flatten_ints dims idx) in
            let sp =
              { sp_elem = elem_bytes; sp_pos = Array.of_list (List.map flat idxs) }
            in
            (sp :: shared, txns))
        | Global { elem_bytes; addrs } ->
          (* Global patterns never route through the candidate, so they
             are counted once here. *)
          let addrs = lanes_of addrs in
          if addrs = [] then (shared, txns)
          else (shared, txns + txn_count device ~elem_bytes addrs))
      ([], 0) phases
  in
  let shared = List.rev shared in
  {
    p_phases = phases;
    p_device = device;
    p_dims = dims;
    p_uniq = Array.of_list (List.rev !uniq);
    p_shared = shared;
    p_fixed =
      {
        smem_phases = List.length shared;
        smem_accesses =
          List.fold_left (fun n sp -> n + Array.length sp.sp_pos) 0 shared;
        smem_cycles = 0;
        gmem_txns = txns;
        ops = 0;
      };
  }

(* {!score}'s one-entry cache of the preparation, keyed on every input
   [prepare] reads: the phase list (physically: the slot record holds
   one list for the whole search), the device and the dims.
   Domain-local because scoring runs inside [Exec.map] workers. *)
let prep_cache : prep option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let prep_for ~device ~dims phases =
  let cache = Domain.DLS.get prep_cache in
  match !cache with
  | Some pc
    when pc.p_phases == phases
         && (pc.p_device == device || pc.p_device = device)
         && pc.p_dims = dims ->
    pc
  | _ ->
    let pc = prepare ~device ~dims phases in
    cache := Some pc;
    pc

(* Scratch buffers for the scoring loop — per domain, grown to the
   largest slot ever scored, so an evaluation allocates only its half
   tables: [vals] holds the candidate's value at each distinct logical
   index, [batch] one phase's gathered warp addresses. *)
let scratch : (int array ref * int array ref) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (ref [||], ref [||]))

let scratch_get n =
  let r = fst (Domain.DLS.get scratch) in
  if Array.length !r < n then r := Array.make n 0;
  !r

let batch_get n =
  let r = snd (Domain.DLS.get scratch) in
  if Array.length !r < n then r := Array.make n 0;
  !r

(* Per-dimension decomposition of the symbolic op count.  A chain stage
   contributes the same index arithmetic whatever the other stages are,
   so the op cost of a candidate decomposes (up to the constant glue the
   default weights assign to composition, which is identical for every
   candidate of a family) into a sum of per-stage costs.  Candidates
   share stages heavily — every member of a swizzle grid shares its base
   tiling, every tiling shares pieces — so memoizing per {e stage}
   instead of per candidate turns the [Sym.apply]+[Cost.ops] cost into a
   table hit for all but the first carrier of each stage.  It is the
   static pass's op count in every tune mode.  The same entry keeps the
   stage's F₂ map, so a candidate's outer stage costs one print and one
   lookup. *)
type stage = { s_ops : int; s_map : Lego_f2.Linear.t option }

let stage_memo : (string, stage) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let stage_of (o : L.Order_by.t) =
  let key = L.Order_by.to_string o in
  let tbl = Domain.DLS.get stage_memo in
  match Hashtbl.find_opt tbl key with
  | Some st -> st
  | None ->
    let wrap = L.Group_by.make ~chain:[ o ] [ [ L.Order_by.numel o ] ] in
    let st =
      {
        s_ops = Lego_symbolic.Cost.ops (Lego_symbolic.Sym.apply wrap);
        s_map = Lego_f2.Linear.of_stage o;
      }
    in
    Hashtbl.add tbl key st;
    st

(* A candidate [o :: rest] maps a logical index through [rest] first
   and [o] last, so its F₂ map is [o]'s stage map after [rest]'s and
   its op count [o]'s plus [rest]'s.  Streams emit each base tiling
   followed by its whole swizzle grid, every member sharing the base's
   chain list physically, so both are kept for [rest] in a one-entry
   memo keyed on the physical identity of [rest]: consecutive
   candidates then print and look up only their outer stage.  A miss
   recomputes, so the key decides the hit rate, never a value.  The
   empty tail (identity map, no ops) is never stored: its map's width
   depends on the layout. *)
type tail = {
  t_chain : L.Order_by.t list;
  t_lin : Lego_f2.Linear.t option;  (** [None]: some stage is not F₂. *)
  t_ops : int;  (** Summed stage op counts. *)
}

let tail_memo : tail option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let tail_of g rest =
  let memo = Domain.DLS.get tail_memo in
  match !memo with
  | Some t when t.t_chain == rest -> t
  | _ ->
    let t =
      {
        t_chain = rest;
        t_lin =
          Lego_f2.Linear.of_layout
            (L.Group_by.make ~chain:rest (L.Group_by.shapes g));
        t_ops = List.fold_left (fun acc o -> acc + (stage_of o).s_ops) 0 rest;
      }
    in
    if rest <> [] then memo := Some t;
    t

let decomposed_ops (g : L.Group_by.t) =
  match L.Group_by.chain g with
  | [] -> Lego_symbolic.Cost.ops (Lego_symbolic.Sym.apply g)
  | o :: rest -> (stage_of o).s_ops + (tail_of g rest).t_ops

(* The memory part of a score (every field but [ops]) from the
   candidate's value at each distinct index: only the bank cycles
   depend on the candidate, gathered per phase and counted with the
   simulator's own {!Lego_gpusim.Access} arithmetic. *)
let memory_of_values pc vals =
  let device = pc.p_device in
  let batch = batch_get device.warp_size in
  let cycles = ref 0 in
  List.iter
    (fun sp ->
      let pos = sp.sp_pos in
      let n = Array.length pos in
      (* [n] <= warp size <= [Array.length batch]. *)
      for i = 0 to n - 1 do
        Array.unsafe_set batch i vals.(Array.unsafe_get pos i)
      done;
      cycles :=
        !cycles
        + G.Access.bank_cycles_arr device ~elem_bytes:sp.sp_elem batch n)
    pc.p_shared;
  { pc.p_fixed with smem_cycles = !cycles }

let memory pc map =
  let vals = scratch_get (Array.length pc.p_uniq) in
  Lego_f2.Linear.apply_into map pc.p_uniq vals;
  memory_of_values pc vals

type step = Map of { ops : int; map : Lego_f2.Linear.t } | Scored of score

(* The memory part depends on a linear candidate only through its values
   at the preparation's indices, which its F₂ map fixes, so the step
   stops at the map; a candidate with no F₂ form is evaluated through
   its whole compiled chain. *)
let step pc ?ops g =
  if L.Group_by.dims g <> pc.p_dims then
    invalid_arg "Predict.step: layout dims differ from the preparation's";
  let ops_or count = match ops with Some n -> n | None -> count () in
  let ops, map =
    match L.Group_by.chain g with
    | [] ->
      ( ops_or (fun () -> decomposed_ops g),
        Lego_f2.Linear.of_layout g )
    | o :: rest ->
      let st = stage_of o and tail = tail_of g rest in
      ( ops_or (fun () -> st.s_ops + tail.t_ops),
        match (st.s_map, tail.t_lin) with
        | Some s, Some t -> Some (Lego_f2.Linear.compose s t)
        | _ -> None )
  in
  match map with
  | Some map -> Map { ops; map }
  | None ->
    let c = Compiled.compile g in
    let vals = scratch_get (Array.length pc.p_uniq) in
    Array.iteri (fun i x -> vals.(i) <- Compiled.apply_flat c x) pc.p_uniq;
    Scored { (memory_of_values pc vals) with ops }

let score ?(device = G.Device.a100) ?memoize:_ ?ops g phases =
  let pc = prep_for ~device ~dims:(L.Group_by.dims g) phases in
  match step pc ?ops g with
  | Map { ops; map } -> { (memory pc map) with ops }
  | Scored s -> s

(* Total order used for pruning and beam survival: fewest conflict cycles
   first, then fewest global transactions, then cheapest index
   arithmetic; the fingerprint breaks remaining ties so the order never
   depends on traversal or scheduling. *)
let compare_ranked (s1, fp1) (s2, fp2) =
  let c = compare s1.smem_cycles s2.smem_cycles in
  if c <> 0 then c
  else
    let c = compare s1.gmem_txns s2.gmem_txns in
    if c <> 0 then c
    else
      let c = compare s1.ops s2.ops in
      if c <> 0 then c else Fingerprint.compare fp1 fp2

let pp ppf s =
  Format.fprintf ppf
    "smem %d cyc / %d phases (%s), gmem %d txns, %d ops"
    s.smem_cycles s.smem_phases
    (if conflict_free s then "conflict-free" else "conflicted")
    s.gmem_txns s.ops
