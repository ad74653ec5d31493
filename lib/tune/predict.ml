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

(* Phase lanes are a property of the {e slot}, not the candidate: every
   candidate in a space shares the same logical dims, so each shared
   phase's active-lane logical indices flatten to the same int array
   once.  Global phases never route through the candidate at all, so
   their transaction total is a constant of the phase list.

   A candidate is read through a {e view}: distinct points, and classes
   of shared phases that gather from the candidate's values at those
   points.  Each class's representative phase is counted once and
   weighs as many phases as the class holds.  There are two views:

   - one class per phase, over every distinct index the phases touch,
     for a candidate evaluated through its compiled chain;
   - translation classes, over their representatives' indices only,
     for an F₂-affine map: phases of one element width whose lanes
     are XOR-translates of one offset set cost any affine map the same
     cycles when the width and the bank geometry are powers of two
     (DESIGN.md section 12 gives the argument). *)
type cls = {
  c_elem : int;
  c_weight : int;  (** Phases the class stands for. *)
  c_pos : int array;
      (** The representative's lanes, as positions into the view's
          points.  Phases overlap heavily (a store sweep and a load
          sweep cover the same tile), so each distinct point is
          evaluated once and the classes gather from the values. *)
}

type view = {
  v_points : int array;  (** Distinct flat logical indices. *)
  v_classes : cls array;
}

type prep = {
  p_phases : phase list;
  p_device : G.Device.t;
  p_dims : L.Shape.t;
  p_every : view;  (** One class per active shared phase. *)
  p_translates : view;  (** Translation classes (F₂ maps only). *)
  p_fixed : score;
      (** Every field no candidate changes: the active shared phases,
          their lanes, the global transactions; [smem_cycles] and [ops]
          are 0. *)
}

let indices pc = pc.p_translates.v_points
let classes pc = Array.length pc.p_translates.v_classes

(* A phase's class key: translates of one another share
   [Translates (elem_bytes, lane-offset vector)]; [Alone i] is phase
   [i] by itself. *)
type key = Alone of int | Translates of int * int array

(* The view of [shared], [(elem_bytes, flat lanes)] per active phase in
   order, whose classes gather the phases of equal [key]: a class's
   first phase represents it, and points are numbered in first-touch
   order. *)
let view_of key shared =
  let pos_of = Hashtbl.create 256 and points = ref [] in
  let position flat =
    match Hashtbl.find_opt pos_of flat with
    | Some p -> p
    | None ->
      let p = Hashtbl.length pos_of in
      Hashtbl.add pos_of flat p;
      points := flat :: !points;
      p
  in
  let weights = Hashtbl.create 64 and reps = ref [] in
  List.iteri
    (fun i (elem, flats) ->
      let k = key i elem flats in
      match Hashtbl.find_opt weights k with
      | Some weight -> incr weight
      | None ->
        let weight = ref 1 in
        Hashtbl.add weights k weight;
        reps := (elem, weight, Array.map position flats) :: !reps)
    shared;
  {
    v_points = Array.of_list (List.rev !points);
    v_classes =
      Array.of_list
        (List.rev_map
           (fun (elem, weight, pos) ->
             { c_elem = elem; c_weight = !weight; c_pos = pos })
           !reps);
  }

let pow2 x = x > 0 && x land (x - 1) = 0

let prepare ?(device = G.Device.a100) ~dims phases =
  let lanes_of f =
    List.filter_map f (List.init device.warp_size Fun.id)
  in
  let shared, txns =
    List.fold_left
      (fun (shared, txns) phase ->
        match phase with
        | Shared { elem_bytes; lanes } -> (
          match lanes_of lanes with
          | [] -> (shared, txns)
          | idxs ->
            let flats =
              Array.of_list (List.map (L.Shape.flatten_ints dims) idxs)
            in
            ((elem_bytes, flats) :: shared, txns))
        | Global { elem_bytes; addrs } ->
          (* Global patterns never route through the candidate, so they
             are counted once here. *)
          let addrs = lanes_of addrs in
          if addrs = [] then (shared, txns)
          else (shared, txns + G.Access.txn_count device ~elem_bytes addrs))
      ([], 0) phases
  in
  let shared = List.rev shared in
  {
    p_phases = phases;
    p_device = device;
    p_dims = dims;
    p_every = view_of (fun i _ _ -> Alone i) shared;
    p_translates =
      (let geometry = pow2 device.smem_banks && pow2 device.smem_bank_bytes in
       view_of
         (fun i elem flats ->
           if geometry && pow2 elem then
             Translates (elem, Array.map (fun x -> x lxor flats.(0)) flats)
           else Alone i)
         shared);
    p_fixed =
      {
        smem_phases = List.length shared;
        smem_accesses =
          List.fold_left (fun n (_, flats) -> n + Array.length flats) 0 shared;
        smem_cycles = 0;
        gmem_txns = txns;
        ops = 0;
      };
  }

(* {!score}'s one-entry cache of the preparation, keyed on every input
   [prepare] reads: the phase list (physically: the slot record holds
   one list for the whole search), the device and the dims.
   Domain-local because callers may score inside [Exec.map] workers:
   perfbench's exec replay calls {!score} there. *)
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
   largest slot ever scored, so an evaluation allocates nothing: [vals]
   holds the candidate's value at each of a view's points, [batch] one
   class's gathered warp addresses. *)
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

(* Per-stage decomposition of the symbolic op count.  A chain stage
   contributes the same index arithmetic whatever the other stages are,
   so the op cost of a candidate decomposes (up to the constant glue the
   cost model charges for composition, which is identical for every
   candidate of a family) into a sum of per-stage costs.  Candidates
   share stages heavily — every member of a swizzle grid shares its base
   tiling, every tiling shares pieces — so a stage's count is memoized
   per domain by its printed form.  It is the static pass's op count in
   every tune mode. *)
let stage_memo : (string, int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let stage_ops (o : L.Order_by.t) =
  let key = L.Order_by.to_string o in
  let tbl = Domain.DLS.get stage_memo in
  match Hashtbl.find_opt tbl key with
  | Some n -> n
  | None ->
    let wrap = L.Group_by.make ~chain:[ o ] [ [ L.Order_by.numel o ] ] in
    let n = Lego_symbolic.Cost.ops (Lego_symbolic.Sym.apply wrap) in
    Hashtbl.add tbl key n;
    n

let decomposed_ops (g : L.Group_by.t) =
  match L.Group_by.chain g with
  | [] -> Lego_symbolic.Cost.ops (Lego_symbolic.Sym.apply g)
  | chain -> List.fold_left (fun acc o -> acc + stage_ops o) 0 chain

(* The memory part of a score (every field but [ops]) of the candidate
   whose value at a flat index is [value]: only the bank cycles depend
   on the candidate.  This is the one gather-and-count loop: [value] is
   taken once at each of [view]'s points, then each class's
   representative is gathered and counted with the simulator's own
   {!Lego_gpusim.Access} arithmetic, once, and weighs its class's
   phases. *)
let count pc view value =
  let points = view.v_points in
  let vals = scratch_get (Array.length points) in
  Array.iteri (fun i x -> Array.unsafe_set vals i (value x)) points;
  let device = pc.p_device in
  let batch = batch_get device.warp_size in
  let cycles = ref 0 in
  Array.iter
    (fun c ->
      let pos = c.c_pos in
      let n = Array.length pos in
      (* [n] <= warp size <= [Array.length batch]. *)
      for i = 0 to n - 1 do
        Array.unsafe_set batch i vals.(Array.unsafe_get pos i)
      done;
      cycles :=
        !cycles
        + c.c_weight
          * G.Access.bank_cycles_arr device ~elem_bytes:c.c_elem batch n)
    view.v_classes;
  { pc.p_fixed with smem_cycles = !cycles }

let memory pc map = count pc pc.p_translates (Lego_f2.Linear.apply map)

let direct pc c =
  if Compiled.dims c <> pc.p_dims then
    invalid_arg "Predict.direct: layout dims differ from the preparation's";
  count pc pc.p_every (Compiled.apply_flat c)

let score ?(device = G.Device.a100) ?memoize:_ ?ops g phases =
  let pc = prep_for ~device ~dims:(L.Group_by.dims g) phases in
  let ops = match ops with Some n -> n | None -> decomposed_ops g in
  let memory =
    match Lego_f2.Linear.of_layout g with
    | Some map -> memory pc map
    | None -> direct pc (Compiled.compile g)
  in
  { memory with ops }

(* Total order used for pruning and beam survival: fewest conflict cycles
   first, then fewest global transactions, then cheapest index
   arithmetic; the fingerprint breaks remaining ties so the order never
   depends on traversal or scheduling. *)
let compare_score s1 s2 =
  let c = Int.compare s1.smem_cycles s2.smem_cycles in
  if c <> 0 then c
  else
    let c = Int.compare s1.gmem_txns s2.gmem_txns in
    if c <> 0 then c else Int.compare s1.ops s2.ops

let compare_ranked (s1, fp1) (s2, fp2) =
  let c = compare_score s1 s2 in
  if c <> 0 then c else Fingerprint.compare fp1 fp2

let pp ppf s =
  Format.fprintf ppf
    "smem %d cyc / %d phases (%s), gmem %d txns, %d ops"
    s.smem_cycles s.smem_phases
    (if conflict_free s then "conflict-free" else "conflicted")
    s.gmem_txns s.ops
