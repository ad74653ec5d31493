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
   their transaction total is a constant of the phase list.  One-entry
   cache ([precomp_for] names its key; the slot record holds one phase
   list for the whole search), domain-local because scoring runs inside
   [Exec.map] workers. *)
type shared_phase = {
  sp_elem : int;
  sp_pos : int array;
      (** Positions into [p_uniq].  Phases overlap heavily (a store
          sweep and a load sweep cover the same tile), so each distinct
          index is evaluated through the candidate once and the phases
          gather from the shared value buffer. *)
}

(* Keys of the F₂ memo ({!score}): the four device fields the memory
   part reads, then the map's constant and matrix columns.  The generic
   [Hashtbl.hash] reads only the first ten elements of an array, so the
   hash covers every one. *)
module Map_memo = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash (a : t) = Hashtbl.hash_param 256 256 a
end)

type precomp = {
  p_phases : phase list;
  p_dims : L.Shape.t;
  p_warp : int;
  p_txn_bytes : int;
  p_uniq : int array;  (** Distinct flat logical indices, all phases. *)
  p_shared : shared_phase list;
  p_gmem_txns : int;
  p_memo : score Map_memo.t;
      (** Memory part of a score by F₂ map ({!score}), [ops = 0]; it
          lives and dies with the precomputation, whose indices it was
          evaluated on. *)
}

let precomp_cache : precomp option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let precompute ~(device : G.Device.t) ~dims phases =
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
        | Shared { elem_bytes; lanes } ->
          let pos =
            List.map
              (fun idx -> position (L.Shape.flatten_ints dims idx))
              (lanes_of lanes)
          in
          ({ sp_elem = elem_bytes; sp_pos = Array.of_list pos } :: shared, txns)
        | Global { elem_bytes; addrs } ->
          (* Global patterns never route through the candidate, so they
             are counted once here. *)
          let addrs = lanes_of addrs in
          if addrs = [] then (shared, txns)
          else (shared, txns + txn_count device ~elem_bytes addrs))
      ([], 0) phases
  in
  {
    p_phases = phases;
    p_dims = dims;
    p_warp = device.warp_size;
    p_txn_bytes = device.global_txn_bytes;
    p_uniq = Array.of_list (List.rev !uniq);
    p_shared = List.rev shared;
    p_gmem_txns = txns;
    p_memo = Map_memo.create 1024;
  }

(* Scratch buffers for the scoring loop — per domain, grown to the
   largest slot ever scored, so per-candidate evaluation allocates
   nothing: [vals] holds the candidate's value at each distinct
   logical index, [batch] one phase's gathered warp addresses. *)
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

(* Keyed on every input [precompute] reads: the phase list, the dims,
   and the two device fields (warp width and global segment size). *)
let precomp_for ~(device : G.Device.t) ~dims phases =
  let cache = Domain.DLS.get precomp_cache in
  match !cache with
  | Some pc
    when pc.p_phases == phases && pc.p_warp = device.warp_size
         && pc.p_txn_bytes = device.global_txn_bytes && pc.p_dims = dims ->
    pc
  | _ ->
    let pc = precompute ~device ~dims phases in
    cache := Some pc;
    pc

(* Per-dimension decomposition of the symbolic op count.  A chain stage
   contributes the same index arithmetic whatever the other stages are,
   so the op cost of a candidate decomposes (up to the constant glue the
   default weights assign to composition, which is identical for every
   candidate of a family) into a sum of per-stage costs.  Candidates
   share stages heavily — every member of a swizzle grid shares its base
   tiling, every tiling shares pieces — so memoizing per {e stage}
   instead of per candidate turns the [Sym.apply]+[Cost.ops] cost into a
   table hit for all but the first carrier of each stage.  It is the
   static pass's op count in every tune mode. *)
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

(* Staged evaluation.  A candidate [o :: rest] maps a logical index
   through [rest] first and [o] last, so its F₂ map is [o]'s stage map
   after [rest]'s, its op count [o]'s plus [rest]'s, and its value
   vector [o]'s compiled stage applied to [rest]'s.  Streams emit each
   base tiling followed by its whole swizzle grid, every member sharing
   the base's chain list physically, so all three are kept for [rest]
   in one entry of a one-entry memo keyed on the physical identity of
   [rest]: consecutive candidates then compile, print and evaluate only
   their outer stage.  The value vector is built only when a candidate
   misses the F₂ memo, for the precomputation whose indices it covers.
   A miss recomputes, so the key decides the hit rate, never a value.
   The empty tail (identity map, no ops, the indices themselves) is
   never stored: its map's width depends on the layout. *)
type tail = {
  t_chain : L.Order_by.t list;
  t_lin : Lego_f2.Linear.t option;  (** [None]: some stage is not F₂. *)
  t_ops : int;  (** Summed {!stage_ops}. *)
  mutable t_vals : (precomp * int array) option;
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
        t_ops = List.fold_left (fun acc o -> acc + stage_ops o) 0 rest;
        t_vals = None;
      }
    in
    if rest <> [] then memo := Some t;
    t

let tail_vals pc t =
  match (t.t_chain, t.t_vals) with
  | [], _ -> pc.p_uniq
  | _, Some (p, v) when p == pc -> v
  | rest, _ ->
    let v = Array.map (Compiled.chain rest) pc.p_uniq in
    t.t_vals <- Some (pc, v);
    v

(* A candidate's value at each distinct index: its outer stage's
   compiled map over the tail's vector, in the domain's scratch buffer. *)
let values pc t o =
  let base = tail_vals pc t in
  let n = Array.length base in
  let vals = scratch_get n in
  let f = Compiled.stage o in
  for i = 0 to n - 1 do
    Array.unsafe_set vals i (f (Array.unsafe_get base i))
  done;
  vals

let decomposed_ops (g : L.Group_by.t) =
  match L.Group_by.chain g with
  | [] -> Lego_symbolic.Cost.ops (Lego_symbolic.Sym.apply g)
  | o :: rest -> stage_ops o + (tail_of g rest).t_ops

(* The memory part of a score (every field but [ops]) from the
   candidate's value at each distinct index, gathered per phase and
   counted with the simulator's own {!Lego_gpusim.Access} arithmetic. *)
let memory (device : G.Device.t) pc vals =
  let batch = batch_get device.warp_size in
  List.fold_left
    (fun acc sp ->
      let n = Array.length sp.sp_pos in
      if n = 0 then acc
      else begin
        for i = 0 to n - 1 do
          batch.(i) <- vals.(sp.sp_pos.(i))
        done;
        {
          acc with
          smem_phases = acc.smem_phases + 1;
          smem_accesses = acc.smem_accesses + n;
          smem_cycles =
            acc.smem_cycles
            + G.Access.bank_cycles_arr device ~elem_bytes:sp.sp_elem batch n;
        }
      end)
    {
      smem_phases = 0;
      smem_accesses = 0;
      smem_cycles = 0;
      gmem_txns = pc.p_gmem_txns;
      ops = 0;
    }
    pc.p_shared

let map_key (device : G.Device.t) lin =
  let bits = Lego_f2.Linear.bits lin and m = Lego_f2.Linear.mat lin in
  let k = Array.make (5 + bits) 0 in
  k.(0) <- device.warp_size;
  k.(1) <- device.smem_banks;
  k.(2) <- device.smem_bank_bytes;
  k.(3) <- device.global_txn_bytes;
  k.(4) <- Lego_f2.Linear.const lin;
  for j = 0 to bits - 1 do
    k.(5 + j) <- Lego_f2.Bitmat.col m j
  done;
  k

(* The memory part depends on the candidate only through its values at
   the precomputation's indices, which its F₂ map fixes: candidates with
   one map share one [memory] evaluation, and only the op count is per
   text.  Candidates with no F₂ form evaluate every time, and so does
   the empty chain, whose values are the indices themselves. *)
let score ?(device = G.Device.a100) ?memoize:_ ?ops g phases =
  let pc = precomp_for ~device ~dims:(L.Group_by.dims g) phases in
  match L.Group_by.chain g with
  | [] ->
    let ops = match ops with Some n -> n | None -> decomposed_ops g in
    { (memory device pc pc.p_uniq) with ops }
  | o :: rest ->
    let tail = tail_of g rest in
    let ops = match ops with Some n -> n | None -> stage_ops o + tail.t_ops in
    let mem =
      match (Lego_f2.Linear.of_stage o, tail.t_lin) with
      | Some s, Some t -> (
        let key = map_key device (Lego_f2.Linear.compose s t) in
        match Map_memo.find_opt pc.p_memo key with
        | Some m -> m
        | None ->
          let m = memory device pc (values pc tail o) in
          Map_memo.add pc.p_memo key m;
          m)
      | _ -> memory device pc (values pc tail o)
    in
    { mem with ops }

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
