module Seg = Set.Make (struct
  type t = int * int

  let compare = compare
end)

(* These two counters are the hot inner loop of both the simulator's
   warp rounds and the tuner's static phase scoring (thousands of calls
   per candidate).  The array variants are the implementation; the list
   variants wrap them, so there is exactly one copy of each counting
   rule. *)

(* Bank and segment geometry is power-of-two on every real device, so
   the per-address divisions strength-reduce to shifts; the division
   form remains for exotic configurations.  [lsr] agrees with [/] only
   for non-negative values, which the guards upstream (and layout
   bijectivity) ensure — the [addr >= 0] test keeps the two forms
   identical even on unguarded inputs. *)
let pow2 x = x > 0 && x land (x - 1) = 0

let log2 x =
  let k = ref 0 in
  let v = ref x in
  while !v > 1 do
    incr k;
    v := !v lsr 1
  done;
  !k

(* Distinct counting uses a per-domain set with generation stamps: a
   value is in the current batch's set iff its stamp equals the batch's
   generation, so starting a batch is one increment — no clearing, no
   allocation.  Small non-negative values (every shared-memory word of
   a tile) index a stamp array directly; the rest (global segments of
   large buffers, negative words) go to an open-addressed table of at
   least twice the warp size.  A batch inserts at most [warp_size + 1]
   distinct values before the overflow check fires, so probing always
   finds a free slot.  Bank degrees are stamped the same way. *)
let direct_cap = 1 lsl 14

type scratch = {
  mutable gen : int;
  direct : int array;
  mutable keys : int array;
  mutable used : int array;
  mutable degree : int array;
  mutable degree_gen : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        gen = 0;
        direct = Array.make direct_cap 0;
        keys = [||];
        used = [||];
        degree = [||];
        degree_gen = [||];
      })

let start_batch (device : Device.t) =
  let s = Domain.DLS.get scratch_key in
  let want = 2 * device.Device.warp_size in
  if Array.length s.used < want then begin
    let cap = ref 64 in
    while !cap < want do
      cap := 2 * !cap
    done;
    s.keys <- Array.make !cap 0;
    s.used <- Array.make !cap 0
  end;
  let nbanks = device.Device.smem_banks in
  if Array.length s.degree < nbanks then begin
    s.degree <- Array.make nbanks 0;
    s.degree_gen <- Array.make nbanks 0
  end;
  s.gen <- s.gen + 1;
  s

(* Insert [x] into the batch's set; true iff it was not yet there. *)
let add s x =
  let g = s.gen in
  if x >= 0 && x < direct_cap then
    if Array.unsafe_get s.direct x = g then false
    else begin
      Array.unsafe_set s.direct x g;
      true
    end
  else begin
    let mask = Array.length s.used - 1 in
    let rec probe h =
      if Array.unsafe_get s.used h <> g then begin
        Array.unsafe_set s.used h g;
        Array.unsafe_set s.keys h x;
        true
      end
      else if Array.unsafe_get s.keys h = x then false
      else probe ((h + 1) land mask)
    in
    probe (((x * 0x1E3779B97F4A7C15) lsr 29) land mask)
  end

let bank_cycles_arr (device : Device.t) ~elem_bytes addrs n =
  let nbanks = device.Device.smem_banks in
  let bb = device.Device.smem_bank_bytes in
  let shift = if pow2 bb then log2 bb else -1 in
  let bmask = if pow2 nbanks then nbanks - 1 else -1 in
  let warp = device.Device.warp_size in
  let s = start_batch device in
  let g = s.gen in
  let nw = ref 0 and worst = ref 1 in
  for k = 0 to n - 1 do
    let b = Array.unsafe_get addrs k * elem_bytes in
    let word = if shift >= 0 && b >= 0 then b lsr shift else b / bb in
    (* Distinct words only: same-word lanes broadcast in one cycle. *)
    if add s word then begin
      if !nw >= warp then invalid_arg "Access: batch > warp";
      incr nw;
      let bank =
        if bmask >= 0 && word >= 0 then word land bmask else word mod nbanks
      in
      (* Bounds-checked on purpose: a negative word's remainder is
         negative and must raise, as indexing a per-bank array does. *)
      let d = if s.degree_gen.(bank) = g then s.degree.(bank) + 1 else 1 in
      s.degree_gen.(bank) <- g;
      s.degree.(bank) <- d;
      if d > !worst then worst := d
    end
  done;
  !worst

let bank_cycles device ~elem_bytes addrs =
  let a = Array.of_list addrs in
  bank_cycles_arr device ~elem_bytes a (Array.length a)

let segments (device : Device.t) accesses =
  List.fold_left
    (fun acc (buf, addr) ->
      let bytes = Mem.dtype_bytes buf.Mem.dtype in
      Seg.add (buf.Mem.id, addr * bytes / device.Device.global_txn_bytes) acc)
    Seg.empty accesses

let txn_count_arr (device : Device.t) ~elem_bytes addrs n =
  let tb = device.Device.global_txn_bytes in
  let shift = if pow2 tb then log2 tb else -1 in
  let warp = device.Device.warp_size in
  let s = start_batch device in
  let ns = ref 0 in
  for k = 0 to n - 1 do
    let b = Array.unsafe_get addrs k * elem_bytes in
    let seg = if shift >= 0 && b >= 0 then b lsr shift else b / tb in
    if add s seg then begin
      if !ns >= warp then invalid_arg "Access: batch > warp";
      incr ns
    end
  done;
  !ns

let txn_count device ~elem_bytes addrs =
  let a = Array.of_list addrs in
  txn_count_arr device ~elem_bytes a (Array.length a)
