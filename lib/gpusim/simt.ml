open Effect
open Effect.Deep

type ctx = {
  bx : int;
  by : int;
  tx : int;
  ty : int;
  bdx : int;
  bdy : int;
  gdx : int;
  gdy : int;
}

let linear_tid ctx = (ctx.ty * ctx.bdx) + ctx.tx

type _ Effect.t +=
  | E_gload : Mem.buffer * int -> float Effect.t
  | E_gstore : Mem.buffer * int * float -> unit Effect.t
  | E_sload : int -> float Effect.t
  | E_sstore : int * float -> unit Effect.t
  | E_sync : unit Effect.t
  | E_flops : Mem.dtype * bool * int -> unit Effect.t
  | E_alu : int -> unit Effect.t
  | E_noop : unit Effect.t

let gload buf i = perform (E_gload (buf, i))
let gstore buf i v = perform (E_gstore (buf, i, v))
let sload i = perform (E_sload i)
let sstore i v = perform (E_sstore (i, v))
let sync () = perform E_sync
let flops ?(tensor = false) dt n = perform (E_flops (dt, tensor, n))
let alu n = if n > 0 then perform (E_alu n)
let noop () = perform E_noop

type counters = {
  mutable insn_warp : float;
  mutable g_txns : float;
  mutable g_bytes : float;
  mutable l2_hits : float;
  mutable s_accesses : float;
  mutable s_cycles : float;
  mutable flops_fp32 : float;
  mutable flops_fp16 : float;
  mutable flops_fp8 : float;
  mutable flops_tensor_fp16 : float;
  mutable flops_tensor_fp8 : float;
  mutable syncs : float;
}

let fresh_counters () =
  {
    insn_warp = 0.0;
    g_txns = 0.0;
    g_bytes = 0.0;
    l2_hits = 0.0;
    s_accesses = 0.0;
    s_cycles = 0.0;
    flops_fp32 = 0.0;
    flops_fp16 = 0.0;
    flops_fp8 = 0.0;
    flops_tensor_fp16 = 0.0;
    flops_tensor_fp8 = 0.0;
    syncs = 0.0;
  }

type report = {
  device : Device.t;
  grid : int * int;
  block : int * int;
  blocks_simulated : int;
  counters : counters;
}

(* A fiber parked on its next device operation. *)
type parked =
  | P_gload of Mem.buffer * int * (float, unit) continuation
  | P_gstore of Mem.buffer * int * float * (unit, unit) continuation
  | P_sload of int * (float, unit) continuation
  | P_sstore of int * float * (unit, unit) continuation
  | P_sync of (unit, unit) continuation
  | P_flops of Mem.dtype * bool * int * (unit, unit) continuation
  | P_alu of int * (unit, unit) continuation
  | P_noop of (unit, unit) continuation

let is_sync = function P_sync _ -> true | _ -> false

(* Cost a warp's batch of global accesses: one transaction per distinct
   (buffer, segment) pair, each filtered through the launch's L2.
   [Access.Seg.fold] iterates segments in ascending order, so the L2
   sees a canonical access sequence regardless of lane order. *)
let cost_global device l2 c accesses =
  let segs = Access.segments device accesses in
  let n = Access.Seg.cardinal segs in
  let hits =
    Access.Seg.fold
      (fun seg acc -> if L2.access l2 seg then acc + 1 else acc)
      segs 0
  in
  c.g_txns <- c.g_txns +. float_of_int n;
  c.g_bytes <- c.g_bytes +. float_of_int (n * device.Device.global_txn_bytes);
  c.l2_hits <- c.l2_hits +. float_of_int hits;
  c.insn_warp <- c.insn_warp +. 1.0

(* Cost a warp's batch of shared accesses: the bank-conflict degree is the
   largest number of distinct bank words hitting one bank.  Banks are
   [smem_bank_bytes] wide and interleaved by byte address, so the element
   width matters: two F16 elements sharing one 4-byte bank word are a
   single (broadcast) access, while element strides that only look
   conflict-free in word units may serialize. *)
let cost_shared device ~elem_bytes c addrs =
  c.s_accesses <- c.s_accesses +. float_of_int (List.length addrs);
  c.s_cycles <-
    c.s_cycles +. float_of_int (Access.bank_cycles device ~elem_bytes addrs);
  c.insn_warp <- c.insn_warp +. 1.0

let record_flops c dt tensor n warp_count =
  let fl = float_of_int (n * warp_count) in
  (match (dt, tensor) with
  | Mem.F32, _ | Mem.I32, _ -> c.flops_fp32 <- c.flops_fp32 +. fl
  | Mem.F16, false -> c.flops_fp16 <- c.flops_fp16 +. fl
  | Mem.F16, true -> c.flops_tensor_fp16 <- c.flops_tensor_fp16 +. fl
  | Mem.F8, false -> c.flops_fp8 <- c.flops_fp8 +. fl
  | Mem.F8, true -> c.flops_tensor_fp8 <- c.flops_tensor_fp8 +. fl);
  c.insn_warp <- c.insn_warp +. 1.0

let run_block ~device ~l2 ~counters ~smem_elem_bytes ~block:(bdx, bdy)
    ~grid:(gdx, gdy) ~smem_words ~bx ~by body =
  let nthreads = bdx * bdy in
  let smem = Array.make smem_words 0.0 in
  let slots : parked option array = Array.make nthreads None in
  let cur = ref 0 in
  let remaining = ref nthreads in
  (* Addresses are validated here, when the op is parked, so an
     out-of-bounds access raises before any cost reaches [counters]. *)
  let guard_shared addr =
    if addr < 0 || addr >= smem_words then
      invalid_arg
        (Printf.sprintf "Simt: shared access %d outside 0..%d" addr
           (smem_words - 1))
  in
  let guard_global (b : Mem.buffer) addr =
    if addr < 0 || addr >= Array.length b.Mem.data then
      invalid_arg
        (Printf.sprintf "Simt: buffer %S access %d outside 0..%d" b.Mem.label
           addr
           (Array.length b.Mem.data - 1))
  in
  let handler : (unit, unit) handler =
    {
      retc = (fun () -> decr remaining);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_gload (b, i) ->
            Some
              (fun (k : (a, unit) continuation) ->
                guard_global b i;
                slots.(!cur) <- Some (P_gload (b, i, k)))
          | E_gstore (b, i, v) ->
            Some
              (fun k ->
                guard_global b i;
                slots.(!cur) <- Some (P_gstore (b, i, v, k)))
          | E_sload i ->
            Some
              (fun k ->
                guard_shared i;
                slots.(!cur) <- Some (P_sload (i, k)))
          | E_sstore (i, v) ->
            Some
              (fun k ->
                guard_shared i;
                slots.(!cur) <- Some (P_sstore (i, v, k)))
          | E_sync -> Some (fun k -> slots.(!cur) <- Some (P_sync k))
          | E_flops (dt, tensor, n) ->
            Some (fun k -> slots.(!cur) <- Some (P_flops (dt, tensor, n, k)))
          | E_alu n -> Some (fun k -> slots.(!cur) <- Some (P_alu (n, k)))
          | E_noop -> Some (fun k -> slots.(!cur) <- Some (P_noop k))
          | _ -> None);
    }
  in
  (* Launch every thread fiber; each runs to its first device op. *)
  for ty = 0 to bdy - 1 do
    for tx = 0 to bdx - 1 do
      let ctx = { bx; by; tx; ty; bdx; bdy; gdx; gdy } in
      cur := linear_tid ctx;
      match_with body ctx handler
    done
  done;
  let resume_unit tid (k : (unit, unit) continuation) =
    cur := tid;
    continue k ()
  in
  let resume_float tid (k : (float, unit) continuation) v =
    cur := tid;
    continue k v
  in
  let warp_of tid = tid / device.Device.warp_size in
  (* Lock-step rounds. *)
  while !remaining > 0 do
    let round =
      Array.to_list
        (Array.mapi (fun tid op -> Option.map (fun op -> (tid, op)) op) slots)
      |> List.filter_map Fun.id
    in
    if round = [] then
      (* All fibers finished between rounds. *)
      ()
    else begin
      let nonsync = List.filter (fun (_, op) -> not (is_sync op)) round in
      let ready = if nonsync = [] then round else nonsync in
      (* Clear the processed slots before resuming (fibers re-park). *)
      List.iter (fun (tid, _) -> slots.(tid) <- None) ready;
      (* Group by warp to account for coalescing and bank conflicts.
         Warps are visited in ascending id so the (stateful) L2 model
         sees a canonical access order. *)
      let by_warp = Hashtbl.create 8 in
      List.iter
        (fun (tid, op) ->
          let w = warp_of tid in
          Hashtbl.replace by_warp w
            ((tid, op)
            :: Option.value ~default:[] (Hashtbl.find_opt by_warp w)))
        ready;
      let warps =
        Hashtbl.fold (fun w _ acc -> w :: acc) by_warp []
        |> List.sort_uniq compare
      in
      List.iter
        (fun w ->
          let ops = Hashtbl.find by_warp w in
          let gloads =
            List.filter_map
              (function _, P_gload (b, i, _) -> Some (b, i) | _ -> None)
              ops
          and gstores =
            List.filter_map
              (function _, P_gstore (b, i, _, _) -> Some (b, i) | _ -> None)
              ops
          and sloads =
            List.filter_map
              (function _, P_sload (i, _) -> Some i | _ -> None)
              ops
          and sstores =
            List.filter_map
              (function _, P_sstore (i, _, _) -> Some i | _ -> None)
              ops
          in
          if gloads <> [] then cost_global device l2 counters gloads;
          if gstores <> [] then cost_global device l2 counters gstores;
          if sloads <> [] then
            cost_shared device ~elem_bytes:smem_elem_bytes counters sloads;
          if sstores <> [] then
            cost_shared device ~elem_bytes:smem_elem_bytes counters sstores;
          (* flops / alu / sync of the warp this round *)
          let flop_groups = Hashtbl.create 4 in
          let alu_max = ref 0 in
          let sync_count = ref 0 in
          List.iter
            (fun (_, op) ->
              match op with
              | P_flops (dt, tensor, n, _) ->
                let key = (dt, tensor) in
                Hashtbl.replace flop_groups key
                  (n
                  + Option.value ~default:0 (Hashtbl.find_opt flop_groups key))
              | P_alu (n, _) ->
                (* Lock-stepped threads execute the same scalar ops, so a
                   warp's integer work this round is the widest thread's
                   count of warp instructions, not the sum. *)
                alu_max := max !alu_max n
              | P_sync _ -> incr sync_count
              | P_noop _ | P_gload _ | P_gstore _ | P_sload _ | P_sstore _ ->
                ())
            ops;
          Hashtbl.iter
            (fun (dt, tensor) n -> record_flops counters dt tensor n 1)
            flop_groups;
          if !alu_max > 0 then
            counters.insn_warp <- counters.insn_warp +. float_of_int !alu_max;
          if !sync_count > 0 then begin
            counters.syncs <- counters.syncs +. 1.0;
            counters.insn_warp <- counters.insn_warp +. 1.0
          end)
        warps;
      (* Execute stores before loads for deterministic same-round access. *)
      List.iter
        (fun (_, op) ->
          match op with
          | P_gstore (b, i, v, _) -> b.Mem.data.(i) <- v
          | P_sstore (i, v, _) -> smem.(i) <- v
          | _ -> ())
        ready;
      List.iter
        (fun (tid, op) ->
          match op with
          | P_gload (b, i, k) -> resume_float tid k b.Mem.data.(i)
          | P_sload (i, k) -> resume_float tid k smem.(i)
          | P_gstore (_, _, _, k)
          | P_sstore (_, _, k)
          | P_sync k
          | P_flops (_, _, _, k)
          | P_alu (_, k)
          | P_noop k ->
            resume_unit tid k)
        ready
    end
  done

(* Evenly strided sample across the whole grid: block [s] of the sample
   maps to [s * total / simulated], so the first sample is block 0, the
   stride is proportional, and the last sample lands within one stride
   of the grid tail (no stranded suffix). *)
let sample_indices ~total ~simulated =
  List.init simulated (fun s -> s * total / simulated)

let scale_counters c scale =
  c.insn_warp <- c.insn_warp *. scale;
  c.g_txns <- c.g_txns *. scale;
  c.g_bytes <- c.g_bytes *. scale;
  c.l2_hits <- c.l2_hits *. scale;
  c.s_accesses <- c.s_accesses *. scale;
  c.s_cycles <- c.s_cycles *. scale;
  c.flops_fp32 <- c.flops_fp32 *. scale;
  c.flops_fp16 <- c.flops_fp16 *. scale;
  c.flops_fp8 <- c.flops_fp8 *. scale;
  c.flops_tensor_fp16 <- c.flops_tensor_fp16 *. scale;
  c.flops_tensor_fp8 <- c.flops_tensor_fp8 *. scale;
  c.syncs <- c.syncs *. scale

let launch ~device ?sample_blocks ~grid:(gdx, gdy) ~block:(bdx, bdy) start =
  if gdx <= 0 || gdy <= 0 then invalid_arg "Simt.run: empty grid";
  if bdx <= 0 || bdy <= 0 then invalid_arg "Simt.run: empty block";
  if bdx * bdy > device.Device.max_threads_per_block then
    invalid_arg "Simt.run: block exceeds device thread limit";
  let total_blocks = gdx * gdy in
  let simulated =
    match sample_blocks with
    | None -> total_blocks
    | Some n when n <= 0 -> invalid_arg "Simt.run: sample_blocks must be > 0"
    | Some n -> min n total_blocks
  in
  let c = fresh_counters () in
  let block = start (L2.create device) c in
  List.iter
    (fun b -> block ~bx:(b mod gdx) ~by:(b / gdx))
    (sample_indices ~total:total_blocks ~simulated);
  if simulated < total_blocks then
    scale_counters c (float_of_int total_blocks /. float_of_int simulated);
  {
    device;
    grid = (gdx, gdy);
    block = (bdx, bdy);
    blocks_simulated = simulated;
    counters = c;
  }

let run ?(device = Device.a100) ?(smem_dtype = Mem.F32) ?sample_blocks ~grid
    ~block ~smem_words body =
  let smem_elem_bytes = Mem.dtype_bytes smem_dtype in
  launch ~device ?sample_blocks ~grid ~block
    (fun l2 counters ~bx ~by ->
      run_block ~device ~l2 ~counters ~smem_elem_bytes ~block ~grid
        ~smem_words ~bx ~by body)
