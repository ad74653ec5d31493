type addr = Simt.ctx -> int
type mask = Simt.ctx -> bool

type op =
  | Gload of Mem.buffer * addr
  | Gstore of Mem.buffer * addr
  | Sload of addr
  | Sstore of addr
  | Flops of Mem.dtype * bool * int
  | Alu of int
  | Sync
  | Masked of mask * op

type program = op list

let rec validate = function
  | Masked (_, Sync) -> invalid_arg "Fastpath: sync must be uniform, not masked"
  | Masked (_, inner) -> validate inner
  | Gload _ | Gstore _ | Sload _ | Sstore _ | Flops _ | Alu _ | Sync -> ()

(* [Simt.alu n] only performs for n > 0, so an [Alu n <= 0] op occupies
   no round on the effect path.  Dropping it here (even under a mask,
   where the masked-off lanes would otherwise park a [noop] round the
   active lanes never join) keeps both paths aligned. *)
let rec live = function
  | Alu n -> n > 0
  | Masked (_, inner) -> live inner
  | _ -> true

let normalize prog =
  List.iter validate prog;
  List.filter live prog

(* --- The effect-handler derivation ------------------------------------- *)

let rec exec active ctx op =
  match op with
  | Masked (m, inner) -> exec (active && m ctx) ctx inner
  | Sync -> Simt.sync ()
  | _ when not active -> Simt.noop ()
  | Gload (b, a) -> ignore (Simt.gload b (a ctx))
  | Gstore (b, a) -> Simt.gstore b (a ctx) 0.0
  | Sload a -> ignore (Simt.sload (a ctx))
  | Sstore a -> Simt.sstore (a ctx) 0.0
  | Flops (dt, tensor, n) -> Simt.flops ~tensor dt n
  | Alu n -> Simt.alu n

let interpret prog =
  let prog = normalize prog in
  fun ctx -> List.iter (exec true ctx) prog

(* --- The vectorized runner --------------------------------------------- *)

(* Per-(key, op index, warp) summary: for shared ops the active-lane
   count and bank cycles; for [Alu]/[Flops] the active-lane count alone
   ([s_cyc] unused).  [s_active = 0] marks a fully-masked warp (the op
   costs nothing for it).  Sound for the same reason shared summaries
   are: the caching contract requires block-independent masks, so a
   warp's surviving-lane count is a constant of (key, op, warp).  The
   cache lives in domain-local storage so concurrent tuner domains
   never contend or mix entries mid-update. *)
type summary = { s_active : int; s_cyc : int }

(* The key string carries a layout fingerprint, so it is long; intern it
   to an int once per [run] call and pack (id, op, warp) into a single
   int key ([id lsl 20 lor oi lsl 6 lor w]) so cache hits hash an
   immediate and allocate nothing.  Programs of 2^14 ops or more do not
   fit the packing and simply run uncached; warps per block are bounded
   by [max_threads_per_block / warp_size <= 64] at validation. *)
type cache_state = {
  key_ids : (string, int) Hashtbl.t;
  summaries : (int, summary) Hashtbl.t;
}

let cache : cache_state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { key_ids = Hashtbl.create 64; summaries = Hashtbl.create 4096 })

let key_id st k =
  match Hashtbl.find_opt st.key_ids k with
  | Some id -> id
  | None ->
    let id = Hashtbl.length st.key_ids in
    Hashtbl.add st.key_ids k id;
    id

let clear_cache () =
  let st = Domain.DLS.get cache in
  Hashtbl.reset st.key_ids;
  Hashtbl.reset st.summaries

let run ?(device = Device.a100) ?(smem_dtype = Mem.F32) ?sample_blocks
    ?counters ?key ~grid:(gdx, gdy) ~block:(bdx, bdy) ~smem_words prog =
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
  let prog = Array.of_list (normalize prog) in
  let c = Simt.fresh_counters () in
  let l2 = L2.create device in
  let elem_bytes = Mem.dtype_bytes smem_dtype in
  let nthreads = bdx * bdy in
  let ws = device.Device.warp_size in
  let nwarps = (nthreads + ws - 1) / ws in
  let st = Domain.DLS.get cache in
  (* A summary also depends on what the run costs it with: the warp
     width, the bank geometry, the element size and the block shape
     (which threads share a warp), so the interned key covers them. *)
  let kid =
    match key with
    | Some k when Array.length prog < 16384 && nwarps <= 64 ->
      Some
        (key_id st
           (Printf.sprintf "%s|%d/%d/%d/%d/%dx%d" k ws device.Device.smem_banks
              device.Device.smem_bank_bytes elem_bytes bdx bdy))
    | _ -> None
  in
  let sbuf = Array.make ws 0 in
  let guard_shared a =
    if a < 0 || a >= smem_words then
      invalid_arg
        (Printf.sprintf "Simt: shared access %d outside 0..%d" a
           (smem_words - 1))
  in
  let guard_global (b : Mem.buffer) a =
    if a < 0 || a >= Array.length b.Mem.data then
      invalid_arg
        (Printf.sprintf "Simt: buffer %S access %d outside 0..%d" b.Mem.label a
           (Array.length b.Mem.data - 1))
  in
  let rec unwrap masks = function
    | Masked (m, inner) -> unwrap (m :: masks) inner
    | op -> (op, masks)
  in
  let bump_shared n cyc =
    c.Simt.s_accesses <- c.Simt.s_accesses +. float_of_int n;
    c.Simt.s_cycles <- c.Simt.s_cycles +. float_of_int cyc;
    c.Simt.insn_warp <- c.Simt.insn_warp +. 1.0
  in
  List.iter
    (fun b ->
      let bx = b mod gdx and by = b / gdx in
      let ctxs =
        Array.init nthreads (fun tid ->
            {
              Simt.bx;
              by;
              tx = tid mod bdx;
              ty = tid / bdx;
              bdx;
              bdy;
              gdx;
              gdy;
            })
      in
      (* The per-warp workers are allocated once per block, and cache
         hits touch nothing but the packed int key: the op loop
         allocates only when it actually computes a summary or a
         global batch. *)
      (* Lanes of this warp surviving every mask, ascending tid. *)
      let active masks lo hi =
        let acc = ref [] in
        for tid = hi downto lo do
          let ctx = ctxs.(tid) in
          if List.for_all (fun m -> m ctx) masks then acc := ctx :: !acc
        done;
        !acc
      in
      let shared_summary masks lo hi a =
        let n = ref 0 in
        for tid = lo to hi do
          let ctx = ctxs.(tid) in
          if List.for_all (fun m -> m ctx) masks then begin
            let addr = a ctx in
            guard_shared addr;
            sbuf.(!n) <- addr;
            incr n
          end
        done;
        if !n = 0 then { s_active = 0; s_cyc = 0 }
        else
          {
            s_active = !n;
            s_cyc = Access.bank_cycles_arr device ~elem_bytes sbuf !n;
          }
      in
      let activity masks lo hi =
        let k = ref 0 in
        for tid = lo to hi do
          if List.for_all (fun m -> m ctxs.(tid)) masks then incr k
        done;
        { s_active = !k; s_cyc = 0 }
      in
      let cached_shared masks lo hi a oi w =
        match kid with
        | None -> shared_summary masks lo hi a
        | Some k -> (
          let ck = (k lsl 20) lor (oi lsl 6) lor w in
          match Hashtbl.find_opt st.summaries ck with
          | Some s -> s
          | None ->
            let s = shared_summary masks lo hi a in
            Hashtbl.add st.summaries ck s;
            s)
      in
      let cached_activity masks lo hi oi w =
        match kid with
        | None -> activity masks lo hi
        | Some k -> (
          let ck = (k lsl 20) lor (oi lsl 6) lor w in
          match Hashtbl.find_opt st.summaries ck with
          | Some s -> s
          | None ->
            let s = activity masks lo hi in
            Hashtbl.add st.summaries ck s;
            s)
      in
      Array.iteri
        (fun oi wrapped ->
          let op, masks = unwrap [] wrapped in
          for w = 0 to nwarps - 1 do
            let lo = w * ws and hi = min nthreads ((w + 1) * ws) - 1 in
            match op with
            | Sload a | Sstore a ->
              let s = cached_shared masks lo hi a oi w in
              if s.s_active > 0 then bump_shared s.s_active s.s_cyc
            | Gload (buf, a) | Gstore (buf, a) -> (
              match active masks lo hi with
              | [] -> ()
              | lanes ->
                let pairs =
                  List.map
                    (fun ctx ->
                      let addr = a ctx in
                      guard_global buf addr;
                      (buf, addr))
                    lanes
                in
                Simt.cost_global device l2 c pairs)
            | Flops (dt, tensor, n) ->
              let s = cached_activity masks lo hi oi w in
              if s.s_active > 0 then Simt.record_flops c dt tensor n s.s_active
            | Alu n ->
              let s = cached_activity masks lo hi oi w in
              if s.s_active > 0 then
                c.Simt.insn_warp <- c.Simt.insn_warp +. float_of_int n
            | Sync ->
              c.Simt.syncs <- c.Simt.syncs +. 1.0;
              c.Simt.insn_warp <- c.Simt.insn_warp +. 1.0
            | Masked _ -> assert false
          done)
        prog)
    (Simt.sample_indices ~total:total_blocks ~simulated);
  if simulated < total_blocks then
    Simt.scale_counters c
      (float_of_int total_blocks /. float_of_int simulated);
  let c =
    match counters with
    | None -> c
    | Some t ->
      Simt.accumulate ~into:t c;
      t
  in
  {
    Simt.device;
    grid = (gdx, gdy);
    block = (bdx, bdy);
    blocks_simulated = simulated;
    launches = 1;
    counters = c;
  }
