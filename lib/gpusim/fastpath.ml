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

(* One op's summary for one warp: for shared ops the active-lane count
   and bank cycles; for [Alu]/[Flops] the active-lane count alone
   ([s_cyc] unused).  [s_active = 0] marks a fully-masked warp (the op
   costs nothing for it). *)
type summary = { s_active : int; s_cyc : int }

(* The slot of a table not summarized yet, compared physically. *)
let unfilled = { s_active = -1; s_cyc = 0 }

(* Summaries indexed by [op index * warps + warp], valid under
   [geometry]: the op count, warp width, bank count and width, element
   size and block shape they were costed with. *)
type summaries = { mutable geometry : int array; mutable table : summary array }

let summaries () = { geometry = [||]; table = [||] }

let run ?(device = Device.a100) ?(smem_dtype = Mem.F32) ?sample_blocks
    ?summaries:given ~grid:(gdx, gdy) ~block:(bdx, bdy) ~smem_words prog =
  Simt.launch ~device ?sample_blocks ~grid:(gdx, gdy) ~block:(bdx, bdy)
  @@ fun l2 c ->
  let prog = Array.of_list (normalize prog) in
  let elem_bytes = Mem.dtype_bytes smem_dtype in
  let nthreads = bdx * bdy in
  let ws = device.Device.warp_size in
  let nwarps = (nthreads + ws - 1) / ws in
  (* A caller's table starts over when this run's geometry differs from
     the one it was filled under.  Without one, a private table is
     emptied before every block, so each block is summarized afresh and
     its masks and shared addresses may depend on the block. *)
  let own = Option.is_none given in
  let t = match given with Some t -> t | None -> summaries () in
  let geometry =
    [|
      Array.length prog;
      ws;
      device.Device.smem_banks;
      device.Device.smem_bank_bytes;
      elem_bytes;
      bdx;
      bdy;
    |]
  in
  if t.geometry <> geometry then begin
    t.geometry <- geometry;
    t.table <- Array.make (Array.length prog * nwarps) unfilled
  end;
  let table = t.table in
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
  fun ~bx ~by ->
  if own then Array.fill table 0 (Array.length table) unfilled;
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
  (* The per-warp workers are allocated once per block, and a
     summary already in the table is one array read: the op loop
     allocates only when it computes a summary or a global batch. *)
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
  let cached_shared masks lo hi a i =
    let s = table.(i) in
    if s != unfilled then s
    else begin
      let s = shared_summary masks lo hi a in
      table.(i) <- s;
      s
    end
  in
  let cached_activity masks lo hi i =
    let s = table.(i) in
    if s != unfilled then s
    else begin
      let s = activity masks lo hi in
      table.(i) <- s;
      s
    end
  in
  Array.iteri
    (fun oi wrapped ->
      let op, masks = unwrap [] wrapped in
      for w = 0 to nwarps - 1 do
        let lo = w * ws and hi = min nthreads ((w + 1) * ws) - 1 in
        let i = (oi * nwarps) + w in
        match op with
        | Sload a | Sstore a ->
          let s = cached_shared masks lo hi a i in
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
          let s = cached_activity masks lo hi i in
          if s.s_active > 0 then Simt.record_flops c dt tensor n s.s_active
        | Alu n ->
          let s = cached_activity masks lo hi i in
          if s.s_active > 0 then
            c.Simt.insn_warp <- c.Simt.insn_warp +. float_of_int n
        | Sync ->
          c.Simt.syncs <- c.Simt.syncs +. 1.0;
          c.Simt.insn_warp <- c.Simt.insn_warp +. 1.0
        | Masked _ -> assert false
      done)
    prog
