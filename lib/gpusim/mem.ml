type dtype = F8 | F16 | F32 | I32

let dtype_bytes = function F8 -> 1 | F16 -> 2 | F32 -> 4 | I32 -> 4
let dtype_name = function F8 -> "fp8" | F16 -> "fp16" | F32 -> "fp32" | I32 -> "i32"

type buffer = { id : int; label : string; dtype : dtype; data : float array }

(* Atomic: buffers are created from execution-layer worker domains (the
   bench sweeps run one simulated kernel configuration per task), and ids
   must stay distinct so coalescing never conflates two buffers. *)
let next_id = Atomic.make 0

let create ?(label = "buf") dtype n =
  { id = 1 + Atomic.fetch_and_add next_id 1; label; dtype; data = Array.make n 0.0 }

let init ?(label = "buf") dtype n f =
  { id = 1 + Atomic.fetch_and_add next_id 1; label; dtype; data = Array.init n f }

let length b = Array.length b.data
let get b i = b.data.(i)
let set b i v = b.data.(i) <- v

let fill_random b =
  let state = Random.State.make [| 7; b.id |] in
  Array.iteri
    (fun i _ -> b.data.(i) <- (Random.State.float state 2.0) -. 1.0)
    b.data

let create_arena ?label dtype requested ~cap =
  if cap <= 0 then invalid_arg "Mem.create_arena: cap must be positive";
  if requested <= cap then (create ?label dtype requested, Fun.id)
  else
    let buf = create ?label dtype cap in
    (* Euclidean remainder: OCaml [mod] is negative for negative addresses
       and would fold them out of bounds. *)
    let fold addr =
      let r = addr mod cap in
      if r < 0 then r + cap else r
    in
    (buf, fold)

let max_abs_diff b expected =
  if Array.length expected <> Array.length b.data then
    invalid_arg "Mem.max_abs_diff: length mismatch";
  let worst = ref 0.0 in
  Array.iteri
    (fun i v -> worst := Float.max !worst (Float.abs (v -. expected.(i))))
    b.data;
  !worst
