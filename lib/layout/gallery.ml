let two_idx name = function
  | [ i; j ] -> (i, j)
  | _ -> invalid_arg (name ^ ": expected a 2-dimensional index")

(* Generic bit tricks shared by the power-of-two layouts. *)

let bit (type a) (module D : Domain.S with type t = a) (x : a) p : a =
  D.rem (D.div x (D.const (1 lsl p))) (D.const 2)

let shl (type a) (module D : Domain.S with type t = a) (x : a) p : a =
  D.mul x (D.const (1 lsl p))

let xor_bit (type a) (module D : Domain.S with type t = a) (a : a) (b : a) : a
    =
  (* For 0/1 values: a lxor b = a + b - 2ab. *)
  D.sub (D.add a b) (D.mul (D.const 2) (D.mul a b))

let xor_word (type a) (module D : Domain.S with type t = a) ~bits (x : a)
    (y : a) : a =
  let acc = ref (D.const 0) in
  for b = 0 to bits - 1 do
    let xb = bit (module D) x b and yb = bit (module D) y b in
    acc := D.add !acc (shl (module D) (xor_bit (module D) xb yb) b)
  done;
  !acc

let log2_exact name n =
  let rec go acc m =
    if m = 1 then acc
    else if m mod 2 <> 0 then invalid_arg (name ^ ": size must be a power of 2")
    else go (acc + 1) (m / 2)
  in
  if n <= 0 then invalid_arg (name ^ ": size must be positive");
  go 0 n

(* Anti-diagonal order (paper, figure 8). *)

let antidiag_apply (type a) (module D : Domain.S with type t = a) n idx : a =
  let i, j = two_idx "antidiag" idx in
  let c k = D.const k in
  let adg = D.add (D.add i j) (c 1) in
  (* gauss t = t*(t-1)/2, exact because t*(t-1) is even. *)
  let gauss t = D.div (D.mul t (D.sub t (c 1))) (c 2) in
  let lower = D.add i (gauss adg) in
  let adg' = D.sub (c (2 * n)) adg in
  let upper = D.sub (D.add (c ((n * n) - n)) i) (gauss adg') in
  D.select (D.le adg (c n)) lower upper

let antidiag_inv (type a) (module D : Domain.S with type t = a) n flat : a list
    =
  let c k = D.const k in
  let s = n * (n + 1) / 2 in
  let in_lower = D.lt flat (c s) in
  let x = D.select in_lower flat (D.sub (c ((n * n) - 1)) flat) in
  let adg0 = D.isqrt (D.mul (c 2) x) in
  (* bump when x >= adg0*(adg0+1)/2 *)
  let tri = D.div (D.mul adg0 (D.add adg0 (c 1))) (c 2) in
  let adg = D.add adg0 (D.sub (c 1) (D.lt x tri)) in
  let i = D.sub x (D.div (D.mul adg (D.sub adg (c 1))) (c 2)) in
  let j = D.sub (D.sub adg i) (c 1) in
  let flip t = D.sub (c (n - 1)) t in
  [ D.select in_lower i (flip i); D.select in_lower j (flip j) ]

let antidiag n =
  if n <= 0 then invalid_arg "Gallery.antidiag: size must be positive";
  Piece.gen ~name:"antidiag" ~dims:[ n; n ]
    {
      gb_apply =
        (fun (type a) (module D : Domain.S with type t = a) idx ->
          antidiag_apply (module D) n idx);
      gb_inv =
        (fun (type a) (module D : Domain.S with type t = a) flat ->
          antidiag_inv (module D) n flat);
    }

(* Complemented row-major order. *)

let reverse dims =
  Shape.validate dims;
  let complement (type a) (module D : Domain.S with type t = a) idx =
    List.map2 (fun n i -> D.sub (D.const (n - 1)) i) dims idx
  in
  Piece.gen ~name:"reverse" ~dims
    {
      gb_apply =
        (fun (type a) (module D : Domain.S with type t = a) idx ->
          Shape.flatten (module D) dims (complement (module D) idx));
      gb_inv =
        (fun (type a) (module D : Domain.S with type t = a) flat ->
          complement (module D) (Shape.unflatten (module D) dims flat));
    }

(* Z-Morton order. *)

let morton ~d ~bits =
  if d <= 0 || bits <= 0 then
    invalid_arg "Gallery.morton: dimension and bit count must be positive";
  let n = 1 lsl bits in
  let dims = List.init d (fun _ -> n) in
  let apply (type a) (module D : Domain.S with type t = a) idx : a =
    let acc = ref (D.const 0) in
    List.iteri
      (fun t i ->
        for b = 0 to bits - 1 do
          let pos = (b * d) + (d - 1 - t) in
          acc := D.add !acc (shl (module D) (bit (module D) i b) pos)
        done)
      idx;
    !acc
  in
  let inv (type a) (module D : Domain.S with type t = a) flat : a list =
    List.init d (fun t ->
        let acc = ref (D.const 0) in
        for b = 0 to bits - 1 do
          let pos = (b * d) + (d - 1 - t) in
          acc := D.add !acc (shl (module D) (bit (module D) flat pos) b)
        done;
        !acc)
  in
  Piece.gen ~name:"morton" ~dims
    {
      gb_apply =
        (fun (type a) (module D : Domain.S with type t = a) idx ->
          apply (module D) idx);
      gb_inv =
        (fun (type a) (module D : Domain.S with type t = a) flat ->
          inv (module D) flat);
    }

(* 2-D Hilbert-curve order (iterative rotate-and-accumulate form). *)

let hilbert ~bits =
  if bits <= 0 then invalid_arg "Gallery.hilbert: bit count must be positive";
  let n = 1 lsl bits in
  let apply (type a) (module D : Domain.S with type t = a) idx : a =
    let x0, y0 = two_idx "hilbert" idx in
    let c k = D.const k in
    let acc = ref (D.const 0) and x = ref x0 and y = ref y0 in
    for level = bits - 1 downto 0 do
      let s = 1 lsl level in
      let rx = bit (module D) !x level and ry = bit (module D) !y level in
      let quadrant = D.select rx (D.sub (c 3) ry) ry in
      acc := D.add !acc (D.mul (c (s * s)) quadrant);
      (* Rotate the sub-square when ry = 0 (flip first when rx = 1); the
         flip complements only the bits below [level], so mask first. *)
      let xl = D.rem !x (c s) and yl = D.rem !y (c s) in
      let flipped_x = D.select rx (D.sub (c (s - 1)) xl) xl in
      let flipped_y = D.select rx (D.sub (c (s - 1)) yl) yl in
      let ry_zero = D.eq ry (c 0) in
      x := D.select ry_zero flipped_y xl;
      y := D.select ry_zero flipped_x yl
    done;
    !acc
  in
  let inv (type a) (module D : Domain.S with type t = a) flat : a list =
    let c k = D.const k in
    let x = ref (c 0) and y = ref (c 0) and t = ref flat in
    for level = 0 to bits - 1 do
      let s = 1 lsl level in
      let rx = bit (module D) !t 1 in
      let ry = xor_bit (module D) (bit (module D) !t 0) rx in
      let flipped_x = D.select rx (D.sub (c (s - 1)) !x) !x in
      let flipped_y = D.select rx (D.sub (c (s - 1)) !y) !y in
      let ry_zero = D.eq ry (c 0) in
      let x' = D.select ry_zero flipped_y !x in
      let y' = D.select ry_zero flipped_x !y in
      x := D.add x' (D.mul (c s) rx);
      y := D.add y' (D.mul (c s) ry);
      t := D.div !t (c 4)
    done;
    [ !x; !y ]
  in
  Piece.gen ~name:"hilbert" ~dims:[ n; n ]
    {
      gb_apply =
        (fun (type a) (module D : Domain.S with type t = a) idx ->
          apply (module D) idx);
      gb_inv =
        (fun (type a) (module D : Domain.S with type t = a) flat ->
          inv (module D) flat);
    }

(* XOR swizzle. *)

let xor_swizzle ~rows ~cols =
  if rows <= 0 then invalid_arg "Gallery.xor_swizzle: rows must be positive";
  let bits = log2_exact "Gallery.xor_swizzle" cols in
  let swz (type a) (module D : Domain.S with type t = a) i j : a =
    xor_word (module D) ~bits j (D.rem i (D.const cols))
  in
  Piece.gen ~name:"swizzle" ~dims:[ rows; cols ]
    {
      gb_apply =
        (fun (type a) (module D : Domain.S with type t = a) idx ->
          let i, j = two_idx "swizzle" idx in
          D.add (D.mul i (D.const cols)) (swz (module D) i j));
      gb_inv =
        (fun (type a) (module D : Domain.S with type t = a) flat ->
          let i = D.div flat (D.const cols) in
          let j' = D.rem flat (D.const cols) in
          [ i; swz (module D) i j' ]);
    }

(* Parameterized XOR swizzle: the autotuner's shared-memory family.  The
   row key xored into the column is [((i >> shift) land mask)]; [mask <
   cols] keeps the xor inside the row, so each row is permuted in place
   and the whole map stays a bijection.  [mask = cols-1, shift = 0] is
   the classic {!xor_swizzle}; [mask = 0] degenerates to row-major. *)

let xor_swizzle_masked ~rows ~cols ~mask ~shift =
  if rows <= 0 then
    invalid_arg "Gallery.xor_swizzle_masked: rows must be positive";
  let bits = log2_exact "Gallery.xor_swizzle_masked" cols in
  if mask < 0 || mask >= cols then
    invalid_arg "Gallery.xor_swizzle_masked: mask must be in 0 .. cols-1";
  if shift < 0 || shift > Sys.int_size - 2 then
    invalid_arg "Gallery.xor_swizzle_masked: bad shift";
  let key (type a) (module D : Domain.S with type t = a) (i : a) : a =
    let shifted = if shift = 0 then i else D.div i (D.const (1 lsl shift)) in
    if mask = 0 then D.const 0
    else if (mask + 1) land mask = 0 then
      (* Prefix mask: a single mod keeps the expression cheap. *)
      D.rem shifted (D.const (mask + 1))
    else begin
      (* General mask: extract exactly the selected bits. *)
      let acc = ref (D.const 0) in
      for b = 0 to bits - 1 do
        if mask land (1 lsl b) <> 0 then
          acc := D.add !acc (shl (module D) (bit (module D) shifted b) b)
      done;
      !acc
    end
  in
  let swz (type a) (module D : Domain.S with type t = a) i j : a =
    xor_word (module D) ~bits j (key (module D) i)
  in
  Piece.gen
    ~name:(Printf.sprintf "swizzlex_m%d_s%d" mask shift)
    ~dims:[ rows; cols ]
    {
      gb_apply =
        (fun (type a) (module D : Domain.S with type t = a) idx ->
          let i, j = two_idx "swizzlex" idx in
          D.add (D.mul i (D.const cols)) (swz (module D) i j));
      gb_inv =
        (fun (type a) (module D : Domain.S with type t = a) flat ->
          let i = D.div flat (D.const cols) in
          let j' = D.rem flat (D.const cols) in
          [ i; swz (module D) i j' ]);
    }

(* Cyclic diagonal storage. *)

let cyclic_diag n =
  if n <= 0 then invalid_arg "Gallery.cyclic_diag: size must be positive";
  Piece.gen ~name:"cyclicdiag" ~dims:[ n; n ]
    {
      gb_apply =
        (fun (type a) (module D : Domain.S with type t = a) idx ->
          let i, j = two_idx "cyclicdiag" idx in
          let diag = D.rem (D.add (D.sub j i) (D.const n)) (D.const n) in
          D.add (D.mul diag (D.const n)) i);
      gb_inv =
        (fun (type a) (module D : Domain.S with type t = a) flat ->
          let i = D.rem flat (D.const n) in
          let diag = D.div flat (D.const n) in
          [ i; D.rem (D.add diag i) (D.const n) ]);
    }

(* Table-driven permutations. *)

let of_table ~name ~dims f =
  Shape.validate dims;
  let total = Shape.numel dims in
  let forward = Array.make total (-1) and backward = Array.make total (-1) in
  Seq.iter
    (fun idx ->
      let src = Shape.flatten_ints dims idx in
      let dst = f idx in
      if dst < 0 || dst >= total then
        invalid_arg
          (Printf.sprintf "Gallery.of_table(%s): image %d out of range" name dst);
      if backward.(dst) >= 0 then
        invalid_arg
          (Printf.sprintf "Gallery.of_table(%s): not injective at %d" name dst);
      forward.(src) <- dst;
      backward.(dst) <- src)
    (Shape.indices dims);
  let select_chain (type a) (module D : Domain.S with type t = a) table
      (key : a) : a =
    let acc = ref (D.const table.(total - 1)) in
    for k = total - 2 downto 0 do
      acc := D.select (D.eq key (D.const k)) (D.const table.(k)) !acc
    done;
    !acc
  in
  Piece.gen ~name ~dims
    {
      gb_apply =
        (fun (type a) (module D : Domain.S with type t = a) idx ->
          let flat = Shape.flatten (module D) dims idx in
          select_chain (module D) forward flat);
      gb_inv =
        (fun (type a) (module D : Domain.S with type t = a) flat ->
          Shape.unflatten (module D) dims
            (select_chain (module D) backward flat));
    }

(* Registry for the surface-language elaborator. *)

let names () =
  [
    "antidiag";
    "reverse";
    "morton";
    "hilbert";
    "swizzle";
    "swizzlex_m1_s0";
    "cyclicdiag";
  ]

(* The masked-swizzle family encodes its parameters in the piece name
   ([Piece.equal] compares [GenP]s by name and dims), so the registry
   parses them back out: [swizzlex_m<mask>_s<shift>].  Parsed by hand —
   [Scanf]'s [%d] would swallow the separating underscores as digit
   separators, and [int_of_string]'s hex/octal/binary/underscore forms
   would let "m0x1f" alias "m31" under a different name, breaking the
   name round-trip (and every name-keyed identity built on it: name-based
   [Piece.equal], fingerprint memoization, the F₂ compiler's family
   gate).  Only the canonical decimal spelling [Printf "%d"] emits is
   accepted: digits only, no sign, no leading zero. *)
let parse_swizzlex name =
  let decimal s =
    let n = String.length s in
    if n = 0 || (n > 1 && s.[0] = '0') then None
    else if String.exists (fun ch -> ch < '0' || ch > '9') s then None
    else int_of_string_opt s
  in
  let tagged_int tag s =
    if String.length s > 1 && s.[0] = tag then
      decimal (String.sub s 1 (String.length s - 1))
    else None
  in
  match String.split_on_char '_' name with
  | [ "swizzlex"; m; s ] -> (
    match (tagged_int 'm' m, tagged_int 's' s) with
    | Some mask, Some shift -> Some (mask, shift)
    | _ -> None)
  | _ -> None

let lookup name dims =
  match parse_swizzlex name with
  | Some (mask, shift) -> (
    match dims with
    | [ rows; cols ] -> (
      try Some (xor_swizzle_masked ~rows ~cols ~mask ~shift)
      with Invalid_argument _ -> None)
    | _ -> None)
  | None -> (
  match (name, dims) with
  | "antidiag", [ n; m ] when n = m -> Some (antidiag n)
  | "reverse", dims -> Some (reverse dims)
  | "morton", (n0 :: _ as dims) when List.for_all (( = ) n0) dims ->
    (try Some (morton ~d:(List.length dims) ~bits:(log2_exact "morton" n0))
     with Invalid_argument _ -> None)
  | "hilbert", [ n; m ] when n = m ->
    (try Some (hilbert ~bits:(log2_exact "hilbert" n))
     with Invalid_argument _ -> None)
  | "swizzle", [ rows; cols ] ->
    (try Some (xor_swizzle ~rows ~cols) with Invalid_argument _ -> None)
  | "cyclicdiag", [ n; m ] when n = m -> Some (cyclic_diag n)
  | _ -> None)
