type t = int list

let numel dims = List.fold_left ( * ) 1 dims
let rank = List.length
let equal (a : t) (b : t) = a = b

(* Decimal digits without [string_of_int]'s format-string round trip:
   fingerprinting prints every extent of every streamed candidate. *)
let rec add_int buf n =
  if n < 0 then Buffer.add_string buf (Int.to_string n)
  else begin
    if n >= 10 then add_int buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
  end

let to_buffer buf dims =
  Buffer.add_char buf '[';
  List.iteri
    (fun k n ->
      if k > 0 then Buffer.add_string buf ", ";
      add_int buf n)
    dims;
  Buffer.add_char buf ']'

let pp ppf dims =
  let buf = Buffer.create 16 in
  to_buffer buf dims;
  Format.pp_print_string ppf (Buffer.contents buf)

(* The per-point check: [unflatten] runs it on every call, so it skips
   the divisions of the element-count check, which construction has
   already made. *)
let check_extents dims =
  if dims = [] then invalid_arg "Shape.validate: empty shape";
  List.iter
    (fun n ->
      if n <= 0 then
        invalid_arg (Printf.sprintf "Shape.validate: non-positive extent %d" n))
    dims

(* Each partial product is checked by division before it is formed, so
   an overflow cannot wrap past the check. *)
let validate dims =
  check_extents dims;
  let rec fits acc = function
    | [] -> true
    | n :: rest -> acc <= max_int / n && fits (acc * n) rest
  in
  if not (fits 1 dims) then begin
    let buf = Buffer.create 32 in
    Buffer.add_string buf "Shape.validate: element count of ";
    to_buffer buf dims;
    Buffer.add_string buf " exceeds max_int";
    invalid_arg (Buffer.contents buf)
  end

let flatten (type a) (module D : Domain.S with type t = a) dims (idx : a list)
    : a =
  if List.length dims <> List.length idx then
    invalid_arg "Shape.flatten: index rank does not match shape rank";
  match idx with
  | [] -> D.const 0
  | i0 :: rest ->
    (* Horner evaluation of B: ((i1 * n2 + i2) * n3 + i3) ... *)
    let rec go acc dims idx =
      match (dims, idx) with
      | [], [] -> acc
      | n :: dims, i :: idx -> go (D.add (D.mul acc (D.const n)) i) dims idx
      | _ -> assert false
    in
    go i0 (List.tl dims) rest

let unflatten (type a) (module D : Domain.S with type t = a) dims (flat : a) :
    a list =
  check_extents dims;
  (* Peel from the innermost dimension outwards; the outermost component
     keeps the undivided quotient, matching the paper's B^-1. *)
  let rec go acc rev_dims flat =
    match rev_dims with
    | [] -> assert false
    | [ _outermost ] -> flat :: acc
    | n :: rest ->
      go (D.rem flat (D.const n) :: acc) rest (D.div flat (D.const n))
  in
  go [] (List.rev dims) flat

let flatten_ints dims idx = flatten (module Domain.Int) dims idx
let unflatten_ints dims flat = unflatten (module Domain.Int) dims flat

let indices dims =
  validate dims;
  let total = numel dims in
  Seq.map (fun flat -> unflatten_ints dims flat) (Seq.init total Fun.id)
