type t = Piece.t list

let make = function
  | [] -> invalid_arg "Order_by.make: at least one piece is required"
  | pieces ->
    Shape.validate (List.concat_map Piece.dims pieces);
    pieces

let pieces t = t
let dims t = List.concat_map Piece.dims t
let numel t = List.fold_left (fun acc p -> acc * Piece.numel p) 1 t

(* Split [idx] into a prefix of length [n] and the remainder. *)
let split_at n idx =
  let rec go acc n rest =
    if n = 0 then (List.rev acc, rest)
    else
      match rest with
      | [] -> invalid_arg "Order_by: index too short for the tile hierarchy"
      | x :: rest -> go (x :: acc) (n - 1) rest
  in
  go [] n idx

let apply (type a) (module D : Domain.S with type t = a) t (idx : a list) : a =
  if List.length idx <> List.length (dims t) then
    invalid_arg "Order_by.apply: index rank does not match hierarchy rank";
  (* Outermost level first: i_flat <- piece(i_cur) + i_flat * numel(piece). *)
  let flat, rest =
    List.fold_left
      (fun (flat, rest) piece ->
        let cur, rest = split_at (Piece.rank piece) rest in
        let cur_flat = Piece.apply (module D) piece cur in
        (D.add cur_flat (D.mul flat (D.const (Piece.numel piece))), rest))
      (D.const 0, idx) t
  in
  assert (rest = []);
  flat

let inv (type a) (module D : Domain.S with type t = a) t (flat : a) : a list =
  (* Innermost level first: peel each level's flat component with div/mod. *)
  let idx, _flat =
    List.fold_left
      (fun (acc, flat) piece ->
        let p = Piece.numel piece in
        let cur_flat = D.rem flat (D.const p) in
        let flat = D.div flat (D.const p) in
        (Piece.inv (module D) piece cur_flat @ acc, flat))
      ([], flat) (List.rev t)
  in
  idx

let apply_ints t idx = apply (module Domain.Int) t idx
let inv_ints t flat = inv (module Domain.Int) t flat
let equal a b = List.equal Piece.equal a b

let to_buffer buf t =
  Buffer.add_string buf "OrderBy";
  (* The paper's subscript is the shared per-tile dimensionality, when
     there is one. *)
  (match t with
  | p :: rest
    when List.for_all (fun q -> Piece.rank q = Piece.rank p) rest ->
    Buffer.add_string buf (Int.to_string (Piece.rank p))
  | _ -> ());
  Buffer.add_char buf '(';
  List.iteri
    (fun k p ->
      if k > 0 then Buffer.add_string buf ", ";
      Piece.to_buffer buf p)
    t;
  Buffer.add_char buf ')'

let to_string t =
  let buf = Buffer.create 64 in
  to_buffer buf t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)
