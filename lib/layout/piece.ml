type gen_bij = {
  gb_apply : 'a. (module Domain.S with type t = 'a) -> 'a list -> 'a;
  gb_inv : 'a. (module Domain.S with type t = 'a) -> 'a -> 'a list;
}

type t =
  | Gen of { dims : Shape.t; name : string; bij : gen_bij }
  | Reg of { dims : Shape.t; sigma : Sigma.t }

let gen ~name ~dims bij =
  Shape.validate dims;
  Gen { dims; name; bij }

let reg ~dims ~sigma =
  Shape.validate dims;
  if Sigma.rank sigma <> Shape.rank dims then
    invalid_arg "Piece.reg: permutation rank does not match shape rank";
  Reg { dims; sigma }

let dims = function Gen { dims; _ } | Reg { dims; _ } -> dims
let rank p = Shape.rank (dims p)
let numel p = Shape.numel (dims p)

let apply (type a) (module D : Domain.S with type t = a) piece (idx : a list) :
    a =
  if List.length idx <> rank piece then
    invalid_arg "Piece.apply: index rank does not match piece rank";
  match piece with
  | Gen { bij; _ } -> bij.gb_apply (module D) idx
  | Reg { dims; sigma } ->
    Shape.flatten (module D) (Sigma.permute sigma dims) (Sigma.permute sigma idx)

let inv (type a) (module D : Domain.S with type t = a) piece (flat : a) :
    a list =
  match piece with
  | Gen { bij; _ } -> bij.gb_inv (module D) flat
  | Reg { dims; sigma } ->
    let physical = Shape.unflatten (module D) (Sigma.permute sigma dims) flat in
    Sigma.permute (Sigma.inverse sigma) physical

let apply_ints piece idx = apply (module Domain.Int) piece idx
let inv_ints piece flat = inv (module Domain.Int) piece flat

let equal a b =
  match (a, b) with
  | Gen { dims = d1; name = n1; _ }, Gen { dims = d2; name = n2; _ } ->
    Shape.equal d1 d2 && String.equal n1 n2
  | Reg { dims = d1; sigma = s1 }, Reg { dims = d2; sigma = s2 } ->
    Shape.equal d1 d2 && Sigma.equal s1 s2
  | Gen _, Reg _ | Reg _, Gen _ -> false

let to_buffer buf = function
  | Gen { dims; name; _ } ->
    Buffer.add_string buf "GenP(";
    Buffer.add_string buf name;
    Shape.to_buffer buf dims;
    Buffer.add_char buf ')'
  | Reg { dims; sigma } ->
    Buffer.add_string buf "RegP(";
    Shape.to_buffer buf dims;
    Buffer.add_string buf ", ";
    Sigma.to_buffer buf sigma;
    Buffer.add_char buf ')'

let to_string p =
  let buf = Buffer.create 48 in
  to_buffer buf p;
  Buffer.contents buf

let pp ppf p = Format.pp_print_string ppf (to_string p)
