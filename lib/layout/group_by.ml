type t = { shapes : Shape.t list; chain : Order_by.t list }

let make ?(chain = []) shapes =
  if shapes = [] then invalid_arg "Group_by.make: empty level list";
  List.iter Shape.validate shapes;
  Shape.validate (List.concat shapes);
  let n = List.fold_left (fun acc s -> acc * Shape.numel s) 1 shapes in
  List.iter
    (fun o ->
      if Order_by.numel o <> n then
        invalid_arg
          (Printf.sprintf
             "Group_by.make: OrderBy covers %d elements but the grouping has \
              %d"
             (Order_by.numel o) n))
    chain;
  { shapes; chain }

let shapes t = t.shapes
let chain t = t.chain
let dims t = List.concat t.shapes
let numel t = Shape.numel (dims t)
let rank t = List.length (dims t)
let prepend o t = make ~chain:(o :: t.chain) t.shapes

let apply (type a) (module D : Domain.S with type t = a) t (idx : a list) : a =
  if List.length idx <> rank t then
    invalid_arg "Group_by.apply: index rank does not match grouping rank";
  let flat = Shape.flatten (module D) (dims t) idx in
  List.fold_left
    (fun flat o ->
      let logical = Shape.unflatten (module D) (Order_by.dims o) flat in
      Order_by.apply (module D) o logical)
    flat (List.rev t.chain)

let inv (type a) (module D : Domain.S with type t = a) t (flat : a) : a list =
  let flat =
    List.fold_left
      (fun flat o ->
        let logical = Order_by.inv (module D) o flat in
        Shape.flatten (module D) (Order_by.dims o) logical)
      flat t.chain
  in
  Shape.unflatten (module D) (dims t) flat

let apply_ints t idx = apply (module Domain.Int) t idx
let inv_ints t flat = inv (module Domain.Int) t flat

let equal a b =
  List.equal Shape.equal a.shapes b.shapes
  && List.equal Order_by.equal a.chain b.chain

let to_buffer buf t =
  List.iter
    (fun o ->
      Order_by.to_buffer buf o;
      Buffer.add_char buf '.')
    t.chain;
  Buffer.add_string buf "GroupBy";
  (match t.shapes with
  | s :: rest
    when List.for_all (fun s' -> Shape.rank s' = Shape.rank s) rest ->
    Buffer.add_string buf (Int.to_string (Shape.rank s))
  | _ -> ());
  Buffer.add_char buf '(';
  List.iteri
    (fun k s ->
      if k > 0 then Buffer.add_string buf ", ";
      Shape.to_buffer buf s)
    t.shapes;
  Buffer.add_char buf ')'

let to_string t =
  let buf = Buffer.create 128 in
  to_buffer buf t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)
