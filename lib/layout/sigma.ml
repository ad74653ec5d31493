type t = int array

let check_permutation a =
  let d = Array.length a in
  if d = 0 then invalid_arg "Sigma.of_list: empty permutation";
  let seen = Array.make d false in
  Array.iter
    (fun p ->
      if p < 0 || p >= d then
        invalid_arg
          (Printf.sprintf "Sigma.of_list: entry %d out of range 0..%d" p (d - 1));
      if seen.(p) then
        invalid_arg (Printf.sprintf "Sigma.of_list: duplicate entry %d" p);
      seen.(p) <- true)
    a

let of_list l =
  let a = Array.of_list l in
  check_permutation a;
  a

let of_one_based l = of_list (List.map pred l)
let to_list s = Array.to_list s
let to_one_based s = List.map succ (to_list s)
let identity d = Array.init d Fun.id
let reversal d = Array.init d (fun k -> d - 1 - k)
let rank = Array.length
let equal (a : t) (b : t) = a = b
let is_identity s = Array.for_all2 ( = ) s (identity (rank s))

let inverse s =
  let inv = Array.make (rank s) 0 in
  Array.iteri (fun k p -> inv.(p) <- k) s;
  inv

let compose s2 s1 =
  if rank s1 <> rank s2 then invalid_arg "Sigma.compose: rank mismatch";
  (* permute (compose s2 s1) xs = permute s2 (permute s1 xs):
     position k of the result reads s1.(s2.(k)) of the original. *)
  Array.map (fun p -> s1.(p)) s2

let permute s xs =
  let a = Array.of_list xs in
  if Array.length a <> rank s then invalid_arg "Sigma.permute: rank mismatch";
  Array.to_list (Array.map (fun p -> a.(p)) s)

let apply s k =
  if k < 0 || k >= rank s then invalid_arg "Sigma.apply: out of range";
  s.(k)

let to_buffer buf s = Shape.to_buffer buf (to_one_based s)

let pp ppf s =
  let buf = Buffer.create 16 in
  to_buffer buf s;
  Format.pp_print_string ppf (Buffer.contents buf)

let all d =
  let rec perms = function
    | [] -> [ [] ]
    | xs ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) xs in
          List.map (fun p -> x :: p) (perms rest))
        xs
  in
  List.map of_list (perms (List.init d Fun.id))
