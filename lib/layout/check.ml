(* Scan the logical space in order, stopping at the first violation.  At
   each index the checks run bounds, then duplicate, then roundtrip. *)
let check_image ~what ~numel ~apply ~inv =
  let seen = Bytes.make numel '\000' in
  let result = ref (Ok ()) in
  (try
     for k = 0 to numel - 1 do
       let physical = apply k in
       if physical < 0 || physical >= numel then begin
         result :=
           Error
             (Printf.sprintf "%s: logical %d maps to %d, outside 0..%d" what k
                physical (numel - 1));
         raise Exit
       end;
       if Bytes.get seen physical <> '\000' then begin
         result :=
           Error
             (Printf.sprintf "%s: physical offset %d hit twice (at logical %d)"
                what physical k);
         raise Exit
       end;
       Bytes.set seen physical '\001';
       let back = inv physical in
       if back <> k then begin
         result :=
           Error
             (Printf.sprintf "%s: inv (apply %d) = %d, expected identity" what
                k back);
         raise Exit
       end
     done
   with Exit -> ());
  !result

let max_elements = min Sys.max_string_length (1 lsl 32)

(* The scan allocates [numel] bytes, so the count is refused before
   anything is allocated. *)
let guard fn numel =
  if numel > max_elements then
    invalid_arg
      (Printf.sprintf
         "Check.%s: %d elements exceed the exhaustive-check limit of %d" fn
         numel max_elements)

let piece p =
  let dims = Piece.dims p in
  guard "piece" (Piece.numel p);
  check_image
    ~what:(Format.asprintf "%a" Piece.pp p)
    ~numel:(Piece.numel p)
    ~apply:(fun k -> Piece.apply_ints p (Shape.unflatten_ints dims k))
    ~inv:(fun physical -> Shape.flatten_ints dims (Piece.inv_ints p physical))

let layout g =
  let dims = Group_by.dims g in
  guard "layout" (Group_by.numel g);
  check_image
    ~what:(Format.asprintf "%a" Group_by.pp g)
    ~numel:(Group_by.numel g)
    ~apply:(fun k -> Group_by.apply_ints g (Shape.unflatten_ints dims k))
    ~inv:(fun physical -> Shape.flatten_ints dims (Group_by.inv_ints g physical))
