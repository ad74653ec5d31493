(* Sequential reference: scan the logical space in order, stopping at the
   first violation. *)
let check_image_seq ~what ~numel ~apply ~inv =
  let seen = Array.make numel false in
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
       if seen.(physical) then begin
         result :=
           Error
             (Printf.sprintf "%s: physical offset %d hit twice (at logical %d)"
                what physical k);
         raise Exit
       end;
       seen.(physical) <- true;
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

(* Parallel path: the index space is split into contiguous ranges, each
   evaluated on a pool domain — [apply]/[inv] are the expensive part —
   and the occupancy ("seen") merge replays the ranges sequentially in
   submission order.  Per logical index the merge applies the same
   bounds -> duplicate -> roundtrip check order as the sequential scan,
   so the first reported violation (and its message) is byte-identical
   at any [jobs]. *)

(* A range task's first violation, at logical index [err_k]; entries of
   [physical] (and [back]) below [err_k - lo] are valid. *)
type range_err = Bounds of int (* the offending physical *) | Roundtrip of int

type range_result = {
  lo : int;
  physical : int array;
  err : (int * range_err) option;
}

let eval_range ~numel ~apply ~inv (lo, hi) =
  let len = hi - lo in
  let physical = Array.make len (-1) in
  let err = ref None in
  (try
     for k = lo to hi - 1 do
       let p = apply k in
       if p < 0 || p >= numel then begin
         err := Some (k, Bounds p);
         raise Exit
       end;
       physical.(k - lo) <- p;
       let b = inv p in
       if b <> k then begin
         err := Some (k, Roundtrip b);
         raise Exit
       end
     done
   with Exit -> ());
  { lo; physical; err = !err }

exception Found of string

let merge_ranges ~what ~numel results =
  let seen = Array.make numel false in
  let fail fmt = Printf.ksprintf (fun m -> raise (Found m)) fmt in
  try
    Array.iter
      (fun r ->
        let stop =
          match r.err with Some (ek, _) -> ek - r.lo | None -> Array.length r.physical
        in
        for i = 0 to stop - 1 do
          let k = r.lo + i in
          let p = r.physical.(i) in
          if seen.(p) then
            fail "%s: physical offset %d hit twice (at logical %d)" what p k;
          seen.(p) <- true
        done;
        match r.err with
        | None -> ()
        | Some (ek, Bounds p) ->
          fail "%s: logical %d maps to %d, outside 0..%d" what ek p (numel - 1)
        | Some (ek, Roundtrip b) ->
          (* Sequential order at one index: bounds, duplicate, then
             roundtrip — the duplicate check wins at the same [ek]. *)
          let p = r.physical.(ek - r.lo) in
          if seen.(p) then
            fail "%s: physical offset %d hit twice (at logical %d)" what p ek;
          seen.(p) <- true;
          fail "%s: inv (apply %d) = %d, expected identity" what ek b)
      results;
    Ok ()
  with Found m -> Error m

(* Index spaces below this size are not worth fanning out. *)
let parallel_threshold = 1 lsl 12

let check_image ?(jobs = 1) ~what ~numel ~apply ~inv () =
  if numel = 0 then Ok ()
  else if jobs <= 1 || numel < parallel_threshold then
    check_image_seq ~what ~numel ~apply ~inv
  else begin
    let ranges =
      (* About four ranges per job: ceil (numel / (4 * jobs)) indices
         each, at least one, so never more ranges than indices.  The
         divisions are chained because [4 * jobs] overflows for a huge
         [jobs]. *)
      let step = ((numel - 1) / 4 / jobs) + 1 in
      Array.init ((numel + step - 1) / step) (fun i ->
          (i * step, min numel ((i + 1) * step)))
    in
    let results =
      Lego_exec.Exec.with_pool ~jobs (fun pool ->
          Lego_exec.Exec.map ~chunk:1 ~pool ranges
            (eval_range ~numel ~apply ~inv))
    in
    merge_ranges ~what ~numel results
  end

let max_elements = min Sys.max_array_length (1 lsl 32)

(* Every check below allocates [numel]-sized arrays, so the count is
   refused before anything is allocated. *)
let guard fn numel =
  if numel > max_elements then
    invalid_arg
      (Printf.sprintf
         "Check.%s: %d elements exceed the exhaustive-check limit of %d" fn
         numel max_elements)

let piece ?jobs p =
  let dims = Piece.dims p in
  guard "piece" (Piece.numel p);
  check_image ?jobs
    ~what:(Format.asprintf "%a" Piece.pp p)
    ~numel:(Piece.numel p)
    ~apply:(fun k -> Piece.apply_ints p (Shape.unflatten_ints dims k))
    ~inv:(fun physical -> Shape.flatten_ints dims (Piece.inv_ints p physical))
    ()

let layout ?jobs g =
  let dims = Group_by.dims g in
  guard "layout" (Group_by.numel g);
  check_image ?jobs
    ~what:(Format.asprintf "%a" Group_by.pp g)
    ~numel:(Group_by.numel g)
    ~apply:(fun k -> Group_by.apply_ints g (Shape.unflatten_ints dims k))
    ~inv:(fun physical -> Shape.flatten_ints dims (Group_by.inv_ints g physical))
    ()

let table g =
  let dims = Group_by.dims g in
  guard "table" (Group_by.numel g);
  Array.init (Group_by.numel g) (fun k ->
      Group_by.apply_ints g (Shape.unflatten_ints dims k))

let physical_to_logical g =
  guard "physical_to_logical" (Group_by.numel g);
  Array.init (Group_by.numel g) (fun physical ->
      Array.of_list (Group_by.inv_ints g physical))
