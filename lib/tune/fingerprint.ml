module L = Lego_layout

(* [Group_by.to_string] prints the full dotted notation — every OrderBy,
   every piece name (GenP parameters are encoded in their names, see
   {!Lego_layout.Gallery.xor_swizzle_masked}) and every sigma — so the
   rendered text is a faithful structural key.  Two layouts with equal
   fingerprints are [Group_by.equal]; the converse holds because the
   printer is deterministic. *)
let of_layout (g : L.Group_by.t) : string = L.Group_by.to_string g

let compare = String.compare

(* Byte-wise over the virtual concatenations, then by length, exactly as
   [String.compare] orders the concatenated strings. *)
let compare_concat a1 a2 b1 b2 =
  let la1 = String.length a1 and lb1 = String.length b1 in
  let la = la1 + String.length a2 and lb = lb1 + String.length b2 in
  let byte s1 l1 s2 i =
    Char.code
      (if i < l1 then String.unsafe_get s1 i else String.unsafe_get s2 (i - l1))
  in
  let n = min la lb in
  let rec go i =
    if i = n then Int.compare la lb
    else
      let c = Int.compare (byte a1 la1 a2 i) (byte b1 lb1 b2 i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0
