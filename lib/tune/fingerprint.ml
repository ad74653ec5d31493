module L = Lego_layout

(* [Group_by.to_string] prints the full dotted notation — every OrderBy,
   every piece name (GenP parameters are encoded in their names, see
   {!Lego_layout.Gallery.xor_swizzle_masked}) and every sigma — so the
   rendered text is a faithful structural key.  Two layouts with equal
   fingerprints are [Group_by.equal]; the converse holds because the
   printer is deterministic. *)
let of_layout (g : L.Group_by.t) : string = L.Group_by.to_string g

let compare = String.compare

(* At mega-space scale (10^5-10^6 candidates) retaining every printed
   fingerprint for deduplication costs ~100-200 bytes each; the 16-byte
   MD5 of the printed form keys the same identity (collisions over a
   10^6-candidate space are vanishingly improbable) at a tenth of the
   memory.  [digest g = Digest.string (of_layout g)] by definition, so
   callers that already hold the printed fingerprint can derive the key
   without re-printing. *)
let digest (g : L.Group_by.t) : string = Digest.string (of_layout g)
