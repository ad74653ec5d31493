(* Reusable simulation cache, shared by the searches of one process.

   Keys are (slot identity, fingerprint digest), where the identity is
   [Slot.identity] — name plus device preset plus smem dtype: the sims
   depend on the slot's kernel, device model and element width, so
   identical layouts under different slots (or the same slot under a
   different device/dtype) must not collide, while repeated searches of
   the same slot (re-tuning with a different budget or top) hit.

   Concurrency contract (the tuner's): [find] is a pure read and is
   the only operation a parallel section may call; [ensure] and the
   tallies mutate and run only between parallel sections.  Entries are
   mutable records so a rung can fill in the field it computed without
   re-hashing. *)

type entry = {
  mutable sampled : Slot.sim option;
  mutable full : Slot.sim option;
}

type t = {
  tbl : (string * string, entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create () = { tbl = Hashtbl.create 1024; hits = 0; misses = 0 }
let find t ~slot ~fp_digest = Hashtbl.find_opt t.tbl (slot, fp_digest)

let ensure t ~slot ~fp_digest =
  match Hashtbl.find_opt t.tbl (slot, fp_digest) with
  | Some e -> e
  | None ->
    let e = { sampled = None; full = None } in
    Hashtbl.add t.tbl (slot, fp_digest) e;
    e

let iter t f = Hashtbl.iter (fun (slot, fp_digest) e -> f ~slot ~fp_digest e) t.tbl
let note_hits t n = t.hits <- t.hits + n
let note_misses t n = t.misses <- t.misses + n
let hits t = t.hits
let misses t = t.misses
let length t = Hashtbl.length t.tbl
