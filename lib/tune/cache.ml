(* Reusable scoring cache, persisting across slot searches in one run.

   Keys are (slot identity, fingerprint digest), where the identity is
   [Slot.identity] — name plus device preset plus smem dtype: the
   static score and the sims depend on the slot's phase list, kernel,
   device model and element width, so identical layouts under
   different slots (or the same slot under a different device/dtype)
   must not collide, while repeated searches of the same slot
   (re-tuning with different budgets, the CLI tuning several shapes
   that share a slot) hit.

   Concurrency contract (the tuner's): [find] is a pure read and is
   the only operation a parallel section may call; [ensure] and the
   tallies mutate and run only between parallel sections.  Entries are
   mutable records so a rung can fill in the field it computed without
   re-hashing. *)

type entry = {
  mutable static_ : Predict.score option;
  mutable sampled : Slot.sim option;
  mutable full : Slot.sim option;
}

type t = {
  tbl : (string * string, entry) Hashtbl.t;
  max_entries : int;
  mutable hits : int;
  mutable misses : int;
}

let default_max_entries = 1 lsl 18

let create ?(max_entries = default_max_entries) () =
  if max_entries < 0 then invalid_arg "Cache.create: max_entries < 0";
  { tbl = Hashtbl.create 1024; max_entries; hits = 0; misses = 0 }

let find t ~slot ~fp_digest = Hashtbl.find_opt t.tbl (slot, fp_digest)

let fresh () = { static_ = None; sampled = None; full = None }

(* At capacity the returned entry is transient (filled by the caller,
   then dropped): the cache degrades to a no-op rather than growing
   without bound under a 10⁶-candidate stream. *)
let ensure t ~slot ~fp_digest =
  match Hashtbl.find_opt t.tbl (slot, fp_digest) with
  | Some e -> e
  | None ->
    let e = fresh () in
    if Hashtbl.length t.tbl < t.max_entries then
      Hashtbl.add t.tbl (slot, fp_digest) e;
    e

(* Persistence hook for the compile service: walk every entry so sims
   can be flushed to (or injected from) the on-disk store.  Sequential
   sections only, like every other mutator-adjacent operation. *)
let iter t f = Hashtbl.iter (fun (slot, fp_digest) e -> f ~slot ~fp_digest e) t.tbl

let note_hits t n = t.hits <- t.hits + n
let note_misses t n = t.misses <- t.misses + n
let hits t = t.hits
let misses t = t.misses
let length t = Hashtbl.length t.tbl
