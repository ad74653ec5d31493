(* Bounded best-K retention for the streaming funnel.

   A binary max-heap (array-backed, worst-at-root) of capacity K: while
   fewer than K elements are held, [add] is a plain heap insert; once
   full, an element better than the current worst replaces the root and
   sifts down, and anything else is dropped in O(1).  The array grows
   by doubling as elements arrive, never past K, so memory is
   O(min(K, elements added)) and a K as large as [max_int] costs nothing
   up front.  The retained {e set} is a pure function of the multiset
   of added elements — independent of arrival order — because the
   comparator is total (the funnel's comparators all end in a
   fingerprint tie-break), so "the K smallest" is unambiguous. *)

type 'a t = {
  cmp : 'a -> 'a -> int;  (* total order; keep the [cmp]-smallest K *)
  cap : int;
  mutable heap : 'a option array;  (* [0 .. size-1] live; root = worst kept *)
  mutable size : int;
}

let create ~cap ~cmp =
  if cap < 1 then invalid_arg "Topk.create: cap must be >= 1";
  { cmp; cap; heap = Array.make (min cap 16) None; size = 0 }

let size t = t.size

let get t i =
  match t.heap.(i) with Some x -> x | None -> assert false

(* Max-heap order on [cmp]: parent >= children, so the root is the
   worst retained element — the eviction candidate. *)
let swap t i j =
  let x = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- x

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp (get t i) (get t parent) > 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let largest = ref i in
  if l < t.size && t.cmp (get t l) (get t !largest) > 0 then largest := l;
  if r < t.size && t.cmp (get t r) (get t !largest) > 0 then largest := r;
  if !largest <> i then begin
    swap t i !largest;
    sift_down t !largest
  end

let add t x =
  if t.size < t.cap then begin
    let n = Array.length t.heap in
    if t.size = n then begin
      let grown = Array.make (if n > t.cap / 2 then t.cap else 2 * n) None in
      Array.blit t.heap 0 grown 0 n;
      t.heap <- grown
    end;
    t.heap.(t.size) <- Some x;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)
  end
  else if t.cmp x (get t 0) < 0 then begin
    t.heap.(0) <- Some x;
    sift_down t 0
  end

let sorted t =
  let xs = List.init t.size (get t) in
  List.sort t.cmp xs
