type stats = { hits : int; misses : int; evictions : int }

type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type 'k key = (module Hashtbl.HashedType with type t = 'k)

(* One environment's entries: a [Hashtbl.Make] table over the instance's
   key, reached through its operations. *)
type ('k, 'v) table = {
  find_opt : 'k -> 'v option;
  insert : 'k -> 'v -> unit;
  length : unit -> int;
  reset : unit -> unit;
  capacity : int;
  counters : counters;  (* the owning instance's, in the owning domain *)
}

type ('env, 'k, 'v) local = {
  c : counters;
  mutable tables : ('env * ('k, 'v) table) list;  (* newest first *)
}

type ('env, 'k, 'v) t = {
  envs : int;
  fresh : counters -> ('k, 'v) table;
  dls : ('env, 'k, 'v) local Domain.DLS.key;
}

(* Written only at module initialisation, before any domain is spawned. *)
let registry : (string * (unit -> stats)) list ref = ref []

let snapshot (c : counters) : stats =
  { hits = c.hits; misses = c.misses; evictions = c.evictions }
let stats m = snapshot (Domain.DLS.get m.dls).c

let create (type k) ~name ?(envs = 1) ~(key : k key) ~capacity ~initial () =
  let module H = Hashtbl.Make ((val key)) in
  let fresh counters =
    let h = H.create initial in
    {
      find_opt = H.find_opt h;
      insert = H.add h;
      length = (fun () -> H.length h);
      reset = (fun () -> H.reset h);
      capacity;
      counters;
    }
  in
  let dls =
    Domain.DLS.new_key (fun () ->
        { c = { hits = 0; misses = 0; evictions = 0 }; tables = [] })
  in
  let m = { envs; fresh; dls } in
  registry := (name, fun () -> stats m) :: !registry;
  m

let table m env =
  let l = Domain.DLS.get m.dls in
  match l.tables with
  | (e, t) :: _ when e == env -> t
  | tables -> (
    match List.assq_opt env tables with
    | Some t -> t
    | None ->
      let t = m.fresh l.c in
      if List.compare_length_with tables (m.envs - 1) > 0 then
        l.c.evictions <- l.c.evictions + 1;
      l.tables <- (env, t) :: List.filteri (fun i _ -> i < m.envs - 1) tables;
      t)

let find t k =
  let r = t.find_opt k in
  (match r with
  | Some _ -> t.counters.hits <- t.counters.hits + 1
  | None -> t.counters.misses <- t.counters.misses + 1);
  r

let add t k v =
  if t.length () >= t.capacity then begin
    t.reset ();
    t.counters.evictions <- t.counters.evictions + 1
  end;
  t.insert k v

let reset_stats m =
  let c = (Domain.DLS.get m.dls).c in
  c.hits <- 0;
  c.misses <- 0;
  c.evictions <- 0

let clear m = (Domain.DLS.get m.dls).tables <- []
let all () = List.rev_map (fun (name, stats) -> (name, stats ())) !registry
