type stats = { hits : int; misses : int; evictions : int }

type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type ('k, 'v) table = {
  entries : ('k, 'v) Hashtbl.t;
  capacity : int;
  counters : counters;  (* the owning instance's, in the owning domain *)
}

type ('env, 'k, 'v) local = {
  c : counters;
  mutable tables : ('env * ('k, 'v) table) list;  (* newest first *)
}

type ('env, 'k, 'v) t = {
  envs : int;
  capacity : int;
  initial : int;
  key : ('env, 'k, 'v) local Domain.DLS.key;
}

(* Written only at module initialisation, before any domain is spawned. *)
let registry : (string * (unit -> stats)) list ref = ref []

let snapshot (c : counters) : stats =
  { hits = c.hits; misses = c.misses; evictions = c.evictions }
let stats m = snapshot (Domain.DLS.get m.key).c

let create ~name ?(envs = 1) ~capacity ~initial () =
  let key =
    Domain.DLS.new_key (fun () ->
        { c = { hits = 0; misses = 0; evictions = 0 }; tables = [] })
  in
  let m = { envs; capacity; initial; key } in
  registry := (name, fun () -> stats m) :: !registry;
  m

let table m env =
  let l = Domain.DLS.get m.key in
  match l.tables with
  | (e, t) :: _ when e == env -> t
  | tables -> (
    match List.assq_opt env tables with
    | Some t -> t
    | None ->
      let t =
        {
          entries = Hashtbl.create m.initial;
          capacity = m.capacity;
          counters = l.c;
        }
      in
      if List.compare_length_with tables (m.envs - 1) > 0 then
        l.c.evictions <- l.c.evictions + 1;
      l.tables <- (env, t) :: List.filteri (fun i _ -> i < m.envs - 1) tables;
      t)

let find t k =
  let r = Hashtbl.find_opt t.entries k in
  (match r with
  | Some _ -> t.counters.hits <- t.counters.hits + 1
  | None -> t.counters.misses <- t.counters.misses + 1);
  r

let add t k v =
  if Hashtbl.length t.entries >= t.capacity then begin
    Hashtbl.reset t.entries;
    t.counters.evictions <- t.counters.evictions + 1
  end;
  Hashtbl.add t.entries k v

let reset_stats m =
  let c = (Domain.DLS.get m.key).c in
  c.hits <- 0;
  c.misses <- 0;
  c.evictions <- 0

let clear m = (Domain.DLS.get m.key).tables <- []
let all () = List.rev_map (fun (name, stats) -> (name, stats ())) !registry
