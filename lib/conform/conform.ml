module L = Lego_layout
module S = Lego_symbolic
module Exec = Lego_exec.Exec
module Cp = Lego_codegen.C_printer
module Mg = Lego_codegen.Mlir_gen
module Mp = Lego_mlirsim.Mparser
module Mi = Lego_mlirsim.Minterp

type mismatch = { stage : string; detail : string }

type outcome = {
  points : int;
  c_checked : bool;
  f2_checked : bool;
  mismatch : mismatch option;
}

exception Found of mismatch

let found stage fmt =
  Printf.ksprintf (fun detail -> raise (Found { stage; detail })) fmt

let pp_ints l = "[" ^ String.concat ", " (List.map string_of_int l) ^ "]"

let default_max_points = 2048

(* Points go through the legs in blocks of at most this many lanes, so
   each lane column (one word per lane) stays small enough for the minor
   heap. *)
let block_lanes = 256

(* The interpreter's lane domain: a value is one int per lane, or a
   constant shared by every lane.  Every operation is {!Domain.Int}'s,
   applied lane by lane, so the generic [Group_by.apply]/[inv] compute
   exactly what [apply_ints]/[inv_ints] compute at each point.  A lane
   keeps the first exception one of its operations raised, which is the
   exception [Domain.Int]'s eager evaluation raises at that point; its
   later values are meaningless. *)
type lane = K of int | V of int array

module Lanes (X : sig
  val raised : exn option array
end) : L.Domain.S with type t = lane = struct
  module I = L.Domain.Int

  type t = lane

  let n = Array.length X.raised
  let fail l ex = if X.raised.(l) = None then X.raised.(l) <- Some ex

  (* [f] at every lane: one pass while no lane raises, then lane by
     lane, each lane's exception recorded. *)
  let lanes f =
    let r = Array.make n 0 in
    (try
       for l = 0 to n - 1 do
         Array.unsafe_set r l (f l)
       done
     with _ ->
       for l = 0 to n - 1 do
         match f l with v -> r.(l) <- v | exception ex -> fail l ex
       done);
    V r

  (* A constant operation raises at every point or at none. *)
  let scalar f =
    match f () with
    | v -> K v
    | exception ex ->
      for l = 0 to n - 1 do
        fail l ex
      done;
      K 0

  let map2 f a b =
    match (a, b) with
    | K x, K y -> scalar (fun () -> f x y)
    | V x, V y ->
      lanes (fun l -> f (Array.unsafe_get x l) (Array.unsafe_get y l))
    | K x, V y -> lanes (fun l -> f x (Array.unsafe_get y l))
    | V x, K y -> lanes (fun l -> f (Array.unsafe_get x l) y)

  let get x l = match x with K k -> k | V a -> Array.unsafe_get a l
  let const k = K k
  let add = map2 I.add
  let sub = map2 I.sub
  let mul = map2 I.mul
  let div = map2 I.div
  let rem = map2 I.rem
  let le = map2 I.le
  let lt = map2 I.lt
  let eq = map2 I.eq

  let select c a b =
    match (c, a, b) with
    | K c, K a, K b -> K (I.select c a b)
    | _ -> lanes (fun l -> I.select (get c l) (get a l) (get b l))

  let isqrt = function
    | K x -> scalar (fun () -> I.isqrt x)
    | V x -> lanes (fun l -> I.isqrt (Array.unsafe_get x l))

  let pp ppf x =
    Format.pp_print_string ppf (pp_ints (List.init n (get x)))
end

(* [Group_by.apply] and [inv] over one block: the offsets and the
   round-tripped coordinates, each with its own lane errors, because
   bounds and injectivity are checked between the two.  An exception
   that escapes a whole call is every remaining lane's error: it is the
   one each of those points raises. *)
let interp_block g ~len cols =
  let column = function K k -> Array.make len k | V a -> a in
  let run ~default f =
    let raised = Array.make len None in
    let module D = Lanes (struct let raised = raised end) in
    match f (module D : L.Domain.S with type t = lane) with
    | r -> (r, raised)
    | exception ex ->
      Array.iteri (fun l e -> if e = None then raised.(l) <- Some ex) raised;
      (default, raised)
  in
  let p, apply_raised =
    run ~default:(Array.make len 0) (fun d ->
        let idx = Array.to_list (Array.map (fun c -> V c) cols) in
        column (L.Group_by.apply d g idx))
  in
  let back, inv_raised =
    run ~default:[||] (fun d ->
        Array.of_list (List.map column (L.Group_by.inv d g (V p))))
  in
  (p, apply_raised, back, inv_raised)

let check_layout ?(max_points = default_max_points) ?(sample_seed = 0) g =
  if max_points < 1 then invalid_arg "Conform.check_layout: max_points < 1";
  let n = L.Group_by.numel g in
  let dims = L.Group_by.dims g in
  let rank = List.length dims in
  let names = List.mapi (fun k _ -> Printf.sprintf "i%d" k) dims in
  let var_names = Array.of_list names in
  let points = ref 0 in
  let c_active = ref false in
  let f2_active = ref false in
  let mismatch =
    try
      (* Semantics (b): simplified symbolic expressions. *)
      let env_a = S.Sym.ranges_of g in
      let apply_sym = S.Sym.apply g in
      let inv_sym = S.Sym.inv g in
      let env_p = S.Sym.inv_ranges g in
      let eval_apply = S.Expr.evaluator ~params:names apply_sym in
      let eval_inv = List.map (S.Expr.evaluator ~params:[ "p" ]) inv_sym in
      (* Semantics (c): the C backend's text under C arithmetic.  When
         the guard cannot prove truncation harmless the backend would
         refuse the expression, so the C leg is skipped and counted. *)
      let c_guard_ok =
        Cp.guard_nonneg ~env:env_a apply_sym = Ok ()
        && List.for_all (fun e -> Cp.guard_nonneg ~env:env_p e = Ok ()) inv_sym
      in
      let reparse e =
        let src = Cp.expr e in
        match Cexpr.parse src with
        | Ok t -> t
        | Error msg -> found "c-reparse" "cannot reparse %S: %s" src msg
      in
      let c_apply, c_inv =
        if c_guard_ok then (Some (reparse apply_sym), List.map reparse inv_sym)
        else (None, [])
      in
      c_active := c_guard_ok;
      (* Semantics (d): the MLIR backend, run by the interpreter. *)
      let m_apply =
        Mi.prepare
          (Mp.parse_module
             (Mg.index_func ~name:"apply" ~params:names [ apply_sym ]))
          "apply"
      in
      let m_inv =
        Mi.prepare
          (Mp.parse_module (Mg.index_func ~name:"inv" ~params:[ "p" ] inv_sym))
          "inv"
      in
      (* Semantics (e): the affine F₂ form, when the layout is in the
         bit-linear family.  Every layout is a bijection by
         construction, so a singular matrix here is itself a
         compilation bug, not a skip. *)
      let f2 =
        match Lego_f2.Linear.of_layout g with
        | None -> None
        | Some lin -> (
          match Lego_f2.Linear.inverse lin with
          | Some lin_inv -> Some (lin, lin_inv)
          | None ->
            found "f2-rank"
              "layout is bijective but its F2 matrix is singular (rank < %d)"
              (Lego_f2.Linear.bits lin))
      in
      f2_active := f2 <> None;
      (* The point set: every flat index in order, or [max_points]
         seeded draws, one coordinate column per dimension. *)
      let exhaustive = n <= max_points in
      let total = if exhaustive then n else max_points in
      let seen = if exhaustive then Some (Array.make n false) else None in
      let rng = Random.State.make [| 0x5A11; sample_seed |] in
      let extents = Array.of_list dims in
      let start = ref 0 in
      while !start < total do
        let first = !start in
        let len = min block_lanes (total - first) in
        let cols = Array.init rank (fun _ -> Array.make len 0) in
        for l = 0 to len - 1 do
          if exhaustive then
            List.iteri
              (fun d x -> cols.(d).(l) <- x)
              (L.Shape.unflatten_ints dims (first + l))
          else
            Array.iteri
              (fun d e -> cols.(d).(l) <- Random.State.int rng e)
              extents
        done;
        (* Semantics (a) and (b) over the whole block. *)
        let p_col, apply_raised, back, inv_raised = interp_block g ~len cols in
        let sym_apply = eval_apply ~lanes:len cols in
        let sym_inv = List.map (fun ev -> ev ~lanes:len [| p_col |]) eval_inv in
        (* Semantics (d) too: a call that raises outright raises at every
           point. *)
        let mlir f args =
          try f ~lanes:len args
          with ex -> { Mi.results = [||]; raised = Array.make len (Some ex) }
        in
        let mlir_apply = mlir m_apply cols in
        let mlir_inv = mlir m_inv [| p_col |] in
        (* Then every check at each point, in order. *)
        let lane = ref 0 in
        let lookup v =
          let rec find k =
            if k = rank then raise Not_found
            else if String.equal v var_names.(k) then cols.(k).(!lane)
            else find (k + 1)
          in
          find 0
        in
        for l = 0 to len - 1 do
          incr points;
          lane := l;
          let coord d = cols.(d).(l) in
          let idx () = List.init rank coord in
          let rethrow raised = Option.iter raise raised.(l) in
          rethrow apply_raised;
          let p = p_col.(l) in
          if p < 0 || p >= n then
            found "interp-bounds" "apply %s = %d, outside [0, %d)"
              (pp_ints (idx ())) p n;
          (match seen with
          | Some hit ->
            if hit.(p) then
              found "interp-injective" "offset %d produced twice (again at %s)"
                p (pp_ints (idx ()));
            hit.(p) <- true
          | None -> ());
          (* [get] gives back this point's coordinates. *)
          let matches get =
            let rec go d = d = rank || (get d = coord d && go (d + 1)) in
            go 0
          in
          rethrow inv_raised;
          if not (matches (fun d -> back.(d).(l))) then
            found "interp-roundtrip" "inv (apply %s) = %s" (pp_ints (idx ()))
              (pp_ints (List.init rank (fun d -> back.(d).(l))));
          rethrow sym_apply.raised;
          let sp = sym_apply.values.(l) in
          if sp <> p then
            found "symbolic-apply" "at %s: interpreter %d, symbolic %d"
              (pp_ints (idx ())) p sp;
          List.iteri
            (fun k (r : S.Expr.column) ->
              rethrow r.raised;
              let got = r.values.(l) and want = coord k in
              if got <> want then
                found "symbolic-inv"
                  "component %d at p = %d: interpreter %d, symbolic %d" k p
                  want got)
            sym_inv;
          let lookup_p v =
            if v = "p" then p else failwith ("unbound variable " ^ v)
          in
          (match c_apply with
          | Some ca ->
            let cp = Cexpr.eval ~env:lookup ca in
            if cp <> p then
              found "c-apply" "at %s: interpreter %d, C %d" (pp_ints (idx ()))
                p cp;
            List.iteri
              (fun k e ->
                let got = Cexpr.eval ~env:lookup_p e and want = coord k in
                if got <> want then
                  found "c-inv" "component %d at p = %d: interpreter %d, C %d"
                    k p want got)
              c_inv
          | None -> ());
          rethrow mlir_apply.raised;
          (match mlir_apply.results with
          | [| mp |] when mp.(l) = p -> ()
          | [| mp |] ->
            found "mlir-apply" "at %s: interpreter %d, MLIR %d"
              (pp_ints (idx ())) p mp.(l)
          | rs ->
            found "mlir-apply" "expected one result, got %d" (Array.length rs));
          rethrow mlir_inv.raised;
          let mback = mlir_inv.results in
          if not (Array.length mback = rank && matches (fun d -> mback.(d).(l)))
          then
            found "mlir-inv" "at p = %d: interpreter %s, MLIR %s" p
              (pp_ints (idx ()))
              (pp_ints (List.map (fun c -> c.(l)) (Array.to_list mback)));
          match f2 with
          | None -> ()
          | Some (lin, lin_inv) ->
            let flat =
              if exhaustive then first + l
              else begin
                let acc = ref 0 in
                Array.iteri (fun d e -> acc := (!acc * e) + coord d) extents;
                !acc
              end
            in
            let fp = Lego_f2.Linear.apply lin flat in
            if fp <> p then
              found "f2-apply" "at %s (flat %d): interpreter %d, F2 %d"
                (pp_ints (idx ())) flat p fp;
            let fback = Lego_f2.Linear.apply lin_inv p in
            if fback <> flat then
              found "f2-inv" "at p = %d: flat index %d, F2 inverse %d" p flat
                fback
        done;
        start := first + len
      done;
      None
    with
    | Found m -> Some m
    | exn -> Some { stage = "exception"; detail = Printexc.to_string exn }
  in
  { points = !points; c_checked = !c_active; f2_checked = !f2_active; mismatch }

type failure = {
  origin : string;
  repro : string option;
  layout : L.Group_by.t;
  shrunk : L.Group_by.t;
  mismatch : mismatch;
}

type report = {
  layouts : int;
  points : int;
  c_skipped : int;
  f2_covered : int;
  failures : failure list;
  seconds : float;
  budget_exhausted : bool;
}

(* Point sampling is seeded purely by the layout's own identity — the
   gallery name, or the (stream seed, index) pair of a random layout —
   never by iteration order or a shared counter.  That is what makes a
   printed [CONFORM_SEED=… CONFORM_ITERS=…] repro line (and a
   [--skip-gallery] re-run) sample exactly the points of the original
   failing run, and what lets layouts be checked on any domain of the
   pool in any order with bit-identical reports. *)

let gallery_sample_seed name = Hashtbl.hash ("gallery", name)
let random_sample_seed ~seed ~index = Hashtbl.hash ("random", seed, index)
let algebra_sample_seed ~seed ~index = Hashtbl.hash ("algebra", seed, index)

(* One unit of fan-out work: a single layout checked (and, on mismatch,
   shrunk) entirely within one domain. *)
type task = {
  t_origin : string;
  t_repro : string option;
  t_sample_seed : int;
  t_layout : unit -> L.Group_by.t; (* generated inside the task *)
}

type task_result =
  | Skipped (* the time budget was already exhausted when its turn came *)
  | Checked of outcome * failure option

let exec_task ?max_points ~progress ~over_budget t =
  if over_budget () then Skipped
  else begin
    let g = t.t_layout () in
    let sample_seed = t.t_sample_seed in
    let o = check_layout ?max_points ~sample_seed g in
    let failure =
      match o.mismatch with
      | None -> None
      | Some m ->
        progress
          (Printf.sprintf "mismatch in %s [%s] — shrinking" t.t_origin m.stage);
        (* Shrink candidates are judged on the same point sample that
           exposed the mismatch, so sampled failures shrink reliably. *)
        let still_fails c =
          (check_layout ?max_points ~sample_seed c).mismatch <> None
        in
        let shrunk = Shrink.minimize still_fails g in
        let mismatch =
          match (check_layout ?max_points ~sample_seed shrunk).mismatch with
          | Some m' -> m'
          | None -> m (* shrinking preserves failure; defensive fallback *)
        in
        Some { origin = t.t_origin; repro = t.t_repro; layout = g; shrunk; mismatch }
    in
    Checked (o, failure)
  end

let run ?(gallery = true) ?(random = 200) ?(algebra = 0) ?(seed = 42)
    ?max_points ?(budget_s = infinity) ?(progress = fun _ -> ()) ?(jobs = 1) ()
    =
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  (* The budget is checked before every layout — the gallery pass too —
     so a slow pass can overshoot by at most one layout, not unboundedly. *)
  let over_budget () = elapsed () > budget_s in
  let gallery_tasks =
    if not gallery then []
    else
      List.map
        (fun (name, g) ->
          {
            t_origin = "gallery: " ^ name;
            t_repro = None;
            t_sample_seed = gallery_sample_seed name;
            t_layout = (fun () -> g);
          })
        Corpus.all
  in
  let random_tasks =
    List.init random (fun index ->
        {
          t_origin = Printf.sprintf "random layout #%d (seed %d)" index seed;
          t_repro =
            Some
              (Printf.sprintf "CONFORM_SEED=%d CONFORM_ITERS=%d legoc conform"
                 seed (index + 1));
          t_sample_seed = random_sample_seed ~seed ~index;
          t_layout = (fun () -> Lgen.layout_of_seed ~seed ~index);
        })
  in
  let algebra_tasks =
    List.init algebra (fun index ->
        {
          t_origin = Printf.sprintf "algebra term #%d (seed %d)" index seed;
          t_repro =
            Some
              (Printf.sprintf
                 "CONFORM_SEED=%d CONFORM_ALGEBRA=%d legoc conform --iters 0 \
                  --skip-gallery"
                 seed (index + 1));
          t_sample_seed = algebra_sample_seed ~seed ~index;
          t_layout = (fun () -> Lgen.algebra_layout_of_seed ~seed ~index);
        })
  in
  let tasks = Array.of_list (gallery_tasks @ random_tasks @ algebra_tasks) in
  let results =
    Exec.with_pool ~jobs (fun pool ->
        Exec.map ~chunk:1 ~pool tasks
          (exec_task ?max_points ~progress ~over_budget))
  in
  (* Merge in submission order: counts, then failures, are identical for
     any pool size. *)
  let layouts = ref 0 in
  let points = ref 0 in
  let c_skipped = ref 0 in
  let f2_covered = ref 0 in
  let failures = ref [] in
  let budget_exhausted = ref false in
  Array.iter
    (function
      | Skipped -> budget_exhausted := true
      | Checked (o, failure) ->
        incr layouts;
        points := !points + o.points;
        if not o.c_checked then incr c_skipped;
        if o.f2_checked then incr f2_covered;
        Option.iter (fun f -> failures := f :: !failures) failure)
    results;
  {
    layouts = !layouts;
    points = !points;
    c_skipped = !c_skipped;
    f2_covered = !f2_covered;
    failures = List.rev !failures;
    seconds = elapsed ();
    budget_exhausted = !budget_exhausted;
  }

let pp_failure ppf f =
  Format.fprintf ppf "@[<v2>FAIL %s@,stage:   %s@,detail:  %s@,layout:  %a@,shrunk:  %a"
    f.origin f.mismatch.stage f.mismatch.detail L.Group_by.pp f.layout
    L.Group_by.pp f.shrunk;
  (match f.repro with
  | Some r -> Format.fprintf ppf "@,repro:   %s" r
  | None -> ());
  Format.fprintf ppf "@]"

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>conform: %d layouts, %d points, %d C-guard-skipped, %d F2-covered, \
     %d mismatches (%.2fs, %.0f points/s)%s"
    r.layouts r.points r.c_skipped r.f2_covered (List.length r.failures)
    r.seconds
    (float_of_int r.points /. (if r.seconds > 0. then r.seconds else 1e-9))
    (if r.budget_exhausted then " [time budget exhausted]" else "");
  List.iter (fun f -> Format.fprintf ppf "@,%a" pp_failure f) r.failures;
  Format.fprintf ppf "@]"
