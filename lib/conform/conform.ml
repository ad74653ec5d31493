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

let check_layout ?(max_points = default_max_points) ?(sample_seed = 0) g =
  if max_points < 1 then invalid_arg "Conform.check_layout: max_points < 1";
  let n = L.Group_by.numel g in
  let dims = L.Group_by.dims g in
  let names = List.mapi (fun k _ -> Printf.sprintf "i%d" k) dims in
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
      let eval_apply = S.Expr.evaluator apply_sym in
      let eval_inv = List.map S.Expr.evaluator inv_sym in
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
        Mp.parse_module (Mg.index_func ~name:"apply" ~params:names [ apply_sym ])
      in
      let m_inv =
        Mp.parse_module (Mg.index_func ~name:"inv" ~params:[ "p" ] inv_sym)
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
      let seen = if n <= max_points then Some (Array.make n false) else None in
      let check_point idx =
        incr points;
        (* Semantics (a): the reference interpreter. *)
        let p = L.Group_by.apply_ints g idx in
        if p < 0 || p >= n then
          found "interp-bounds" "apply %s = %d, outside [0, %d)" (pp_ints idx) p
            n;
        (match seen with
        | Some hit ->
          if hit.(p) then
            found "interp-injective" "offset %d produced twice (again at %s)"
              p (pp_ints idx);
          hit.(p) <- true
        | None -> ());
        let back = L.Group_by.inv_ints g p in
        if back <> idx then
          found "interp-roundtrip" "inv (apply %s) = %s" (pp_ints idx)
            (pp_ints back);
        let bindings = List.combine names idx in
        let lookup v = List.assoc v bindings in
        let lookup_p v =
          if v = "p" then p else failwith ("unbound variable " ^ v)
        in
        let sp = eval_apply ~env:lookup in
        if sp <> p then
          found "symbolic-apply" "at %s: interpreter %d, symbolic %d"
            (pp_ints idx) p sp;
        List.iteri
          (fun k (eval, want) ->
            let got = eval ~env:lookup_p in
            if got <> want then
              found "symbolic-inv"
                "component %d at p = %d: interpreter %d, symbolic %d" k p want
                got)
          (List.combine eval_inv idx);
        (match c_apply with
        | Some ca ->
          let cp = Cexpr.eval ~env:lookup ca in
          if cp <> p then
            found "c-apply" "at %s: interpreter %d, C %d" (pp_ints idx) p
              cp;
          List.iteri
            (fun k (e, want) ->
              let got = Cexpr.eval ~env:lookup_p e in
              if got <> want then
                found "c-inv" "component %d at p = %d: interpreter %d, C %d" k
                  p want got)
            (List.combine c_inv idx)
        | None -> ());
        (match Mi.run_func m_apply "apply" (List.map (fun i -> Mi.Int i) idx) with
        | [ mp ] when mp = p -> ()
        | [ mp ] ->
          found "mlir-apply" "at %s: interpreter %d, MLIR %d" (pp_ints idx) p
            mp
        | rs ->
          found "mlir-apply" "expected one result, got %d" (List.length rs));
        let mback = Mi.run_func m_inv "inv" [ Mi.Int p ] in
        if mback <> idx then
          found "mlir-inv" "at p = %d: interpreter %s, MLIR %s" p (pp_ints idx)
            (pp_ints mback);
        match f2 with
        | None -> ()
        | Some (lin, lin_inv) ->
          let flat = L.Shape.flatten_ints dims idx in
          let fp = Lego_f2.Linear.apply lin flat in
          if fp <> p then
            found "f2-apply" "at %s (flat %d): interpreter %d, F2 %d"
              (pp_ints idx) flat p fp;
          let fback = Lego_f2.Linear.apply lin_inv p in
          if fback <> flat then
            found "f2-inv" "at p = %d: flat index %d, F2 inverse %d" p flat
              fback
      in
      (match seen with
      | Some _ -> Seq.iter check_point (L.Shape.indices dims)
      | None ->
        let rng = Random.State.make [| 0x5A11; sample_seed |] in
        for _ = 1 to max_points do
          check_point (List.map (fun e -> Random.State.int rng e) dims)
        done);
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
