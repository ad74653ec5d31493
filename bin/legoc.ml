(* legoc: the LEGO layout compiler CLI.

   Takes a layout in the textual notation and prints its table, applies
   or inverts indices, or emits C / Triton / MLIR index code — the
   standalone-tool role the paper describes.

     dune exec bin/legoc.exe -- 'OrderBy(GenP(antidiag[3,3])).GroupBy([3,3])' --table
     dune exec bin/legoc.exe -- 'TileOrderBy(Col(8, 6)).TileBy([4,2],[2,3])' --emit-c
     dune exec bin/legoc.exe -- '...' --apply 4,2 --inv 15 *)

open Cmdliner
module L = Lego_layout

(* One-line docs, shared between each sub-command's man page and the
   top-level overview so the listing cannot drift. *)
let layout_doc = "derive index mappings from LEGO layout expressions"

let conform_doc =
  "differentially test the four layout semantics against each other"

let tune_doc = "autotune shared-memory layouts against the SIMT cost model"

let serve_doc =
  "run the persistent layout-compile service (content-addressed store)"

let client_doc = "send request batches to a running compile service"

let fingerprint_doc =
  "print a layout's canonical fingerprint and content-address store key"

let layout_arg =
  let doc = "Layout in LEGO notation, e.g. \
             'OrderBy2(RegP([2,2],[2,1])).GroupBy2([4,4])'." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"LAYOUT" ~doc)

let table_flag =
  Arg.(value & flag & info [ "table" ] ~doc:"Print the logical-to-physical table.")

let apply_arg =
  let doc = "Apply the layout to a comma-separated logical index." in
  Arg.(value & opt (some string) None & info [ "apply" ] ~docv:"I,J,..." ~doc)

let inv_arg =
  let doc = "Invert a flat physical offset." in
  Arg.(value & opt (some int) None & info [ "inv" ] ~docv:"P" ~doc)

let c_flag =
  Arg.(value & flag & info [ "emit-c" ] ~doc:"Emit the C index expression.")

let triton_flag =
  Arg.(value & flag & info [ "emit-triton" ] ~doc:"Emit the Triton index expression.")

let mlir_flag =
  Arg.(value & flag & info [ "emit-mlir" ] ~doc:"Emit an MLIR index function.")

let check_flag =
  Arg.(value & flag & info [ "check" ] ~doc:"Exhaustively verify bijectivity.")

let jobs_arg =
  let env =
    Cmd.Env.info "LEGO_JOBS"
      ~doc:"Default worker-domain count for parallel runs."
  in
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~env ~docv:"N"
        ~doc:
          "Worker-domain count for this mode's parallel work.  Results \
           are bit-identical for any $(docv); 0 selects the recommended \
           domain count for this machine.")

(* Every mode that takes --jobs rejects a negative one (or LEGO_JOBS)
   before doing anything, like its other option errors: a message and
   exit 2.  [k] gets the domain count, 0 resolved to the machine's. *)
let with_jobs jobs k =
  if jobs < 0 then begin
    Printf.eprintf "error: --jobs must be >= 0\n";
    2
  end
  else k (if jobs = 0 then Domain.recommended_domain_count () else jobs)

(* The --apply index, checked against the layout's shape: one integer
   per logical dimension, each within its extent. *)
let apply_index g s =
  let dims = L.Group_by.dims g in
  let bad fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "--apply %S: %s" s m)) fmt
  in
  let comps =
    List.map
      (fun c -> int_of_string_opt (String.trim c))
      (String.split_on_char ',' s)
  in
  if List.mem None comps || List.compare_lengths comps dims <> 0 then
    bad "expected %d comma-separated integers for the shape %s"
      (List.length dims)
      (Format.asprintf "%a" L.Shape.pp dims)
  else
    let idx = List.map Option.get comps in
    match
      List.find_opt
        (fun (_, i, n) -> i < 0 || i >= n)
        (List.mapi (fun k (i, n) -> (k, i, n)) (List.combine idx dims))
    with
    | Some (k, i, n) -> bad "index %d of dimension %d is outside [0, %d)" i k n
    | None -> Ok (s, idx)

let inv_offset g p =
  let n = L.Group_by.numel g in
  if p < 0 || p >= n then
    Error (Printf.sprintf "--inv %d: the offset is outside [0, %d)" p n)
  else Ok p

let show g ~table ~apply ~inv ~emit_c ~emit_triton ~emit_mlir ~check =
  let nothing_requested =
    (not table) && apply = None && inv = None && (not emit_c)
    && (not emit_triton) && (not emit_mlir) && not check
  in
  Printf.printf "layout: %s\n" (Format.asprintf "%a" L.Group_by.pp g);
  Printf.printf "logical shape: %s, %d elements\n"
    (Format.asprintf "%a" L.Shape.pp (L.Group_by.dims g))
    (L.Group_by.numel g);
  if table || nothing_requested then begin
    print_endline "table (row-major logical order):";
    Seq.iter
      (fun idx ->
        Printf.printf "  [%s] -> %d\n"
          (String.concat ", " (List.map string_of_int idx))
          (L.Group_by.apply_ints g idx))
      (Seq.take (min 64 (L.Group_by.numel g))
         (L.Shape.indices (L.Group_by.dims g)));
    if L.Group_by.numel g > 64 then print_endline "  ... (first 64 shown)"
  end;
  Option.iter
    (fun (s, idx) ->
      Printf.printf "apply [%s] = %d\n" s (L.Group_by.apply_ints g idx))
    apply;
  Option.iter
    (fun p ->
      Printf.printf "inv %d = [%s]\n" p
        (String.concat ", " (List.map string_of_int (L.Group_by.inv_ints g p))))
    inv;
  let offset = lazy (Lego_symbolic.Sym.apply g) in
  if emit_c then
    Printf.printf "C: %s\n" (Lego_codegen.C_printer.expr (Lazy.force offset));
  if emit_triton then
    Printf.printf "Triton: %s\n"
      (Lego_codegen.Triton_printer.expr (Lazy.force offset));
  if emit_mlir then
    print_string (Lego_codegen.Mlir_gen.layout_apply_func ~name:"apply" g);
  if check then begin
    match L.Check.layout g with
    | Ok () ->
      print_endline "bijection: verified";
      0
    | Error e ->
      Printf.printf "bijection: FAILED (%s)\n" e;
      0
    | exception Invalid_argument e ->
      Printf.eprintf "error: %s\n" e;
      1
  end
  else 0

let run layout_text table apply_text inv_p emit_c emit_triton emit_mlir check =
  match Lego_lang.Elab.layout_of_string layout_text with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok g -> (
    (* Checked before anything is printed. *)
    let checked f = function
      | None -> Ok None
      | Some x -> Result.map Option.some (f g x)
    in
    match (checked apply_index apply_text, checked inv_offset inv_p) with
    | Error e, _ | _, Error e ->
      Printf.eprintf "error: %s\n" e;
      2
    | Ok apply, Ok inv ->
      show g ~table ~apply ~inv ~emit_c ~emit_triton ~emit_mlir ~check)

(* ---- legoc conform: the differential conformance harness -------------- *)

let seed_arg =
  let env = Cmd.Env.info "CONFORM_SEED" ~doc:"Random-layout stream seed." in
  Arg.(
    value
    & opt int 42
    & info [ "seed" ] ~env ~docv:"SEED"
        ~doc:"Seed for the random layout stream.")

let iters_arg =
  let env = Cmd.Env.info "CONFORM_ITERS" ~doc:"Number of random layouts." in
  Arg.(
    value
    & opt int 200
    & info [ "iters" ] ~env ~docv:"N"
        ~doc:"Number of seeded random layouts to cross-check.")

let algebra_arg =
  let env =
    Cmd.Env.info "CONFORM_ALGEBRA" ~doc:"Number of random algebra terms."
  in
  Arg.(
    value
    & opt int 0
    & info [ "algebra" ] ~env ~docv:"N"
        ~doc:
          "Number of seeded random layout-algebra terms (compose / \
           complement / divide / product, admissible by construction) to \
           cross-check.")

let max_points_arg =
  Arg.(
    value
    & opt int 2048
    & info [ "max-points" ] ~docv:"N"
        ~doc:
          "Exhaustive check threshold: layouts with at most $(docv) \
           elements are checked on every point (with a bijectivity \
           check); larger ones on $(docv) seeded samples.")

let budget_arg =
  Arg.(
    value
    & opt float 30.
    & info [ "budget" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget, > 0.  The budget is checked before every \
           layout, gallery and random alike: once $(docv) seconds have \
           elapsed no further layout starts (started ones finish).  A \
           run that checked no layout fails.")

let skip_gallery_flag =
  Arg.(
    value
    & flag
    & info [ "skip-gallery" ] ~doc:"Skip the fixed gallery corpus.")

let require_f2_flag =
  Arg.(
    value
    & flag
    & info [ "require-f2" ]
        ~doc:
          "Exit non-zero unless the affine-F2 leg covered at least one \
           layout (guards against the bit-linear family silently \
           vanishing from the corpus).")

let run_conform seed iters algebra max_points budget skip_gallery require_f2
    jobs =
  with_jobs jobs @@ fun jobs ->
  let invalid =
    if iters < 0 then Some "--iters must be >= 0"
    else if algebra < 0 then Some "--algebra must be >= 0"
    else if max_points < 1 then Some "--max-points must be >= 1"
    else if not (budget > 0.) then Some "--budget must be > 0"
    else None
  in
  match invalid with
  | Some e ->
    Printf.eprintf "error: %s\n" e;
    2
  | None ->
    let report =
      Lego_conform.Conform.run ~gallery:(not skip_gallery) ~random:iters
        ~algebra ~seed ~max_points ~budget_s:budget
        ~progress:(fun line -> Printf.eprintf "%s\n%!" line)
        ~jobs ()
    in
    Format.printf "%a@." Lego_conform.Conform.pp_report report;
    if report.Lego_conform.Conform.layouts = 0 then begin
      if report.Lego_conform.Conform.budget_exhausted then
        Printf.eprintf
          "error: no layout was checked: the --budget of %g s ran out first\n"
          budget
      else Printf.eprintf "error: no layout was checked: none was selected\n";
      1
    end
    else if require_f2 && report.Lego_conform.Conform.f2_covered = 0 then begin
      Printf.eprintf "error: --require-f2 but no layout exercised the F2 leg\n";
      1
    end
    else if report.Lego_conform.Conform.failures = [] then 0
    else 1

let conform_cmd =
  let doc = conform_doc in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Cross-checks the reference interpreter, the simplified symbolic \
         expressions, the C backend (under C's truncating division), the \
         MLIR backend, and — on the bit-linear family — the affine-F2 \
         matrix form on concrete points, over the built-in gallery \
         corpus plus a stream of seeded random layouts.  Exits non-zero \
         on any disagreement, printing a shrunk minimal layout and the \
         seed that reproduces it.";
    ]
  in
  Cmd.v
    (Cmd.info "conform" ~doc ~man)
    Term.(
      const run_conform $ seed_arg $ iters_arg $ algebra_arg $ max_points_arg
      $ budget_arg $ skip_gallery_flag $ require_f2_flag $ jobs_arg)

(* ---- legoc tune: the layout autotuner --------------------------------- *)

module T = Lego_tune

let slots_arg =
  let doc =
    "Kernel slots to tune (matmul, transpose, nw); all of them when \
     omitted."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"SLOT" ~doc)

let tune_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Maximum candidates scored by the static pre-filter (default \
              %d, or 250000 with --scale)."
             T.Tune.default_options.T.Tune.budget))

let tune_top_arg =
  Arg.(
    value
    & opt int T.Tune.default_options.T.Tune.top
    & info [ "top"; "top-k" ] ~docv:"K"
        ~doc:
          "Size of the bounded top-K retained by the static pass and \
           run through the full simulator.")

let scale_flag =
  Arg.(
    value
    & flag
    & info [ "scale" ]
        ~doc:
          "Mega-space mode: cross the full tiling x vectorization x \
           swizzle product axes (~1.8e5 candidates on matmul), stream \
           them through the staged funnel with O(K) ranking memory and \
           a 4*K-wide sampled-simulation rung.  Unless --budget is \
           given explicitly, raises it to 250000.")

let tune_seed_arg =
  let env =
    Cmd.Env.info "LEGO_TUNE_SEED" ~doc:"Search-space enumeration seed."
  in
  Arg.(
    value
    & opt int 0
    & info [ "seed" ] ~env ~docv:"SEED"
        ~doc:
          "Space-enumeration seed; 0 keeps the canonical candidate order.")

let expect_cf_flag =
  Arg.(
    value
    & flag
    & info
        [ "expect-conflict-free" ]
        ~doc:
          "Exit non-zero unless every slot's winner is bank-conflict-free \
           (predicted, and simulated where the kernel is full-warp).")

let no_conform_flag =
  Arg.(
    value
    & flag
    & info [ "no-conform" ]
        ~doc:"Skip the four-semantics conformance check of the winners.")

let composed_flag =
  Arg.(
    value
    & flag
    & info [ "composed" ]
        ~doc:
          "Include the algebra-built composite candidates (masked \
           swizzles composed with logical divides of the row-major \
           space) as extra search roots.")

let device_arg =
  let doc =
    Printf.sprintf
      "Device preset the cost model simulates (%s).  Part of every \
       cache/store identity: tuning under one preset never reuses \
       another's results."
      (String.concat ", " (List.map fst Lego_gpusim.Device.presets))
  in
  Arg.(value & opt string "a100" & info [ "device" ] ~docv:"PRESET" ~doc)

let run_tune slot_names device budget top seed jobs expect_cf no_conform
    composed scale =
  with_jobs jobs @@ fun jobs ->
  (* --scale without an explicit --budget would silently search a tiny
     prefix of the mega-space; raise the default to cover it. *)
  let budget =
    match budget with
    | Some n -> n
    | None when scale -> 250_000
    | None -> T.Tune.default_options.T.Tune.budget
  in
  let slots =
    match Lego_gpusim.Device.resolve device with
    | _ when budget < 1 -> Error "--budget must be >= 1"
    | _ when top < 1 -> Error "--top must be >= 1"
    | Error e -> Error e
    | Ok (_, device) -> (
      match slot_names with
      | [] -> Ok (T.Slot.all ~device ())
      | names ->
        List.fold_right
          (fun n acc ->
            match (acc, T.Slot.find ~device n) with
            | Error _, _ -> acc
            | Ok _, None ->
              Error
                (Printf.sprintf "unknown slot %S (known: %s)" n
                   (String.concat ", " T.Slot.names))
            | Ok ss, Some s -> Ok (s :: ss))
          names (Ok []))
  in
  match slots with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    2
  | Ok slots ->
    let options =
      {
        T.Tune.budget;
        top;
        seed;
        jobs;
        conform = not no_conform;
        composed;
        scale;
      }
    in
    let ok = ref true in
    List.iter
      (fun s ->
        let r = T.Tune.search ~options s in
        Format.printf "%a@." T.Tune.pp_result r;
        (match T.Tune.conform_ok r with
        | Some false -> ok := false
        | Some true | None -> ());
        if expect_cf && not (T.Tune.conflict_free r) then begin
          Printf.eprintf "slot %s: winner is not conflict-free\n" s.T.Slot.name;
          ok := false
        end)
      slots;
    if !ok then 0 else 1

let tune_cmd =
  let man =
    [
      `S Manpage.s_description;
      `P
        "Searches a seeded, deterministic space of LEGO layouts (bases \
         — sigma permutations, gallery bijections, tilings — each \
         crossed with a sampled XOR-swizzle family; with --scale, the \
         full tiling x vectorization x swizzle product space, streamed \
         lazily) for each kernel slot: a cheap static \
         bank-conflict/coalescing predictor prunes the stream into a \
         bounded top-K, a sampled-simulation rung halves the survivors, \
         the finalists run the full SIMT simulator, and the winner is \
         cross-checked by the conformance harness.  Results are \
         bit-identical for any --jobs.";
    ]
  in
  Cmd.v
    (Cmd.info "tune" ~doc:tune_doc ~man)
    Term.(
      const run_tune $ slots_arg $ device_arg $ tune_budget_arg $ tune_top_arg
      $ tune_seed_arg $ jobs_arg $ expect_cf_flag
      $ no_conform_flag $ composed_flag $ scale_flag)

(* ---- legoc serve / client / fingerprint: the compile service ---------- *)

module S = Lego_serve

let socket_arg =
  let doc = "Unix-domain socket path the service listens (connects) on." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let db_arg =
  let doc =
    "Path of the content-addressed store db (default: \
     ~/.cache/lego/store.db; a scratch file in --oneshot mode)."
  in
  Arg.(value & opt (some string) None & info [ "db" ] ~docv:"PATH" ~doc)

let no_db_flag =
  Arg.(
    value
    & flag
    & info [ "no-db" ]
        ~doc:"Run with a memory-only store (nothing persisted).")

let oneshot_flag =
  Arg.(
    value
    & flag
    & info [ "oneshot" ]
        ~doc:
          "Self-test mode: start the service on a scratch socket and db \
           (unless given), drive a scripted cold/warm batch mix through \
           a real client connection, assert the warm requests hit the \
           store, shut down cleanly, and exit non-zero on any mismatch.")

exception Oneshot_failure of string

(* The server on its db and its bound socket, or one line naming the
   path that could not be used and why. *)
let start_service ?db ~socket ~jobs () =
  match S.Server.create ?db ~jobs () with
  | exception Sys_error e -> Error ("db " ^ e)
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "db %s: %s" (Option.get db) (Unix.error_message e))
  | t -> (
    match S.Server.listen ~socket with
    | exception Unix.Unix_error (e, fn, _) ->
      S.Server.shutdown t;
      Error (Printf.sprintf "%s %s: %s" fn socket (Unix.error_message e))
    | listener -> Ok (t, listener))

(* Drives the scripted cold/warm batches through a real client
   connection, then asks the server to stop; 0 when every expectation
   holds. *)
let oneshot_client ~socket ~jobs =
  let expect b msg = if not b then raise (Oneshot_failure msg) in
  let ok r = S.Json.mem_bool "ok" r = Some true in
  let cached r = S.Json.mem_bool "cached" r in
  let l1 = "TileOrderBy(Col(8, 6)).TileBy([4,2],[2,3])" in
  let l2 = "OrderBy(GenP(antidiag[3,3])).GroupBy([3,3])" in
  let compile layout =
    S.Protocol.Compile { layout; emit = [ "c" ]; device = "a100" }
  in
  let tune =
    S.Protocol.Tune
      {
        S.Protocol.slot = "matmul";
        device = "a100";
        budget = Some 24;
        top = Some 2;
        seed = 0;
        oracle = false;
        conform = false;
      }
  in
  let script = [ compile l1; compile l2; compile l1; tune; S.Protocol.Stats ] in
  match S.Client.connect ~socket () with
  | Error e ->
    Printf.eprintf "oneshot: cannot connect: %s\n" e;
    1
  | Ok c -> (
    let finish () =
      (match S.Client.batch c [ S.Protocol.Shutdown ] with
      | Ok [ r ] -> expect (ok r) "shutdown acknowledged"
      | Ok _ | Error _ -> raise (Oneshot_failure "shutdown round-trip"));
      S.Client.close c
    in
    try
      (match S.Client.batch c script with
      | Error e -> raise (Oneshot_failure ("cold batch: " ^ e))
      | Ok rs ->
        expect (List.length rs = List.length script) "cold batch length";
        expect (List.for_all ok rs) "cold batch all ok";
        let nth = List.nth rs in
        expect (cached (nth 0) = Some false) "cold compile is a miss";
        expect
          (cached (nth 2) = Some true)
          "duplicate compile in one batch reads as a hit";
        expect (cached (nth 3) = Some false) "cold tune is a miss";
        expect
          (S.Json.mem_int "searches" (nth 4) = Some 1)
          "one tuner invocation after the cold batch");
      (match S.Client.batch c script with
      | Error e -> raise (Oneshot_failure ("warm batch: " ^ e))
      | Ok rs ->
        expect (List.for_all ok rs) "warm batch all ok";
        expect
          (List.for_all
             (fun r -> cached r <> Some false)
             (List.filteri (fun i _ -> i < 4) rs))
          "warm batch serves every request from the store";
        expect
          (S.Json.mem_int "searches" (List.nth rs 4) = Some 1)
          "warm tune ran zero additional searches");
      finish ();
      Printf.printf
        "oneshot: OK (cold misses, warm hits, 1 tuner run, clean shutdown; \
         jobs=%d)\n"
        jobs;
      0
    with Oneshot_failure msg ->
      Printf.eprintf "oneshot: FAIL: %s\n" msg;
      (try finish () with _ -> ());
      1)

let run_oneshot ~socket ~db ~no_db ~jobs =
  let dir = Filename.temp_dir "lego-serve" "" in
  let scratch name = Filename.concat dir name in
  let socket = Option.value ~default:(scratch "legoc.sock") socket in
  let db =
    if no_db then None else Some (Option.value ~default:(scratch "store.db") db)
  in
  (* Only the scratch files go: a --db given is the caller's. *)
  let cleanup () =
    List.iter
      (fun f -> try Sys.remove (scratch f) with Sys_error _ -> ())
      [ "store.db"; "legoc.sock" ];
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  match start_service ?db ~socket ~jobs () with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    cleanup ();
    1
  | Ok (t, listener) ->
    (* [serve] blocks until shutdown, so the server lives in a spawned
       domain; the main domain plays client over the real socket. *)
    let server =
      Domain.spawn (fun () ->
          Fun.protect
            ~finally:(fun () -> S.Server.shutdown t)
            (fun () -> S.Server.serve t listener))
    in
    let status = oneshot_client ~socket ~jobs in
    Domain.join server;
    cleanup ();
    status

let run_serve socket db no_db oneshot jobs =
  with_jobs jobs @@ fun jobs ->
  if oneshot then run_oneshot ~socket ~db ~no_db ~jobs
  else
    match socket with
    | None ->
      Printf.eprintf "error: serve needs --socket PATH (or --oneshot)\n";
      2
    | Some socket -> (
      let db =
        if no_db then None
        else Some (Option.value ~default:(S.Store.default_path ()) db)
      in
      match start_service ?db ~socket ~jobs () with
      | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
      | Ok (t, listener) ->
        (match S.Server.load t with
        | S.Store.Recovered (n, why) ->
          Printf.eprintf
            "warning: store damaged (%s); recovered %d entries, truncated \
             the rest\n"
            why n
        | S.Store.Loaded n ->
          Printf.eprintf "store: %d entries (warm start)\n" n
        | S.Store.Fresh -> ());
        Printf.printf "legoc serve: listening on %s (db: %s, jobs=%d)\n%!"
          socket
          (match db with Some p -> p | None -> "none")
          jobs;
        S.Server.serve t listener;
        S.Server.shutdown t;
        0)

let serve_cmd =
  let man =
    [
      `S Manpage.s_description;
      `P
        "Keeps the compiler hot: a long-running daemon on a Unix-domain \
         socket, answering length-prefixed JSON request batches (compile, \
         tune, fingerprint, stats, shutdown).  Compile results and tune \
         winners are addressed by a digest of their inputs in an \
         append-only on-disk store; simulator results stay in the \
         process that computed them.  Each batch is handled \
         sequentially, one request at a time; --jobs sizes only a cold \
         tune search's simulation pool, and identical batches get \
         byte-identical response frames at any --jobs.  A --db or \
         --socket path that cannot be used exits 1 with one error line \
         naming it.";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc:serve_doc ~man)
    Term.(
      const run_serve $ socket_arg $ db_arg $ no_db_flag $ oneshot_flag
      $ jobs_arg)

let client_batch_arg =
  let doc =
    "Request batch to send: a JSON array of request objects, or a single \
     object (wrapped into a one-element batch)."
  in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"JSON" ~doc)

let client_stats_flag =
  Arg.(value & flag & info [ "stats" ] ~doc:"Also request server counters.")

let client_shutdown_flag =
  Arg.(
    value & flag & info [ "shutdown" ] ~doc:"Also ask the server to stop.")

let run_client socket json_arg stats shutdown =
  match socket with
  | None ->
    Printf.eprintf "error: client needs --socket PATH\n";
    2
  | Some socket -> (
    let parsed =
      match json_arg with
      | None -> Ok []
      | Some s -> (
        match S.Json.of_string s with
        | Ok (S.Json.List _ as b) -> Ok [ b ]
        | Ok (S.Json.Obj _ as o) -> Ok [ S.Json.List [ o ] ]
        | Ok _ -> Error "batch must be a JSON array or object"
        | Error e -> Error e)
    in
    match parsed with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      2
    | Ok batches -> (
      let one op = S.Json.List [ S.Json.Obj [ ("op", S.Json.Str op) ] ] in
      let batches =
        batches
        @ (if stats then [ one "stats" ] else [])
        @ if shutdown then [ one "shutdown" ] else []
      in
      if batches = [] then begin
        Printf.eprintf
          "error: nothing to send (give a JSON batch, --stats or --shutdown)\n";
        2
      end
      else
        match S.Client.connect ~socket () with
        | Error e ->
          Printf.eprintf "error: %s\n" e;
          1
        | Ok c ->
          let all_ok = ref true in
          List.iter
            (fun b ->
              match S.Client.rpc c b with
              | Error e ->
                Printf.eprintf "error: %s\n" e;
                all_ok := false
              | Ok reply ->
                print_endline (S.Json.to_string reply);
                (match reply with
                | S.Json.List rs ->
                  List.iter
                    (fun r ->
                      if S.Json.mem_bool "ok" r <> Some true then
                        all_ok := false)
                    rs
                | _ -> all_ok := false))
            batches;
          S.Client.close c;
          if !all_ok then 0 else 1))

let client_cmd =
  let man =
    [
      `S Manpage.s_description;
      `P
        "Connects to a running $(b,legoc serve) socket, sends each batch \
         as one frame and prints each response frame as one line of \
         JSON.  Exits non-zero if any response carries \
         $(b,\"ok\":false).";
    ]
  in
  Cmd.v
    (Cmd.info "client" ~doc:client_doc ~man)
    Term.(
      const run_client $ socket_arg $ client_batch_arg $ client_stats_flag
      $ client_shutdown_flag)

let run_fingerprint layout_text device =
  match Lego_gpusim.Device.resolve device with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    2
  | Ok (device, _) -> (
    match Lego_lang.Elab.layout_of_string layout_text with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok g ->
      let fp = T.Fingerprint.of_layout g in
      Printf.printf "fingerprint: %s\n" fp;
      Printf.printf "digest: %s\n" (Digest.to_hex (Digest.string fp));
      Printf.printf "device: %s\n" device;
      Printf.printf "key: %s\n" (S.Server.compile_key ~fp ~device);
      0)

let fingerprint_cmd =
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses the layout, prints its canonical fingerprint (the stable \
         printed notation every cache is keyed by), the fingerprint's \
         MD5 digest, and the content-address under which $(b,legoc \
         serve) stores the compile artifact for the given device preset \
         — for correlating store entries and debugging cache behaviour \
         by hand.";
    ]
  in
  Cmd.v
    (Cmd.info "fingerprint" ~doc:fingerprint_doc ~man)
    Term.(const run_fingerprint $ layout_arg $ device_arg)

let layout_cmd =
  let doc = layout_doc in
  let man =
    [
      `S Manpage.s_description;
      `P
        "See also: $(b,legoc conform), the differential conformance \
         harness for the layout backends.";
    ]
  in
  Cmd.v
    (Cmd.info "legoc" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ layout_arg $ table_flag $ apply_arg $ inv_arg $ c_flag
      $ triton_flag $ mlir_flag $ check_flag)

let subcommand_cmds =
  [ conform_cmd; tune_cmd; serve_cmd; client_cmd; fingerprint_cmd ]

let subcommands =
  Cmd.group (Cmd.info "legoc" ~version:"1.0.0" ~doc:layout_doc) subcommand_cmds

(* The top-level overview: every sub-command with its one-line doc, plus
   the default layout-expression mode.  Printed (exit 0) for a bare
   `legoc`, `legoc --help`/-h, and `legoc help`. *)
let print_overview () =
  print_endline "legoc - the LEGO layout compiler (v1.0.0)";
  print_newline ();
  print_endline "Usage:";
  Printf.printf "  legoc LAYOUT [OPTION]...\n      %s\n" layout_doc;
  List.iter
    (fun (cmd, doc) ->
      Printf.printf "  legoc %s [OPTION]...\n      %s\n" (Cmd.name cmd) doc)
    [
      (conform_cmd, conform_doc);
      (tune_cmd, tune_doc);
      (serve_cmd, serve_doc);
      (client_cmd, client_doc);
      (fingerprint_cmd, fingerprint_doc);
    ];
  print_newline ();
  print_endline
    "Run `legoc <command> --help' (or `legoc LAYOUT --help') for the full \
     option list of each mode."

(* A layout expression is a positional argument, which cmdliner's command
   groups would swallow as an (unknown) sub-command name — so dispatch on
   the first word ourselves: known sub-commands go through the group,
   anything else is the classic layout CLI. *)
let () =
  let wants_overview =
    Array.length Sys.argv <= 1
    || (Array.length Sys.argv = 2
       && List.mem Sys.argv.(1) [ "--help"; "-h"; "help" ])
  in
  if wants_overview then begin
    print_overview ();
    exit 0
  end;
  let is_subcommand =
    List.mem Sys.argv.(1) (List.map Cmd.name subcommand_cmds)
  in
  exit (Cmd.eval' (if is_subcommand then subcommands else layout_cmd))
