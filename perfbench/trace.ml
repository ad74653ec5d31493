(* In-memory span recorder for the traced benchmark run.

   Spans are recorded from the benchmark's own code, around calls into
   each layer's public functions; nothing inside the program is
   instrumented.  A span is (name, start, end, parent, item): the item
   id is shared by every span of one candidate, input or request.
   Spans stay in memory and are written once, at exit, twice over: as
   Chrome trace-event JSON (opens in Perfetto) and as a flat self-time
   table.  Single-domain only: the traced replay runs serially. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 = root *)
  item : int;  (* -1 = not tied to one item *)
  start : float;
  mutable stop : float;
  mutable child_s : float;  (* summed duration of direct children *)
}

let spans : span list ref = ref []
let next_id = ref 0
let stack : span list ref = ref []

(* Multipliers for layers replayed on a 1-in-k sample: the reported
   totals are scaled back up to the whole workload. *)
let scale : (string, float) Hashtbl.t = Hashtbl.create 8

let reset () =
  spans := [];
  next_id := 0;
  stack := [];
  Hashtbl.reset scale

let with_span ?(item = -1) name f =
  let parent = match !stack with p :: _ -> p.id | [] -> -1 in
  let s =
    { id = !next_id; name; parent; item; start = now (); stop = 0.0; child_s = 0.0 }
  in
  incr next_id;
  stack := s :: !stack;
  let finish () =
    s.stop <- now ();
    stack := List.tl !stack;
    (match !stack with
    | p :: _ -> p.child_s <- p.child_s +. (s.stop -. s.start)
    | [] -> ());
    spans := s :: !spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

type row = { count : int; total_s : float; self_s : float }

(* Self time: a span's duration minus the part its direct children
   cover.  Rows are keyed by span name. *)
let table () =
  let t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let r =
        Option.value (Hashtbl.find_opt t s.name)
          ~default:{ count = 0; total_s = 0.0; self_s = 0.0 }
      in
      Hashtbl.replace t s.name
        {
          count = r.count + 1;
          total_s = r.total_s +. d;
          self_s = r.self_s +. (d -. s.child_s);
        })
    !spans;
  t

let scaled name v =
  match Hashtbl.find_opt scale name with Some k -> v *. k | None -> v

(* Scaled self seconds of every span named [name] (0 when none ran). *)
let self_s name =
  match Hashtbl.find_opt (table ()) name with
  | Some r -> scaled name r.self_s
  | None -> 0.0

let write_chrome path =
  let oc = open_out path in
  let t0 =
    List.fold_left (fun acc s -> Float.min acc s.start) infinity !spans
  in
  let us x = (x -. t0) *. 1e6 in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"item\":%d}}"
        s.name (us s.start) ((s.stop -. s.start) *. 1e6) s.id s.parent s.item)
    (List.rev !spans);
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc

let write_table path =
  let oc = open_out path in
  output_string oc "span\tcount\ttotal_s\tself_s\tscale\n";
  let rows = Hashtbl.fold (fun n r acc -> (n, r) :: acc) (table ()) [] in
  List.iter
    (fun (n, r) ->
      Printf.fprintf oc "%s\t%d\t%.6f\t%.6f\t%g\n" n r.count r.total_s
        r.self_s
        (Option.value (Hashtbl.find_opt scale n) ~default:1.0))
    (List.sort (fun (_, a) (_, b) -> compare b.self_s a.self_s) rows);
  close_out oc
