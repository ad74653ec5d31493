(* Section 6.2 of the paper: optimizing Rodinia Needleman-Wunsch by
   changing the shared buffer's layout to anti-diagonal order.  Prints
   the generated CUDA indexing helper and the simulated effect.

   Run with: dune exec examples/nw_layout.exe *)

open Lego_layout
open Lego_apps

let () =
  let b = 16 in
  (* The Arr2D wrapper of the paper redirects buff[i][j] through a LEGO
     bijection; this is the indexing function it splices into CUDA. *)
  let nw_buffer =
    Group_by.make
      ~chain:[ Order_by.make [ Gallery.antidiag (b + 1) ] ]
      [ [ b + 1; b + 1 ] ]
  in
  let offset = Lego_symbolic.Sym.apply nw_buffer in
  print_endline "// generated by LEGO: anti-diagonal layout of buff[b+1][b+1]";
  print_endline Lego_codegen.C_printer.isqrt_helper;
  print_endline
    (Lego_codegen.C_printer.function_def ~name:"buff_offset"
       ~params:[ "i0"; "i1" ] offset);

  (* The wavefront update accesses one anti-diagonal at a time; under the
     new layout those are consecutive addresses (bank-conflict free). *)
  print_endline "\nwavefront step s=8: shared addresses touched by each thread";
  List.iter
    (fun kind ->
      let name =
        match kind with Nw.RowMajor -> "row-major  " | Nw.AntiDiagonal -> "antidiag   "
      in
      let index = Nw.buff_index kind ~b in
      let addrs =
        List.init b (fun tx ->
            let i = tx + 1 and j = 8 - tx + 1 in
            if j >= 1 && j <= b then Some (index (i - 1) (j - 1)) else None)
        |> List.filter_map Fun.id
      in
      Printf.printf "%s %s\n" name
        (String.concat " " (List.map string_of_int addrs)))
    [ Nw.RowMajor; Nw.AntiDiagonal ];

  (* Simulated figure 14. *)
  print_endline "\nsimulated NW (see bench fig14 for the full sweep):";
  List.iter
    (fun len ->
      let cfg = Nw.default_config len in
      let rm = Nw.run Nw.RowMajor cfg and ad = Nw.run Nw.AntiDiagonal cfg in
      Printf.printf "  length %5d: %6.2f ms -> %6.2f ms (%.2fx)\n" len
        (rm.Nw.time_s *. 1e3) (ad.Nw.time_s *. 1e3)
        (rm.Nw.time_s /. ad.Nw.time_s))
    [ 1024; 4096 ];

  (* The layout change preserves the computed alignment scores. *)
  match Nw.check_numerics Nw.AntiDiagonal (Nw.default_config 64) with
  | Ok () -> print_endline "\nDP scores identical to the sequential reference"
  | Error e ->
    prerr_endline e;
    exit 1
