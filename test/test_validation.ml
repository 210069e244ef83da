(* Constructor and argument validation across the libraries: bad inputs
   must fail loudly, not corrupt a simulation. *)

open Dpa_sim

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* The exact message, not just the exception: a check that fires for the
   wrong reason fails here. *)
let expect_message name msg f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument %S" name msg
  | exception Invalid_argument got -> Alcotest.(check string) name msg got

let test_machine_validation () =
  expect_invalid "zero nodes" (fun () -> Machine.make ~nodes:0 ())

let test_engine_validation () =
  let engine = Engine.create (Machine.t3d ~nodes:2) in
  expect_invalid "bad node" (fun () ->
      Engine.post engine ~time:0 ~node:5 (fun () -> ()));
  expect_invalid "negative time" (fun () ->
      Engine.post engine ~time:(-1) ~node:0 (fun () -> ()));
  Engine.post engine ~time:0 ~node:0 (fun () -> ());
  expect_invalid "barrier with pending events" (fun () -> Engine.barrier engine)

let test_config_validation () =
  expect_invalid "zero strip" (fun () -> Dpa.Config.dpa ~strip_size:0 ());
  expect_invalid "zero agg" (fun () -> Dpa.Config.dpa ~agg_max:0 ())

let test_heap_validation () =
  expect_invalid "zero cluster" (fun () -> Dpa_heap.Heap.cluster ~nnodes:0);
  expect_invalid "bad gptr" (fun () -> Dpa_heap.Gptr.make ~node:(-1) ~slot:0);
  let heaps = Dpa_heap.Heap.cluster ~nnodes:1 in
  let v = Dpa_heap.Heap.alloc heaps.(0) ~floats:[| 1.; 2.; 3. |] ~ptrs:[||] in
  let copy ~pos ~len dst () =
    Dpa_heap.Heap.view_floats_into heaps v ~pos ~len dst
  in
  let msg = "Heap.view_floats_into: range out of bounds" in
  expect_message "past the object" msg (copy ~pos:1 ~len:3 (Array.make 3 0.));
  expect_message "negative pos" msg (copy ~pos:(-1) ~len:1 (Array.make 3 0.));
  expect_message "short dst" msg (copy ~pos:0 ~len:3 (Array.make 2 0.));
  expect_message "write past the object" "Heap.set_floats: range out of bounds"
    (fun () -> Dpa_heap.Heap.set_floats heaps.(0) v ~pos:2 [| 5.; 6. |]);
  Dpa_heap.Heap.set_floats heaps.(0) v ~pos:1 [| 5. |];
  let dst = Array.make 2 0. in
  copy ~pos:1 ~len:2 dst ();
  Alcotest.(check (array (float 0.))) "copied" [| 5.; 3. |] dst

let test_aggregator_validation () =
  expect_invalid "zero dest" (fun () ->
      Dpa_msg.Aggregator.create ~ndest:0 ~max_batch:1 ~flush:(fun ~dst:_ _ -> ()));
  expect_invalid "zero batch" (fun () ->
      Dpa_msg.Aggregator.create ~ndest:1 ~max_batch:0 ~flush:(fun ~dst:_ _ -> ()))

let test_update_buffer_validation () =
  expect_invalid "zero dest" (fun () ->
      Dpa.Update_buffer.create ~ndest:0 ~combine:true ~max_batch:1
        ~flush:(fun ~dst:_ _ -> ())
        ())

let test_dcache_validation () =
  expect_invalid "zero lines" (fun () -> Dcache.create ~lines:0 ());
  expect_invalid "zero assoc" (fun () -> Dcache.create ~assoc:0 ~lines:4 ());
  let c = Dcache.create ~lines:4 () in
  expect_invalid "negative key" (fun () -> Dcache.access c (-1))

let test_app_validation () =
  expect_invalid "no bodies" (fun () -> Dpa_bh.Octree.build [||]);
  expect_invalid "bad leaf cap" (fun () ->
      Dpa_bh.Octree.build ~leaf_cap:0 (Dpa_bh.Plummer.generate ~n:4 ~seed:1));
  expect_invalid "no particles" (fun () -> Dpa_fmm.Quadtree.build [||]);
  expect_invalid "shallow depth" (fun () ->
      Dpa_fmm.Quadtree.build ~depth:1 (Dpa_fmm.Particle2d.uniform ~n:4 ~seed:1));
  expect_invalid "zero steps" (fun () ->
      Dpa_bh.Bh_run.simulate ~nnodes:1 ~nbodies:4 ~nsteps:0
        Dpa_baselines.Variant.Blocking);
  expect_invalid "bad remote frac" (fun () ->
      Dpa_compiler.Em3d.build ~nnodes:1 ~e_per_node:1 ~h_per_node:1 ~degree:1
        ~remote_frac:1.5 ~seed:1)

let test_expansion_validation () =
  let module E = Dpa_fmm.Expansion in
  let far = { Complex.re = 3.; im = 1. } in
  let shift kernel ~dst a =
    kernel ~dst a ~from_center:Complex.zero ~to_center:far
  in
  expect_message "coincident m2l" "Expansion.m2l: coincident centers" (fun () ->
      E.m2l (E.zero ~p:3) ~from_center:Complex.zero ~to_center:Complex.zero);
  expect_message "mismatched add" "Expansion.add_inplace: order mismatch"
    (fun () -> E.add_inplace (E.zero ~p:2) (E.zero ~p:3));
  expect_message "huge binomial" "Expansion.binomial: n too large" (fun () ->
      E.binomial 1000 2);
  let msg = "Expansion.order: length must be even and positive" in
  expect_message "odd length" msg (fun () -> E.order [| 1.; 2.; 3. |]);
  expect_message "empty" msg (fun () -> E.order [||]);
  (* M2L reads binomial rows up to 2p - 1, L2L up to p. *)
  expect_message "m2l order" "Expansion.m2l: order too large" (fun () ->
      E.m2l (E.zero ~p:65) ~from_center:Complex.zero ~to_center:far);
  expect_message "l2l order" "Expansion.l2l: order too large" (fun () ->
      E.l2l (E.zero ~p:129) ~from_center:Complex.zero ~to_center:far);
  expect_message "m2l dst order" "Expansion.m2l: order mismatch" (fun () ->
      shift E.m2l_into ~dst:(E.zero ~p:2) (E.zero ~p:3));
  expect_message "m2m dst order" "Expansion.m2m: order mismatch" (fun () ->
      shift E.m2m_into ~dst:(E.zero ~p:2) (E.zero ~p:3));
  let a = E.zero ~p:3 in
  expect_message "m2l in place" "Expansion.m2l: dst aliases the source"
    (fun () -> shift E.m2l_into ~dst:a a);
  expect_message "m2m in place" "Expansion.m2m: dst aliases the source"
    (fun () -> shift E.m2m_into ~dst:a a);
  expect_message "short sources"
    "Expansion.direct_packed: n exceeds the packed sources" (fun () ->
      E.direct_packed (Array.make 7 0.) ~n:2 far)

let test_variant_names () =
  Alcotest.(check string) "dpa" "DPA(50)"
    (Dpa_baselines.Variant.name (Dpa_baselines.Variant.dpa ()));
  Alcotest.(check string) "caching" "Caching(32)"
    (Dpa_baselines.Variant.name (Dpa_baselines.Variant.Caching { capacity = 32 }));
  Alcotest.(check string) "blocking" "Blocking"
    (Dpa_baselines.Variant.name Dpa_baselines.Variant.Blocking)

let test_t3d_defaults () =
  let m = Machine.t3d ~nodes:4 in
  Alcotest.(check bool) "contention-free by default" false
    m.Machine.ingress_serialized;
  Alcotest.(check int) "nodes" 4 m.Machine.nodes

let suites =
  [
    ( "validation",
      [
        Alcotest.test_case "machine" `Quick test_machine_validation;
        Alcotest.test_case "engine" `Quick test_engine_validation;
        Alcotest.test_case "config" `Quick test_config_validation;
        Alcotest.test_case "heap" `Quick test_heap_validation;
        Alcotest.test_case "aggregator" `Quick test_aggregator_validation;
        Alcotest.test_case "update buffer" `Quick test_update_buffer_validation;
        Alcotest.test_case "dcache" `Quick test_dcache_validation;
        Alcotest.test_case "applications" `Quick test_app_validation;
        Alcotest.test_case "expansion" `Quick test_expansion_validation;
        Alcotest.test_case "variant names" `Quick test_variant_names;
        Alcotest.test_case "t3d defaults" `Quick test_t3d_defaults;
      ] );
  ]
