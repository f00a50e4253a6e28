(* The ResNet case: a layout permutation whose incoming loop order is
   hostile (the innermost loop strides every access).  The baseline
   scheduler has no access-pattern cost model and keeps the bad order; the
   non-linear optimizer reorders toward a unit-stride innermost dimension,
   prepares it for float4, and the mapping puts the strip on threadIdx.x:
   coalescing plus vector types — the largest speedups of Table II.

   Run with:  dune exec examples/resnet_transpose.exe *)

let () =
  let kernel = Ops.Classics.permute_outer_bad ~a:64 ~b:196 ~c:64 () in
  Format.printf "%a@." Ir.Kernel.pp kernel;

  let show label sched vectorize =
    let c =
      Codegen.Compile.lower ~vectorize
        ~vec_min_parallel:Pipeline.default.vec_min_parallel sched kernel
    in
    let r = Gpusim.Sim.run c in
    Format.printf "@.--- %s ---@.%a@.%s" label Scheduling.Schedule.pp sched
      (Codegen.Cuda.emit c);
    Format.printf "simulated: %a@." Gpusim.Sim.pp r;
    Gpusim.Sim.time_us r
  in

  let isl_sched, _ = Scheduling.Scheduler.schedule kernel in
  let t_isl = show "isl baseline (keeps the hostile order)" isl_sched false in

  let tree = Vectorizer.Treegen.influence_for kernel in
  let infl_sched, _ = Scheduling.Scheduler.schedule ~influence:tree kernel in
  let t_novec = show "influenced, no vector types (novec)" infl_sched false in
  let t_infl = show "influenced + explicit float4 (infl)" infl_sched true in

  Format.printf "@.speedups over isl: novec %.2fx, infl %.2fx@."
    (t_isl /. t_novec) (t_isl /. t_infl);

  (* semantic validation at a small size *)
  let small = Ops.Classics.permute_outer_bad ~a:4 ~b:6 ~c:8 () in
  let tree = Vectorizer.Treegen.influence_for small in
  let sched, _ = Scheduling.Scheduler.schedule ~influence:tree small in
  let c = Codegen.Compile.lower ~vectorize:true sched small in
  let m1 = Interp.randomize small in
  let m2 = Interp.copy m1 in
  Interp.run_original small m1;
  Interp.run_ast small c.Codegen.Compile.ast m2;
  Format.printf "semantics (4x6x8): %s@."
    (if Interp.equal m1 m2 then "MATCH" else "MISMATCH")
