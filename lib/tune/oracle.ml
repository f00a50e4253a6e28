type measurement = {
  time_us : float;
  cycles : float;
  vec : bool;
  tiled : bool;
  influenced : bool;
}

let c_evals = Obs.Counters.create "tune.evals" ~doc:"oracle evaluations computed"

let c_cache_hits =
  Obs.Counters.create "tune.eval_cache_hits" ~doc:"oracle evaluations answered from the compile cache"

let c_failures =
  Obs.Counters.create "tune.eval_failures"
    ~doc:"oracle evaluations whose pipeline raised (candidate scored as unusable)"

let key ?(strategy = Scheduling.Scheduler.default_config.strategy) ?(tile = false)
    ?cpu_runner ~machine kernel candidate =
  (* measured (cpu-runner) evaluations live under their own version and
     carry the toolchain digest: a simulated cache entry must never
     answer for a measured one, or vice versa *)
  let toolchain =
    match cpu_runner with
    | None -> []
    | Some r ->
      [ ("toolchain", (Codegen_cpu.Runner.toolchain r).Codegen_cpu.Toolchain.digest) ]
  in
  Service.Key.make
    ~flags:
      ([ ("entry", "tune"); ("candidate", Candidate.digest candidate);
         ("strategy", Scheduling.Scheduler.strategy_name strategy)
       ]
      @ toolchain)
    ~kernel ~machine
    ~version:
      (match cpu_runner with
       | Some _ -> "tune-cpu"
       | None -> if tile then "tune-tiled" else "tune-infl")
    ()

module J = Obs.Json

let measurement_to_json = function
  | None -> J.Assoc [ ("failed", J.Bool true) ]
  | Some m ->
    J.Assoc
      [ ("failed", J.Bool false);
        ("time_us", J.Float m.time_us);
        ("cycles", J.Float m.cycles);
        ("vec", J.Bool m.vec);
        ("tiled", J.Bool m.tiled);
        ("influenced", J.Bool m.influenced)
      ]

let measurement_of_json j =
  match J.member "failed" j with
  | Some (J.Bool true) -> Some None
  | Some (J.Bool false) -> (
    let flt name =
      match J.member name j with
      | Some (J.Float f) -> Some f
      | Some (J.Int i) -> Some (float_of_int i)
      | _ -> None
    in
    let bool name =
      match J.member name j with Some (J.Bool b) -> Some b | _ -> None
    in
    match
      (flt "time_us", flt "cycles", bool "vec", bool "tiled", bool "influenced")
    with
    | Some time_us, Some cycles, Some vec, Some tiled, Some influenced ->
      Some (Some { time_us; cycles; vec; tiled; influenced })
    | _ -> None)
  | _ -> None

let find cache k =
  match Service.Cache.find cache k with
  | None -> None
  | Some payload -> (
    match measurement_of_json payload with
    | Some m ->
      Obs.Counters.incr c_cache_hits;
      Some m
    | None -> None)

let compute ?(strategy = Scheduling.Scheduler.default_config.strategy) ?(tile = false)
    ?cpu_runner ~machine kernel (c : Candidate.t) =
  Obs.Span.with_ "tune.eval" @@ fun () ->
  Obs.Counters.incr c_evals;
  match
    (* In tile mode the tree comes from the tiling client, so the
       candidate's vectorizer weights are inert; its [order] still
       selects among the tile-shape branches. *)
    let config =
      { Pipeline.default with
        strategy;
        weights = c.Candidate.weights;
        order = c.Candidate.order
      }
    in
    let compiled, stats =
      Pipeline.compile config (if tile then Pipeline.Tiled else Pipeline.Infl) kernel
    in
    let time_us, cycles =
      match cpu_runner with
      | None ->
        let report = Gpusim.Sim.run ~machine compiled in
        (Gpusim.Sim.time_us report, Gpusim.Sim.cycles ~machine report)
      | Some runner -> (
        (* measured mode: execute the emitted C on the host and score the
           candidate by wall clock instead of the simulator's model *)
        let m =
          if Gpusim.Machine.is_cpu machine then machine
          else Codegen_cpu.Runner.native_profile runner
        in
        let src = Codegen_cpu.Cemit.emit ~machine:m compiled in
        match Codegen_cpu.Runner.build_source runner ~machine:m src with
        | Error e -> failwith (Codegen_cpu.Runner.error_message e)
        | Ok built -> (
          let inst = Ir.Kernel.instantiate kernel in
          let mem = Interp.randomize inst in
          let inputs =
            Array.of_list
              (List.map
                 (fun (t : Ir.Tensor.t) ->
                   Array.copy (Hashtbl.find mem t.Ir.Tensor.name))
                 inst.Ir.Kernel.tensors)
          in
          match Codegen_cpu.Runner.execute runner built ~inputs with
          | Error e -> failwith (Codegen_cpu.Runner.error_message e)
          | Ok (_, best_s) ->
            (best_s *. 1e6, best_s *. m.Gpusim.Machine.clock_hz)))
    in
    { time_us;
      cycles;
      vec = Pipeline.vectorized compiled.Codegen.Compile.ast;
      tiled = Codegen.Tiling.applied compiled.Codegen.Compile.ast;
      influenced = not stats.Scheduling.Scheduler.influence_abandoned
    }
  with
  | m -> Some m
  | exception _ ->
    Obs.Counters.incr c_failures;
    None

let store cache k m = Service.Cache.store cache k (measurement_to_json m)

let measure ?cache ?strategy ?tile ?cpu_runner ~machine kernel candidate =
  let k = key ?strategy ?tile ?cpu_runner ~machine kernel candidate in
  match Option.bind cache (fun c -> find c k) with
  | Some m -> m
  | None ->
    let m = compute ?strategy ?tile ?cpu_runner ~machine kernel candidate in
    Option.iter (fun c -> store c k m) cache;
    m
