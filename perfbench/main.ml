(* perfbench: the repository benchmark.

   Usage (from the repository root):
     bash perfbench/run.sh --workload zoo|fuzz|serve|cpu --seed N --seconds S --trace 0|1

   run.sh builds this executable and runs it.  Each run sets the workload
   up (timed in separate child processes, see [setup_times]), repeats
   its fixed amount of work, one pass at a time with tracing off, for
   about --seconds seconds, checks every output, and prints a
   human-readable report followed, as the last line of standard output,
   by one JSON object
     {"correct": B, "attempted": N, "failed": N, "metrics": {...}}.
   With --trace 0 the metrics are the end-to-end ones; with --trace 1
   one more pass runs with Obs.Trace enabled and the metrics are the
   per-layer ones, read from outside the libraries: timed calls into
   public functions, trace events, span totals and counter values.
   A wrong output makes the run exit 1.  Times are rescaled to a
   reference pace (see "host pace").  BENCHMARK.json lists zoo, fuzz and
   serve; cpu runs by hand (see README.md). *)

module J = Obs.Json

(* monotonic, nanosecond resolution: serve cache hits take tens of µs *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* host pace                                                            *)
(* ------------------------------------------------------------------ *)

(* The host is shared: its speed drifts by up to 1.9x over minutes, so a
   raw time would measure the drift more than the program.  A fixed
   reference computation that uses no repository code is therefore run
   about every [pace_interval_s], and every timed interval is rescaled by
   [reference_s] over the median reference time around it.  A slowdown
   that hits both cancels; a change to the program moves only the
   workload's side.  The times reported are seconds at the reference pace:
   [reference_s] is about the reference computation's time on a quiet
   2-core 2.0 GHz Xeon host. *)

module Int_map = Map.Make (Int)

(* allocation-heavy like the compiler: map inserts, a fold and a sort *)
let reference_work () =
  let st = Random.State.make [| 3 |] in
  let xs = List.init 1000 (fun _ -> Random.State.bits st) in
  let m = List.fold_left (fun m x -> Int_map.add x (x land 255) m) Int_map.empty xs in
  let s = Int_map.fold (fun k v acc -> acc + (k mod 13 * v)) m 0 in
  let l = List.sort compare (List.map (fun x -> (x mod 1000, x)) xs) in
  ignore (Sys.opaque_identity (s + List.length l))

let reference_s = 0.45e-3
let pace_interval_s = 0.02
let pace_window_s = 1.
let pace_at_least = 8

(* an item older than this is sampled from inside *)
let pace_long_item_s = 0.1

type pace = {
  running : bool Atomic.t;
  item_start : float Atomic.t;  (** start of the item in progress, or infinity *)
  mutable last : float;  (** end of the latest sample *)
  mutable samples : (float * float) list;  (** start and end of each reference run, newest first *)
  mutable sampler : Thread.t option;
}

let sample p =
  let t0 = now () in
  reference_work ();
  let t1 = now () in
  p.samples <- (t0, t1) :: p.samples;
  p.last <- t1

(* Between items the samples are taken in line: one per [pace_interval_s]
   gone by, at most [pace_at_least], so short items share a sample and are
   never interrupted.  Inside an item that has run for [pace_long_item_s],
   a thread of its own takes them: threads of one domain take turns, so
   each sample briefly pauses the item and measures the host's pace at
   that moment. *)
let start_pace () =
  let p =
    { running = Atomic.make true; item_start = Atomic.make Float.infinity; last = 0.;
      samples = []; sampler = None }
  in
  let rec loop () =
    if Atomic.get p.running then begin
      Thread.delay (2. *. pace_interval_s);
      let t = now () in
      if t -. Atomic.get p.item_start >= pace_long_item_s && t -. p.last >= pace_interval_s then
        sample p;
      loop ()
    end
  in
  p.sampler <- Some (Thread.create loop ());
  p

let tick p =
  let gap = if p.samples = [] then Float.infinity else now () -. p.last in
  let n =
    if gap >= float_of_int pace_at_least *. pace_interval_s then pace_at_least
    else int_of_float (gap /. pace_interval_s)
  in
  for _ = 1 to n do
    sample p
  done

type span = { t0 : float; t1 : float }

(* [paced p f] runs [f] as one timed item and returns its raw span. *)
let paced p f =
  tick p;
  let t0 = now () in
  Atomic.set p.item_start t0;
  let r = Fun.protect ~finally:(fun () -> Atomic.set p.item_start Float.infinity) f in
  (r, { t0; t1 = now () })

(* Stops the sampler, takes a closing burst of samples and returns the
   function that turns a span into seconds at the reference pace: the
   span less the reference runs inside it, rescaled by the median
   reference time around it. *)
let rescaler p =
  Atomic.set p.running false;
  Option.iter Thread.join p.sampler;
  p.sampler <- None;
  for _ = 1 to pace_at_least do
    sample p
  done;
  let runs = Array.of_list (List.rev p.samples) in
  let paces = Array.map (fun (s0, s1) -> ((s0 +. s1) /. 2., s1 -. s0)) runs in
  fun { t0; t1 } ->
    let inside =
      Array.fold_left
        (fun acc (s0, s1) -> acc +. Float.max 0. (Float.min t1 s1 -. Float.max t0 s0))
        0. runs
    in
    (t1 -. t0 -. inside) *. reference_s
    /. Perfstats.local_median ~window:pace_window_s ~at_least:pace_at_least paces ~t0 ~t1

(* how much slower than the reference pace the host ran *)
let slowdown p = Perfstats.median (List.map (fun (s0, s1) -> s1 -. s0) p.samples) /. reference_s

(* ------------------------------------------------------------------ *)
(* arguments                                                            *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  setup_only : bool;
}

let usage =
  "usage: main.exe --workload zoo|fuzz|serve|cpu --seed N --seconds S --trace 0|1"

let parse_args () =
  let die msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> die ("not an integer: " ^ s) in
  let rec go a = function
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> go { a with seed = int_of n } rest
    | "--seconds" :: n :: rest -> go { a with seconds = int_of n } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--setup-only" :: rest -> go { a with setup_only = true } rest
    | [] -> a
    | x :: _ -> die ("unexpected argument " ^ x)
  in
  let a =
    go
      { workload = ""; seed = 1; seconds = 10; trace = false; setup_only = false }
      (List.tl (Array.to_list Sys.argv))
  in
  if not (List.mem a.workload [ "zoo"; "fuzz"; "serve"; "cpu" ]) then
    die ("unknown workload " ^ a.workload);
  if a.seconds < 1 then die "--seconds must be positive";
  a

(* ------------------------------------------------------------------ *)
(* process helpers                                                      *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> (try Sys.remove path with Sys_error _ -> ())

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | exception End_of_file -> 0.
    | line ->
      (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
       | Some kb -> float_of_int kb /. 1024.
       | None -> go ())
  in
  go ()

(* Lowers VmHWM to the current resident set, where the kernel allows it,
   so the next reading is the peak of what runs after. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

(* Fisher-Yates with a private generator, so the order depends only on
   [seed]. *)
let shuffle ~seed xs =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* one pass of a workload                                               *)
(* ------------------------------------------------------------------ *)

type pass = {
  wall_s : float;  (** the timed work, checks excluded, at the reference pace *)
  items : (float * bool) list;
      (** per timed op, case or request: seconds at the reference pace,
          output correct *)
  checks : bool list;  (** untimed check runs that are not items: output correct *)
  failures : string list;  (** wrong or failed outputs, one message each *)
  values : (string * float) list;
      (** workload results and benchmark-side layer timings *)
  digest : string;  (** of the deterministic outputs, compared across passes *)
}

(* [snapshot] is called right after the timed work, before any check, so
   the Obs state and peak RSS it reads cover the workload alone.  [check]
   marks the passes where checks too costly for every pass run: the
   run's first pass and the traced one; the other passes' outputs are tied
   to the first through [digest]. *)
type workload = {
  pass : traced:bool -> check:bool -> pace:pace -> snapshot:(unit -> unit) -> pass;
  absent : (string * string) list;  (** per-layer metric prefix, why it reads 0 *)
}

let digest_of_floats xs =
  Digest.to_hex
    (Digest.string
       (String.concat "," (List.map (fun x -> Int64.to_string (Int64.bits_of_float x)) xs)))

(* the fuzz corpus: a fixed draw, because case cost is heavy-tailed (a
   single case of another draw can spend about a minute in exact-ILP
   solves); --seed only orders it *)
let corpus_seed = 7
let corpus_count = 40

let fuzz_corpus () =
  List.init corpus_count (fun index -> Fuzz.Generate.generate ~seed:corpus_seed ~index ())

let zoo_ops () =
  List.concat_map
    (fun (n : Ops.Networks.t) ->
      List.map (fun (op, k) -> (n.Ops.Networks.name, op, k)) (Lazy.force n.Ops.Networks.ops))
    Ops.Networks.all

let rec vectorized = function
  | Codegen.Ast.Stmts l -> List.exists vectorized l
  | Codegen.Ast.If (_, b) -> vectorized b
  | Codegen.Ast.Exec _ -> false
  | Codegen.Ast.VecExec _ -> true
  | Codegen.Ast.For l -> (
    match l.Codegen.Ast.mark with
    | Codegen.Ast.Vectorized _ -> true
    | _ -> vectorized l.Codegen.Ast.body)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---- zoo: every network operator through Harness.Eval.evaluate_op --- *)

let zoo ~seed ~tmp:_ =
  let ops = shuffle ~seed (zoo_ops ()) in
  let pass ~traced ~check:checking ~pace ~snapshot =
    let results =
      List.map
        (fun (net, op, k) ->
          let name = net ^ "/" ^ op in
          let r, span =
            paced pace (fun () ->
                try Ok (Harness.Eval.evaluate_op ~name k)
                with e -> Error (name ^ ": " ^ Printexc.to_string e))
          in
          ((net, name, k), r, span))
        ops
    in
    snapshot ();
    let seconds = rescaler pace in
    let results = List.map (fun (op, r, span) -> (op, r, seconds span)) results in
    let wall_s = List.fold_left (fun acc (_, _, dt) -> acc +. dt) 0. results in
    (* Checks.  evaluate_op returns times, not schedules, so each schedule
       is recomputed with the same deterministic calls, validated, and
       tied back to the result through the tiled verdict. *)
    let deps_s = ref 0. and legality_s = ref 0. in
    let check (_, name, k) (r : Harness.Eval.op_result) =
      let deps, dt = timed (fun () -> Deps.Analysis.dependences k) in
      deps_s := !deps_s +. dt;
      let sched ?influence () =
        let s, st, _ = Harness.Eval.timed_schedule ?influence k in
        (s, st)
      in
      let isl, _ = sched () in
      let infl, _ = sched ~influence:(Harness.Eval.influence_with k) () in
      let tiled, tiled_st = sched ~influence:(Scheduling.Tiling.influence_for k) () in
      let legal =
        List.filter_map
          (fun (v, s) ->
            let res, dt = timed (fun () -> Scheduling.Legality.check s k deps) in
            legality_s := !legality_s +. dt;
            match res with
            | Ok () -> None
            | Error m -> Some (Printf.sprintf "%s %s: illegal schedule: %s" name v m))
          [ ("isl", isl); ("infl", infl); ("tiled", tiled) ]
      in
      let lower ?vec_min_parallel ~vectorize s = Codegen.Compile.lower ~vectorize ?vec_min_parallel s k in
      let tiled_c = lower ~vectorize:false tiled in
      let asts =
        [ ("isl", lower ~vectorize:false isl); ("novec", lower ~vectorize:false infl);
          ("infl", lower ~vec_min_parallel:2048 ~vectorize:true infl); ("tiled", tiled_c) ]
        @ List.mapi (fun i c -> (Printf.sprintf "tvm%d" i, c)) (Baselines.Tvm.compile k)
      in
      let formed =
        List.filter_map
          (fun (v, c) ->
            match Fuzz.Check.well_formed c with
            | Ok () -> None
            | Error m -> Some (Printf.sprintf "%s %s: malformed AST: %s" name v m))
          asts
      in
      let tiled_now =
        (not tiled_st.Scheduling.Scheduler.influence_abandoned)
        && Codegen.Tiling.applied tiled_c.Codegen.Compile.ast
      in
      let verdict =
        if tiled_now = r.Harness.Eval.tiled then []
        else [ name ^ ": tiled verdict differs from the recomputed schedule" ]
      in
      let times =
        List.filter_map
          (fun (v, us) ->
            if Float.is_finite us && us > 0. then None
            else Some (Printf.sprintf "%s %s: simulated time %g" name v us))
          [ ("isl", r.isl_us); ("tvm", r.tvm_us); ("novec", r.novec_us);
            ("infl", r.infl_us); ("tiled", r.tiled_us) ]
      in
      legal @ formed @ verdict @ times
    in
    let wrong =
      List.map
        (fun (op, r, _) -> match r with Error m -> [ m ] | Ok r -> if checking then check op r else [])
        results
    in
    let ok = List.filter_map (fun (op, r, _) -> Result.to_option r |> Option.map (fun r -> (op, r))) results in
    let per_network =
      List.filter_map
        (fun (n : Ops.Networks.t) ->
          match List.filter (fun ((net, _, _), _) -> net = n.Ops.Networks.name) ok with
          | [] -> None
          | rs ->
            let a = Harness.Eval.aggregate (List.map snd rs) in
            Some (Harness.Eval.speedup a.Harness.Eval.isl_ms a.Harness.Eval.infl_ms))
        Ops.Networks.all
    in
    let sorted = List.sort (fun ((_, a, _), _) ((_, b, _), _) -> compare a b) ok in
    { wall_s;
      items = List.map2 (fun (_, _, dt) w -> (dt, w = [])) results wrong;
      checks = [];
      failures = List.concat wrong;
      values =
        [ ("sim_speedup_geomean", Harness.Eval.geomean per_network);
          ("vectorizer.vec_ratio",
           ratio (List.length (List.filter (fun (_, r) -> r.Harness.Eval.vec) ok)) (List.length ok))
        ]
        @ (if traced then [ ("deps.busy_ms", !deps_s *. 1e3); ("legality.busy_ms", !legality_s *. 1e3) ]
           else []);
      digest =
        digest_of_floats
          (List.concat_map
             (fun (_, (r : Harness.Eval.op_result)) ->
               [ r.isl_us; r.tvm_us; r.novec_us; r.infl_us; r.tiled_us ])
             sorted)
    }
  in
  { pass;
    absent =
      [ ("interp.", "zoo simulates; it never interprets");
        ("serve.", "zoo bypasses the service"); ("cache.", "zoo bypasses the service");
        ("latency_", "closed-loop latency is a serve metric");
        ("cpu", "zoo never emits or runs C");
        ("fuzz.", "zoo generates no kernels") ]
  }

(* ---- fuzz: a seeded corpus through Fuzz.Check.run ------------------- *)

let fuzz ~seed ~tmp:_ =
  let corpus, gen_s = timed fuzz_corpus in
  let cases = shuffle ~seed (List.mapi (fun i c -> (i, c)) corpus) in
  let pass ~traced ~check:_ ~pace ~snapshot =
    let results =
      List.map
        (fun (i, case) ->
          (* the identity perturbation records each computed schedule so
             the traced pass can replay the layers after it *)
          let scheds = ref [] in
          let perturb v s =
            scheds := (v, s) :: !scheds;
            s
          in
          let r, span =
            paced pace (fun () ->
                try Fuzz.Check.run_case ~perturb case
                with e ->
                  Error { Fuzz.Check.version = Isl; stage = Schedule; message = Printexc.to_string e })
          in
          (i, case, List.rev !scheds, r, span))
        cases
    in
    snapshot ();
    let seconds = rescaler pace in
    let results = List.map (fun (i, case, scheds, r, span) -> (i, case, scheds, r, seconds span)) results in
    let wall_s = List.fold_left (fun acc (_, _, _, _, dt) -> acc +. dt) 0. results in
    let failures =
      List.filter_map
        (fun (i, _, _, r, _) ->
          match r with
          | Ok () -> None
          | Error f -> Some (Format.asprintf "case %d: %a" i Fuzz.Check.pp_failure f))
        results
    in
    (* Traced only: replay deps, legality, lowering and the interpreter on
       the recorded schedules, timing each call (Check.run's own calls are
       not visible from outside). *)
    let deps_s = ref 0. and legality_s = ref 0. and interp_s = ref 0. and vec = ref 0 in
    let emit_s = ref 0. and cpu_vec = ref 0 and cpu_versions = ref 0 in
    let replay (_, case, scheds, _, _) =
      match Fuzz.Case.to_kernel case with
      | Error _ -> ()
      | Ok k ->
        let deps, dt = timed (fun () -> Deps.Analysis.dependences k) in
        deps_s := !deps_s +. dt;
        List.iter
          (fun (v, s) ->
            let _, dt = timed (fun () -> Scheduling.Legality.check s k deps) in
            legality_s := !legality_s +. dt;
            let vectorize = v = Fuzz.Check.Infl || v = Fuzz.Check.Cpu in
            let c = Codegen.Compile.lower ~vectorize s k in
            if v = Fuzz.Check.Infl && vectorized c.Codegen.Compile.ast then incr vec;
            if v = Fuzz.Check.Cpu then begin
              (* Check.run emits C for the machine it defaults to *)
              incr cpu_versions;
              if vectorized c.Codegen.Compile.ast then incr cpu_vec;
              let _, dt =
                timed (fun () -> Codegen_cpu.Cemit.emit ~machine:Gpusim.Machine.avx2_8core c)
              in
              emit_s := !emit_s +. dt
            end;
            if v <> Fuzz.Check.Cpu then begin
              let m1 = Interp.randomize k in
              let m2 = Interp.copy m1 in
              let (), dt =
                timed (fun () ->
                    Interp.run_original k m1;
                    Interp.run_ast k c.Codegen.Compile.ast m2)
              in
              interp_s := !interp_s +. dt
            end)
          scheds
    in
    if traced then List.iter replay results;
    { wall_s;
      items = List.map (fun (_, _, _, r, dt) -> (dt, Result.is_ok r)) results;
      checks = [];
      failures;
      values =
        ("fuzz.generate_ms", gen_s *. 1e3)
        :: (if traced then
              [ ("deps.busy_ms", !deps_s *. 1e3); ("legality.busy_ms", !legality_s *. 1e3);
                ("interp.busy_ms", !interp_s *. 1e3);
                ("vectorizer.vec_ratio", ratio !vec (List.length results));
                ("cpu.emit_ms", !emit_s *. 1e3);
                ("cpu.vec_ratio", ratio !cpu_vec !cpu_versions) ]
            else []);
      digest =
        String.concat ""
          (List.map (fun (_, _, _, r, _) -> if Result.is_ok r then "1" else "0") results)
    }
  in
  { pass;
    absent =
      [ ("gpusim.", "Check.run never simulates");
        ("sim_speedup", "Check.run never simulates");
        ("serve.", "fuzz bypasses the service"); ("cache.", "fuzz bypasses the service");
        ("latency_", "closed-loop latency is a serve metric");
        ("cpu", "the cpu version is emit-only here: nothing compiles or runs") ]
  }

(* ---- serve: one closed-loop client on Service.Serve.handle_line ----- *)

(* Each zoo op is served under two of the four versions, alternating
   along the zoo's fixed order, so every op and every version is
   requested and the pass compiles half of the (op, version) pairs. *)
let serve_versions i = if i mod 2 = 0 then [ "isl"; "infl" ] else [ "novec"; "tiled" ]
let serve_requests = 3000

(* Popularity exponent of the repeated requests.  No published trace of
   compile-request popularity was found; 0.8 lies in the 0.64-0.83 range
   that Breslau et al. (INFOCOM 1999) measured on web proxy traces. *)
let zipf_alpha = 0.8

let serve ~seed ~tmp =
  let ops = zoo_ops () in
  let table = Hashtbl.create 512 in
  List.iter
    (fun (net, op, k) -> Hashtbl.replace table (String.lowercase_ascii net ^ "/" ^ op) k)
    ops;
  let corpus, gen_s = timed fuzz_corpus in
  (* every served (op, version) and every corpus kernel under isl is
     compiled exactly once per pass; --seed sets when.  A key is the
     request minus its id. *)
  let keys =
    List.concat
      (List.mapi
         (fun i (net, op, _) ->
           List.map
             (fun v -> Printf.sprintf {|"op":"%s/%s","version":"%s"|} (String.lowercase_ascii net) op v)
             (serve_versions i))
         ops)
    @ List.map
        (fun c -> Printf.sprintf {|"kernel":%s,"version":"isl"|} (J.to_string (Fuzz.Case.to_json c)))
        corpus
  in
  (* Zipf popularity over a random ranking of the keys that is the same
     for every seed: which keys are popular decides the cost of a hit
     (their reply sizes), so a per-seed ranking would make the latencies
     measure the draw *)
  let popularity = Hashtbl.create 512 in
  List.iteri
    (fun rank key -> Hashtbl.replace popularity key (float_of_int (rank + 1) ** -.zipf_alpha))
    (shuffle ~seed:0 keys);
  let keys = Array.of_list (shuffle ~seed keys) in
  let misses = Array.length keys in
  let st = Random.State.make [| seed; 1 |] in
  let weight = Array.map (Hashtbl.find popularity) keys in
  let seen = ref 0 and total = ref 0. in
  let lines =
    Array.init serve_requests (fun i ->
        (* misses are spread evenly over the run *)
        let key =
          if i = 0 || i * misses / serve_requests <> (i - 1) * misses / serve_requests then begin
            let k = !seen in
            incr seen;
            total := !total +. weight.(k);
            k
          end
          else begin
            let x = Random.State.float st !total in
            let rec pick j acc =
              let acc = acc +. weight.(j) in
              if acc > x || j = !seen - 1 then j else pick (j + 1) acc
            in
            pick 0 0.
          end
        in
        Printf.sprintf {|{"id":"q%d",%s}|} i keys.(key))
  in
  let kernel_of_json j = Result.bind (Fuzz.Case.of_json j) Fuzz.Case.to_kernel in
  let passes = ref 0 in
  let pass ~traced:_ ~check:_ ~pace ~snapshot =
    incr passes;
    let cache = Service.Cache.open_ (Filename.concat tmp (Printf.sprintf "serve-cache-%d" !passes)) in
    let h =
      Service.Serve.make_handler ~kernel_of_json:(Some kernel_of_json) ~cache
        ~find_op:(Hashtbl.find_opt table) ()
    in
    (* Each reply is checked between requests, outside its timing: the
       client thinks for no time, so the run time is the sum of the
       latencies.  Every reply must be ok and legal, and a hit's payload
       must equal the payload of the miss that stored it. *)
    let stored = Hashtbl.create 1024 in
    let failures = ref [] in
    let outputs = ref (Digest.string "") in
    (* whether the reply is correct, and whether it was a cache hit *)
    let check i reply =
      let fail m =
        failures := Printf.sprintf "request q%d: %s" i m :: !failures;
        (false, false)
      in
      match J.of_string reply with
      | Ok (J.Assoc fields as j)
        when J.member "status" j = Some (J.String "ok") && J.member "legal" j = Some (J.Bool true)
        -> (
        let without names = J.to_string (J.Assoc (List.filter (fun (f, _) -> not (List.mem f names)) fields)) in
        let timing = [ "elapsed_us"; "spans" ] in
        outputs := Digest.string (!outputs ^ without timing);
        let payload = Digest.string (without ("id" :: "cached" :: timing)) in
        let key = J.member "digest" j in
        match J.member "cached" j with
        | Some (J.Bool true) -> (
          match Hashtbl.find_opt stored key with
          | Some p when p = payload -> (true, true)
          | Some _ -> fail "cache hit differs from the compiled reply"
          | None -> fail "cache hit without a preceding miss")
        | _ ->
          Hashtbl.replace stored key payload;
          (true, false))
      | _ -> fail reply
    in
    let replies =
      List.mapi
        (fun i line ->
          let reply, span = paced pace (fun () -> Service.Serve.handle_line h line) in
          (span, check i reply))
        (Array.to_list lines)
    in
    snapshot ();
    let seconds = rescaler pace in
    let replies = List.map (fun (span, (ok, hit)) -> (seconds span, ok, hit)) replies in
    let items = List.map (fun (dt, ok, _) -> (dt, ok)) replies in
    let wall_s = List.fold_left (fun acc (dt, _) -> acc +. dt) 0. items in
    let hits = List.filter_map (fun (dt, ok, hit) -> if ok && hit then Some dt else None) replies in
    let miss_lat = List.filter_map (fun (dt, ok, hit) -> if ok && not hit then Some dt else None) replies in
    let cl = Perfstats.closed_loop ~elapsed_s:wall_s items in
    let med = function [] -> 0. | l -> Perfstats.median l in
    { wall_s;
      items;
      checks = [];
      failures = List.rev !failures;
      values =
        [ ("latency_p50_us", cl.Perfstats.p50_s *. 1e6);
          ("latency_p99_us", cl.Perfstats.p99_s *. 1e6);
          ("serve.hit_ratio", ratio (List.length hits) (Array.length lines));
          ("serve.hit_us_p50", med hits *. 1e6);
          ("serve.miss_ms_p50", med miss_lat *. 1e3);
          ("fuzz.generate_ms", gen_s *. 1e3) ];
      digest = Digest.to_hex !outputs
    }
  in
  { pass;
    absent =
      [ ("deps.", "serve analyses dependences inside the request");
        ("legality.", "serve checks legality inside the request");
        ("interp.", "serve never interprets");
        ("vectorizer.vec_ratio", "serve replies carry no vectorization verdict");
        ("sim_speedup", "serve requests do not pair isl with infl per network");
        ("cpu", "serve compiles no cpu requests") ]
  }

(* ---- cpu: classic ops through Harness.Eval.evaluate_cpu_op ---------- *)

let cpu_reps = 5

let cpu ~seed ~tmp =
  Unix.putenv "OMP_NUM_THREADS" (string_of_int (Domain.recommended_domain_count ()));
  let cache_dir = Filename.concat tmp "cpu-cache" in
  let runner =
    match Codegen_cpu.Runner.create ~cache_dir () with
    | Ok r -> r
    | Error e ->
      prerr_endline ("perfbench: cpu runner: " ^ Codegen_cpu.Runner.error_message e);
      exit 1
  in
  let machine = Codegen_cpu.Runner.native_profile runner in
  let full = List.map (fun (n, mk) -> (n, mk ())) Ops.Classics.all in
  let small = List.map (fun (n, mk) -> (n, mk ())) Ops.Classics.all_small in
  (* full-size ops hold hundreds of MB of buffers: collecting the last
     op's garbage first (untimed) keeps the peak RSS from depending on
     where the GC happens to be *)
  let run ~check (name, k) =
    fst (Harness.Eval.evaluate_cpu_op ~machine ~runner ~reps:cpu_reps ~check ~seed ~name k)
  in
  let pass ~traced:_ ~check:checking ~pace ~snapshot =
    (* an empty compile cache every pass; the host runner stays *)
    let dir = Codegen_cpu.Runner.cache_dir runner in
    Array.iter
      (fun f ->
        if not (String.starts_with ~prefix:"host-" f) then rm_rf (Filename.concat dir f))
      (Sys.readdir dir);
    (* the full-size ops are the timed items, unchecked (interpreting
       them takes minutes); their small-size variants are checked against
       Interp afterwards, untimed *)
    let runs =
      List.map
        (fun op ->
          Gc.full_major ();
          paced pace (fun () -> run ~check:false op))
        full
    in
    snapshot ();
    let seconds = rescaler pace in
    let runs = List.map (fun (r, span) -> (r, seconds span)) runs in
    let wall_s = List.fold_left (fun acc (_, dt) -> acc +. dt) 0. runs in
    let checked =
      if checking then
        List.map
          (fun op ->
            Gc.full_major ();
            run ~check:true op)
          small
      else []
    in
    let ran (r : Harness.Eval.cpu_run) = r.executed && r.cpu_error = None in
    let good (r : Harness.Eval.cpu_run) = ran r && r.checked = Some true in
    let mismatches = List.length (List.filter (fun r -> not (good r)) checked) in
    let failures =
      List.filter_map
        (fun (r, _) ->
          if ran r then None
          else Some (r.Harness.Eval.cpu_op ^ ": " ^ Option.value r.cpu_error ~default:"not executed"))
        runs
      @ List.filter_map
          (fun (r : Harness.Eval.cpu_run) ->
            if good r then None
            else Some (r.cpu_op ^ " (small): output differs from Interp or was not checked"))
          checked
    in
    let sum f = List.fold_left (fun acc (r, _) -> acc +. f r) 0. runs in
    let executed = List.filter (fun (r, _) -> ran r) runs in
    { wall_s;
      items = List.map (fun (r, dt) -> (dt, ran r)) runs;
      checks = List.map good checked;
      failures;
      values =
        [ ("cpu_exec_us_geomean",
           Perfstats.geomean (List.map (fun ((r : Harness.Eval.cpu_run), _) -> r.exec_best_s *. 1e6) executed));
          ("cpu.emit_ms", sum (fun r -> r.Harness.Eval.emit_s) *. 1e3);
          ("cpu.cc_ms", sum (fun r -> r.Harness.Eval.compile_s) *. 1e3);
          ("cpu.exec_us_sum", sum (fun r -> r.Harness.Eval.exec_best_s) *. 1e6);
          ("cpu.vec_ratio",
           ratio (List.length (List.filter (fun (r, _) -> r.Harness.Eval.cpu_vec) runs)) (List.length runs));
          ("cpu.mismatches", float_of_int mismatches) ];
      digest =
        String.concat ","
          (List.map
             (fun ((r : Harness.Eval.cpu_run), _) ->
               Printf.sprintf "%s:%d:%b" r.cpu_op r.source_bytes r.cpu_vec)
             runs)
    }
  in
  { pass;
    absent =
      [ ("gpusim.", "the cpu backend is measured, not simulated");
        ("sim_speedup", "the cpu backend is measured, not simulated");
        ("tiling.", "the cpu path schedules with the vectorizer's tree only");
        ("codegen.tiling_ms", "the cpu path schedules with the vectorizer's tree only");
        ("vectorizer.vec_ratio", "see cpu.vec_ratio");
        ("deps.", "dependences are analysed inside evaluate_cpu_op");
        ("legality.", "evaluate_cpu_op runs no legality check");
        ("interp.", "Interp runs inside evaluate_cpu_op, on the check runs only");
        ("serve.", "cpu bypasses the service"); ("cache.", "cpu bypasses the service");
        ("latency_", "closed-loop latency is a serve metric");
        ("fuzz.", "cpu generates no kernels") ]
  }

let make_workload name =
  match name with
  | "zoo" -> zoo
  | "fuzz" -> fuzz
  | "serve" -> serve
  | _ -> cpu

(* ------------------------------------------------------------------ *)
(* metrics                                                              *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [ ("setup_s", "s"); ("wall_s", "s"); ("op_ms_p50", "ms"); ("op_ms_tail", "ms");
    ("rps", "1/s"); ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("simplex.solves", "count"); ("simplex.pivots", "count");
    ("simplex.degenerate_ratio", "ratio"); ("ilp.solves", "count"); ("ilp.bb_nodes", "count");
    ("scheduler.busy_ms", "ms"); ("scheduler.ilp_ms", "ms"); ("scheduler.ilp_ms_max", "ms");
    ("scheduler.fastpath_ms", "ms"); ("scheduler.fastpath_hit_ratio", "ratio");
    ("scheduler.fastpath_validity_rejects", "count"); ("scheduler.ilp_cache_hit_ratio", "ratio");
    ("scheduler.backtracks", "count"); ("scheduler.abandon_ratio", "ratio");
    ("deps.busy_ms", "ms"); ("legality.busy_ms", "ms");
    ("vectorizer.treegen_ms", "ms"); ("tiling.treegen_ms", "ms");
    ("vectorizer.vec_ratio", "ratio"); ("tiling.applied_ratio", "ratio");
    ("codegen.lower_ms", "ms"); ("codegen.marks_ms", "ms"); ("codegen.gen_ms", "ms");
    ("codegen.vectorpass_ms", "ms"); ("codegen.tiling_ms", "ms");
    ("gpusim.busy_ms", "ms"); ("gpusim.us_per_run", "us"); ("gpusim.mem_requests", "count");
    ("gpusim.mem_sectors", "count"); ("interp.busy_ms", "ms");
    ("serve.hit_ratio", "ratio"); ("serve.hit_us_p50", "us"); ("serve.miss_ms_p50", "ms");
    ("cache.stores", "count"); ("cache.evictions", "count"); ("cache.corrupt", "count");
    ("cpu.emit_ms", "ms"); ("cpu.cc_ms", "ms"); ("cpu.exec_us_sum", "us"); ("cpu.vec_ratio", "ratio");
    ("cpu.mismatches", "count"); ("fuzz.generate_ms", "ms"); ("trace.overhead_ratio", "ratio");
    ("sim_speedup_geomean", "x"); ("cpu_exec_us_geomean", "us"); ("latency_p50_us", "us");
    ("latency_p99_us", "us"); ("error_ratio", "ratio"); ("host.slowdown", "ratio") ]

(* The per-layer numbers the libraries already emit, read after the traced
   pass's work: counter values, span totals and trace events. *)
let obs_layers () =
  let c = Obs.Counters.find in
  let spans = Obs.Span.report () in
  let span_ms name =
    List.fold_left
      (fun acc (path, _, s) ->
        let last =
          match String.rindex_opt path '/' with
          | None -> path
          | Some i -> String.sub path (i + 1) (String.length path - i - 1)
        in
        if last = name then acc +. (s *. 1e3) else acc)
      0. spans
  in
  let events kind = List.filter (fun e -> e.Obs.Trace.kind = kind) (Obs.Trace.events ()) in
  let dur_ms e =
    match List.assoc_opt "dur_us" e.Obs.Trace.fields with
    | Some (J.Float us) -> us /. 1e3
    | Some (J.Int us) -> float_of_int us /. 1e3
    | _ -> 0.
  in
  let solves = List.map dur_ms (events "scheduler.solve") in
  let influenced =
    List.length
      (List.filter
         (fun e ->
           match List.assoc_opt "influence_branches" e.Obs.Trace.fields with
           | Some (J.Int n) -> n > 0
           | _ -> false)
         (events "scheduler.start"))
  in
  let f = float_of_int in
  let fp_hits = c "scheduler.fastpath_hits" in
  let gpu_ms = span_ms "gpusim.run" in
  [ ("simplex.solves", f (c "simplex.solves"));
    ("simplex.pivots", f (c "simplex.pivots"));
    ("simplex.degenerate_ratio", ratio (c "simplex.degenerate_pivots") (c "simplex.pivots"));
    ("ilp.solves", f (c "ilp.solves"));
    ("ilp.bb_nodes", f (c "ilp.bb_nodes"));
    ("scheduler.busy_ms", span_ms "scheduler.schedule");
    ("scheduler.ilp_ms", List.fold_left ( +. ) 0. solves);
    ("scheduler.ilp_ms_max", List.fold_left Float.max 0. solves);
    ("scheduler.fastpath_ms", List.fold_left (fun a e -> a +. dur_ms e) 0. (events "scheduler.fastpath"));
    ("scheduler.fastpath_hit_ratio", ratio fp_hits (fp_hits + c "scheduler.fastpath_fallbacks"));
    ("scheduler.fastpath_validity_rejects", f (c "scheduler.fastpath_validity_rejects"));
    ("scheduler.ilp_cache_hit_ratio",
     ratio (c "scheduler.ilp_cache_hits") (c "scheduler.ilp_cache_hits" + c "scheduler.ilp_cache_misses"));
    ("scheduler.backtracks", f (c "scheduler.sibling_moves" + c "scheduler.ancestor_backtracks"));
    ("scheduler.abandon_ratio", ratio (c "scheduler.abandonments") influenced);
    ("vectorizer.treegen_ms", span_ms "vectorizer.treegen");
    ("tiling.treegen_ms", span_ms "tiling.treegen");
    ("tiling.applied_ratio", ratio (c "tiling.chains_tiled") (c "tiling.bands_selected"));
    ("codegen.lower_ms", span_ms "codegen.lower");
    ("codegen.marks_ms", span_ms "codegen.marks");
    ("codegen.gen_ms", span_ms "codegen.gen");
    ("codegen.vectorpass_ms", span_ms "codegen.vectorpass");
    ("codegen.tiling_ms", span_ms "codegen.tiling");
    ("gpusim.busy_ms", gpu_ms);
    ("gpusim.us_per_run", if c "gpusim.runs" = 0 then 0. else gpu_ms *. 1e3 /. f (c "gpusim.runs"));
    ("gpusim.mem_requests", f (c "gpusim.mem_requests"));
    ("gpusim.mem_sectors", f (c "gpusim.mem_sectors"));
    ("cache.stores", f (c "service.cache_stores"));
    ("cache.evictions", f (c "service.cache_evictions"));
    ("cache.corrupt", f (c "service.cache_corrupt")) ]

(* ------------------------------------------------------------------ *)
(* main                                                                 *)
(* ------------------------------------------------------------------ *)

(* Set-up times from process start until the first op is ready, measured
   on fresh child processes of this executable: at least three, then more
   until a second has gone by, at most 16, each rescaled to the reference
   pace.  A run takes one batch before its passes and one after, so that
   the reported median spans the run rather than one moment of the host's
   load. *)
let setup_times args =
  let pace = start_pace () in
  let one () =
    let r, w = Unix.pipe ~cloexec:true () in
    let argv =
      [| Sys.executable_name; "--setup-only"; "--workload"; args.workload; "--seed";
         string_of_int args.seed |]
    in
    let (pid, line), span =
      paced pace (fun () ->
          let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
          Unix.close w;
          let ic = Unix.in_channel_of_descr r in
          let line = try input_line ic with End_of_file -> "" in
          close_in ic;
          (pid, line))
    in
    match (line, snd (Unix.waitpid [] pid)) with
    | "ready", Unix.WEXITED 0 -> span
    | _ ->
      prerr_endline "perfbench: set-up child failed";
      exit 1
  in
  let rec go acc n spent =
    if n >= 16 || (n >= 3 && spent >= 1.) then acc
    else
      let span = one () in
      go (span :: acc) (n + 1) (spent +. span.t1 -. span.t0)
  in
  let spans = go [] 0 0. in
  List.map (rescaler pace) spans

let fmt_value v = Printf.sprintf "%.6g" v

(* [differences ~what a b]: the entries of [b] whose value differs in [a]. *)
let differences ~what a b =
  List.filter_map
    (fun (name, v) ->
      match List.assoc_opt name a with
      | Some v0 when v0 <> v -> Some (Printf.sprintf "%s: %s in %s, %s now" name v0 what v)
      | _ -> None)
    b

(* The fingerprint an earlier run of this very executable recorded for
   this workload and seed; the first run records its own. *)
let state_dir = ".perfbench-state"

let recorded_fingerprint args fp =
  let file =
    Filename.concat state_dir
      (Printf.sprintf "%s-seed%d-%s.tsv" args.workload args.seed
         (Digest.to_hex (Digest.file Sys.executable_name)))
  in
  if Sys.file_exists file then begin
    let ic = open_in file in
    let rec read acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | line -> (
        match String.index_opt line '\t' with
        | Some i -> read ((String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1)) :: acc)
        | None -> read acc)
    in
    let entries = read [] in
    close_in ic;
    Some entries
  end
  else begin
    (try Unix.mkdir state_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let oc = open_out file in
    List.iter (fun (n, v) -> Printf.fprintf oc "%s\t%s\n" n v) fp;
    close_out oc;
    None
  end

let () =
  let args = parse_args () in
  let tmp =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "perfbench-%d" (Unix.getpid ()))
  in
  Unix.mkdir tmp 0o700;
  at_exit (fun () -> rm_rf tmp);
  let setup () = (make_workload args.workload) ~seed:args.seed ~tmp in
  if args.setup_only then begin
    ignore (setup ());
    print_endline "ready";
    exit 0
  end;
  let setup_before = setup_times args in
  let w = setup () in
  let counters_after = ref [] in
  (* returns the pass, its per-layer numbers, its peak RSS, the raw time
     its timed work took and the host's slowdown during it *)
  let run ~traced ~check =
    (* every pass starts from a compacted heap with its peak RSS reset, so
       set-up garbage and earlier checks do not decide where it peaks *)
    Gc.compact ();
    reset_peak_rss ();
    Obs.reset_all ();
    if traced then Obs.Trace.enable ();
    let layers = ref [] and rss = ref 0. and raw_s = ref 0. in
    let pace = start_pace () in
    let t0 = now () in
    let p =
      w.pass ~traced ~check ~pace ~snapshot:(fun () ->
          raw_s := now () -. t0;
          rss := peak_rss_mb ();
          counters_after := Obs.Counters.snapshot () :: !counters_after;
          if traced then begin
            layers := obs_layers ();
            Obs.Trace.disable ();
            Obs.Trace.clear ()
          end)
    in
    (p, !layers, !rss, !raw_s, slowdown pace)
  in
  (* Untraced passes repeat until --seconds of timed work have gone by on
     the clock; another one starts only while at least half of it would
     still fit.  The traced pass checks too: zoo times deps and legality
     in its checks. *)
  let rec plain_passes acc measured =
    let p, _, rss, raw_s, slow = run ~traced:false ~check:(acc = []) in
    let acc = (p, rss, slow, raw_s) :: acc and measured = measured +. raw_s in
    if measured +. (raw_s /. 2.) < float_of_int args.seconds then plain_passes acc measured
    else List.rev acc
  in
  let plain_runs = plain_passes [] 0. in
  let plain = List.map (fun (p, _, _, _) -> p) plain_runs in
  let raw_total = List.fold_left (fun acc (_, _, _, raw_s) -> acc +. raw_s) 0. plain_runs in
  let passes = List.length plain in
  let traced =
    if args.trace then
      let p, layers, _, _, slow = run ~traced:true ~check:true in
      Some (p, layers, slow)
    else None
  in
  let setup_s = Perfstats.median (setup_before @ setup_times args) in
  let host_slowdown = Perfstats.median (List.map (fun (_, _, slow, _) -> slow) plain_runs) in
  let all = plain @ Option.to_list (Option.map (fun (p, _, _) -> p) traced) in
  (* Deterministic outputs and counts must repeat exactly: across the
     passes of this run, and across runs of this executable on this seed. *)
  let fingerprints =
    List.map2
      (fun p counters -> ("output digest", p.digest) :: List.map (fun (n, v) -> (n, string_of_int v)) counters)
      all (List.rev !counters_after)
  in
  let nondeterminism =
    let first = List.hd fingerprints in
    List.concat_map (differences ~what:"first pass" first) (List.tl fingerprints)
    @
    match recorded_fingerprint args first with
    | None -> []
    | Some earlier -> differences ~what:"an earlier run" earlier first
  in
  let failures = List.concat_map (fun p -> p.failures) all @ List.map (fun m -> "nondeterminism: " ^ m) nondeterminism in
  let attempted = List.fold_left (fun a p -> a + List.length p.items + List.length p.checks) 0 all in
  let failed =
    List.fold_left
      (fun a p ->
        a + List.length (List.filter (fun (_, ok) -> not ok) p.items)
        + List.length (List.filter not p.checks))
      0 all
  in
  (* a nondeterminism fails the run without failing an item *)
  let failed = if failed = 0 && failures <> [] then 1 else failed in
  let correct = failures = [] in
  (* every statistic is taken per pass, then the median over passes, so
     the percentile a tail lands on does not depend on the pass count *)
  let per_pass f = Perfstats.median (List.map f plain) in
  let lat p = List.map fst p.items in
  let tail = Perfstats.tail (lat (List.hd plain)) in
  let tail_of p =
    match Perfstats.tail (lat p) with Some t -> t.value | None -> List.fold_left Float.max 0. (lat p)
  in
  let wall_s = per_pass (fun p -> p.wall_s) in
  let e2e =
    [ ("setup_s", setup_s);
      ("wall_s", wall_s);
      ("op_ms_p50", per_pass (fun p -> Perfstats.hd_quantile (lat p) 0.5) *. 1e3);
      ("op_ms_tail", per_pass tail_of *. 1e3);
      ("rps", per_pass (fun p -> (Perfstats.closed_loop ~elapsed_s:p.wall_s p.items).Perfstats.rps));
      (* the first pass's peak: every run has one, right after set-up *)
      ("peak_rss_mb", (fun (_, rss, _, _) -> rss) (List.hd plain_runs)) ]
  in
  let error_ratio = ratio failed attempted in
  (* report *)
  Printf.printf "perfbench %s: seed %d, %d pass%s%s, %d items per pass\n" args.workload args.seed
    passes (if passes = 1 then "" else "es") (if args.trace then " + 1 traced" else "")
    (List.length (List.hd all).items);
  Printf.printf
    "  times are at the reference pace; the host ran %.2fx slower than it, and the timed\n\
    \    work of the passes took %.3f s on the clock\n"
    host_slowdown raw_total;
  List.iter (fun m -> Printf.printf "  FAILED %s\n" m) failures;
  List.iter
    (fun (name, unit) ->
      let v = List.assoc name e2e in
      let note =
        match (name, tail) with
        | "op_ms_tail", Some t -> Printf.sprintf "  (p%.1f of %d, %d beyond)" t.pct t.n t.beyond
        | "op_ms_tail", None -> "  (max: too few samples for a tail)"
        | _ -> ""
      in
      Printf.printf "  %-28s %14s %s%s\n" name (fmt_value v) unit note)
    end_to_end;
  let last_values = (List.nth plain (List.length plain - 1)).values in
  List.iter
    (fun name ->
      match List.assoc_opt name last_values with
      | Some v -> Printf.printf "  %-28s %14s %s\n" name (fmt_value v) (List.assoc name per_layer)
      | None -> ())
    [ "sim_speedup_geomean"; "cpu_exec_us_geomean"; "latency_p50_us"; "latency_p99_us" ];
  Printf.printf "  %-28s %14s ratio  (%d failed of %d attempted)\n" "error_ratio"
    (fmt_value error_ratio) failed attempted;
  let metrics =
    match traced with
    | None -> List.map (fun (n, u) -> (n, List.assoc n e2e, u)) end_to_end
    | Some (tp, layers, traced_slowdown) ->
      let values =
        layers @ tp.values
        @ [ ("trace.overhead_ratio", tp.wall_s /. wall_s); ("error_ratio", error_ratio);
            ("host.slowdown", traced_slowdown) ]
      in
      Printf.printf "  traced pass: %.3f s\n" tp.wall_s;
      List.map
        (fun (n, u) ->
          let v = Option.value (List.assoc_opt n values) ~default:0. in
          let why =
            List.find_map
              (fun (prefix, why) ->
                if v = 0. && String.starts_with ~prefix n then Some why else None)
              w.absent
          in
          Printf.printf "  %-38s %14s %-5s%s\n" n (fmt_value v) u
            (match why with Some why -> "  absent: " ^ why | None -> "");
          (n, v, u))
        per_layer
  in
  let finite v = if Float.is_finite v then v else Float.max_float in
  print_endline
    (J.to_string
       (J.Assoc
          [ ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics",
             J.Assoc
               (List.map
                  (fun (n, v, u) -> (n, J.Assoc [ ("value", J.Float (finite v)); ("unit", J.String u) ]))
                  metrics)) ]));
  exit (if correct then 0 else 1)
