(* Checks the benchmark's statistics helpers: the nearest-rank
   percentile, the Harrell-Davis quantile, the "at least ten samples
   beyond" tail rule, the geometric
   mean, the closed-loop accounting of failed requests and the local
   median that rescales times to the reference pace. *)

let fails = ref 0

let check name ok =
  if not ok then begin
    incr fails;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)
let range n = List.init n (fun i -> float_of_int (i + 1))

let () =
  check "median odd" (Perfstats.median [ 3.; 1.; 2. ] = 2.);
  check "median even" (Perfstats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  check "percentile nearest rank" (Perfstats.percentile (range 100) 99. = 99.);
  check "percentile rounds rank up" (Perfstats.percentile (range 10) 95. = 10.);
  check "percentile 100 is max" (Perfstats.percentile [ 5.; 9.; 7. ] 100. = 9.);
  check "hd: one sample" (Perfstats.hd_quantile [ 7. ] 0.5 = 7.);
  check "hd: constant samples" (close (Perfstats.hd_quantile (List.init 50 (fun _ -> 3.)) 0.9) 3.);
  check "hd: symmetric median" (close (Perfstats.hd_quantile (range 40) 0.5) 20.5);
  (* weights 7/27, 13/27, 7/27 *)
  check "hd: weighs every rank" (close (Perfstats.hd_quantile [ 10.; 1.; 2. ] 0.5) (103. /. 27.));
  check "hd: monotone in q"
    (Perfstats.hd_quantile (range 100) 0.3 < Perfstats.hd_quantile (range 100) 0.31);
  let between lo hi v = v >= lo && v <= hi in
  check "tail needs more than twenty" (Perfstats.tail (range 20) = None);
  check "no tail at or below the median" (Perfstats.tail (range 15) = None);
  (match Perfstats.tail (range 21) with
   | Some t -> check "tail of 21 is rank 11" (between 11. 12. t.value && t.beyond = 10 && t.n = 21)
   | None -> check "tail of 21 exists" false);
  (match Perfstats.tail (List.rev (range 223)) with
   | Some t ->
     check "tail of 223 is rank 213" (between 213. 214. t.value && t.beyond = 10);
     check "tail percentile" (close t.pct (100. *. 213. /. 223.))
   | None -> check "tail of 223 exists" false);
  (match Perfstats.tail (range 1000) with
   | Some t -> check "tail of 1000 is p99" (between 990. 991. t.value && close t.pct 99.)
   | None -> check "tail of 1000 exists" false);
  check "geomean" (close (Perfstats.geomean [ 1.; 4.; 16. ]) 4.);
  check "geomean empty" (Perfstats.geomean [] = 1.);
  check "geomean is scale-equivariant"
    (close (Perfstats.geomean [ 2.; 8. ]) (2. *. Perfstats.geomean [ 1.; 4. ]));
  let ok = List.init 99 (fun i -> (float_of_int (i + 1) *. 1e-3, true)) in
  let cl = Perfstats.closed_loop ~elapsed_s:2. ok in
  check "closed loop rps" (close cl.rps 49.5 && cl.completed = 99 && cl.attempted = 99);
  check "closed loop p50" (close cl.p50_s 0.050);
  let cl = Perfstats.closed_loop ~elapsed_s:2. (ok @ [ (1e-6, false) ]) in
  check "a failed request is not completed" (cl.completed = 99 && cl.attempted = 100);
  check "a fast failure still misses p99"
    (close cl.p99_s 0.099
     && (Perfstats.closed_loop ~elapsed_s:1. [ (1e-6, false) ]).p99_s = Float.infinity);
  let failed = List.init 2 (fun _ -> (1e-6, false)) in
  check "two failures in 100 push p99 past every limit"
    ((Perfstats.closed_loop ~elapsed_s:2. (List.tl ok @ failed)).p99_s = Float.infinity);
  (* one sample every 0.1 s whose value is its time, so a median names
     which samples were taken *)
  let samples = Array.init 50 (fun i -> (float_of_int i /. 10., float_of_int i /. 10.)) in
  let local = Perfstats.local_median ~window:0.25 ~at_least:3 samples in
  check "local median: samples within the window of the interval"
    (close (local ~t0:2.0 ~t1:3.0) 2.5);
  check "local median: window on both sides" (close (local ~t0:1.0 ~t1:1.0) 1.0);
  check "local median: the nearest when the window holds too few"
    (close (Perfstats.local_median ~window:0.01 ~at_least:5 samples ~t0:1.0 ~t1:1.0) 1.0);
  check "local median: clipped at the ends" (close (local ~t0:10. ~t1:11.) 4.8);
  check "local median: ignores one outlier"
    (let s = Array.copy samples in
     s.(20) <- (2.0, 1000.);
     (* 1.8 1.9 [1000] 2.1 2.2 *)
     close (Perfstats.local_median ~window:0.25 ~at_least:3 s ~t0:2.0 ~t1:2.0) 2.1);
  if !fails > 0 then exit 1
