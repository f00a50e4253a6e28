let sorted xs =
  if xs = [] then invalid_arg "Perfstats: no samples";
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let rank_value a p =
  let n = Array.length a in
  let r = int_of_float (Float.ceil (p *. float_of_int n /. 100.)) in
  a.(max 1 (min n r) - 1)

let percentile xs p = rank_value (sorted xs) p

(* Lanczos approximation (g = 7, nine terms), for x > 0 *)
let rec log_gamma x =
  if x < 0.5 then log (Float.pi /. Float.abs (sin (Float.pi *. x))) -. log_gamma (1. -. x)
  else
    let c =
      [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028; 771.32342877765313;
         -176.61502916214059; 12.507343278686905; -0.13857109526572012;
         9.9843695780195716e-6; 1.5056327351493116e-7 |]
    in
    let x = x -. 1. in
    let a = ref c.(0) in
    for i = 1 to 8 do
      a := !a +. (c.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

(* continued fraction of the incomplete beta function, modified Lentz *)
let beta_cf a b x =
  let tiny = 1e-300 in
  let clamp d = if Float.abs d < tiny then tiny else d in
  let c = ref 1. and d = ref (1. /. clamp (1. -. ((a +. b) *. x /. (a +. 1.)))) in
  let h = ref !d in
  let step num =
    d := 1. /. clamp (1. +. (num *. !d));
    c := clamp (1. +. (num /. !c));
    let del = !d *. !c in
    h := !h *. del;
    del
  in
  let rec go m =
    let m' = float_of_int m in
    ignore (step (m' *. (b -. m') *. x /. ((a +. (2. *. m') -. 1.) *. (a +. (2. *. m')))));
    let del = step (-.(a +. m') *. (a +. b +. m') *. x /. ((a +. (2. *. m')) *. (a +. (2. *. m') +. 1.))) in
    if Float.abs (del -. 1.) > 1e-14 && m < 100_000 then go (m + 1)
  in
  go 1;
  !h

(* regularized incomplete beta function I_x(a, b) *)
let inc_beta a b x =
  if x <= 0. then 0.
  else if x >= 1. then 1.
  else
    let front =
      exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x) +. (b *. log (1. -. x)))
    in
    if x < (a +. 1.) /. (a +. b +. 2.) then front *. beta_cf a b x /. a
    else 1. -. (front *. beta_cf b a (1. -. x) /. b)

let hd_quantile xs q =
  let s = sorted xs in
  let n = Array.length s in
  let nf = float_of_int n in
  let a = q *. (nf +. 1.) and b = (1. -. q) *. (nf +. 1.) in
  let acc = ref 0. and below = ref 0. in
  Array.iteri
    (fun i x ->
      let upto = inc_beta a b (float_of_int (i + 1) /. nf) in
      acc := !acc +. ((upto -. !below) *. x);
      below := upto)
    s;
  !acc

type tail = { pct : float; value : float; beyond : int; n : int }

let tail xs =
  let n = List.length xs in
  if n <= 20 then None
  else
    let rank = n - 10 in
    let q = float_of_int rank /. float_of_int n in
    Some { pct = 100. *. q; value = hd_quantile xs q; beyond = n - rank; n }

let geomean = function
  | [] -> 1.0
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

type closed_loop = {
  attempted : int;
  completed : int;
  rps : float;
  p50_s : float;
  p99_s : float;
}

let closed_loop ~elapsed_s samples =
  let lat = List.map (fun (s, ok) -> if ok then s else Float.infinity) samples in
  let completed = List.length (List.filter snd samples) in
  { attempted = List.length samples;
    completed;
    rps = float_of_int completed /. elapsed_s;
    p50_s = percentile lat 50.;
    p99_s = percentile lat 99.
  }

let local_median ~window ~at_least samples ~t0 ~t1 =
  let distance (t, _) = Float.max 0. (Float.max (t0 -. t) (t -. t1)) in
  let by_distance =
    List.sort (fun a b -> Float.compare (distance a) (distance b)) (Array.to_list samples)
  in
  let near = List.filteri (fun i s -> i < at_least || distance s <= window) by_distance in
  median (List.map snd near)
