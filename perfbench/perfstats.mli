(** Summary statistics shared by every perfbench workload.

    [percentile] uses the nearest-rank rule on the sorted samples: the
    [p]-th percentile of [n] samples is the sample of rank
    [ceil (p / 100 * n)].  [hd_quantile] is the Harrell-Davis estimator,
    which weighs every order statistic by how likely it is to be the
    quantile; the benchmark's latency percentiles use it, so that a small
    change in one item's time cannot make the figure jump to the next
    rank. *)

val median : float list -> float
(** Middle sample, or the mean of the two middle samples for an even
    count.  @raise Invalid_argument on an empty list. *)

val percentile : float list -> float -> float
(** [percentile xs p], nearest rank, [p] in [(0, 100]].
    @raise Invalid_argument on an empty list. *)

val hd_quantile : float list -> float -> float
(** [hd_quantile xs q], the Harrell-Davis estimate of the [q]-quantile,
    [q] in [(0, 1)]: the sum over the sorted samples [x(i)] of
    [(I(i/n) - I((i-1)/n)) * x(i)], where [I] is the regularized
    incomplete beta function with parameters [q (n + 1)] and
    [(1 - q) (n + 1)].  @raise Invalid_argument on an empty list. *)

type tail = {
  pct : float;  (** percentile of the tail sample, [100 * rank / n] *)
  value : float;  (** [hd_quantile] at [pct] *)
  beyond : int;  (** samples strictly above it in rank (always 10) *)
  n : int;
}

val tail : float list -> tail option
(** The highest percentile that has at least ten samples beyond it: the
    sample of rank [n - 10].  [None] with twenty samples or fewer, where
    that rank is not above the median and so is no tail. *)

val geomean : float list -> float
(** Geometric mean of positive values; [1.0] for an empty list. *)

type closed_loop = {
  attempted : int;
  completed : int;  (** requests that succeeded *)
  rps : float;  (** completed requests per second of [elapsed_s] *)
  p50_s : float;
  p99_s : float;
      (** client-side latency percentiles over every attempted request;
          a failed request counts as missing every limit, i.e. as an
          infinite latency *)
}

val closed_loop : elapsed_s:float -> (float * bool) list -> closed_loop
(** Accounts one closed-loop client: [(latency_s, ok)] per request, in
    send order, and the wall time the whole loop took. *)

val local_median :
  window:float -> at_least:int -> (float * float) array -> t0:float -> t1:float -> float
(** [local_median ~window ~at_least samples ~t0 ~t1]: the median value of
    the [(time, value)] samples taken within [window] seconds of the
    interval [[t0, t1]], or of the [at_least] samples nearest to it when
    fewer fall in that window.
    @raise Invalid_argument on an empty array. *)
