(** The one definition of a compiler version: which influence tree it
    injects, how it schedules and how it lowers.

    Every surface — the CLI, [serve], the evaluation harness, the tuning
    oracle and the fuzzer — builds a version through this module, so one
    (operator, version, strategy) gets one schedule and one AST wherever
    it is asked for.  {!schedule} and {!lower} stay separate steps because
    the harness lowers {b novec} and {b infl} from one schedule and the
    fuzzer rewrites schedules between the two. *)

type version =
  | Isl  (** baseline scheduler, no influence, no explicit vector types *)
  | Novec  (** vectorizer influence tree, vectorization pass off *)
  | Infl  (** vectorizer influence tree, vectorization pass on *)
  | Tiled  (** tiling-client influence tree, backend tiling, no vectors *)
  | Cpu  (** the {b infl} lowering, meant for the C emitter *)

val versions : version list
(** All five, in the order [Isl; Novec; Infl; Tiled; Cpu]. *)

val name : version -> string
(** ["isl"], ["novec"], ["infl"], ["tiled"], ["cpu"]. *)

val of_name : string -> version option
(** Inverse of {!name}. *)

type config = {
  strategy : Scheduling.Scheduler.strategy;  (** scheduling strategy *)
  weights : Vectorizer.Weights.t;  (** cost-model weights of the vectorizer tree *)
  order : int list option;
      (** root-branch selection ({!Scheduling.Influence.select}) applied to
          whichever tree the version injects; [None] keeps every branch *)
  max_tile_size : int option;  (** cap on the tiling client's tile shapes *)
  tile_sizes : (int -> int option) option;
      (** explicit tile size per schedule dimension for the backend tiling
          pass; wins over the schedule's injected annotation *)
  vec_min_parallel : int;
      (** the vectorization pass refuses a rewrite that would leave fewer
          parallel vector iterations than this ([0] = always vectorize) *)
}

val default : config
(** The scheduler's default strategy, the paper's weights, no branch
    selection, no tile caps or overrides, and [vec_min_parallel = 2048]
    — the configuration Table II measures. *)

val influence : config -> version -> Ir.Kernel.t -> Scheduling.Influence.t option
(** The tree the version injects: [None] for {b isl}; the vectorizer's
    tree ({!Vectorizer.Treegen.influence_for} with [config.weights]) for
    {b novec}, {b infl} and {b cpu}; the tiling client's tree
    ({!Scheduling.Tiling.influence_for} with [config.max_tile_size]) for
    {b tiled}.  [config.order], when set, selects among its root
    branches. *)

val schedule :
  config ->
  Scheduling.Influence.t option ->
  Ir.Kernel.t ->
  Scheduling.Schedule.t * Scheduling.Scheduler.stats
(** Runs the scheduler under [config.strategy], injecting the given tree
    (usually [influence config version kernel]). *)

val lower :
  ?tile_fault:Codegen.Tiling.fault ->
  config ->
  version ->
  Scheduling.Schedule.t ->
  Ir.Kernel.t ->
  Codegen.Compile.compiled
(** Lowers a schedule the way [version] does: vectorized iff {b infl} or
    {b cpu} (under [config.vec_min_parallel]), with [config.tile_sizes]
    for the backend tiling pass.  [tile_fault] reaches {b tiled} only, so
    a broken tiler shows up as a tiled-version failure. *)

val compile :
  ?tile_fault:Codegen.Tiling.fault ->
  config ->
  version ->
  Ir.Kernel.t ->
  Codegen.Compile.compiled * Scheduling.Scheduler.stats
(** {!influence}, {!schedule}, then {!lower}. *)

val vectorized : Codegen.Ast.t -> bool
(** Whether the AST holds a vector loop: a vector statement, or a loop
    stepping by more than one that is not a tile loop. *)
