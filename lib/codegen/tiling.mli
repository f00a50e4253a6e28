(** Tiling of permutable bands.

    The scheduler exposes permutable bands precisely so that a "subsequent
    tiling transformation" can partition them (Sections II and IV-A3); this
    pass performs that transformation on the generated AST: a chain of
    directly nested loops whose dimensions form a permutable band is
    rewritten into tile loops (stepping by the tile size) hoisted above the
    point loops.  Point loops get bounds [tile_var <= v <= min(upper,
    tile_var + size - 1)] and carry a constant trip-count hint so the
    mapping pass can still put them on threads.

    Legality: hoisting tile loops above inner point loops is an interchange
    and is only applied when the band is permutable — checked directly
    against the dependences (every dependence has a non-negative schedule
    difference on each band dimension, given equal outer dimensions). *)

val band_permutable :
  Scheduling.Schedule.t -> Ir.Kernel.t -> Deps.Dependence.t list ->
  dims:int list -> stmts:string list -> bool
(** Whether the given schedule dimensions form a permutable band for the
    statements (non-negative difference on every dimension for every
    dependence among them, in the context of equal outer dimensions). *)

type fault = Off_by_one
(** Deliberate fault injection for the fuzzer's broken-tiler canary:
    [Off_by_one] shrinks every point loop by one iteration, dropping the
    last point of each tile — a semantic break the differential
    interpreter check must detect and shrink.  Never set outside tests. *)

val apply :
  ?fault:fault -> sizes:(int -> int option) -> Scheduling.Schedule.t ->
  Ir.Kernel.t -> Ast.t -> Ast.t
(** Tiles every maximal chain of directly-nested, unit-step loops forming a
    permutable band.  [sizes dim] gives the tile size for a schedule
    dimension ([None] or sizes <= 1 leave the dimension untiled).  Chains
    with no tiled dimension are left untouched. *)

val tile_all : size:int -> Scheduling.Schedule.t -> Ir.Kernel.t -> Ast.t -> Ast.t
(** [apply] with the same size for every dimension. *)

val is_tile_loop : Ast.loop -> bool
(** Whether a loop is a tile loop this pass synthesized.  Tile loops carry
    a negative dimension (1000 below the dimension they tile) and step by
    the tile size; this predicate is the one place that encoding is read. *)

val applied : Ast.t -> bool
(** Whether the AST contains tile loops (the negative-dimension loops this
    pass synthesizes) — how callers report a schedule as actually tiled. *)
