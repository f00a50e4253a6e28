(** Exact rational linear programming.

    Two-phase primal simplex over {!Polybase.Q}, so there is no rounding.
    The one-shot entry points use Dantzig's entering rule (most negative
    reduced cost) and fall back to Bland's after a streak of degenerate
    pivots, which keeps the anti-cycling guarantee without Bland's pivot
    counts on non-degenerate problems.  Variables are free (internally
    split into positive and negative parts); constraints are {!Constr.t}
    lists.

    Besides the one-shot entry points, {!Tableau} exposes the solver
    incrementally: build a feasible tableau once, then install successive
    objectives and push extra rows with dual-simplex re-optimization — the
    warm-start primitive used by {!Ilp}.  The tableau stays on Bland's
    rule throughout, because its vertices reach the scheduler.

    Row operations are sparse: a pivot eliminates only the columns where
    the scaled pivot row is nonzero, and reducing a row against the basis
    only touches the columns where the basic row is nonzero.  This is
    exact, not an approximation: {!Polybase.Q} values are canonical, so
    [v - f * 0] is the same number as [v], and skipping that update leaves
    every tableau entry unchanged.  Hence every pivot choice, vertex and
    counter is the same as for dense elimination. *)

open Polybase

type result =
  | Infeasible
  | Unbounded
  | Optimal of Q.t * (string -> Q.t)
      (** Optimal objective value and an optimal assignment.  The assignment
          function returns zero for variables unconstrained by the problem. *)

val minimize : Constr.t list -> Linexpr.t -> result

val maximize : Constr.t list -> Linexpr.t -> result

val feasible_point : Constr.t list -> (string -> Q.t) option
(** Some satisfying assignment, if the constraint system is satisfiable over
    the rationals. *)

val is_feasible : Constr.t list -> bool

(** Incremental interface over a phase-1-feasible tableau. *)
module Tableau : sig
  type t

  val of_constraints : ?extra_exprs:Linexpr.t list -> Constr.t list -> t option
  (** Run phase 1 once over [constraints]; [None] if infeasible.  Variables
      appearing only in [extra_exprs] (later objectives or pushed rows) get
      columns too — {!set_objective}/{!with_le} reject unknown variables. *)

  val set_objective : t -> Linexpr.t -> [ `Optimal | `Unbounded ]
  (** Install an objective and re-optimize in place with the primal simplex
      (the tableau stays primal-feasible across {!with_le}, so no fresh
      phase 1 is needed). *)

  val value : t -> Q.t
  (** Objective value at the current basis. *)

  val assignment : t -> string -> Q.t
  (** Variable values at the current basis (zero for unknown variables). *)

  val with_le : t -> Linexpr.t -> t option
  (** [with_le t e] is a copy of [t] extended with the row [e <= 0],
      re-optimized for the current objective with the dual simplex; [None]
      if the extended system is infeasible.  [t] itself is unchanged. *)

  val with_ge : t -> Linexpr.t -> t option
end
