type version = Isl | Novec | Infl | Tiled | Cpu

let versions = [ Isl; Novec; Infl; Tiled; Cpu ]

let name = function
  | Isl -> "isl"
  | Novec -> "novec"
  | Infl -> "infl"
  | Tiled -> "tiled"
  | Cpu -> "cpu"

let of_name s = List.find_opt (fun v -> name v = s) versions

type config = {
  strategy : Scheduling.Scheduler.strategy;
  weights : Vectorizer.Weights.t;
  order : int list option;
  max_tile_size : int option;
  tile_sizes : (int -> int option) option;
  vec_min_parallel : int;
}

let default =
  { strategy = Scheduling.Scheduler.default_config.strategy;
    weights = Vectorizer.Weights.default_paper;
    order = None;
    max_tile_size = None;
    tile_sizes = None;
    vec_min_parallel = 2048
  }

let influence c version kernel =
  let select tree =
    match c.order with None -> tree | Some order -> Scheduling.Influence.select order tree
  in
  match version with
  | Isl -> None
  | Novec | Infl | Cpu ->
    Some (select (Vectorizer.Treegen.influence_for ~weights:c.weights kernel))
  | Tiled ->
    Some (select (Scheduling.Tiling.influence_for ?max_tile_size:c.max_tile_size kernel))

let schedule c influence kernel =
  let config = { Scheduling.Scheduler.default_config with strategy = c.strategy } in
  Scheduling.Scheduler.schedule ~config ?influence kernel

let lower ?tile_fault c version sched kernel =
  let tile_fault = if version = Tiled then tile_fault else None in
  Codegen.Compile.lower
    ~vectorize:(version = Infl || version = Cpu)
    ~vec_min_parallel:c.vec_min_parallel ?tile_sizes:c.tile_sizes ?tile_fault sched kernel

let compile ?tile_fault c version kernel =
  let sched, stats = schedule c (influence c version kernel) kernel in
  (lower ?tile_fault c version sched kernel, stats)

let rec vectorized = function
  | Codegen.Ast.Stmts l -> List.exists vectorized l
  | Codegen.Ast.If (_, b) -> vectorized b
  | Codegen.Ast.Exec _ -> false
  | Codegen.Ast.VecExec _ -> true
  | Codegen.Ast.For l ->
    (l.Codegen.Ast.step > 1 && not (Codegen.Tiling.is_tile_loop l))
    || vectorized l.Codegen.Ast.body
