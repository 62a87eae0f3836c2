module Prng = Repro_util.Prng

type options = {
  population : int;
  generations : int;
}

module type S = sig
  val name : string

  type state

  val init :
    options:options -> evaluator:Problem.evaluator -> Problem.t -> Prng.t ->
    state

  val step : evaluator:Problem.evaluator -> Problem.t -> state -> unit
  val generation : state -> int
  val population : state -> Nsga2.individual array
end

type t = (module S)

(* Adapters: each maps the portfolio-level (population, generations)
   onto the algorithm's native options, keeping its other knobs at the
   library defaults — the same convention Hierarchy already used for
   NSGA-II, so default-path artefacts are unchanged. *)

module Nsga2_optimiser : S = struct
  let name = "nsga2"

  type state = Nsga2.state

  let native o =
    {
      Nsga2.default_options with
      population = o.population;
      generations = o.generations;
    }

  let init ~options ~evaluator problem prng =
    Nsga2.init ~options:(native options) ~evaluator problem prng

  let step ~evaluator problem st = Nsga2.step ~evaluator problem st
  let generation = Nsga2.generation
  let population = Nsga2.population
end

module De_optimiser : S = struct
  let name = "de"

  type state = De.state

  let native o =
    {
      De.default_options with
      population = o.population;
      generations = o.generations;
    }

  let init ~options ~evaluator problem prng =
    De.init ~options:(native options) ~evaluator problem prng

  let step ~evaluator problem st = De.step ~evaluator problem st
  let generation = De.generation
  let population = De.population
end

let all : (string * t) list =
  [
    ("nsga2", (module Nsga2_optimiser));
    ("de", (module De_optimiser));
  ]

let names = List.map fst all
let of_name name = List.assoc_opt name all
let name (module M : S) = M.name

let optimise (module M : S) ~options
    ?(evaluator = Problem.serial_evaluator) ?on_generation problem prng =
  let st = M.init ~options ~evaluator problem prng in
  (match on_generation with Some f -> f 0 (M.population st) | None -> ());
  while M.generation st < options.generations do
    M.step ~evaluator problem st;
    match on_generation with
    | Some f -> f (M.generation st) (M.population st)
    | None -> ()
  done;
  M.population st
