(** Real-coded variation operators of NSGA-II: simulated-binary
    crossover and polynomial mutation (Deb & Agrawal). *)

val sbx :
  Repro_util.Prng.t ->
  eta:float ->
  lo:float ->
  hi:float ->
  float ->
  float ->
  float * float
(** [sbx prng ~eta ~lo ~hi x1 x2] returns two children clamped to
    [\[lo, hi\]]. Equal parents are returned unchanged. *)

val polynomial_mutation :
  Repro_util.Prng.t -> eta:float -> lo:float -> hi:float -> float -> float

val crossover_pair :
  Repro_util.Prng.t ->
  bounds:(float * float) array ->
  crossover_prob:float ->
  eta_crossover:float ->
  float array ->
  float array ->
  float array * float array
(** Whole-vector SBX: with probability [crossover_prob], each variable is
    independently crossed with probability 1/2. Parents are copied, never
    mutated. *)

val mutate_in_place :
  Repro_util.Prng.t ->
  bounds:(float * float) array ->
  mutation_prob:float ->
  eta_mutation:float ->
  float array ->
  unit
