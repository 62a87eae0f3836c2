(** Three-state phase-frequency detector (the paper's PFD block,
    behavioural per Kundert [13]).

    Rising edges on the reference input drive the state toward [Up]
    (pump current positive, speeding the VCO); rising edges on the
    divider feedback drive it toward [Down]; an edge in the opposite
    state resets to [Neutral] (the AND-reset of the classical
    flip-flop PFD).  {!Pll} steps this state machine
    ({!Pll.pfd_ref_edge}, {!Pll.pfd_div_edge}) from [Neutral]. *)

type state = Up | Neutral | Down

val drive : state -> float
(** Charge-pump drive sign: [Up] -> +1, [Neutral] -> 0, [Down] -> -1. *)
