type state = Up | Neutral | Down

let drive = function Up -> 1.0 | Neutral -> 0.0 | Down -> -1.0
