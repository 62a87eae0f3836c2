(* Alias kept for perfbench/ (main.ml, report.ml, spans.ml and its
   test/), which names [Repro_serve.Json]; the codec lives in
   [Repro_util.Json] and every other caller names it there. *)
include Repro_util.Json
