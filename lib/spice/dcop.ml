module Vec = Repro_linalg.Vec

type result = {
  solution : Repro_linalg.Vec.t;
  iterations : int;
  strategy : string;
}

let try_newton ?max_iter ~workspace c x ~gmin ~source_scale =
  Mna.newton ?max_iter ~workspace c ~x ~time:0.0 ~gmin ~source_scale
    ~cap_mode:Mna.Dc

let fail detail =
  Error (Solver_error.No_convergence { stage = "dcop"; detail })

let solve_result ?x0 ?workspace c =
  (* default to the domain's persistent workspace so numeric factors
     survive across the operating points of one Monte-Carlo trial (and
     across trials run on the same domain) *)
  let workspace =
    match workspace with Some w -> w | None -> Mna.domain_workspace ()
  in
  let n = Mna.size c in
  let fresh () =
    match x0 with
    | Some x ->
      if Array.length x <> n then
        invalid_arg "Dcop.solve_result: x0 size mismatch";
      Vec.copy x
    | None -> Vec.create n
  in
  let total = ref 0 in
  (* 1: direct *)
  let x = fresh () in
  let r = try_newton ~workspace c x ~gmin:1e-12 ~source_scale:1.0 in
  total := !total + r.Mna.iterations;
  if r.Mna.converged then
    Ok { solution = x; iterations = !total; strategy = "direct" }
  else begin
    (* 2: gmin stepping, reusing each stage's solution *)
    let x = fresh () in
    let gmins = [ 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-7; 1e-8; 1e-9; 1e-10; 1e-12 ] in
    let ok =
      List.for_all
        (fun gmin ->
          let r = try_newton ~workspace c x ~gmin ~source_scale:1.0 in
          total := !total + r.Mna.iterations;
          r.Mna.converged)
        gmins
    in
    if ok then Ok { solution = x; iterations = !total; strategy = "gmin" }
    else begin
      (* 3: source stepping at a mild gmin *)
      let x = Vec.create n in
      let steps = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ] in
      let ok =
        List.for_all
          (fun scale ->
            let r = try_newton ~max_iter:80 ~workspace c x ~gmin:1e-9 ~source_scale:scale in
            total := !total + r.Mna.iterations;
            r.Mna.converged)
          steps
      in
      if ok then begin
        (* polish without gmin *)
        let r = try_newton ~workspace c x ~gmin:1e-12 ~source_scale:1.0 in
        total := !total + r.Mna.iterations;
        if r.Mna.converged then
          Ok { solution = x; iterations = !total; strategy = "source" }
        else fail "source stepping converged but polish failed"
      end
      else fail "direct, gmin and source stepping all failed"
    end
  end

let node_voltage c result name =
  let node = Mna.node_of_name c name in
  match Mna.node_index c node with
  | None -> 0.0
  | Some i -> result.solution.(i)

let source_current c result name = result.solution.(Mna.branch_index c name)
