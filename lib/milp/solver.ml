let log_src = Logs.Src.create "milp.solver" ~doc:"solver facade"

module Log = (val Logs.src_log log_src : Logs.LOG)

type options = Branch_bound.options = {
  max_nodes : int;
  time_limit : float;
  abs_gap : float;
  rel_gap : float;
  int_tol : float;
  log : bool;
  branch_priority : int -> int;
  warm_start : float array option;
  plunge_hints : (int * float) list list;
  engine : Simplex.engine;
  sx_iters : int option;
  cuts : Cuts.options;
  pool : Parallel.Pool.t option;
  par_width : int;
  par_grain : int;
  branching : Branch_bound.branching;
  heuristics : bool;
  rins_freq : int;
  on_incumbent : (float array -> unit) option;
}

let default_options = Branch_bound.default

type status = Optimal | Feasible | Infeasible | Unbounded | Unknown

let pp_status ppf = function
  | Optimal -> Format.pp_print_string ppf "optimal"
  | Feasible -> Format.pp_print_string ppf "feasible"
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Unbounded -> Format.pp_print_string ppf "unbounded"
  | Unknown -> Format.pp_print_string ppf "unknown"

type solution = {
  status : status;
  obj : float;
  bound : float;
  values : float array;
  statuses : Simplex.vstat array;
  certificate : Certify.t option;
  nodes : int;
  elapsed : float;
}

(* Solve a model as-is (no presolve), with [t0] as the wall-clock origin
   so elapsed times include any reduction work done by the caller. *)
let solve_direct ~options ~t0 model =
  let finish ?(statuses = [||]) status obj bound values nodes =
    { status; obj; bound; values; statuses; certificate = None; nodes;
      elapsed = Unix.gettimeofday () -. t0 }
  in
  if Model.num_int_vars model = 0 then
    match
      Simplex.solve_prepared ~engine:options.engine
        ?max_iters:options.sx_iters (Simplex.prepare model)
    with
    | Simplex.Optimal { obj; values }, basis ->
      let statuses =
        match basis with Some b -> Simplex.var_statuses b | None -> [||]
      in
      finish ~statuses Optimal obj obj values 0
    | Simplex.Infeasible, _ -> finish Infeasible nan nan [||] 0
    | Simplex.Unbounded, _ -> finish Unbounded infinity infinity [||] 0
    | Simplex.Iter_limit, _ -> finish Unknown nan nan [||] 0
  else begin
    let r = Branch_bound.solve ~options model in
    let status =
      match r.Branch_bound.outcome with
      | Branch_bound.Optimal -> Optimal
      | Branch_bound.Feasible -> Feasible
      | Branch_bound.No_incumbent -> Unknown
      | Branch_bound.Infeasible -> Infeasible
      | Branch_bound.Unbounded -> Unbounded
    in
    finish status r.Branch_bound.obj r.Branch_bound.bound r.Branch_bound.values
      r.Branch_bound.stats.Branch_bound.nodes
  end

(* Re-validate a claimed solution against the original, pre-presolve
   model and degrade the status when the certificate fails: a bad point
   means nothing usable survives (Unknown), while a bad bound, gap or
   dual certificate invalidates only the optimality claim (Feasible). *)
let certify_solution ~options model sol =
  match sol.status with
  | Infeasible | Unbounded | Unknown -> sol
  | Optimal | Feasible ->
    let tols =
      Certify.solver_tolerances ~int_tol:options.int_tol ~abs_gap:options.abs_gap
        ~rel_gap:options.rel_gap
    in
    let cert =
      Certify.check ~tols ~optimal:(sol.status = Optimal) ~model ~obj:sol.obj
        ~bound:sol.bound ~values:sol.values ~statuses:sol.statuses ()
    in
    if cert.Certify.ok then { sol with certificate = Some cert }
    else begin
      let status =
        if not cert.Certify.point_ok then Unknown
        else if sol.status = Optimal then Feasible
        else sol.status
      in
      Log.warn (fun f ->
          f "%s: certificate failed, downgrading %a -> %a (%a)"
            (Model.name model) pp_status sol.status pp_status status Certify.pp
            cert);
      { sol with status; certificate = Some cert }
    end

let solve ?(presolve = true) ?(options = default_options) model =
  let t0 = Unix.gettimeofday () in
  let finish = certify_solution ~options model in
  if not presolve then finish (solve_direct ~options ~t0 model)
  else
    match Presolve.presolve model with
    | Presolve.Infeasible _ ->
      { status = Infeasible; obj = nan; bound = nan; values = [||];
        statuses = [||]; certificate = None; nodes = 0;
        elapsed = Unix.gettimeofday () -. t0 }
    | Presolve.Reduced { model = rm; post; stats = _ } ->
      (* Caller-supplied vectors and priorities speak original ids;
         translate them into the reduced space before solving, and lift
         the solution point back afterwards. Objective and bound carry
         over unchanged: the fixed contribution lives in the reduced
         objective's constant term. *)
      let options =
        {
          options with
          branch_priority =
            (fun rid -> options.branch_priority (Postsolve.orig_of_reduced post rid));
          warm_start = Option.bind options.warm_start (Postsolve.reduce_point post);
          plunge_hints =
            List.filter_map
              (fun h ->
                match Postsolve.reduce_hint post h with [] -> None | h' -> Some h')
              options.plunge_hints;
        }
      in
      let sol = solve_direct ~options ~t0 rm in
      (* lift the point and any basis statuses back to original ids; a
         presolve-fixed variable sits at its collapsed bounds, so
         At_lower is its natural status. Certification runs after the
         lift, against the original model. *)
      finish
        {
          sol with
          values = Postsolve.restore post sol.values;
          statuses =
            (if Array.length sol.statuses = 0 then [||]
             else
               Postsolve.restore_statuses post ~fill:Simplex.At_lower
                 sol.statuses);
        }

let value sol (v : Model.var) =
  if Array.length sol.values = 0 then nan else sol.values.(v.vid)

let bool_value sol v = value sol v > 0.5

let has_point sol = match sol.status with Optimal | Feasible -> true | _ -> false

let stats_counters = Lp_stats.counters
