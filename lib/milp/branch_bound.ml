let src = Logs.Src.create "milp.bb" ~doc:"branch and bound"

module Log = (val Logs.src_log src : Logs.LOG)

type branching = Reliability | Fractional

type options = {
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
  pool : unit option;
  par_width : int;
  par_grain : int;
  branching : branching;
  heuristics : bool;
  rins_freq : int;
  on_incumbent : (float array -> unit) option;
}

let default =
  {
    max_nodes = 200_000;
    time_limit = Float.infinity;
    abs_gap = 1e-6;
    rel_gap = 1e-6;
    int_tol = 1e-6;
    log = false;
    branch_priority = (fun _ -> 0);
    warm_start = None;
    plunge_hints = [];
    engine = Simplex.Revised;
    sx_iters = None;
    cuts = Cuts.default;
    pool = None;
    par_width = 0;
    par_grain = 0;
    branching = Reliability;
    heuristics = true;
    rins_freq = 200;
    on_incumbent = None;
  }

type outcome = Optimal | Feasible | No_incumbent | Infeasible | Unbounded

let cumulative_rounds () = 0

(* --- pseudocost / reliability branching -------------------------------- *)

(* Per-variable up/down degradation estimates, indexed by the variable's
   position in the solve's [int_ids]. [*_sum] accumulates observed bound
   degradations per unit of fractional distance, [*_cnt] the number of
   observations (strong-branching probes and real child LPs alike)
   backing the estimate. *)
type pc = {
  dn_sum : float array;
  dn_cnt : int array;
  up_sum : float array;
  up_cnt : int array;
}

let pc_create n =
  { dn_sum = Array.make n 0.; dn_cnt = Array.make n 0;
    up_sum = Array.make n 0.; up_cnt = Array.make n 0 }

let pc_update pc pos ~up g =
  if up then begin
    pc.up_sum.(pos) <- pc.up_sum.(pos) +. g;
    pc.up_cnt.(pos) <- pc.up_cnt.(pos) + 1
  end
  else begin
    pc.dn_sum.(pos) <- pc.dn_sum.(pos) +. g;
    pc.dn_cnt.(pos) <- pc.dn_cnt.(pos) + 1
  end

(* Average observed pseudocost per direction — the standard initializer
   for variables without observations of their own; 1.0 when the table
   is empty, so fresh scores reduce to the product of fractionalities. *)
let pc_avg sum cnt =
  let s = ref 0. and n = ref 0 in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        s := !s +. (sum.(i) /. float_of_int c);
        incr n
      end)
    cnt;
  if !n = 0 then 1.0 else !s /. float_of_int !n

let pc_reliability pc pos = min pc.dn_cnt.(pos) pc.up_cnt.(pos)

(* observations per direction before an estimate is trusted without a
   fresh strong-branching probe *)
let pc_rel_threshold = 4

(* strong-branching probe budget per node *)
let pc_probe_cap = 8

let frac values id = Float.abs (values.(id) -. Float.round values.(id))

(* Fractional candidates restricted to the highest branch-priority
   class, in ascending variable-id order. *)
let branch_candidates ~int_tol ~priority int_ids values =
  let best_pri = ref min_int in
  Array.iter
    (fun id ->
      if frac values id > int_tol then begin
        let pri = priority id in
        if pri > !best_pri then best_pri := pri
      end)
    int_ids;
  if !best_pri = min_int then [||]
  else
    Array.of_seq
      (Seq.filter
         (fun id -> frac values id > int_tol && priority id = !best_pri)
         (Array.to_seq int_ids))

(* The legacy rule: the most fractional candidate, ties to the first. *)
let most_fractional cands values =
  Array.fold_left
    (fun best id ->
      match best with
      | Some b when frac values b >= frac values id -> best
      | _ -> Some id)
    None cands

(* Pseudocost selection under the product rule. [gains] optionally
   carries per-candidate strong-branching measurements for this node
   ([nan] = no measurement for that direction, [infinity] = the probe
   proved the child infeasible — the best possible branching outcome).
   Candidates arrive in ascending id order and only a strictly better
   score displaces the leader, so ties break deterministically to the
   lowest variable id. Returns the leader's index into [cands]. *)
let pc_select pc ~ipos ?gains cands values =
  let avg_dn = pc_avg pc.dn_sum pc.dn_cnt in
  let avg_up = pc_avg pc.up_sum pc.up_cnt in
  let best = ref (-1) and best_score = ref neg_infinity in
  Array.iteri
    (fun k id ->
      let pos = ipos.(id) in
      let x = values.(id) in
      let fd = x -. Float.floor x and fu = Float.ceil x -. x in
      let est sum cnt avg = if cnt > 0 then sum /. float_of_int cnt else avg in
      let gd, gu = match gains with Some g -> g.(k) | None -> (nan, nan) in
      let dd =
        if Float.is_nan gd then est pc.dn_sum.(pos) pc.dn_cnt.(pos) avg_dn *. fd
        else gd
      and du =
        if Float.is_nan gu then est pc.up_sum.(pos) pc.up_cnt.(pos) avg_up *. fu
        else gu
      in
      let score = Float.max dd 1e-6 *. Float.max du 1e-6 in
      if score > !best_score then begin
        best := k;
        best_score := score
      end)
    cands;
  if !best < 0 then None else Some !best

type stats = {
  nodes : int;
  simplex_iters : int;
  elapsed : float;
  dropped : int;
  dropped_key : float;
}

type t = {
  outcome : outcome;
  obj : float;
  bound : float;
  values : float array;
  stats : stats;
}

type node = {
  nlb : float array;
  nub : float array;
  depth : int;
  parent_bound : float;
  pbasis : Simplex.basis option;
      (* the parent's optimal basis — bound changes keep it dual
         feasible, so the child LP warm-starts in the dual simplex *)
  bvar : int;
      (* variable the parent branched on to create this node (-1 at the
         root): solving this node's LP measures the true bound
         degradation of that decision, feeding the pseudocost table *)
  bup : bool;  (* branch direction *)
  bfrac : float;  (* fractional distance covered by the branch *)
}

(* Heap ordering: prefer the better parent bound; bounds within a
   relative tolerance of each other count as ties and fall through to
   the depth tiebreak (diving). Exact float equality would make the
   tiebreak vanish under harmless last-bit noise in the LP objective,
   flattening the dive order. *)
let better_key (k1, d1) (k2, d2) =
  if k1 = k2 then d1 > d2
  else begin
    let tol = 1e-9 *. Float.max 1. (Float.min (Float.abs k1) (Float.abs k2)) in
    if Float.abs (k1 -. k2) <= tol then d1 > d2 else k1 > k2
  end

(* Max-heap of nodes keyed on (parent bound, depth): explore the most
   promising bound first, diving deeper on ties. *)
module Heap = struct
  type elt = { key : float; depth : int; node : node }
  type h = { mutable a : elt array; mutable len : int }

  let dummy_node =
    { nlb = [||]; nub = [||]; depth = 0; parent_bound = 0.; pbasis = None;
      bvar = -1; bup = false; bfrac = 0. }
  let dummy = { key = neg_infinity; depth = 0; node = dummy_node }
  let create () = { a = Array.make 64 dummy; len = 0 }
  let better x y = better_key (x.key, x.depth) (y.key, y.depth)

  let push h e =
    if h.len = Array.length h.a then begin
      let a' = Array.make (2 * h.len) dummy in
      Array.blit h.a 0 a' 0 h.len;
      h.a <- a'
    end;
    h.a.(h.len) <- e;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && better h.a.(!i) h.a.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.a.(0) in
      h.len <- h.len - 1;
      h.a.(0) <- h.a.(h.len);
      h.a.(h.len) <- dummy;
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let best = ref !i in
        if l < h.len && better h.a.(l) h.a.(!best) then best := l;
        if r < h.len && better h.a.(r) h.a.(!best) then best := r;
        if !best = !i then continue := false
        else begin
          let tmp = h.a.(!best) in
          h.a.(!best) <- h.a.(!i);
          h.a.(!i) <- tmp;
          i := !best
        end
      done;
      Some top
    end

  let best_key h = if h.len = 0 then None else Some h.a.(0).key
end

(* Gap test against the incumbent objective [best], which is
   [neg_infinity] exactly while no incumbent exists. *)
let within_gap options ~best k =
  best > neg_infinity
  && k -. best
     <= Certify.gap_allowance ~abs_gap:options.abs_gap ~rel_gap:options.rel_gap best

(* Lift the parent basis onto [prep], the current LP. Every node
   below the root solves the root's cut-extended LP, minus the cuts an
   incumbent audit dropped since: the LP only loses rows, and each drop
   shrinks it strictly. So a basis with more rows than [prep] predates a
   drop, and [Simplex.extend_basis] cold-starts exactly that shape. *)
let lift_warm node prep = Option.bind node.pbasis (fun b -> Simplex.extend_basis b prep)

(* Pseudocost observation: a child's own LP measures the true bound
   degradation of its parent's branching decision. *)
let observe_child pc ~ipos ~osign ~int_tol node obj =
  let g = Float.max 0. (node.parent_bound -. (osign *. obj)) in
  pc_update pc ipos.(node.bvar) ~up:node.bup (g /. Float.max node.bfrac int_tol);
  Lp_stats.incr Lp_stats.pseudocost_updates

(* Push [node]'s two children branching on [id], whose LP value in
   [values] is fractional. [gd]/[gu] are strong-branching gains of the
   down/up child ([nan] = not probed): a probe already solved that
   child's LP, so its measured bound is the child's true key —
   best-first then never pops the child once the gap closes over it —
   and an infinite gain (probe-infeasible child) skips the push. The
   child toward the rounded value goes first (heap tiebreak on depth
   dives there). *)
let push_children heap node ~bound ~fbasis id values (gd, gu) =
  let x = values.(id) in
  let fl = Float.floor x and ce = Float.ceil x in
  let child up =
    let nlb = Array.copy node.nlb and nub = Array.copy node.nub in
    if up then nlb.(id) <- ce else nub.(id) <- fl;
    let g = if up then gu else gd in
    let key = if Float.is_nan g then bound else bound -. g in
    let depth = node.depth + 1 in
    if nlb.(id) <= nub.(id) +. 1e-12 && key > neg_infinity then
      Heap.push heap
        {
          Heap.key;
          depth;
          node =
            {
              nlb;
              nub;
              depth;
              parent_bound = bound;
              pbasis = fbasis;
              bvar = id;
              bup = up;
              bfrac = (if up then ce -. x else x -. fl);
            };
        }
  in
  if x -. fl > 0.5 then (child false; child true) else (child true; child false)

(* Subtrees dropped because their LP hit the iteration budget: the
   count, and the tightest parent bound over them. *)
type drops = { mutable dcount : int; mutable dkey : float }

let drop d key =
  d.dcount <- d.dcount + 1;
  if key > d.dkey then d.dkey <- key

let solve ?(options = default) model =
  let t0 = Unix.gettimeofday () in
  Lp_stats.incr Lp_stats.bb_solves;
  let sense, _ = Model.objective model in
  (* Work internally as maximization. *)
  let osign = match sense with Model.Maximize -> 1. | Model.Minimize -> -1. in
  let int_ids = Array.of_list (Model.int_var_ids model) in
  let nv = Model.num_vars model in
  let nint = Array.length int_ids in
  let ipos = Array.make (max nv 1) (-1) in
  Array.iteri (fun k id -> ipos.(id) <- k) int_ids;
  let pc = pc_create nint in
  let reliability = options.branching = Reliability && nint > 0 in
  let lb0, ub0 = Model.bounds model in
  let nodes = ref 0 and simplex0 = Lp_stats.read Lp_stats.pivots () in
  (* Cutting planes. The pool holds globally valid <= rows over the
     structural variables, separated at the root only; the active set
     is materialized by re-preparing the LP on an extended model
     whenever it changes (a root round appends rows, an incumbent audit
     drops them). *)
  let pool =
    if options.cuts.Cuts.enable && Array.length int_ids > 0 then
      Some (Cuts.create model)
    else None
  in
  let rows_of m =
    Array.map (fun (c : Model.cons) -> (c.Model.lhs, c.Model.rhs)) (Model.conss m)
  in
  let prep = ref (Simplex.prepare model) in
  let xrows = ref (rows_of model) in
  let cut_taint = ref false in
  let reprep () =
    match pool with
    | None -> ()
    | Some pool ->
      let xm = Cuts.extend_model model pool in
      prep := Simplex.prepare xm;
      xrows := rows_of xm
  in
  (* [keep_factor]: bases extracted here are shared across child nodes,
     so publish the snapshot eagerly. Taking it costs no factorization,
     and every warm start reinstates it without one. *)
  let solve_lp ?warm prep ~lb ~ub =
    Simplex.solve_prepared ~engine:options.engine ?max_iters:options.sx_iters
      ?warm ~keep_factor:true ~lb ~ub prep
  in
  let node_lp node =
    solve_lp ?warm:(lift_warm node !prep) !prep ~lb:node.nlb ~ub:node.nub
  in
  (* Nodes whose LP hit the iteration budget are dropped from the search,
     but their subtree is unexplored: remember the tightest parent bound
     over all of them so the final bound and outcome stay sound. *)
  let dropped = { dcount = 0; dkey = neg_infinity } in
  let incumbent = ref None in
  let incumbent_obj = ref neg_infinity in
  let consider_incumbent values obj =
    if obj > !incumbent_obj then begin
      incumbent := Some (Array.copy values);
      incumbent_obj := obj;
      (* Certify-style audit: every active cut must admit the incumbent.
         A failure means an invalid cut may have pruned integer points,
         so drop it, rebuild the LP and taint the outcome (Optimal can
         no longer be claimed). *)
      (match pool with
      | Some pool when Cuts.active_count pool > 0 ->
        let removed = Cuts.audit_incumbent pool values in
        if removed > 0 then begin
          cut_taint := true;
          reprep ();
          if options.log then
            Log.warn (fun f ->
                f "dropped %d cut(s) violated by the incumbent at node %d"
                  removed !nodes)
        end
      | Some _ | None -> ());
      if options.log then
        Log.info (fun f -> f "new incumbent %.6g at node %d" (osign *. obj) !nodes)
    end
  in
  (* The incumbent gate: the certifier's point check against the model
     being searched, at tolerances no looser than the final
     certification's in any component, so no admitted incumbent can
     later be certify-rejected. *)
  let gate_tols = Certify.gate_tolerances ~int_tol:options.int_tol in
  let gate values = (Certify.check_point ~tols:gate_tols model values).Certify.failure in
  (match options.warm_start with
  | Some v when gate v = None ->
    consider_incumbent v (osign *. Model.objective_value model v)
  | Some _ | None -> ());
  (* LP-guided diving, the search's primal heuristic: from the LP
     optimum under [lb, ub], repeatedly fix the most fractional integer
     variable to its rounded value and re-solve, with one flip retry per
     variable on infeasibility. Each fixing only tightens bounds, so the
     previous step's optimal basis warm-starts the next LP in the dual
     simplex. [on_basis] sees each final basis. Returns [(point, obj)]
     in the internal maximization sense when the dive reaches a point
     integral within [int_tol] that beats the incumbent by more than
     [abs_gap]; the bounds arrays are not modified. *)
  let dive ?basis ?(on_basis = ignore) lb ub =
    let lb = Array.copy lb and ub = Array.copy ub in
    let budget = (2 * nint) + 20 in
    let warm = ref basis in
    let lp_step () =
      let r, fb = solve_lp ?warm:!warm !prep ~lb ~ub in
      Option.iter (fun b -> warm := Some b; on_basis b) fb;
      r
    in
    (* [go] consumes the LP result of the current bounds, so each fixing
       costs exactly one LP solve *)
    let rec go iters res =
      if iters > budget then None
      else
        match res with
        | Simplex.Infeasible | Simplex.Unbounded | Simplex.Iter_limit -> None
        | Simplex.Optimal { obj; values } ->
          let bound = osign *. obj in
          if bound <= !incumbent_obj +. options.abs_gap then None
          else begin
            let best = ref (-1) and best_frac = ref options.int_tol in
            Array.iter
              (fun id ->
                let f = frac values id in
                if f > !best_frac then begin
                  best := id;
                  best_frac := f
                end)
              int_ids;
            if !best < 0 then Some (values, bound)
            else begin
              let id = !best in
              let r = Float.round values.(id) in
              let saved_lb = lb.(id) and saved_ub = ub.(id) in
              lb.(id) <- r;
              ub.(id) <- r;
              match lp_step () with
              | Simplex.Optimal _ as res' -> go (iters + 1) res'
              | Simplex.Infeasible | Simplex.Unbounded | Simplex.Iter_limit ->
                (* flip once, if the other rounding is inside the
                   variable's bounds to within [int_tol] *)
                let r' =
                  if r > values.(id) then Float.floor values.(id)
                  else Float.ceil values.(id)
                in
                if
                  r' >= saved_lb -. options.int_tol
                  && r' <= saved_ub +. options.int_tol
                  && r' <> r
                then begin
                  lb.(id) <- r';
                  ub.(id) <- r';
                  go (iters + 1) (lp_step ())
                end
                else None
            end
          end
    in
    go 0 (lp_step ())
  in
  (* Every heuristic candidate passes the same gate as the warm start.
     A candidate failing it is counted and dropped instead of silently
     pruning the tree and failing certification afterwards. *)
  let try_candidate ~what cand =
    match cand with
    | None -> ()
    | Some (values, obj) -> (
      match gate values with
      | None ->
        Lp_stats.incr Lp_stats.heuristic_solutions;
        (match options.on_incumbent with Some f -> f values | None -> ());
        consider_incumbent values obj
      | Some reason ->
        Lp_stats.incr Lp_stats.heuristic_rejections;
        if options.log then
          Log.warn (fun f ->
              f "%s incumbent rejected at node %d: %s" what !nodes reason))
  in
  (* Seed incumbents from caller-provided partial assignments: fix the
     hinted variables and dive. When a hint fixes all the structural
     binaries the dive is a single LP solve. Once an incumbent exists,
     a hint is first refuted warm ({!Simplex.refute}) from the final
     basis of the last hint dive: a proof that its LP bound passes the
     dive's own cutoff test skips exactly a dive that would end at its
     first LP. *)
  let hint_basis = ref None in
  let refuted lb ub =
    match !hint_basis with
    | Some warm when !incumbent_obj > neg_infinity ->
      Simplex.refute ?max_iters:options.sx_iters ~warm ~lb ~ub
        ~cutoff:(!incumbent_obj +. options.abs_gap)
        !prep
    | Some _ | None -> false
  in
  List.iter
    (fun hint ->
      let lb = Array.copy lb0 and ub = Array.copy ub0 in
      (* hint values must sit inside the root bounds to within the
         solver's configured integrality tolerance — the same epsilon
         the incumbent gate enforces, not an unrelated hardcoded one *)
      let ok =
        List.for_all
          (fun (id, v) ->
            id >= 0 && id < nv
            && v >= lb.(id) -. options.int_tol
            && v <= ub.(id) +. options.int_tol)
          hint
      in
      if ok then begin
        List.iter
          (fun (id, v) ->
            lb.(id) <- v;
            ub.(id) <- v)
          hint;
        if refuted lb ub then Lp_stats.incr Lp_stats.hint_refutes
        else
          try_candidate ~what:"hint dive"
            (dive ~on_basis:(fun b -> hint_basis := Some b) lb ub)
      end)
    options.plunge_hints;
  let candidates values =
    branch_candidates ~int_tol:options.int_tol ~priority:options.branch_priority
      int_ids values
  in
  (* The branching rule: [None] when [values] is integral, else the
     branching variable and its children's strong-branching gains
     ([nan] = not probed). *)
  let select ?gains cands values =
    if not reliability then
      Option.map (fun id -> (id, (nan, nan))) (most_fractional cands values)
    else
      Option.map
        (fun k ->
          (cands.(k), match gains with Some g -> g.(k) | None -> (nan, nan)))
        (pc_select pc ~ipos ?gains cands values)
  in
  (* Reliability branching: strong-branching probes
     initialize the pseudocosts of unreliable candidates (most
     fractional first, a bounded number per node); [select] then scores
     every candidate under the product rule. Probes are ordinary
     dual-warm LP solves against the current prepared LP, so their
     iterations land in the solve's deterministic meter. *)
  let strong_branch ~nlb ~nub ~fbasis ~bound cands values =
    let gains = Array.make (Array.length cands) (nan, nan) in
    let order = Array.init (Array.length cands) Fun.id in
    Array.sort
      (fun a b ->
        let fa = frac values cands.(a) and fb = frac values cands.(b) in
        if fa = fb then compare cands.(a) cands.(b) else compare fb fa)
      order;
    let probed = ref 0 in
    Array.iter
      (fun k ->
        let id = cands.(k) in
        let pos = ipos.(id) in
        if !probed < pc_probe_cap && pc_reliability pc pos < pc_rel_threshold
        then begin
          incr probed;
          let x = values.(id) in
          let probe up =
            Lp_stats.incr Lp_stats.sb_probes;
            let lb = Array.copy nlb and ub = Array.copy nub in
            if up then lb.(id) <- Float.ceil x else ub.(id) <- Float.floor x;
            match solve_lp ?warm:fbasis !prep ~lb ~ub with
            | Simplex.Optimal { obj; _ }, _ ->
              let g = Float.max 0. (bound -. (osign *. obj)) in
              let f =
                Float.max options.int_tol
                  (if up then Float.ceil x -. x else x -. Float.floor x)
              in
              pc_update pc pos ~up (g /. f);
              Lp_stats.incr Lp_stats.pseudocost_updates;
              g
            | Simplex.Infeasible, _ -> infinity
            | (Simplex.Unbounded | Simplex.Iter_limit), _ -> nan
          in
          let gd = probe false in
          let gu = probe true in
          gains.(k) <- (gd, gu)
        end)
      order;
    gains
  in
  (* The dive schedule: at the root, every 40 nodes while no incumbent
     exists, and every 400 nodes. *)
  let run_heuristics ~fbasis ~nlb ~nub =
    if !nodes = 1 || (!incumbent = None && !nodes mod 40 = 0) || !nodes mod 400 = 0
    then try_candidate ~what:"dive" (dive ?basis:fbasis nlb nub)
  in
  (* Cutting planes at the root: up to [Cuts.root_rounds] rounds. Each
     separates at the LP optimum, re-prepares the extended LP and
     re-solves warm from the final basis extended over the appended
     rows (which keeps it dual feasible). *)
  let separate node obj values fbasis =
    match pool with
    | Some pool when !nodes = 1 ->
      let rec cut_loop k obj values fbasis =
        if k = 0 || candidates values = [||] then `Ok (obj, values, fbasis)
        else begin
          let basis =
            Option.map
              (fun b -> (Simplex.basis_cols b, Simplex.basis_statuses b))
              fbasis
          in
          let added =
            Cuts.separate_round pool ~sp:(Simplex.prep_sparse !prep)
              ~rows:!xrows ~point:values ~basis ~incumbent:!incumbent
          in
          if added = 0 then `Ok (obj, values, fbasis)
          else begin
            reprep ();
            let warm = Option.bind fbasis (fun b -> Simplex.extend_basis b !prep) in
            match solve_lp ?warm !prep ~lb:node.nlb ~ub:node.nub with
            | Simplex.Optimal { obj; values }, fb -> cut_loop (k - 1) obj values fb
            | Simplex.Infeasible, _ -> `Cut_off
            | Simplex.Iter_limit, _ -> `Budget
            | Simplex.Unbounded, _ -> `Ok (obj, values, fbasis)
          end
        end
      in
      cut_loop Cuts.root_rounds obj values fbasis
    | Some _ | None -> `Ok (obj, values, fbasis)
  in
  let heap = Heap.create () in
  let root =
    { nlb = lb0; nub = ub0; depth = 0; parent_bound = infinity; pbasis = None;
      bvar = -1; bup = false; bfrac = 0. }
  in
  Heap.push heap { key = infinity; depth = 0; node = root };
  let status = ref `Running in
  let time_up () = Unix.gettimeofday () -. t0 > options.time_limit in
  (* True, with [status] set, when the search stops before the node at
     [key]. *)
  let stop_at key =
    if within_gap options ~best:!incumbent_obj key then (status := `Gap_closed; true)
    else if !nodes >= options.max_nodes || time_up () then (status := `Limit; true)
    else false
  in
  (* One best-first node step: pop, solve, separate, branch. *)
  let step () =
    match Heap.pop heap with
    | None -> status := `Exhausted
    | Some ({ key = parent_key; node; _ } as elt) ->
      (* a budget stop puts the unexplored node back: its key stays in
         the final bound *)
      if stop_at parent_key then (if !status = `Limit then Heap.push heap elt)
      else begin
        incr nodes;
        Lp_stats.incr Lp_stats.bb_nodes;
        match node_lp node with
        | Simplex.Infeasible, _ -> ()
        | Simplex.Iter_limit, _ ->
          (* Unresolved node: re-queueing would loop, so the node is
             dropped — but its subtree may still hold the optimum, so its
             parent bound must survive into the final bound and the
             outcome may no longer claim optimality. *)
          drop dropped parent_key;
          if options.log then Log.warn (fun f -> f "simplex iteration limit at node %d" !nodes)
        | Simplex.Unbounded, _ ->
          if node.depth = 0 && !incumbent = None then status := `Unbounded_root
        | Simplex.Optimal { obj; values }, fbasis ->
          if reliability && node.bvar >= 0 then
            observe_child pc ~ipos ~osign ~int_tol:options.int_tol node obj;
          if osign *. obj <= !incumbent_obj +. options.abs_gap then () (* pruned *)
          else begin
            match separate node obj values fbasis with
            | `Cut_off ->
              (* the tightened LP is infeasible: the (globally valid)
                 cuts prove the node holds no integer-feasible point *)
              ()
            | `Budget ->
              (* an in-loop LP hit the iteration budget: same contract
                 as the Iter_limit node outcome above *)
              drop dropped parent_key;
              if options.log then
                Log.warn (fun f ->
                    f "simplex iteration limit during cut rounds at node %d" !nodes)
            | `Ok (obj, values, fbasis) ->
              let bound = osign *. obj in
              if bound <= !incumbent_obj +. options.abs_gap then () (* pruned *)
              else begin
                let cands = candidates values in
                let gains =
                  if reliability then
                    Some
                      (strong_branch ~nlb:node.nlb ~nub:node.nub ~fbasis ~bound cands
                         values)
                  else None
                in
                match select ?gains cands values with
                | None -> consider_incumbent values bound
                | Some (id, g) ->
                  run_heuristics ~fbasis ~nlb:node.nlb ~nub:node.nub;
                  if bound > !incumbent_obj +. options.abs_gap then
                    push_children heap node ~bound ~fbasis id values g
              end
          end
      end
  in
  while !status = `Running do
    step ()
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let best_bound =
    let live =
      match (!status, Heap.best_key heap) with
      | `Exhausted, _ | `Gap_closed, None -> !incumbent_obj
      | _, Some k -> Float.max k !incumbent_obj
      | _, None -> !incumbent_obj
    in
    (* never report a bound below a dropped subtree's key *)
    Float.max live dropped.dkey
  in
  let stats =
    {
      nodes = !nodes;
      simplex_iters = Lp_stats.read Lp_stats.pivots () - simplex0;
      elapsed;
      dropped = dropped.dcount;
      dropped_key = dropped.dkey;
    }
  in
  let values = match !incumbent with Some v -> v | None -> Array.make nv 0. in
  let mk outcome obj bound = { outcome; obj; bound; values; stats } in
  match (!status, !incumbent) with
  | `Unbounded_root, _ -> mk Unbounded infinity infinity
  | (`Exhausted | `Gap_closed), Some _ ->
    (* a dropped subtree may hold something better than the incumbent,
       and a cut that failed its incumbent audit may have pruned
       integer points before it was caught: either way exhausting the
       heap no longer proves optimality *)
    if dropped.dcount > 0 || !cut_taint then
      mk Feasible (osign *. !incumbent_obj) (osign *. best_bound)
    else mk Optimal (osign *. !incumbent_obj) (osign *. best_bound)
  | `Exhausted, None ->
    if dropped.dcount > 0 || !cut_taint then mk No_incumbent nan (osign *. best_bound)
    else mk Infeasible nan nan
  | `Limit, Some _ -> mk Feasible (osign *. !incumbent_obj) (osign *. best_bound)
  | (`Limit | `Gap_closed), None -> mk No_incumbent nan (osign *. best_bound)
  | `Running, _ -> assert false
