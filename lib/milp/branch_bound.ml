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
  pool : Parallel.Pool.t option;
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
    par_width = 32;
    par_grain = 64;
    branching = Reliability;
    heuristics = true;
    rins_freq = 200;
    on_incumbent = None;
  }

type outcome = Optimal | Feasible | No_incumbent | Infeasible | Unbounded

(* owner-domain only, so not a registered counter *)
let rounds_key = Domain.DLS.new_key (fun () -> ref 0)
let cumulative_rounds () = !(Domain.DLS.get rounds_key)

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

let pc_copy pc =
  { dn_sum = Array.copy pc.dn_sum; dn_cnt = Array.copy pc.dn_cnt;
    up_sum = Array.copy pc.up_sum; up_cnt = Array.copy pc.up_cnt }

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
  rounds : int;
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

(* --- node expansion, shared by the owner's step and the round tasks --- *)

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
   degradation of its parent's branching decision. The observation
   (position, direction, gain per unit of fractional distance) is
   returned so a round task can log it for the barrier merge. *)
let observe_child pc ~ipos ~osign ~int_tol node obj =
  let pos = ipos.(node.bvar) in
  let g = Float.max 0. (node.parent_bound -. (osign *. obj)) in
  let gpf = g /. Float.max node.bfrac int_tol in
  pc_update pc pos ~up:node.bup gpf;
  Lp_stats.incr Lp_stats.pseudocost_updates;
  (pos, node.bup, gpf)

(* Push [node]'s two children branching on [id], whose LP value in
   [values] is fractional. [gd]/[gu] are strong-branching gains of the
   down/up child ([nan] = not probed): a probe already solved that
   child's LP, so its measured bound is the child's true key —
   best-first then never pops the child once the gap closes over it —
   and an infinite gain (probe-infeasible child) skips the push. The
   child toward the rounded value goes first (heap tiebreak on depth
   dives there). *)
let push_children push node ~bound ~fbasis id values (gd, gu) =
  let x = values.(id) in
  let fl = Float.floor x and ce = Float.ceil x in
  let child up =
    let nlb = Array.copy node.nlb and nub = Array.copy node.nub in
    if up then nlb.(id) <- ce else nub.(id) <- fl;
    let g = if up then gu else gd in
    let key = if Float.is_nan g then bound else bound -. g in
    let depth = node.depth + 1 in
    if nlb.(id) <= nub.(id) +. 1e-12 && key > neg_infinity then
      push
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

let drop ?(n = 1) d key =
  d.dcount <- d.dcount + n;
  if key > d.dkey then d.dkey <- key

(* --- shared incumbent for concurrent subtree solves -------------------- *)

(* An incumbent candidate offered by a subtree task. [iorigin] is the
   task's frontier index — the canonical ordinal of the subtree in the
   round's deterministic pop order. Candidates are totally ordered:
   higher objective wins, ties go to the smaller origin (the subtree the
   sequential algorithm would have reached first). The final cell value
   is the maximum under that order, independent of CAS interleaving, so
   the merged incumbent is bit-identical across domain counts. *)
type inc_cand = { iobj : float; iorigin : int; ivalues : float array }

(* Monotone CAS publish: retry until [cand] is installed or provably not
   better than the current value under the total order. *)
let rec offer_incumbent cell cand =
  let cur = Atomic.get cell in
  let better =
    match cur with
    | None -> true
    | Some c ->
      cand.iobj > c.iobj || (cand.iobj = c.iobj && cand.iorigin < c.iorigin)
  in
  if better && not (Atomic.compare_and_set cell cur (Some cand)) then
    offer_incumbent cell cand

(* What a subtree task hands back at the round barrier. [tr_left] holds
   the open nodes the task did not process (grain budget or task-local
   gap stop), in the task's canonical best-first order. *)
type task_result = {
  tr_nodes : int;
  tr_drops : drops;
  tr_left : Heap.elt list;
  tr_pc : (int * bool * float) list;
      (* pseudocost observations (position, direction, gain-per-frac) in
         the task's generation order, merged into the master table at
         the barrier in frontier index order *)
}

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
  (* [keep_factor]: bases extracted here are shared across child nodes —
     and, in parallel rounds, across concurrently solved subtrees — so
     publish the snapshot eagerly. Taking it costs no factorization,
     every warm start reinstates it without one, and the factorization
     counter stays schedule-independent. *)
  let solve_lp ?warm prep ~lb ~ub =
    Simplex.solve_prepared ~engine:options.engine ?max_iters:options.sx_iters
      ?warm ~keep_factor:true ~lb ~ub prep
  in
  let node_lp prep node =
    solve_lp ?warm:(lift_warm node prep) prep ~lb:node.nlb ~ub:node.nub
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
  (* Primal heuristics ({!Heuristics}): LP-guided diving (the original
     plunge), a feasibility pump, and RINS. They produce integral
     incumbents early, which best-first search alone can fail to do. *)
  let heur_env =
    {
      Heuristics.lp = (fun warm ~lb ~ub -> solve_lp ?warm !prep ~lb ~ub);
      int_ids;
      int_tol = options.int_tol;
      abs_gap = options.abs_gap;
      osign;
      cutoff = (fun () -> !incumbent_obj);
    }
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
     hinted variables and plunge. When a hint fixes all the structural
     binaries the plunge is a single LP solve. Once an incumbent exists,
     a hint is first refuted warm ({!Simplex.refute}) from the final
     basis of the last hint plunge: a proof that its LP bound passes
     the dive's own cutoff test skips exactly a plunge that
     {!Heuristics.dive} would end at its first LP. *)
  let hint_basis = ref None in
  let hint_env =
    {
      heur_env with
      Heuristics.lp =
        (fun warm ~lb ~ub ->
          let ((_, fb) as res) = heur_env.Heuristics.lp warm ~lb ~ub in
          (match fb with Some _ -> hint_basis := fb | None -> ());
          res);
    }
  in
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
        else try_candidate ~what:"hint dive" (Heuristics.dive hint_env lb ub)
      end)
    options.plunge_hints;
  let candidates values =
    branch_candidates ~int_tol:options.int_tol ~priority:options.branch_priority
      int_ids values
  in
  (* The branching rule, shared by the owner and the round tasks: [None]
     when [values] is integral, else the branching variable and its
     children's strong-branching gains ([nan] = not probed). *)
  let select pc ?gains cands values =
    if not reliability then
      Option.map (fun id -> (id, (nan, nan))) (most_fractional cands values)
    else
      Option.map
        (fun k ->
          (cands.(k), match gains with Some g -> g.(k) | None -> (nan, nan)))
        (pc_select pc ~ipos ?gains cands values)
  in
  (* Reliability branching, owner-side: strong-branching probes
     initialize the pseudocosts of unreliable candidates (most
     fractional first, a bounded number per node); [select] then scores
     every candidate under the product rule. Probes are ordinary
     dual-warm LP solves against the current prepared LP, so their
     iterations land in the owner's deterministic meter. *)
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
  (* Heuristic schedule, owner-side: dive at the root, periodically
     until an incumbent exists and occasionally after (the original
     plunge cadence); the feasibility pump backs the dive up while no
     incumbent exists; RINS explores the incumbent/relaxation
     neighborhood every [rins_freq] nodes. *)
  let run_heuristics ~fbasis ~values ~nlb ~nub =
    let dive_now =
      !nodes = 1
      || (!incumbent = None && !nodes mod 40 = 0)
      || !nodes mod 400 = 0
    in
    if dive_now then begin
      try_candidate ~what:"dive" (Heuristics.dive heur_env ?basis:fbasis nlb nub);
      if options.heuristics && !incumbent = None then
        try_candidate ~what:"pump"
          (Heuristics.pump heur_env ?basis:fbasis ~relax:values nlb nub)
    end;
    if
      options.heuristics && options.rins_freq > 0 && !nodes > 1
      && !nodes mod options.rins_freq = 0
    then
      match !incumbent with
      | Some inc ->
        try_candidate ~what:"rins"
          (Heuristics.rins heur_env ?basis:fbasis ~incumbent:inc ~relax:values
             nlb nub)
      | None -> ()
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
  (* Loop head of both the sequential step and the round scheduler: true,
     with [status] set, when the search stops before the node(s) at
     [key]. *)
  let stop_at key =
    if within_gap options ~best:!incumbent_obj key then (status := `Gap_closed; true)
    else if !nodes >= options.max_nodes || time_up () then (status := `Limit; true)
    else false
  in
  (* One legacy best-first node step: pop, solve, separate, branch. This
     is the exact sequential algorithm; it also serves as the ramp-up
     and narrow-frontier path of the parallel scheduler below, so small
     trees behave exactly as before. *)
  let sequential_step () =
    match Heap.pop heap with
    | None -> status := `Exhausted
    | Some ({ key = parent_key; node; _ } as elt) ->
      (* a budget stop puts the unexplored node back: its key stays in
         the final bound *)
      if stop_at parent_key then (if !status = `Limit then Heap.push heap elt)
      else begin
        incr nodes;
        Lp_stats.incr Lp_stats.bb_nodes;
        match node_lp !prep node with
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
            ignore (observe_child pc ~ipos ~osign ~int_tol:options.int_tol node obj);
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
                match select pc ?gains cands values with
                | None -> consider_incumbent values bound
                | Some (id, g) ->
                  run_heuristics ~fbasis ~values ~nlb:node.nlb ~nub:node.nub;
                  if bound > !incumbent_obj +. options.abs_gap then
                    push_children (Heap.push heap) node ~bound ~fbasis id values g
              end
          end
      end
  in
  (* --- parallel rounds --------------------------------------------------
     When the frontier is wide enough, a round drains the heap in
     canonical pop order into an array of subtree tasks. Each task is a
     pure function of (its root node, the round-start incumbent, the
     frozen LP): it explores its subtree best-first up to
     [par_grain] nodes with the same pruning rule, publishing incumbent
     candidates to a shared cell (monotone CAS under a total order) but
     never reading it mid-round. At the barrier, results merge in
     frontier index order — node counts, dropped-subtree accounting and
     the adopted incumbent are therefore bit-identical whether the tasks
     ran inline, on 2 domains or on 8. Cut separation runs only at the
     root, always a sequential step; plunging and the incumbent audit
     stay owner-side (sequential steps and barriers), so the pool,
     [prep] and the incumbent refs are never touched concurrently. *)
  let par_width = max 2 options.par_width in
  let par_grain = max 1 options.par_grain in
  let rounds = ref 0 in
  let parallel_round () =
    match Heap.best_key heap with
    | None -> status := `Exhausted
    | Some top_key ->
      if not (stop_at top_key) then begin
        incr rounds;
        incr (Domain.DLS.get rounds_key);
        (* bound the round by the remaining node budget so [max_nodes]
           cannot be overshot by more than one round's grain *)
        let budget_tasks =
          let remaining = options.max_nodes - !nodes in
          max 1 ((remaining + par_grain - 1) / par_grain)
        in
        let ntasks = min heap.Heap.len (min (4 * par_width) budget_tasks) in
        let frontier = Array.make ntasks Heap.dummy in
        for i = 0 to ntasks - 1 do
          match Heap.pop heap with
          | Some e -> frontier.(i) <- e
          | None -> assert false
        done;
        (* freeze the LP for the round: tasks solve against [prep0]
           read-only *)
        let prep0 = !prep in
        let inc0_obj = !incumbent_obj in
        let cell = Atomic.make None in
        let task i (elt : Heap.elt) =
          let lheap = Heap.create () in
          Heap.push lheap elt;
          (* Pseudocost state is frozen for the round like the cut pool:
             each task branches on a private copy of the table extended
             by its own observations only, and hands the observation log
             back for a deterministic frontier-order merge. The master
             table is read-only until the barrier, so the copies are
             identical whether tasks run inline or on any pool width. *)
          let lpc = if reliability then pc_copy pc else pc in
          let tpc = ref [] in
          let tn = ref 0 and tdrops = { dcount = 0; dkey = neg_infinity } in
          let lbest = ref inc0_obj in
          let left = ref [] in
          let stop = ref false in
          while not !stop do
            match Heap.pop lheap with
            | None -> stop := true
            | Some ({ key; node; _ } as e) ->
              (* a gap-closed top or an exhausted grain stops the task;
                 the node goes back unprocessed (the local heap is
                 best-first, so everything below it is no better) *)
              if within_gap options ~best:!lbest key || !tn >= par_grain then begin
                left := [ e ];
                stop := true
              end
              else begin
                incr tn;
                Lp_stats.incr Lp_stats.bb_nodes;
                match node_lp prep0 node with
                | Simplex.Infeasible, _ -> ()
                | Simplex.Unbounded, _ ->
                  (* in-tree nodes only (the root is always processed in
                     the sequential ramp), same as the sequential step *)
                  ()
                | Simplex.Iter_limit, _ -> drop tdrops key
                | Simplex.Optimal { obj; values }, fbasis ->
                  if reliability && node.bvar >= 0 then
                    tpc :=
                      observe_child lpc ~ipos ~osign ~int_tol:options.int_tol node obj
                      :: !tpc;
                  let bound = osign *. obj in
                  if bound <= !lbest +. options.abs_gap then () (* pruned *)
                  else begin
                    (* no probes in-task (the frozen LP would make them
                       owner-state-dependent): the same rule on the
                       task's pseudocost table *)
                    match select lpc (candidates values) values with
                    | None ->
                      if bound > !lbest then begin
                        lbest := bound;
                        offer_incumbent cell
                          { iobj = bound; iorigin = i; ivalues = Array.copy values }
                      end
                    | Some (id, g) ->
                      push_children (Heap.push lheap) node ~bound ~fbasis id values g
                  end
              end
          done;
          let rec drain acc =
            match Heap.pop lheap with
            | None -> List.rev acc
            | Some e -> drain (e :: acc)
          in
          {
            tr_nodes = !tn;
            tr_drops = tdrops;
            tr_left = !left @ drain [];
            tr_pc = List.rev !tpc;
          }
        in
        let results =
          match options.pool with
          | Some pool -> Parallel.Pool.mapi_array pool task frontier
          | None -> Array.mapi task frontier
        in
        Array.iter
          (fun tr ->
            nodes := !nodes + tr.tr_nodes;
            drop ~n:tr.tr_drops.dcount dropped tr.tr_drops.dkey;
            (* merge pseudocost observations in frontier index order —
               the counter was already bumped at generation time *)
            List.iter (fun (pos, up, g) -> pc_update pc pos ~up g) tr.tr_pc;
            List.iter (fun e -> Heap.push heap e) tr.tr_left)
          results;
        (* adopt the round's merged incumbent last: the cut audit inside
           may drop cuts and re-prepare a smaller LP, onto which the
           leftover nodes' bases no longer extend (they cold-start) *)
        match Atomic.get cell with
        | Some w -> consider_incumbent w.ivalues w.iobj
        | None -> ()
      end
  in
  while !status = `Running do
    if heap.Heap.len >= par_width then parallel_round () else sequential_step ()
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
      (* the pool credits task pivots to this domain *)
      simplex_iters = Lp_stats.read Lp_stats.pivots () - simplex0;
      elapsed;
      rounds = !rounds;
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
