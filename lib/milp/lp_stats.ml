(* Domain-local counters shared by the LP engines.

   Every counter follows the Parallel.Pool hook contract (see
   Simplex.cumulative_iterations): a per-domain cumulative int that the
   pool samples around each chunk, so concurrent solves never race.
   Both the revised engine and the legacy dense tableau bump [pivots];
   the factorization/eta/dual/warm counters are revised-engine only. *)

let key () = Domain.DLS.new_key (fun () -> ref 0)

let pivots = key ()
let dual_pivots = key ()
let factorizations = key ()
let eta_updates = key ()
let warm_attempts = key ()
let warm_hits = key ()
let certify_checks = key ()
let certify_failures = key ()
let cuts_generated = key ()
let cuts_applied = key ()
let cuts_pruned = key ()
let cut_audit_failures = key ()
let batch_prepares = key ()
let batch_overlays = key ()
let batch_warm_hits = key ()
let sb_probes = key ()
let pseudocost_updates = key ()
let heuristic_solutions = key ()
let heuristic_rejections = key ()

let int_keys =
  [
    pivots; dual_pivots; factorizations; eta_updates; warm_attempts;
    warm_hits; certify_checks; certify_failures; cuts_generated;
    cuts_applied; cuts_pruned; cut_audit_failures; batch_prepares;
    batch_overlays; batch_warm_hits; sb_probes; pseudocost_updates;
    heuristic_solutions; heuristic_rejections;
  ]

let incr k = incr (Domain.DLS.get k)
let add k n = Domain.DLS.get k := !(Domain.DLS.get k) + n
let read k () = !(Domain.DLS.get k)

(* Float high-water marks, same domain-local discipline as the int
   counters. Maxes (unlike sums) cannot be delta-aggregated by a pool,
   so these are read directly — diagnostics, not pool counters. *)

let fkey () = Domain.DLS.new_key (fun () -> ref 0.)

let certify_max_primal_residual = fkey ()
let certify_max_dual_gap = fkey ()

let float_keys = [ certify_max_primal_residual; certify_max_dual_gap ]

let fmax k v =
  let r = Domain.DLS.get k in
  if v > !r then r := v

let fread k () = !(Domain.DLS.get k)

(* --- per-query scopes --------------------------------------------------

   A scope samples the calling domain's counters at entry and reports
   since-entry deltas at exit, leaving the cumulative values untouched,
   so two queries never smear into each other and the process-lifetime
   telemetry survives.
   The float high-water marks cannot be delta'd (they are maxes), so a
   scope saves them, zeroes them for the query, and folds the query's
   marks back into the saved values at exit — the global high-water
   mark is preserved as the max over queries. Scopes must therefore be
   exited in LIFO order on their own domain (the service serves queries
   sequentially per domain, so this holds by construction). *)

let float_names = [ "certify-max-primal-residual"; "certify-max-dual-gap" ]

type scope = {
  sc_hooks : (string * (unit -> int)) list;
  sc_ints : int array;  (* hook readings at entry *)
  sc_floats : float array;  (* saved high-water marks, [float_keys] order *)
}

let scope_enter ?(hooks = []) () =
  let sc_ints = Array.of_list (List.map (fun (_, f) -> f ()) hooks) in
  let sc_floats =
    Array.of_list
      (List.map
         (fun k ->
           let r = Domain.DLS.get k in
           let v = !r in
           r := 0.;
           v)
         float_keys)
  in
  { sc_hooks = hooks; sc_ints; sc_floats }

type scope_report = {
  scope_counters : (string * int) list;  (* per-scope hook deltas *)
  scope_fmax : (string * float) list;  (* per-scope high-water marks *)
}

let scope_exit scope =
  let scope_counters =
    List.mapi
      (fun i (name, f) -> (name, f () - scope.sc_ints.(i)))
      scope.sc_hooks
  in
  let scope_fmax =
    List.mapi
      (fun i k ->
        let r = Domain.DLS.get k in
        let query_max = !r in
        (* restore: global mark = max of the pre-scope mark and this
           query's *)
        r := Float.max query_max scope.sc_floats.(i);
        (List.nth float_names i, query_max))
      float_keys
  in
  { scope_counters; scope_fmax }
