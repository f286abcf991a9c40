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
let bb_nodes = key ()
let bb_rounds = key ()

let incr k = incr (Domain.DLS.get k)
let add k n = Domain.DLS.get k := !(Domain.DLS.get k) + n
let read k () = !(Domain.DLS.get k)

(* --- per-query scopes --------------------------------------------------

   A scope samples the calling domain's counters at entry and reports
   since-entry deltas at exit, leaving the cumulative values untouched,
   so two queries never smear into each other and the process-lifetime
   telemetry survives. A scope is only its entry readings, so scopes
   may nest or overlap freely on their own domain. *)

type scope = {
  sc_hooks : (string * (unit -> int)) list;
  sc_ints : int array;  (* hook readings at entry *)
}

let scope_enter ?(hooks = []) () =
  { sc_hooks = hooks; sc_ints = Array.of_list (List.map (fun (_, f) -> f ()) hooks) }

type scope_report = {
  scope_counters : (string * int) list;  (* per-scope hook deltas *)
}

let scope_exit scope =
  {
    scope_counters =
      List.mapi
        (fun i (name, f) -> (name, f () - scope.sc_ints.(i)))
        scope.sc_hooks;
  }
