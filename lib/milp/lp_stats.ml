(* The solver counters, each declared once with its name.

   Every counter is a Parallel.Counter: a per-domain cumulative int, so
   concurrent solves never race, and a pool credits the work its worker
   domains do back to the domain that submitted the sweep. Both the
   revised engine and the legacy dense tableau bump [pivots]; the
   factorization/eta/dual/warm counters are revised-engine only. *)

module C = Parallel.Counter

let pivots = C.make "simplex"
let dual_pivots = C.make "dual-pivots"
let factorizations = C.make "factorizations"
let eta_updates = C.make "eta-updates"
let warm_attempts = C.make "warm-attempts"
let warm_hits = C.make "warm-hits"
let bb_nodes = C.make "bb-nodes"
let presolve_rows = C.make "presolve-rows"
let presolve_cols = C.make "presolve-cols"
let presolve_bigm = C.make "presolve-bigm"
let presolve_ops = C.make "presolve-ops"
let certify_checks = C.make "certify-checks"
let certify_failures = C.make "certify-failures"
let cuts_generated = C.make "cuts-generated"
let cuts_applied = C.make "cuts-applied"
let cut_audit_failures = C.make "cut-audit-failures"
let batch_prepares = C.make "batch-prepares"
let batch_overlays = C.make "batch-overlays"
let batch_warm_hits = C.make "batch-warm-hits"
let sb_probes = C.make "sb-probes"
let pseudocost_updates = C.make "pseudocost-updates"
let heuristic_solutions = C.make "heuristic-solutions"
let heuristic_rejections = C.make "heuristic-rejections"
let hint_refutes = C.make "hint-refutes"
let bb_solves = C.make "bb-solves"

let incr = C.incr
let add = C.add
let read c () = C.get c

(* the registry as declared above, as (name, read) hooks *)
let counters = List.map (fun c -> (C.name c, read c)) (C.registry ())

(* --- per-query scopes --------------------------------------------------

   A scope samples the calling domain's counters at entry and reports
   since-entry deltas at exit, leaving the cumulative values untouched,
   so two queries never smear into each other and the process-lifetime
   telemetry survives. Pool work done on worker domains is credited to
   the submitting domain, so a scope sees all the work of a call at any
   domain count. A scope is only its entry readings, so scopes may nest
   or overlap freely on their own domain. *)

type scope = {
  sc_hooks : (string * (unit -> int)) list;
  sc_ints : int array;  (* hook readings at entry *)
}

let scope_enter ?(hooks = counters) () =
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
