(** Fixed-size [Domain] worker pool for coarse-grained parallelism.

    The block solves of one [Raha.Cluster] wave, and the cells of a
    benchmark grid, are independent MILP solves over a shared, immutable
    topology. This pool runs such sweeps across OCaml 5 domains with
    chunked work-stealing over arrays.

    Contract:
    - results are position-stable: [map_array pool f a] returns exactly
      [Array.map f a] (each element evaluated once, order preserved), so
      a sweep is bit-identical no matter how many domains execute it;
    - [f] must not mutate shared state — all solver state in this
      repository is per-call, and the process-global counters are
      domain-local {!Counter}s;
    - counters follow the work: the {!Counter} deltas of every chunk a
      worker domain runs are credited, exactly once, to the submitting
      domain when the sweep returns, so reading a counter there after a
      sweep gives the same value at any domain count;
    - a pool created with [~domains:1] spawns no worker domains and runs
      everything inline on the caller — the exact old sequential path.

    Nested parallelism degrades to a sequential sub-scope: calling a
    mapping function of a pool that has workers from inside a pool task
    (of the same pool or another) runs the items inline on the calling
    domain instead of fanning out again, and a pool created inside a
    task gets one domain — fanning out would oversubscribe the machine,
    and re-entering the same pool could deadlock. Both nesting
    directions compose this way: a benchmark cell run on a pool may
    itself run a clustered analysis, whose waves then take the exact
    sequential path, so results are unchanged. Nested work is accounted
    to the enclosing chunk's busy time and counter deltas, not recorded
    as separate tasks. Sequential pools ([~domains:1]) record their own
    stats and may be used anywhere. *)

type t

(** Aggregated execution statistics for one pool. *)
type stats = {
  domains : int;
  tasks : int;  (** chunks executed (one per sequential call) *)
  items : int;  (** array elements processed *)
  busy : float;  (** summed wall-clock seconds inside chunks, all domains *)
  wall : float;  (** wall-clock seconds the submitter spent in sweeps *)
}

(** [map_array pool f a] is [Array.map f a], evaluated in parallel.
    The first exception raised by [f] is re-raised (with its backtrace)
    after outstanding chunks are cancelled. *)
val map_array : t -> ('a -> 'b) -> 'a array -> 'b array

(** [inside_task ()] is [true] while the calling domain is executing a
    pool task (any pool). *)
val inside_task : unit -> bool

val stats : t -> stats

(** One-line rendering, e.g.
    ["[parallel: 4 domains, 16 tasks/2000 items, busy 3.10s, wall 0.90s]"]. *)
val pp_stats : Format.formatter -> stats -> unit

(** [with_pool ~domains f] runs [f] on a fresh pool of [domains - 1]
    worker domains and shuts it down, also on exception. The submitting
    domain participates in every sweep, so [domains] is the total
    parallelism. Inside a pool task the pool gets one domain.
    @raise Invalid_argument if [domains < 1]. *)
val with_pool : domains:int -> (t -> 'a) -> 'a
