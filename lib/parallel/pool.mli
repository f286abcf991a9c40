(** Fork-join parallel map over OCaml 5 domains.

    The block solves of one [Raha.Cluster] wave, and the cells of a
    benchmark grid, are a few independent, heavy MILP solves over a
    shared, immutable topology. [map] runs one such sweep across
    short-lived domains spawned for the call.

    Contract:
    - results are position-stable: [map ~domains f a] returns exactly
      [Array.map f a] (each element evaluated once, order preserved), so
      a sweep is bit-identical no matter how many domains execute it;
    - [f] must not mutate shared state — all solver state in this
      repository is per-call, and the process-global counters are
      domain-local {!Counter}s;
    - counters follow the work: each worker domain starts with every
      {!Counter} at zero and hands back its final values, which the
      caller credits to its own counters, exactly once, before [map]
      returns — reading a counter there after a sweep gives the same
      value at any domain count;
    - [~domains:1], an array of at most one element, or a call from
      inside a [map] task runs [Array.map f a] inline on the calling
      domain. Nested sweeps thereby compose without oversubscribing the
      machine: a benchmark cell run by [map] may itself run a clustered
      analysis, whose waves then take the exact sequential path. *)

(** [map ~domains f a] is [Array.map f a], evaluated by the caller and
    [min domains (Array.length a) - 1] worker domains that claim items
    one at a time. The first exception raised by [f] is re-raised (with
    its backtrace) once every worker has been joined; items not yet
    claimed by then are skipped.
    @raise Invalid_argument if [domains < 1]. *)
val map : domains:int -> ('a -> 'b) -> 'a array -> 'b array
