(* Fixed-size Domain pool with chunked work-stealing over arrays.

   A sweep is posted as a [job]: an item count plus a [run] closure for
   one item. Executors (the workers and the submitting domain) claim
   chunks of indices from an atomic cursor until none remain, so a slow
   chunk never blocks the others (work-stealing at chunk granularity).
   Chunk boundaries affect scheduling only — [run] is called once per
   index either way — so results never depend on the domain count.

   A worker snapshots the {!Counter} registry around each chunk it runs
   and hands the deltas to the job; the submitter credits them to its
   own counters at the barrier. Chunks the submitter runs itself need no
   samples: their work already lands on its counters.

   The pool mutex guards job hand-off and the stats record; the hot path
   (claiming a chunk) is a single fetch-and-add. *)

type job = {
  n : int;
  chunk : int;
  nchunks : int;
  next : int Atomic.t; (* next chunk to claim *)
  mutable completed : int; (* chunks retired; guarded by the pool mutex *)
  mutable credit : int array list; (* worker-chunk counter deltas; ditto *)
  run : int -> unit; (* one item *)
  error : (exn * Printexc.raw_backtrace) option Atomic.t;
}

type stats = { domains : int; tasks : int; items : int; busy : float; wall : float }

type t = {
  domains : int;
  mutex : Mutex.t;
  work : Condition.t; (* a job was posted or the pool is shutting down *)
  finished : Condition.t; (* the current job retired its last chunk *)
  mutable job : job option;
  mutable generation : int;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  (* stats, guarded by [mutex] *)
  mutable s_tasks : int;
  mutable s_items : int;
  mutable s_busy : float;
  mutable s_wall : float;
}

(* True while this domain is executing a pool task. Mapping functions
   called then run their items as an inline *sequential sub-scope*
   instead of fanning out again, and a pool created then gets no
   workers: a nested parallel sweep would oversubscribe the machine and
   can deadlock on the same pool, while a sequential one composes — a
   scenario sweep may call the parallel branch-and-bound and vice
   versa, and both degrade to the exact sequential path at the inner
   level. *)
let in_task = Domain.DLS.new_key (fun () -> false)

let inside_task () = Domain.DLS.get in_task

let as_task f =
  let was = Domain.DLS.get in_task in
  Domain.DLS.set in_task true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_task was) f

(* Run [f], covering [items] items, on the calling domain as one task
   recorded with its busy and wall time. *)
let timed t ~items f =
  let t0 = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let elapsed = Unix.gettimeofday () -. t0 in
      Mutex.lock t.mutex;
      t.s_tasks <- t.s_tasks + 1;
      t.s_items <- t.s_items + items;
      t.s_busy <- t.s_busy +. elapsed;
      t.s_wall <- t.s_wall +. elapsed;
      Mutex.unlock t.mutex)

(* Claim and execute chunks of [job] until the cursor is exhausted;
   [sample] (worker domains) meters each chunk's counter deltas. Safe to
   call on an already-drained job (the worker loop may race a stale
   generation): it returns immediately without touching [completed]. *)
let exec_chunks t job ~sample =
  let rec loop () =
    let c = Atomic.fetch_and_add job.next 1 in
    if c < job.nchunks then begin
      let lo = c * job.chunk in
      let hi = min job.n (lo + job.chunk) in
      let t0 = Unix.gettimeofday () in
      let before = if sample then Counter.snapshot () else [||] in
      (* after a failure, remaining chunks are claimed but skipped *)
      if Atomic.get job.error = None then
        as_task (fun () ->
            try
              for i = lo to hi - 1 do
                job.run i
              done
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set job.error None (Some (e, bt))));
      let elapsed = Unix.gettimeofday () -. t0 in
      let credit = if sample then [ Array.map2 ( - ) (Counter.snapshot ()) before ] else [] in
      Mutex.lock t.mutex;
      t.s_tasks <- t.s_tasks + 1;
      t.s_items <- t.s_items + (hi - lo);
      t.s_busy <- t.s_busy +. elapsed;
      job.credit <- credit @ job.credit;
      job.completed <- job.completed + 1;
      if job.completed = job.nchunks then Condition.broadcast t.finished;
      Mutex.unlock t.mutex;
      loop ()
    end
  in
  loop ()

let worker t =
  let rec loop gen =
    Mutex.lock t.mutex;
    while t.generation = gen && not t.stopping do
      Condition.wait t.work t.mutex
    done;
    if t.stopping then Mutex.unlock t.mutex
    else begin
      let gen' = t.generation in
      let job = t.job in
      Mutex.unlock t.mutex;
      (match job with Some j -> exec_chunks t j ~sample:true | None -> ());
      loop gen'
    end
  in
  loop 0

let create ~domains () =
  if domains < 1 then invalid_arg "Parallel.Pool.create: domains < 1";
  let domains = if inside_task () then 1 else domains in
  let t =
    {
      domains;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      job = None;
      generation = 0;
      stopping = false;
      workers = [];
      s_tasks = 0;
      s_items = 0;
      s_busy = 0.;
      s_wall = 0.;
    }
  in
  t.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let domains t = t.domains

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers

let with_pool ~domains f =
  let t = create ~domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run [run] over [0, n): inline when the pool has no workers (the exact
   sequential path), otherwise fanned out over the pool. *)
let run_items t n run =
  let inline () =
    for i = 0 to n - 1 do
      run i
    done
  in
  if n = 0 then ()
  else if t.workers = [] then timed t ~items:n inline
  else if Domain.DLS.get in_task then
    (* Nested sub-scope: this domain is already executing a pool task
       (of this pool or another), so fanning out would oversubscribe or
       deadlock. Run the items inline instead — the enclosing chunk's
       busy time and counter deltas already cover this work, so nothing
       is recorded here and the nesting is invisible in the stats. *)
    inline ()
  else begin
    let t0 = Unix.gettimeofday () in
    (* ~4 chunks per domain: coarse enough to amortize claiming, fine
       enough that uneven solve times still balance *)
    let chunk = max 1 ((n + (4 * t.domains) - 1) / (4 * t.domains)) in
    let job =
      {
        n;
        chunk;
        nchunks = (n + chunk - 1) / chunk;
        next = Atomic.make 0;
        completed = 0;
        credit = [];
        run;
        error = Atomic.make None;
      }
    in
    Mutex.lock t.mutex;
    t.job <- Some job;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    exec_chunks t job ~sample:false;
    Mutex.lock t.mutex;
    while job.completed < job.nchunks do
      Condition.wait t.finished t.mutex
    done;
    t.job <- None;
    t.s_wall <- t.s_wall +. (Unix.gettimeofday () -. t0);
    Mutex.unlock t.mutex;
    List.iter Counter.credit job.credit;
    match Atomic.get job.error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let iter_array t f a = run_items t (Array.length a) (fun i -> f a.(i))

let mapi_array t f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    (* element 0 runs on the submitter to seed the result array with the
       right runtime representation (flat float arrays included). It is
       one more task of the sweep, nested like the chunks behind it: a
       task of a parallel pool, so a nested map from inside it stays
       inline, and recorded nowhere inside an enclosing task. *)
    let r0 =
      if t.workers = [] then timed t ~items:1 (fun () -> f 0 a.(0))
      else if Domain.DLS.get in_task then f 0 a.(0)
      else timed t ~items:1 (fun () -> as_task (fun () -> f 0 a.(0)))
    in
    let out = Array.make n r0 in
    run_items t (n - 1) (fun i -> out.(i + 1) <- f (i + 1) a.(i + 1));
    out
  end

let map_array t f a = mapi_array t (fun _ x -> f x) a

let stats t =
  Mutex.lock t.mutex;
  let s =
    { domains = t.domains; tasks = t.s_tasks; items = t.s_items; busy = t.s_busy; wall = t.s_wall }
  in
  Mutex.unlock t.mutex;
  s

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "[parallel: %d domains, %d tasks/%d items, busy %.2fs, wall %.2fs]"
    s.domains s.tasks s.items s.busy s.wall
