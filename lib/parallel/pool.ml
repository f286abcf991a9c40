(* Fork-join map: the caller and [min domains n - 1] fresh domains claim
   items from one atomic cursor. A fresh domain's counters start at
   zero, so its final snapshot is exactly its share of the work. *)

(* true while this domain runs items of a [map]: a nested map then runs
   inline instead of fanning out again *)
let in_task = Domain.DLS.new_key (fun () -> false)

let map ~domains f a =
  if domains < 1 then invalid_arg "Parallel.Pool.map: domains < 1";
  let n = Array.length a in
  if domains = 1 || n <= 1 || Domain.DLS.get in_task then Array.map f a
  else begin
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let error = Atomic.make None in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && Atomic.get error = None then begin
        (match f a.(i) with
        | y -> out.(i) <- Some y
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set error None (Some (e, bt))));
        work ()
      end
    in
    let task () =
      Domain.DLS.set in_task true;
      work ();
      Domain.DLS.set in_task false
    in
    let workers =
      List.init (min domains n - 1) (fun _ ->
          Domain.spawn (fun () ->
              task ();
              Counter.snapshot ()))
    in
    task ();
    List.iter (fun w -> Counter.credit (Domain.join w)) workers;
    match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.map Option.get out
  end
