type summary = {
  samples : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max_seen : float;
  worst_scenario : Failure.Scenario.t;
}

(* One scenario: each link of [lags] (the topology's, in id order)
   fails when its probability is positive and a uniform draw falls
   below it, one draw per such link, in LAG and link order. *)
let sample_scenario rng topo lags =
  let links = ref [] in
  for e = 0 to Array.length lags - 1 do
    let lag = lags.(e) in
    let ls = lag.Wan.Lag.links in
    for i = 0 to Array.length ls - 1 do
      let p = ls.(i).Wan.Lag.fail_prob in
      if p > 0. && Random.State.float rng 1. < p then links := (lag.Wan.Lag.lag_id, i) :: !links
    done
  done;
  Failure.Scenario.of_links topo !links

(* Samples are drawn in fixed blocks of [rng_block], each from its own
   RNG seeded with [| seed; block |], so a run is bit-identical given
   the same [~seed] — the determinism contract DESIGN.md documents. *)
let rng_block = 64

let sample_degradations ?(objective = Formulation.Total_flow) ~seed ~samples topo
    paths demand =
  if samples <= 0 then invalid_arg "Monte_carlo.sample_degradations: samples <= 0";
  let eng =
    match Simulate.prepare ~objective topo paths demand with
    | Some e -> e
    | None -> invalid_arg "Monte_carlo: healthy network cannot route the demand"
  in
  let healthy = (Simulate.engine_healthy eng).Simulate.performance in
  (* draw every scenario up front, in the fixed block layout *)
  let n_blocks = (samples + rng_block - 1) / rng_block in
  let scenarios = Array.make samples Failure.Scenario.empty in
  let lags = Wan.Topology.lags topo in
  for b = 0 to n_blocks - 1 do
    let rng = Random.State.make [| seed; b |] in
    let hi = min samples ((b + 1) * rng_block) in
    for i = b * rng_block to hi - 1 do
      scenarios.(i) <- sample_scenario rng topo lags
    done
  done;
  let degradations =
    Array.map
      (Option.value ~default:healthy)
      (Simulate.degradations_prepared eng scenarios)
  in
  (degradations, scenarios)

let summarize degradations scenarios =
  let n = Array.length degradations in
  if n = 0 || Array.length scenarios <> n then invalid_arg "Monte_carlo.summarize";
  let idx = Array.init n Fun.id in
  Array.sort (fun a b -> compare degradations.(a) degradations.(b)) idx;
  (* nearest-rank percentile: the q-quantile of n sorted values is the
     ceil(q*n)-th smallest (1-based), so small samples round toward the
     lower order statistic instead of past it *)
  let at q =
    let rank = int_of_float (Float.ceil (q *. Float.of_int n)) in
    degradations.(idx.(min (n - 1) (max 0 (rank - 1))))
  in
  let worst = idx.(n - 1) in
  {
    samples = n;
    mean = Array.fold_left ( +. ) 0. degradations /. float_of_int n;
    p50 = at 0.5;
    p95 = at 0.95;
    p99 = at 0.99;
    max_seen = degradations.(worst);
    worst_scenario = scenarios.(worst);
  }

let prob_degradation_above degradations x =
  let n = Array.length degradations in
  if n = 0 then 0.
  else begin
    let count = Array.fold_left (fun acc d -> if d > x then acc + 1 else acc) 0 degradations in
    float_of_int count /. float_of_int n
  end
