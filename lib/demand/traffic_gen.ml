type series = { base : Demand.t; samples : Demand.t array }

let generate ~seed ~days ~samples_per_day ~pairs ~mean_volume topo () =
  ignore topo;
  if days <= 0 || samples_per_day <= 0 then invalid_arg "Traffic_gen.generate";
  let rng = Random.State.make [| seed |] in
  let n_samples = days * samples_per_day in
  (* Per-pair mean level: log-normal around [mean_volume]; per-pair phase
     so peaks are not synchronized. *)
  let pair_params =
    List.map
      (fun p ->
        let level = mean_volume *. Float.exp (Random.State.float rng 1.2 -. 0.6) in
        let phase = Random.State.float rng (2. *. Float.pi) in
        let amplitude = 0.2 +. Random.State.float rng 0.3 in
        (p, level, phase, amplitude))
      pairs
  in
  let base =
    Demand.of_list (List.map (fun (p, level, _, _) -> (p, level)) pair_params)
  in
  let gauss () =
    (* Box-Muller *)
    let u1 = Float.max 1e-12 (Random.State.float rng 1.) in
    let u2 = Random.State.float rng 1. in
    Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)
  in
  let samples =
    Array.init n_samples (fun t ->
        let tod = float_of_int (t mod samples_per_day) /. float_of_int samples_per_day in
        Demand.of_list
          (List.map
             (fun (p, level, phase, amplitude) ->
               let diurnal = 1. +. (amplitude *. Float.sin ((2. *. Float.pi *. tod) +. phase)) in
               let noise = Float.exp (0.15 *. gauss ()) in
               (p, Float.max 0. (level *. diurnal *. noise)))
             pair_params))
  in
  { base; samples }

let maximum s =
  Array.fold_left Demand.union_max
    (Demand.map (fun ~src:_ ~dst:_ _ -> 0.) s.base)
    s.samples
