(* Message-agnostic constructors: the benign baseline, the static crash
   catalog point (Strategy.to_generic hosts its logic) and the budget cap. *)

let silent = Ba_sim.Adversary.silent

let static_crash ~rng = Strategy.to_generic ~name:"static-crash" ~rng Strategy.static_crash_point

let capped ~limit adv =
  if limit < 0 then invalid_arg "Generic.capped: limit < 0";
  let used = ref 0 in
  { Ba_sim.Adversary.adv_name = Printf.sprintf "%s-capped-%d" adv.Ba_sim.Adversary.adv_name limit;
    act =
      (fun view ->
        let budget_left = min view.Ba_sim.Adversary.budget_left (limit - !used) in
        let action = adv.Ba_sim.Adversary.act { view with budget_left } in
        let rec take k = function
          | [] -> []
          | v :: rest -> if k <= 0 then [] else v :: take (k - 1) rest
        in
        let corrupt = take budget_left action.Ba_sim.Adversary.corrupt in
        used := !used + List.length corrupt;
        { action with corrupt }) }
