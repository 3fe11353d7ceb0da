(* Attack timeline: watch the strongest adaptive attacks unfold, node by
   node and round by round.

     dune exec examples/attack_timeline.exe *)

let show ~title ~adversary_of ~inputs ~n ~t ~seed =
  let inst = Ba_core.Agreement.make ~n ~t () in
  let o =
    Ba_sim.Engine.run ~record:true ~max_rounds:400 ~protocol:inst.protocol
      ~adversary:(adversary_of inst) ~n ~t ~inputs ~seed ()
  in
  Printf.printf "---- %s ----\n" title;
  print_string (Ba_trace.Timeline.render ~max_rounds:72 o);
  Format.printf "%a@.@." Ba_trace.Export.pp_outcome o

let designated inst ~phase v = Ba_core.Agreement.is_flipper inst ~phase v

let () =
  let n = 32 in
  let t = Ba_core.Params.max_tolerated n in
  let split = Array.init n (fun i -> i mod 2) in

  (* 1. The committee-killer: corruption stripes descending through the
     committees until the budget dies, then collapse into agreement. *)
  show ~title:"committee-killer (Byzantine: corrupt + equivocate)"
    ~adversary_of:(fun inst ->
      Ba_adversary.Skeleton_adv.committee_killer ~config:inst.Ba_core.Agreement.config
        ~designated:(designated inst))
    ~inputs:split ~n ~t ~seed:7L;

  (* 2. Crash-only variant (the Bar-Joseph-Ben-Or fault model): the same
     plan without equivocation dies far sooner. *)
  show ~title:"crash-committee-killer (mid-round crashes only)"
    ~adversary_of:(fun inst ->
      Ba_adversary.Strategy.(
        to_skeleton ~name:"crash-committee-killer" crash_committee_killer_point)
        ~config:inst.Ba_core.Agreement.config ~designated:(designated inst))
    ~inputs:split ~n ~t ~seed:7L;

  (* 3. The lone-finisher: one node (id 3) gets pushed over the finish
     threshold early (watch for the early 'A'/'B' in row 3) while the rest
     must converge through the Lemma 4 window. *)
  show ~title:"lone-finisher targeting node 3 (near-threshold inputs)"
    ~adversary_of:(fun inst ->
      Ba_adversary.Strategy.to_skeleton ~name:"lone-finisher-3" ~rng:(Ba_prng.Rng.create 21L)
        (Ba_adversary.Strategy.lone_finisher_point ~target:3)
        ~config:inst.Ba_core.Agreement.config
        ~designated:(fun ~phase:_ _ -> false))
    ~inputs:(Ba_experiments.Setups.inputs Ba_experiments.Setups.Near_threshold ~n ~t) ~n ~t
    ~seed:22L
