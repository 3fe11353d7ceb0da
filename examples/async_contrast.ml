(* Asynchronous contrast (paper Section 1.3): the same adversary model
   without synchrony. Runs classic async Ben-Or and Bracha's reliable
   broadcast under adversarial scheduling.

     dune exec examples/async_contrast.exe *)

open Ba_async

let () =
  (* 1. Async Ben-Or under three schedulers. *)
  let n = 16 in
  let t = (n - 1) / 5 in
  Printf.printf "async Ben-Or, n=%d, t=%d (< n/5), split inputs:\n" n t;
  let protocol = Ben_or_async.make ~n ~t in
  let inputs = Array.init n (fun i -> i mod 2) in
  List.iter
    (fun (label, adversary) ->
      let agg = Ba_stats.Summary.create () in
      let clean = ref 0 in
      for s = 1 to 10 do
        let o =
          Async_engine.run ~protocol ~adversary ~n ~t ~inputs ~seed:(Int64.of_int s) ()
        in
        if o.completed && Ba_sim.Run.agreement_holds (Async_engine.to_run o) then incr clean;
        Ba_stats.Summary.add_int agg o.deliveries
      done;
      Printf.printf "  %-18s %d/10 agreed, mean %.0f message deliveries\n" label !clean
        (Ba_stats.Summary.mean agg))
    [ ("fifo", Async_engine.fifo);
      ("random scheduler", Async_adv.random_scheduler ~rng:(Ba_prng.Rng.create 1L));
      ( "byzantine splitter",
        Async_adv.of_strategy_ben_or ~rng:(Ba_prng.Rng.create 2L)
          Ba_adversary.Strategy.async_splitter_point ) ];

  (* 2. Bracha reliable broadcast with an equivocating broadcaster. *)
  print_newline ();
  let n = 10 and t = 3 in
  Printf.printf "Bracha RBC, n=%d, t=%d (< n/3), broadcaster equivocates 0/1 by parity:\n" n t;
  let injected = ref false in
  let equivocator =
    Async_engine.opaque ~name:"equivocating-broadcaster"
        (fun view ->
          let corrupt = if view.Async_engine.step = 1 then [ 0 ] else [] in
          let inject =
            if not !injected then begin
              injected := true;
              List.init view.n (fun dst -> (0, dst, Bracha_rbc.Init (dst mod 2)))
            end
            else []
          in
          { Async_engine.deliver = None; corrupt; inject })
  in
  injected := false;
  let o =
    Async_engine.run ~protocol:(Bracha_rbc.make ~broadcaster:0) ~adversary:equivocator ~n ~t
      ~inputs:(Array.make n 0) ~seed:5L ()
  in
  let delivered =
    Array.to_list o.outputs |> List.filter_map Fun.id |> List.sort_uniq compare
  in
  Printf.printf "  completed=%b, distinct delivered values: [%s] (consistency: at most one)\n"
    o.completed
    (String.concat "; " (List.map string_of_int delivered));
  assert (List.length delivered <= 1)
