(* The pure schedulers declare their rule as an engine policy: the engine
   derives the reference [act] from it (so promise and behavior cannot
   drift) and its scheduler loop picks for them straight from the slab,
   with exact draw replay.

   Each scheduling bias is one [Strategy.async_bias] point of the
   adversary-strategy IR (DESIGN.md §16); [of_strategy] /
   [of_strategy_ben_or] are the lowering. *)

module Strategy = Ba_adversary.Strategy

let first_step_corruptions ~rng view =
  if view.Async_engine.step = 1 then begin
    let honest =
      List.filter
        (fun v -> not view.Async_engine.corrupted.(v))
        (List.init view.Async_engine.n Fun.id)
    in
    let arr = Array.of_list honest in
    Ba_prng.Rng.shuffle rng arr;
    Array.to_list (Array.sub arr 0 (min view.budget_left (Array.length arr)))
  end
  else []

let balancer_policy ~rng =
  (* Score each pending message: strongly prefer delivering R-votes for
     the receiver's current-round *minority* value, and withhold majority
     votes, so no node assembles a supermajority. Other messages are
     neutral. Lower score = deliver sooner; among the minimum-score
     messages the engine picks uniformly (the [Scored] policy). *)
  let sc_score ~states ~src:_ ~dst ~msg =
    match states.(dst) with
    | None -> 0
    | Some st -> (
        match Ben_or_async.classify msg with
        | `R (r, v)
          when r = Ben_or_async.round_reached st && not (Ben_or_async.waiting_for_p st)
          -> (
            let z, o = Ben_or_async.r_tally st ~round:r in
            let minority = if z <= o then 0 else 1 in
            if v = minority then -1 else 1)
        | `R _ | `P _ | `D _ -> 0)
  in
  Async_engine.Scored { sc_rng = rng; sc_score }

let splitter_act ~rng ~parity view =
  let corrupt = first_step_corruptions ~rng view in
  let deliver =
    match view.Async_engine.pending with
    | [] -> None
    | ps -> Some (Ba_prng.Rng.choose rng (Array.of_list ps)).Async_engine.id
  in
  let corrupted_now =
    corrupt
    @ List.filteri (fun v _ -> view.Async_engine.corrupted.(v))
        (List.init view.Async_engine.n Fun.id)
  in
  let inject =
    match corrupted_now with
    | [] -> []
    | srcs ->
        let src = Ba_prng.Rng.choose rng (Array.of_list srcs) in
        let dst = Ba_prng.Rng.int rng view.Async_engine.n in
        (* Target the receiver's current round with a split vote. *)
        let round =
          match view.Async_engine.states.(dst) with
          | Some st -> Ben_or_async.round_reached st
          | None -> 1
        in
        let v = (dst + parity) mod 2 in
        let m =
          if Ba_prng.Rng.bool rng then Ben_or_async.mk_r ~round ~v
          else Ben_or_async.mk_p ~round ~v
        in
        [ (src, dst, m) ]
  in
  { Async_engine.deliver; corrupt; inject }

let bias_name = function
  | Strategy.Ab_fifo -> "fifo"
  | Strategy.Ab_uniform -> "random-scheduler"
  | Strategy.Ab_avoid _ -> "delayer"
  | Strategy.Ab_balance -> "ben-or-balancer"
  | Strategy.Ab_split _ -> "ben-or-splitter"

let need_rng = function
  | Some rng -> rng
  | None -> invalid_arg "Async_adv.of_strategy: this scheduling bias draws randomness; pass ~rng"

let of_strategy ?name ?rng genome =
  let nm = Option.value name ~default:(bias_name genome.Strategy.g_async) in
  match genome.Strategy.g_async with
  | Strategy.Ab_fifo -> { Async_engine.fifo with adv_name = nm }
  | Strategy.Ab_uniform ->
      Async_engine.scheduler ~name:nm (Async_engine.Uniform_pick (need_rng rng))
  | Strategy.Ab_avoid victims -> Async_engine.scheduler ~name:nm (Async_engine.Avoid_srcs victims)
  | Strategy.Ab_balance | Strategy.Ab_split _ ->
      invalid_arg
        (Printf.sprintf
           "Async_adv.of_strategy: bias %s speaks Ben-Or messages; use of_strategy_ben_or" nm)

let of_strategy_ben_or ?name ?rng genome =
  let nm = Option.value name ~default:(bias_name genome.Strategy.g_async) in
  match genome.Strategy.g_async with
  | Strategy.Ab_fifo | Strategy.Ab_uniform | Strategy.Ab_avoid _ ->
      of_strategy ~name:nm ?rng genome
  | Strategy.Ab_balance -> Async_engine.scheduler ~name:nm (balancer_policy ~rng:(need_rng rng))
  | Strategy.Ab_split { parity } ->
      Async_engine.opaque ~name:nm (splitter_act ~rng:(need_rng rng) ~parity)

let random_scheduler ~rng = of_strategy ~rng Strategy.async_uniform_point

let byz_flooder ~rng ~forge =
  Async_engine.opaque ~name:"byz-flooder"
      (fun view ->
        let corrupt = first_step_corruptions ~rng view in
        let deliver =
          match view.Async_engine.pending with
          | [] -> None
          | ps -> Some (Ba_prng.Rng.choose rng (Array.of_list ps)).Async_engine.id
        in
        let corrupted_now =
          corrupt
          @ List.filteri (fun v _ -> view.Async_engine.corrupted.(v))
              (List.init view.Async_engine.n Fun.id)
        in
        let inject =
          match corrupted_now with
          | [] -> []
          | srcs ->
              let src = Ba_prng.Rng.choose rng (Array.of_list srcs) in
              let dst = Ba_prng.Rng.int rng view.Async_engine.n in
              [ (src, dst, forge ~rng ~step:view.Async_engine.step ~dst) ]
        in
        { Async_engine.deliver; corrupt; inject })
