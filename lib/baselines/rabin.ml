open Ba_core

type t = {
  protocol : (Skeleton.state, Skeleton.msg) Ba_sim.Protocol.t;
  config : Skeleton.config;
  n : int;
  t : int;
}

let make ?(gamma = 4.0) ?(cycle = false) ~n ~t ~dealer_seed () =
  if t < 0 then invalid_arg "Rabin.make: t < 0";
  if n < (3 * t) + 1 then invalid_arg "Rabin.make: need n >= 3t + 1";
  let dealer_rng = Ba_prng.Rng.create dealer_seed in
  let memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let lock = Mutex.create () in
  let dealer phase =
    (* The dealer closure is shared by every node of the instance; the
       mutex keeps the memo coherent if an instance is ever stepped from
       more than one domain. Draw order stays deterministic: all nodes of
       a round ask for the same phase, so each phase is drawn exactly
       once, and first uses are phase-ascending across rounds. *)
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt memo phase with
        | Some b -> b
        | None ->
            (* Phases are visited in order by all nodes, so drawing on first
               use keeps the stream independent of the adversary's choices. *)
            let b = if Ba_prng.Rng.bool dealer_rng then 1 else 0 in
            Hashtbl.add memo phase b;
            b)
  in
  let phases = max 2 (int_of_float (ceil (gamma *. Params.log2n n))) in
  let config =
    { Skeleton.cfg_name = "rabin-dealer";
      cfg_phases = phases;
      cfg_coin = Skeleton.Dealer dealer;
      cfg_cycle = cycle;
      cfg_coin_round = `Piggyback;
      cfg_termination = `Extra_phase }
  in
  { protocol = Skeleton.make config; config; n; t }

let round_bound inst =
  Skeleton.rounds_per_phase inst.config * (inst.config.Skeleton.cfg_phases + 2)
