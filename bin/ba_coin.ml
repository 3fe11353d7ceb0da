(* ba_coin: Monte-Carlo the common-coin protocols (Algorithms 1 and 2).

   Examples:
     ba_coin -n 1024                      # all nodes flip, sqrt(n)/2 Byzantine
     ba_coin -n 4096 -k 256               # 256 designated flippers
     ba_coin -n 1024 -b 40 --trials 1e5   # explicit Byzantine budget *)

open Cmdliner

let n_arg = Arg.(value & opt int 1024 & info [ "n" ] ~docv:"N" ~doc:"Network size.")

let k_arg =
  Arg.(value & opt (some int) None
       & info [ "k" ] ~docv:"K" ~doc:"Designated flippers (default: all n nodes).")

let b_arg =
  Arg.(value & opt (some int) None
       & info [ "b"; "byzantine" ] ~docv:"B"
           ~doc:"Byzantine flippers (default: floor(sqrt(k)/2), the Theorem 3 limit).")

let trials_arg =
  Arg.(value & opt int 100000 & info [ "trials" ] ~docv:"TRIALS" ~doc:"Monte-Carlo trials.")

let seed_arg = Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let engine_arg =
  Arg.(value & opt int 0
       & info [ "engine-trials" ] ~docv:"TRIALS"
           ~doc:"Also run the full message-passing engine against the rushing splitter this \
                 many times (slower; n <= 1024 recommended).")

let run n k b trials seed engine_trials =
  let k = Option.value k ~default:n in
  if k > n || k <= 0 then begin
    Format.eprintf "error: need 0 < k <= n@.";
    1
  end
  else begin
    let budget = Option.value b ~default:(int_of_float (sqrt (float_of_int k)) / 2) in
    let flippers = k in
    let rng = Ba_prng.Rng.create seed in
    let p, p1 = Ba_core.Common_coin.success_probability rng ~flippers ~budget ~trials in
    let ci =
      Ba_stats.Ci.wilson95 ~successes:(int_of_float (p *. float_of_int trials)) ~trials
    in
    Format.printf "designated=%d adaptive-byzantine-budget=%d trials=%d@." k budget trials;
    Format.printf "Pr(Comm)      = %.4f  95%% CI %a@." p Ba_stats.Ci.pp ci;
    Format.printf "Pr(1 | Comm)  = %.4f@." p1;
    Format.printf "paper bound   = %.4f (Theorem 3: one-sided 1/12, two-sided 1/6)@."
      (2. *. Ba_core.Common_coin.paley_zygmund_bound);
    if engine_trials > 0 then begin
      let designated v = v < k in
      let protocol = Ba_core.Common_coin.algorithm2 ~designated in
      let adversary =
        Ba_adversary.Strategy.(to_coin ~name:"coin-splitter" coin_splitter_point) ~designated
      in
      let common = ref 0 in
      for trial = 0 to engine_trials - 1 do
        let s = Ba_prng.Splitmix64.mix (Int64.add seed (Int64.of_int (trial + 7919))) in
        let o =
          Ba_sim.Engine.run ~max_rounds:2 ~protocol ~adversary ~n ~t:budget
            ~inputs:(Array.make n 0) ~seed:s ()
        in
        if Ba_sim.Engine.agreement_holds o then incr common
      done;
      let pe = float_of_int !common /. float_of_int engine_trials in
      let cie = Ba_stats.Ci.wilson95 ~successes:!common ~trials:engine_trials in
      Format.printf "engine check  = %.4f  95%% CI %a  (%d trials, rushing splitter)@." pe
        Ba_stats.Ci.pp cie engine_trials
    end;
    if ci.Ba_stats.Ci.lo >= 2. *. Ba_core.Common_coin.paley_zygmund_bound then 0 else 2
  end

let cmd =
  let doc = "Monte-Carlo the paper's common-coin protocols" in
  Cmd.v (Cmd.info "ba_coin" ~doc)
    Term.(const run $ n_arg $ k_arg $ b_arg $ trials_arg $ seed_arg $ engine_arg)

let () = exit (Cmd.eval' cmd)
