open Exp_common

module Report = Ba_harness.Report
module Strategy = Ba_adversary.Strategy
module Search = Ba_adversary.Search

(* ------------------------------------------------------------------ *)
(* E23 — deterministic attack search vs the fixed catalog.

   Two objective planes, mirroring the two lowering families:

   - coin bias: Pr(every honest node outputs 1) of Algorithm 1 under the
     genome's coin lowering — the quantity the paper's common-coin bound
     caps from the defender's side;
   - rounds-to-decide: mean rounds of the Las Vegas protocol under the
     genome's skeleton lowering (stalled runs count the round cap).

   Both objectives are deterministic in (genome, seed): coin trials run
   serially, rounds trials go through Experiment.monte_carlo, whose
   aggregates are domain-count independent — so Search.run's output is
   byte-identical at any --domains value. *)

(* ------------------------------------------------------------------ *)
(* Objectives                                                          *)
(* ------------------------------------------------------------------ *)

(* Mirrors the Setups derivation: the adversary stream is independent of
   the engine stream for the same trial seed. *)
let adversary_rng seed = Ba_prng.Rng.create (Ba_prng.Splitmix64.mix (Int64.lognot seed))

let coin_objective ~n ~t ~trials ~seed genome =
  let protocol = Ba_core.Common_coin.algorithm1 in
  let ok = ref 0 in
  for trial = 0 to trials - 1 do
    let s = Ba_harness.Experiment.trial_seed ~seed ~trial in
    let adversary =
      Strategy.to_coin ~rng:(adversary_rng s) genome ~designated:(fun _ -> true)
    in
    let o =
      Ba_sim.Engine.run ~max_rounds:2 ~protocol ~adversary ~n ~t
        ~inputs:(Array.make n 0) ~seed:s ()
    in
    if Ba_sim.Engine.agreement_holds o then
      match Ba_sim.Engine.honest_outputs o with
      | (_, 1) :: _ -> incr ok
      | _ -> ()
  done;
  float_of_int !ok /. float_of_int trials

let rounds_objective ?policy ~domains ~n ~t ~trials ~seed genome =
  let setup =
    Setups.make
      ~protocol:(Setups.Las_vegas { alpha = 2.0 })
      ~adversary:(Setups.Ir genome) ~n ~t
  in
  let inputs = Setups.inputs Setups.Split ~n ~t in
  (* No checker: attacks are allowed (meant!) to break things; the
     objective only measures how long honest nodes are kept undecided. *)
  let stats =
    Ba_harness.Experiment.monte_carlo ~domains ?policy ~fail_fast:false
      ~check:(fun _ -> [])
      ?rounds_per_phase:setup.Setups.rounds_per_phase ~trials ~seed
      ~run:(fun ~seed ~trial:_ -> setup.Setups.exec ~record:false ~inputs ~seed ())
      ()
  in
  Ba_stats.Summary.mean stats.Ba_harness.Experiment.rounds

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)
(* ------------------------------------------------------------------ *)

type cell_spec = {
  cs_label : string;
  cs_plane : Search.plane;
  cs_objective : string;  (* "coin-bias" | "rounds-to-decide" *)
  cs_n : int;
  cs_t : int;
}

let cells ~quick =
  if quick then
    [ { cs_label = "coin-n64"; cs_plane = Search.Coin_plane; cs_objective = "coin-bias";
        cs_n = 64; cs_t = isqrt 64 / 2 };
      { cs_label = "rounds-n24"; cs_plane = Search.Skeleton_plane;
        cs_objective = "rounds-to-decide"; cs_n = 24;
        cs_t = Ba_core.Params.max_tolerated 24 } ]
  else
    [ { cs_label = "coin-n64"; cs_plane = Search.Coin_plane; cs_objective = "coin-bias";
        cs_n = 64; cs_t = isqrt 64 / 2 };
      { cs_label = "coin-n144"; cs_plane = Search.Coin_plane; cs_objective = "coin-bias";
        cs_n = 144; cs_t = isqrt 144 / 2 };
      { cs_label = "rounds-n32"; cs_plane = Search.Skeleton_plane;
        cs_objective = "rounds-to-decide"; cs_n = 32;
        cs_t = Ba_core.Params.max_tolerated 32 } ]

let objective_trials ~quick spec =
  match spec.cs_objective with
  | "coin-bias" -> if quick then 40 else 120
  | _ -> if quick then 6 else 14

let search_budget ~quick =
  if quick then
    { Search.b_greedy_steps = 3;
      b_beam_width = 3;
      b_beam_depth = 2;
      b_anneal_iters = 30;
      b_max_evals = 200 }
  else
    { Search.b_greedy_steps = 5;
      b_beam_width = 4;
      b_beam_depth = 3;
      b_anneal_iters = 60;
      b_max_evals = 350 }

let objective_of ?policy ~domains ~quick ~seed spec =
  let trials = objective_trials ~quick spec in
  match spec.cs_objective with
  | "coin-bias" -> coin_objective ~n:spec.cs_n ~t:spec.cs_t ~trials ~seed
  | _ -> rounds_objective ?policy ~domains ~n:spec.cs_n ~t:spec.cs_t ~trials ~seed

type cell = {
  cl_spec : cell_spec;
  cl_result : Search.result;
  cl_catalog : (string * float) list;  (* every seed point's score *)
  cl_cat_name : string;  (* best catalog point *)
  cl_cat_score : float;
  cl_margin : float;  (* searched best - best catalog, search seeds *)
  cl_holdout_searched : float;  (* both re-scored on held-out trial seeds *)
  cl_holdout_catalog : float;
}

let space_of spec =
  { Search.sp_n = spec.cs_n;
    sp_t = spec.cs_t;
    sp_plane = spec.cs_plane;
    sp_max_round = 12 }

let run_cell ?policy ~domains ~quick ~seed spec =
  let space = space_of spec in
  let cell_seed = seed_for ~seed ("e23", spec.cs_label) in
  let obj = objective_of ?policy ~domains ~quick ~seed:cell_seed spec in
  let catalog = List.map (fun (nm, g) -> (nm, g, obj g)) (Search.seeds space) in
  let cat_name, cat_genome, cat_score =
    List.fold_left
      (fun (bn, bg, bs) (nm, g, s) -> if s > bs then (nm, g, s) else (bn, bg, bs))
      (match catalog with c :: _ -> c | [] -> assert false)
      catalog
  in
  let result = Search.run space ~seed:cell_seed ~budget:(search_budget ~quick) obj in
  (* Robustness margin: re-score winner and catalog champion on held-out
     trial seeds — a searched strategy must not owe its win to the search
     stream's particular draws. *)
  let holdout_seed = seed_for ~seed ("e23-holdout", spec.cs_label) in
  let holdout = objective_of ?policy ~domains ~quick ~seed:holdout_seed spec in
  { cl_spec = spec;
    cl_result = result;
    cl_catalog = List.map (fun (nm, _, s) -> (nm, s)) catalog;
    cl_cat_name = cat_name;
    cl_cat_score = cat_score;
    cl_margin = result.Search.r_score -. cat_score;
    cl_holdout_searched = holdout result.Search.r_best;
    cl_holdout_catalog = holdout cat_genome }

(* ------------------------------------------------------------------ *)
(* E23 report                                                          *)
(* ------------------------------------------------------------------ *)

let cell_metrics c =
  let l = c.cl_spec.cs_label in
  [ (mkey (l ^ "_searched"), c.cl_result.Search.r_score);
    (mkey (l ^ "_catalog_best"), c.cl_cat_score);
    (mkey (l ^ "_margin"), c.cl_margin);
    (mkey (l ^ "_holdout_margin"), c.cl_holdout_searched -. c.cl_holdout_catalog);
    (mkey (l ^ "_evals"), float_of_int c.cl_result.Search.r_evals) ]

let cell_row c =
  [ c.cl_spec.cs_label;
    string_of_int c.cl_spec.cs_n;
    string_of_int c.cl_spec.cs_t;
    c.cl_spec.cs_objective;
    Printf.sprintf "%s=%.4f" c.cl_cat_name c.cl_cat_score;
    Printf.sprintf "%.4f" c.cl_result.Search.r_score;
    Strategy.name c.cl_result.Search.r_best;
    Printf.sprintf "%+.4f" c.cl_margin;
    Printf.sprintf "%+.4f" (c.cl_holdout_searched -. c.cl_holdout_catalog);
    string_of_int c.cl_result.Search.r_evals ]

(* E23 — per (n,t) cell, greedy + beam + capped-annealing search maximizes
   either the coin bias or the rounds-to-decide, then compares the winner
   against every cataloged strategy scored by the same objective —
   including a held-out re-scoring, so the reported robustness margin is
   not an artifact of the search stream's draws. Verdict is [Pass] iff at
   least one cell's searched strategy strictly beats the best catalog
   point. *)
let e23 ~policy ~domains ~quick ~seed =
  let cs = List.map (run_cell ~policy ~domains ~quick ~seed) (cells ~quick) in
  let improved = List.filter (fun c -> c.cl_margin > 0.0) cs in
  let best_cell =
    List.fold_left (fun b c -> if c.cl_margin > b.cl_margin then c else b) (List.hd cs) cs
  in
  let series =
    [ { Report.series_name = mkey (best_cell.cl_spec.cs_label ^ "_objective_trace");
        points =
          List.map
            (fun e -> (float_of_int e.Search.te_evals, e.Search.te_score))
            best_cell.cl_result.Search.r_trace } ]
  in
  Report.make ~id:"E23" ~title:"Attack search: optimized strategy-IR points vs the fixed catalog"
    ~claim:"adaptive adversary strength"
    ~metrics:
      (("cells", float_of_int (List.length cs))
      :: ("cells_improved", float_of_int (List.length improved))
      :: ("max_margin", best_cell.cl_margin)
      :: List.concat_map cell_metrics cs)
    ~series
    ~verdict:(if improved <> [] then Report.Pass else Report.Fail)
    ~summary:
      (Printf.sprintf
         "Deterministic search over the strategy IR (greedy + beam + annealing, seed-derived \
          proposals) vs the best cataloged attack per (n,t) cell. Measured: searched strategy \
          strictly beats the catalog in %d/%d cells; max margin %+.4f on %s (%s, searched %s)."
         (List.length improved) (List.length cs) best_cell.cl_margin
         best_cell.cl_spec.cs_label best_cell.cl_spec.cs_objective
         (Strategy.name best_cell.cl_result.Search.r_best))
    ~body:
      (Ba_harness.Table.render ~title:"searched vs catalog, per (n,t) cell"
         ~headers:
           [ "cell"; "n"; "t"; "objective"; "best catalog"; "searched"; "strategy"; "margin";
             "holdout"; "evals" ]
         (List.map cell_row cs))
    ()

(* ------------------------------------------------------------------ *)
(* E23 campaign form (DESIGN.md §14): the searched rounds-cell strategy
   re-measured at campaign scale. Every shard re-runs the deterministic
   search (identical result in each — it is a pure function of the seed),
   then runs its [lo, hi) slice of trials against the searched genome; the
   merged statistics are byte-identical to a single pass. The verdict
   gates on no-regression (the searched strategy must at least match the
   best catalog point — the strict-win requirement lives in the main E23
   form, where the coin cell delivers it), with the campaign mean reported
   as the at-scale strength of the searched attack. *)

let e23_c_spec ~quick =
  List.find (fun c -> c.cs_plane = Search.Skeleton_plane) (cells ~quick)

let e23_c_search ?policy ~domains ~quick ~seed () =
  let spec = e23_c_spec ~quick in
  let space = space_of spec in
  let cell_seed = seed_for ~seed ("e23", spec.cs_label) in
  let obj = objective_of ?policy ~domains ~quick ~seed:cell_seed spec in
  (spec, Search.run space ~seed:cell_seed ~budget:(search_budget ~quick) obj)

let e23_c_trials ~quick = if quick then 200 else 2000

let e23_c_shard_size ~quick = if quick then 50 else 250

let e23_c_run ~policy ~domains ~quick ~seed ~lo ~hi =
  let spec, result = e23_c_search ~policy ~domains ~quick ~seed () in
  let setup =
    Setups.make
      ~protocol:(Setups.Las_vegas { alpha = 2.0 })
      ~adversary:(Setups.Ir result.Search.r_best) ~n:spec.cs_n ~t:spec.cs_t
  in
  let inputs = Setups.inputs Setups.Split ~n:spec.cs_n ~t:spec.cs_t in
  Ba_harness.Experiment.monte_carlo ~domains ~policy ~fail_fast:false
    ~check:(fun _ -> [])
    ?rounds_per_phase:setup.Setups.rounds_per_phase ~range:(lo, hi)
    ~trials:(e23_c_trials ~quick)
    ~seed:(seed_for ~seed ("e23-campaign", spec.cs_label))
    ~run:(fun ~seed ~trial:_ -> setup.Setups.exec ~record:false ~inputs ~seed ())
    ()

let e23_c_report ~quick ~seed ~trials (stats : Ba_harness.Experiment.stats) =
  let spec, result = e23_c_search ~domains:1 ~quick ~seed () in
  let space = space_of spec in
  let cell_seed = seed_for ~seed ("e23", spec.cs_label) in
  let obj = objective_of ~domains:1 ~quick ~seed:cell_seed spec in
  let cat_name, cat_score =
    List.fold_left
      (fun (bn, bs) (nm, g) ->
        let s = obj g in
        if s > bs then (nm, s) else (bn, bs))
      ("", Float.neg_infinity)
      (Search.seeds space)
  in
  let margin = result.Search.r_score -. cat_score in
  let campaign_mean = Ba_stats.Summary.mean stats.rounds in
  Report.make ~id:"E23"
    ~title:"Attack search: optimized strategy-IR points vs the fixed catalog (campaign)"
    ~claim:"adaptive adversary strength"
    ~metrics:
      [ ("n", float_of_int spec.cs_n); ("t", float_of_int spec.cs_t);
        ("searched", result.Search.r_score); ("catalog_best", cat_score);
        ("margin", margin); ("campaign_mean_rounds", campaign_mean);
        ("evals", float_of_int result.Search.r_evals) ]
    ~trials ~failures:stats.failures
    ~verdict:(if margin >= 0.0 then Report.Pass else Report.Fail)
    ~summary:
      (Printf.sprintf
         "Searched strategy %s on the %s cell (no-regression gate): search-time objective \
          %.4f vs best catalog %s=%.4f (margin %+.4f); campaign re-measurement over %d \
          trials: mean rounds %.4f."
         (Strategy.name result.Search.r_best)
         spec.cs_label result.Search.r_score cat_name cat_score margin trials campaign_mean)
    ~body:
      (Ba_harness.Table.render ~title:"searched strategy at campaign scale"
         ~headers:[ "cell"; "n"; "t"; "strategy"; "search obj"; "catalog best"; "margin";
                    "campaign trials"; "campaign mean rounds" ]
         [ [ spec.cs_label; string_of_int spec.cs_n; string_of_int spec.cs_t;
             Strategy.name result.Search.r_best;
             Printf.sprintf "%.4f" result.Search.r_score;
             Printf.sprintf "%s=%.4f" cat_name cat_score;
             Printf.sprintf "%+.4f" margin; string_of_int trials;
             Printf.sprintf "%.4f" campaign_mean ] ])
    ()

let e23_campaign =
  { Ba_harness.Registry.c_trials = e23_c_trials;
    c_shard_size = e23_c_shard_size;
    c_run = e23_c_run;
    c_report = e23_c_report }

let experiments =
  [ { Ba_harness.Registry.id = "E23";
      title = "Attack search: strategy IR vs fixed catalog";
      claim = "adaptive adversary strength";
      tags = [ Ba_harness.Registry.Robustness ];
      run = e23;
      campaign = Some e23_campaign } ]
