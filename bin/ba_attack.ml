(* ba_attack: deterministic attack search over the adversary-strategy IR
   (DESIGN.md §16) — the CLI face of Ba_adversary.Search + E23's objectives.

   Examples:
     ba_attack                                  # coin plane, n=64, smoke budget
     ba_attack --plane skeleton --n 24 --t 7    # maximize Las Vegas rounds
     ba_attack --n 8 --budget smoke --json out.json
     ba_attack --plane skeleton --budget full --domains 4

   The search result is a pure function of (plane, n, t, seed): identical
   at any --domains value, because trial fan-out lives inside the objective
   (Ba_harness.Experiment.monte_carlo), whose aggregates are domain-count
   independent. *)

open Cmdliner
module Strategy = Ba_adversary.Strategy
module Search = Ba_adversary.Search
module Json = Ba_harness.Json

let plane_arg =
  Arg.(value & opt (enum [ ("coin", Search.Coin_plane); ("skeleton", Search.Skeleton_plane) ])
         Search.Coin_plane
       & info [ "plane" ] ~docv:"PLANE"
           ~doc:"Objective plane: $(b,coin) (bias of Algorithm 1) or $(b,skeleton) \
                 (rounds-to-decide of the Las Vegas protocol).")

let n_arg = Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"Network size.")

let t_arg =
  Arg.(value & opt (some int) None
       & info [ "t" ] ~docv:"T"
           ~doc:"Corruption budget (default: floor(sqrt(n)/2) on the coin plane, \
                 ceil(n/3)-1 on the skeleton plane).")

let seed_arg = Arg.(value & opt int64 2026L & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let trials_arg =
  Arg.(value & opt (some int) None
       & info [ "trials" ] ~docv:"TRIALS"
           ~doc:"Objective trials per genome evaluation (default: 40 coin / 6 skeleton).")

let budget_arg =
  Arg.(value & opt (enum [ ("smoke", `Smoke); ("full", `Full) ]) `Smoke
       & info [ "budget" ] ~docv:"BUDGET"
           ~doc:"Search effort: $(b,smoke) (tiny, CI-sized) or $(b,full).")

let evals_arg =
  Arg.(value & opt (some int) None
       & info [ "evals" ] ~docv:"K" ~doc:"Override the cap on distinct genome evaluations.")

let domains_arg =
  Arg.(value & opt int 1
       & info [ "domains" ] ~docv:"D"
           ~doc:"Run trials across D domains (results are byte-identical at any value).")

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"PATH" ~doc:"Write the machine-readable search report here.")

let mix_for seed tag = Ba_prng.Splitmix64.mix (Int64.add seed (Int64.of_int (Hashtbl.hash tag)))

let genome_json g = Json.of_string (Strategy.to_json g)

let report_json ~plane ~objective ~n ~t ~seed ~result ~catalog ~cat_name ~cat_score
    ~holdout_searched ~holdout_catalog =
  let margin = result.Search.r_score -. cat_score in
  Json.Obj
    [ ("schema_version", Json.Int Ba_harness.Report.schema_version);
      ("suite", Json.String "adaptive_ba_attack");
      ("seed", Json.String (Int64.to_string seed));
      ("plane", Json.String plane);
      ("objective", Json.String objective);
      ("n", Json.Int n);
      ("t", Json.Int t);
      ("evals", Json.Int result.Search.r_evals);
      ( "best",
        Json.Obj
          [ ("name", Json.String (Strategy.name result.Search.r_best));
            ("score", Json.Float result.Search.r_score);
            ("genome", genome_json result.Search.r_best) ] );
      ( "catalog",
        Json.List
          (List.map
             (fun (nm, s) -> Json.Obj [ ("name", Json.String nm); ("score", Json.Float s) ])
             catalog) );
      ( "margin",
        Json.Obj
          [ ("vs", Json.String cat_name);
            ("search", Json.Float margin);
            ("holdout", Json.Float (holdout_searched -. holdout_catalog)) ] );
      ( "trace",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [ ("evals", Json.Int e.Search.te_evals);
                   ("phase", Json.String e.Search.te_phase);
                   ("score", Json.Float e.Search.te_score);
                   ("name", Json.String (Strategy.name e.Search.te_genome)) ])
             result.Search.r_trace) ) ]

let run plane n t seed trials budget evals domains json_path =
  let t =
    Option.value t
      ~default:
        (match plane with
        | Search.Coin_plane -> max 1 (int_of_float (sqrt (float_of_int n)) / 2)
        | Search.Skeleton_plane -> Ba_core.Params.max_tolerated n)
  in
  if n < 2 || t < 0 || t >= n then begin
    Format.eprintf "error: need n >= 2 and 0 <= t < n (got n=%d t=%d)@." n t;
    1
  end
  else if domains < 1 then begin
    Format.eprintf "error: --domains must be >= 1 (got %d)@." domains;
    1
  end
  else begin
    let plane_name, objective_name =
      match plane with
      | Search.Coin_plane -> ("coin", "coin-bias")
      | Search.Skeleton_plane -> ("skeleton", "rounds-to-decide")
    in
    let trials =
      Option.value trials
        ~default:(match plane with Search.Coin_plane -> 40 | Search.Skeleton_plane -> 6)
    in
    let objective ~seed =
      match plane with
      | Search.Coin_plane -> Ba_experiments.Exp_attack.coin_objective ~n ~t ~trials ~seed
      | Search.Skeleton_plane ->
          fun g -> Ba_experiments.Exp_attack.rounds_objective ~domains ~n ~t ~trials ~seed g
    in
    let space = { Search.sp_n = n; sp_t = t; sp_plane = plane; sp_max_round = 12 } in
    let search_budget =
      let b = match budget with `Smoke -> Search.smoke_budget | `Full -> Search.default_budget in
      match evals with None -> b | Some k -> { b with Search.b_max_evals = k }
    in
    let obj = objective ~seed:(mix_for seed "attack-objective") in
    let catalog = List.map (fun (nm, g) -> (nm, g, obj g)) (Search.seeds space) in
    let cat_name, cat_genome, cat_score =
      List.fold_left
        (fun (bn, bg, bs) (nm, g, s) -> if s > bs then (nm, g, s) else (bn, bg, bs))
        (List.hd catalog) catalog
    in
    let result =
      Search.run space ~seed:(mix_for seed "attack-search") ~budget:search_budget obj
    in
    let holdout = objective ~seed:(mix_for seed "attack-holdout") in
    let holdout_searched = holdout result.Search.r_best in
    let holdout_catalog = holdout cat_genome in
    Format.printf "ba_attack: plane=%s n=%d t=%d objective=%s trials=%d seed=%Ld@." plane_name
      n t objective_name trials seed;
    Format.printf "catalog:@.";
    List.iter (fun (nm, _, s) -> Format.printf "  %-24s %.4f@." nm s) catalog;
    Format.printf "searched: %s  score %.4f  (%d distinct evaluations)@."
      (Strategy.name result.Search.r_best)
      result.Search.r_score result.Search.r_evals;
    Format.printf "  genome: %s@." (Strategy.to_json result.Search.r_best);
    Format.printf "margin: %+.4f vs %s (holdout %+.4f)@."
      (result.Search.r_score -. cat_score)
      cat_name
      (holdout_searched -. holdout_catalog);
    Format.printf "trace:@.";
    List.iter
      (fun e ->
        Format.printf "  eval %-4d %-7s %.4f  %s@." e.Search.te_evals e.Search.te_phase
          e.Search.te_score
          (Strategy.name e.Search.te_genome))
      result.Search.r_trace;
    (match json_path with
    | None -> ()
    | Some path ->
        let doc =
          report_json ~plane:plane_name ~objective:objective_name ~n ~t ~seed ~result
            ~catalog:(List.map (fun (nm, _, s) -> (nm, s)) catalog)
            ~cat_name ~cat_score ~holdout_searched ~holdout_catalog
        in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (Json.to_string ~pretty:true doc);
            Out_channel.output_string oc "\n");
        Format.printf "wrote %s@." path);
    0
  end

let cmd =
  let doc = "deterministic attack search over the adversary-strategy IR" in
  Cmd.v
    (Cmd.info "ba_attack" ~doc)
    Term.(
      const run $ plane_arg $ n_arg $ t_arg $ seed_arg $ trials_arg $ budget_arg $ evals_arg
      $ domains_arg $ json_arg)

let () = exit (Cmd.eval' cmd)
