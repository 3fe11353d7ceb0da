(* ba_async_run: drive the asynchronous protocols (Section 1.3 contrast)
   through the unified run substrate — same setup surface, fault flags,
   checker audits and exit codes as the synchronous ba_run.

   Examples:
     ba_async_run --protocol ben-or -n 16 -t 3 --scheduler balancer
     ba_async_run --protocol rbc -n 10 -t 3 --scheduler random --broadcaster 2
     ba_async_run --protocol ben-or -n 8 --drop 0.05 --duplicate 0.05 --json out.json

   Exit codes: 0 all trials clean, 1 bad setup (and cmdliner's own non-zero
   codes for unparseable arguments), 2 checker violations. *)

open Cmdliner

let conv_of_parser parser names =
  let parse s = match parser s with Ok v -> Ok v | Error msg -> Error (`Msg msg) in
  Arg.conv (parse, fun fmt _ -> Format.fprintf fmt "%s" names)

let protocol_arg =
  let the_conv =
    conv_of_parser Ba_experiments.Setups.parse_async_protocol
      (String.concat "|" Ba_experiments.Setups.all_async_protocol_names)
  in
  Arg.(value & opt the_conv Ba_experiments.Setups.Async_ben_or
       & info [ "p"; "protocol" ] ~docv:"PROTOCOL" ~doc:"ben-or | rbc.")

let scheduler_arg =
  let the_conv =
    conv_of_parser Ba_experiments.Setups.parse_async_scheduler
      (String.concat "|" Ba_experiments.Setups.all_async_scheduler_names)
  in
  Arg.(value & opt the_conv Ba_experiments.Setups.Random_sched
       & info [ "s"; "scheduler" ] ~docv:"SCHED"
           ~doc:"fifo | random | delayer | balancer (ben-or only) | splitter (ben-or only).")

let n_arg = Arg.(value & opt int 16 & info [ "n" ] ~docv:"N" ~doc:"Number of nodes.")

let t_arg =
  Arg.(value & opt (some int) None
       & info [ "t" ] ~docv:"T"
           ~doc:"Corruption budget (default: (n-1)/5 for ben-or, (n-1)/3 for rbc).")

let broadcaster_arg =
  Arg.(value & opt int 0 & info [ "broadcaster" ] ~docv:"ID" ~doc:"RBC broadcaster id.")

let victim_arg =
  Arg.(value & opt_all int []
       & info [ "victim" ] ~docv:"ID"
           ~doc:"Delayer scheduler victim (repeatable; default node 0).")

let seed_arg = Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let trials_arg = Arg.(value & opt int 1 & info [ "trials" ] ~docv:"K" ~doc:"Repetitions.")

let max_steps_arg =
  Arg.(value & opt (some int) None
       & info [ "max-steps" ] ~docv:"STEPS"
           ~doc:"Scheduler step budget (default 5000*n).")

let max_delay_arg =
  Arg.(value & opt (some int) None
       & info [ "max-delay" ] ~docv:"STEPS"
           ~doc:"Fairness bound: oldest pending message is forced after STEPS steps.")

let drop_arg =
  Arg.(value & opt float 0.0
       & info [ "drop" ] ~docv:"P" ~doc:"Benign fault injection: per-link message drop probability.")

let duplicate_arg =
  Arg.(value & opt float 0.0
       & info [ "duplicate" ] ~docv:"P"
           ~doc:"Benign fault injection: per-link redelivery probability.")

let corrupt_arg =
  Arg.(value & opt float 0.0
       & info [ "corrupt" ] ~docv:"P"
           ~doc:"Benign fault injection: per-link payload-corruption probability (vote flips).")

let silence_conv =
  Arg.conv
    ( (fun s ->
        match String.split_on_char ':' s with
        | [ node; from_; until ] -> (
            match (int_of_string_opt node, int_of_string_opt from_, int_of_string_opt until) with
            | Some s_node, Some s_from, Some s_until ->
                Ok { Ba_sim.Faults.s_node; s_from; s_until }
            | _ -> Error (`Msg "expected NODE:FROM:UNTIL (three integers)"))
        | _ -> Error (`Msg "expected NODE:FROM:UNTIL")),
      fun fmt w ->
        Format.fprintf fmt "%d:%d:%d" w.Ba_sim.Faults.s_node w.s_from w.s_until )

let silence_arg =
  Arg.(value & opt_all silence_conv []
       & info [ "silence" ] ~docv:"NODE:FROM:UNTIL"
           ~doc:"Send-omission window in scheduler steps (repeatable): NODE's sends are \
                 suppressed while the step counter is in [FROM, UNTIL).")

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"PATH" ~doc:"Write per-trial outcomes as a JSON document.")

let pp_outcome (ro : Ba_sim.Run.outcome) =
  Format.printf
    "%s vs %s: n=%d t=%d %s=%d msgs=%d bits=%d faults=%d %s agreement=%b validity=%b \
     corruptions=%d@."
    ro.protocol_name ro.adversary_name ro.n ro.t
    (Ba_sim.Run.span_label ro.span)
    (Ba_sim.Run.span_units ro.span)
    (Ba_sim.Metrics.messages ro.metrics)
    (Ba_sim.Metrics.bits ro.metrics)
    (Ba_sim.Metrics.fault_events ro.metrics)
    (if ro.completed then "completed" else "TIMED-OUT")
    (Ba_sim.Run.agreement_holds ro) (Ba_sim.Run.validity_holds ro) ro.corruptions_used

let trial_json ~seed (ro : Ba_sim.Run.outcome) violations =
  Ba_harness.Json.Obj
    [ ("protocol", Ba_harness.Json.String ro.protocol_name);
      ("scheduler", Ba_harness.Json.String ro.adversary_name);
      ("n", Ba_harness.Json.Int ro.n);
      ("t", Ba_harness.Json.Int ro.t);
      ("seed", Ba_harness.Json.String (Int64.to_string seed));
      ("steps", Ba_harness.Json.Int (Ba_sim.Run.span_units ro.span));
      ("completed", Ba_harness.Json.Bool ro.completed);
      ("agreement", Ba_harness.Json.Bool (Ba_sim.Run.agreement_holds ro));
      ("validity", Ba_harness.Json.Bool (Ba_sim.Run.validity_holds ro));
      ("msgs", Ba_harness.Json.Int (Ba_sim.Metrics.messages ro.metrics));
      ("bits", Ba_harness.Json.Int (Ba_sim.Metrics.bits ro.metrics));
      ("fault_events", Ba_harness.Json.Int (Ba_sim.Metrics.fault_events ro.metrics));
      ("corruptions", Ba_harness.Json.Int ro.corruptions_used);
      ("violations",
       Ba_harness.Json.List
         (List.map
            (fun v ->
              Ba_harness.Json.String (Format.asprintf "%a" Ba_trace.Checker.pp_violation v))
            violations)) ]

let run protocol scheduler n t broadcaster victims seed trials max_steps max_delay drop duplicate
    corrupt silences json_path =
  let t =
    match t with
    | Some t -> t
    | None -> (
        match protocol with
        | Ba_experiments.Setups.Async_ben_or -> (n - 1) / 5
        | Ba_experiments.Setups.Async_bracha _ -> (n - 1) / 3)
  in
  let protocol =
    match protocol with
    | Ba_experiments.Setups.Async_bracha _ -> Ba_experiments.Setups.Async_bracha { broadcaster }
    | p -> p
  in
  let scheduler =
    match (scheduler, victims) with
    | Ba_experiments.Setups.Delayer_sched _, (_ :: _ as vs) ->
        Ba_experiments.Setups.Delayer_sched vs
    | s, _ -> s
  in
  let faults =
    { Ba_experiments.Setups.fs_drop = drop; fs_duplicate = duplicate; fs_corrupt = corrupt;
      fs_silences = silences }
  in
  let injecting = faults <> Ba_experiments.Setups.no_faults in
  match
    (fun () ->
      Ba_experiments.Setups.make_async
        ?faults:(if injecting then Some faults else None)
        ~protocol ~scheduler ~n ~t ())
      ()
  with
  | exception Invalid_argument msg ->
      Format.eprintf "error: %s@." msg;
      1
  | arun ->
      let inputs =
        match protocol with
        | Ba_experiments.Setups.Async_ben_or -> Array.init n (fun i -> i mod 2)
        | Ba_experiments.Setups.Async_bracha { broadcaster } ->
            let a = Array.make n 0 in
            a.(broadcaster) <- 1;
            a
      in
      let code = ref 0 in
      let docs = ref [] in
      for i = 1 to trials do
        let s = Int64.add seed (Int64.of_int i) in
        let ro =
          arun.Ba_experiments.Setups.arun_exec ?max_steps ?max_delay ~inputs ~seed:s ()
        in
        pp_outcome ro;
        let violations = Ba_trace.Checker.standard_run ~allow_faults:injecting ro in
        if violations = [] then Format.printf "invariants: all checks passed@."
        else begin
          List.iter
            (fun v -> Format.printf "invariants: VIOLATION %a@." Ba_trace.Checker.pp_violation v)
            violations;
          code := 2
        end;
        docs := trial_json ~seed:s ro violations :: !docs
      done;
      (match json_path with
      | Some path ->
          let doc =
            Ba_harness.Json.Obj
              [ ("tool", Ba_harness.Json.String "ba_async_run");
                ("trials", Ba_harness.Json.Int trials);
                ("outcomes", Ba_harness.Json.List (List.rev !docs)) ]
          in
          let oc = open_out path in
          output_string oc (Ba_harness.Json.to_string ~pretty:true doc);
          output_char oc '\n';
          close_out oc;
          Format.printf "json written to %s@." path
      | None -> ());
      !code

let cmd =
  let doc = "run the asynchronous protocols under adversarial scheduling" in
  Cmd.v (Cmd.info "ba_async_run" ~doc)
    Term.(
      const run $ protocol_arg $ scheduler_arg $ n_arg $ t_arg $ broadcaster_arg $ victim_arg
      $ seed_arg $ trials_arg $ max_steps_arg $ max_delay_arg $ drop_arg $ duplicate_arg
      $ corrupt_arg $ silence_arg $ json_arg)

let () = exit (Cmd.eval' cmd)
