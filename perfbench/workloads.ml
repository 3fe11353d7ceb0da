(* End-to-end benchmark runner (README.md in this directory).

   One run measures one workload for a time budget and prints every metric
   by name with its unit, then, as its last line, one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

     workloads.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     workloads.exe all [--seed N] [--seconds S] [--trace 0|1]
     workloads.exe layers
     workloads.exe smoke BENCHMARK.json
     workloads.exe baseline [--seed N] [--seconds S] -o FILE

   An untraced run (--trace 0) reports the end-to-end metrics; a traced run
   (--trace 1) replays the same trials with the phase tracer attached and
   reports the per-layer metrics. Everything runs on one domain. *)

module Json = Ba_harness.Json
module Checker = Ba_trace.Checker

let now_ns = Tracer.now_ns
let secs ns = float_of_int ns /. 1e9
let median xs = Ba_stats.Quantiles.median (Array.of_list xs)
let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let set_up_reps = 3

(* ---------------- trials ---------------- *)

type trial = {
  ns : int;
  messages : int;
  ticks : int;  (** rounds or scheduler steps *)
  minor_words : float;
  major_collections : int;
  digest : int64;
  ok : bool;
}

let run_trial (w : Workload.t) (inst : Workload.instance) ?tracer ~seed k =
  let words0 = Gc.minor_words () and majors0 = (Gc.quick_stat ()).major_collections in
  let t0 = now_ns () in
  let result =
    try Ok (inst.run ?tracer ~trial:k (Workload.trial_seed ~seed ~workload:w.name k))
    with e -> Error e
  in
  let ns = now_ns () - t0 in
  let minor_words = Gc.minor_words () -. words0
  and major_collections = (Gc.quick_stat ()).major_collections - majors0 in
  match result with
  | Ok os ->
      let violations = List.concat_map w.audit os in
      List.iter
        (fun v -> Format.eprintf "%s trial %d: %a@." w.name k Checker.pp_violation v)
        violations;
      { ns; minor_words; major_collections;
        messages = sum (fun (o : Ba_sim.Run.outcome) -> Ba_sim.Metrics.messages o.metrics) os;
        ticks = sum (fun (o : Ba_sim.Run.outcome) -> Ba_sim.Run.span_units o.span) os;
        digest = Workload.digest_all os;
        ok = violations = [] }
  | Error e ->
      Format.eprintf "%s trial %d raised %s@." w.name k (Printexc.to_string e);
      { ns; minor_words; major_collections; messages = 0; ticks = 0; digest = 0L; ok = false }

(* Instance construction plus the warm-up trials: everything between the
   workload's start and its first timed trial. It runs [set_up_reps]
   times; the last instance is the one timed, and the median set-up time
   is setup_s. *)
let set_up (w : Workload.t) =
  let once () =
    let t0 = now_ns () in
    let inst = w.setup () in
    for k = 0 to w.warmups - 1 do
      ignore (inst.run ~trial:k (Workload.warmup_seed ~workload:w.name k) : Ba_sim.Run.outcome list)
    done;
    (inst, secs (now_ns () - t0))
  in
  let setups = List.init set_up_reps (fun _ -> once ()) in
  (fst (List.nth setups (set_up_reps - 1)), median (List.map snd setups))

(* [step 0], [step 1], ... until the next step would overrun the budget;
   at least one step runs. *)
let run_for ~budget_ns step =
  let deadline = now_ns () + budget_ns in
  let rec go k acc =
    let t0 = now_ns () in
    let r = step k in
    let now = now_ns () in
    if now + (now - t0) <= deadline then go (k + 1) (r :: acc) else List.rev (r :: acc)
  in
  go 0 []

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

let fsum f xs = float_of_int (sum f xs)
let digest_of trials = List.fold_left (fun acc t -> Workload.combine acc t.digest) 0L trials

(* ---------------- output ---------------- *)

let print_metric (name, value, unit_) = Printf.printf "  %-38s %16.6f %s\n" name value unit_

let result_line ~correct ~attempted ~failed metrics =
  let metric (name, value, unit_) =
    (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ])
  in
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct); ("attempted", Json.Int attempted);
         ("failed", Json.Int failed); ("metrics", Json.Obj (List.map metric metrics)) ])

let finish ~correct ~trials metrics =
  let failed = List.length (List.filter (fun t -> not t.ok) trials) in
  let correct =
    correct && failed = 0 && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics
  in
  List.iter print_metric metrics;
  print_endline (result_line ~correct ~attempted:(List.length trials) ~failed metrics);
  if correct then 0 else 2

let gc_metrics trials =
  let words = List.fold_left (fun acc t -> acc +. t.minor_words) 0. trials in
  [ ("gc.minor_words_per_delivery", words /. Float.max 1. (fsum (fun t -> t.messages) trials),
     "words");
    ("gc.major_collections",
     fsum (fun t -> t.major_collections) trials /. float_of_int (List.length trials), "count") ]

let print_diagnostics (w : Workload.t) ~seed trials =
  let n = List.length trials in
  let ms = Array.of_list (List.map (fun t -> float_of_int t.ns /. 1e6) trials) in
  Printf.printf "workload %s, seed %Ld: %d timed trials, %.3f s timed\n" w.name seed n
    (secs (sum (fun t -> t.ns) trials));
  Printf.printf "  error_rate %.6f fraction\n"
    (float_of_int (List.length (List.filter (fun t -> not t.ok) trials)) /. float_of_int n);
  if n >= 100 then
    Printf.printf "  trial_ms_p90 %.6f ms (diagnostic, not gated)\n"
      (Ba_stats.Quantiles.quantile ms 0.9);
  Printf.printf "first_trial_digest %016Lx\n" (List.hd trials).digest

(* ---------------- untraced run: end-to-end metrics ---------------- *)

let untraced (w : Workload.t) ~seed ~seconds =
  let inst, setup_s = set_up w in
  let trials = run_for ~budget_ns:(int_of_float (seconds *. 1e9)) (run_trial w inst ~seed) in
  print_diagnostics w ~seed trials;
  List.iter print_metric (gc_metrics trials);
  finish ~correct:true ~trials
    [ ("setup_s", setup_s, "s");
      ("trial_ms_p50", median (List.map (fun t -> float_of_int t.ns /. 1e6) trials), "ms");
      ("deliveries_per_s", median (List.map (fun t -> float_of_int t.messages /. secs t.ns) trials),
       "msg/s");
      ("peak_rss_mb", peak_rss_mb (), "MB") ]

(* ---------------- traced run: per-layer metrics ---------------- *)

let phase_metrics (tr : Tracer.t) traced =
  let ticks = Float.max 1. (fsum (fun t -> t.ticks) traced) in
  let tick_ns = Float.max 1. (fsum (fun (_, p) -> tr.self_ns.(p)) Tracer.tick_phases) in
  [ ("engine.init_ms", float_of_int tr.self_ns.(Tracer.init) /. float_of_int tr.runs /. 1e6, "ms");
    ("engine.tick_us", tick_ns /. ticks /. 1e3, "us") ]
  @ List.map
      (fun (name, p) ->
        ("phase." ^ name ^ "_share", float_of_int tr.self_ns.(p) /. tick_ns, "fraction"))
      Tracer.tick_phases
  @ [ ("protocol.send_calls", float_of_int tr.send_calls /. ticks, "count");
      ("protocol.inspect_calls", float_of_int tr.inspect_calls /. ticks, "count");
      ("protocol.recv_calls", float_of_int tr.recv_calls /. ticks, "count");
      ("adversary.byz_msg_calls", float_of_int tr.byz_msgs /. ticks, "count") ]

let layer_metrics results =
  List.concat_map
    (fun (r : Layers.result) ->
      [ (r.name ^ "_ns", r.ns, "ns"); (r.name ^ "_minor_words", r.minor_words, "words") ])
    results

(* Each trial runs untraced, then traced, so drift in machine speed
   affects both sides of trace.overhead alike. *)
let traced (w : Workload.t) ~seed ~seconds =
  let inst, _ = set_up w in
  let tr = Tracer.create () in
  let plain, traced =
    List.split
      (run_for ~budget_ns:(int_of_float (seconds *. 1e9)) (fun k ->
           let plain = run_trial w inst ~seed k in
           (plain, run_trial w inst ~tracer:tr ~seed k)))
  in
  print_diagnostics w ~seed plain;
  let d_plain = digest_of plain and d_traced = digest_of traced in
  Printf.printf "trace_digests untraced=%016Lx traced=%016Lx\n" d_plain d_traced;
  let setups_digest =
    Workload.digest_all (inst.via_setups ~trial:0 (Workload.trial_seed ~seed ~workload:w.name 0))
  in
  let setups_match = Int64.equal setups_digest (List.hd plain).digest in
  Printf.printf "setups_digest %016Lx (%s the direct wiring)\n" setups_digest
    (if setups_match then "matches" else "DIFFERS FROM");
  let overhead = fsum (fun t -> t.ns) traced /. fsum (fun t -> t.ns) plain -. 1. in
  let quota_ms = Float.min 100. (Float.max 5. (seconds *. 10.)) in
  finish
    ~correct:(Int64.equal d_plain d_traced && setups_match)
    ~trials:(plain @ traced)
    (phase_metrics tr traced @ gc_metrics plain
    @ [ ("trace.overhead", overhead, "fraction") ]
    @ layer_metrics (Layers.run ~quota_ms))

let run_workload w seed seconds trace =
  if seconds < 0. then `Error (false, "--seconds must be >= 0")
  else `Ok (if trace then traced w ~seed ~seconds else untraced w ~seed ~seconds)

(* ---------------- child-process modes ---------------- *)

(* Runs this executable with [args] in a fresh process, echoing its stdout. *)
let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (In_channel.input_all ic))
  in
  let status = Unix.close_process_in ic in
  List.iter print_endline lines;
  flush stdout;
  (status = Unix.WEXITED 0, lines)

let run_args ~workload ~seed ~seconds ~trace =
  [ "--workload"; workload; "--seed"; Int64.to_string seed; "--seconds";
    Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]

let all seed seconds trace =
  List.fold_left
    (fun code (w : Workload.t) ->
      let ok, _ = child (run_args ~workload:w.name ~seed ~seconds ~trace) in
      if ok then code else 1)
    0 Workload.all

let layers () =
  Printf.printf "%-34s %14s %12s %8s\n" "micro" "ns/call" "minor words" "r2";
  List.iter
    (fun (r : Layers.result) ->
      Printf.printf "%-34s %14.2f %12.2f %8.4f\n%!" r.name r.ns r.minor_words r.r2)
    (Layers.run ~quota_ms:500.);
  0

let last_json lines =
  match List.rev lines with
  | last :: _ -> ( try Some (Json.of_string last) with Json.Parse_error _ -> None)
  | [] -> None

let field path j =
  List.fold_left (fun acc key -> Option.bind acc (Json.member key)) (Some j) path

let str path j = Option.bind (field path j) Json.to_str
let entries doc key = Option.value (Option.bind (Json.member key doc) Json.to_list) ~default:[]

(* One untraced and one traced run of every workload BENCHMARK.json names,
   one trial each, micros at the minimum quota; fails on any missing
   metric or unit. *)
let smoke path =
  let doc = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let declared = List.filter_map (str [ "name" ]) (entries doc "workloads") in
  let known = List.map (fun (w : Workload.t) -> w.name) Workload.all in
  List.iter (fun n -> if not (List.mem n declared) then error "workload %s not declared" n) known;
  let units key =
    List.filter_map
      (fun e ->
        match (str [ "name" ] e, str [ "unit" ] e) with
        | Some n, Some u -> Some (n, u)
        | _ -> None)
      (entries doc key)
  in
  List.iter
    (fun workload ->
      if not (List.mem workload known) then error "workload %s unknown to the runner" workload
      else
        List.iter
          (fun (trace, key) ->
            let ok, lines = child (run_args ~workload ~seed:2026L ~seconds:0. ~trace) in
            match last_json lines with
            | Some j when ok && field [ "correct" ] j = Some (Json.Bool true) ->
                List.iter
                  (fun (name, unit_) ->
                    match str [ "metrics"; name; "unit" ] j with
                    | Some u when u = unit_ -> ()
                    | Some u -> error "%s: %s has unit %s, declared %s" workload name u unit_
                    | None -> error "%s: metric %s missing (trace %b)" workload name trace)
                  (units key)
            | Some _ | None -> error "%s: run failed (trace %b)" workload trace)
          [ (false, "end_to_end"); (true, "per_layer") ])
    declared;
  match List.rev !errors with
  | [] ->
      print_endline "bench-smoke: ok";
      0
  | es ->
      List.iter (Printf.eprintf "bench-smoke: %s\n") es;
      1

(* ---------------- baseline ---------------- *)

let cpu_model () =
  try
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> "unknown"
          | Some l when String.starts_with ~prefix:"model name" l ->
              String.trim (List.nth (String.split_on_char ':' l) 1)
          | Some _ -> find ()
        in
        find ())
  with Sys_error _ -> "unknown"

let metric_values j =
  match field [ "metrics" ] j with
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_float))
        kvs
  | Some _ | None -> []

(* The rest of the first line starting with [prefix], or "". *)
let line_value prefix lines =
  let n = String.length prefix in
  Option.value ~default:""
    (List.find_map
       (fun l ->
         if String.starts_with ~prefix l then Some (String.sub l n (String.length l - n)) else None)
       lines)

let floats kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs)

let summary runs =
  let stat q =
    floats
      (List.map
         (fun (name, _) ->
           let xs = Array.of_list (List.map (List.assoc name) runs) in
           (name, Ba_stats.Quantiles.quantile xs q))
         (List.hd runs))
  in
  Json.Obj
    [ ("runs", Json.List (List.map floats runs)); ("q1", stat 0.25); ("median", stat 0.5);
      ("q3", stat 0.75) ]

(* Two sets of five untraced runs per workload at one seed, each run in a
   fresh process, plus one traced run; medians and quartiles per set. The
   sets take turns, so drift in machine speed falls on both alike. *)
let baseline seed seconds out =
  let sets = 2 and runs = 5 in
  let run ~workload ~trace =
    let ok, lines = child (run_args ~workload ~seed ~seconds ~trace) in
    match last_json lines with
    | Some j when ok && field [ "correct" ] j = Some (Json.Bool true) -> (metric_values j, lines)
    | Some _ | None -> failwith (Printf.sprintf "baseline: a %s run failed" workload)
  in
  let workload (w : Workload.t) =
    let turns =
      List.init runs (fun _ -> List.init sets (fun _ -> run ~workload:w.name ~trace:false))
    in
    let set_runs = List.init sets (fun s -> List.map (fun turn -> List.nth turn s) turns) in
    let traced, traced_lines = run ~workload:w.name ~trace:true in
    let digests =
      List.sort_uniq compare
        (List.map (fun (_, lines) -> line_value "first_trial_digest " lines) (List.concat set_runs))
    in
    ( w.name,
      Json.Obj
        [ ("first_trial_digests", Json.List (List.map (fun d -> Json.String d) digests));
          ("sets", Json.List (List.map (fun rs -> summary (List.map fst rs)) set_runs));
          ("traced",
           Json.Obj
             [ ("trace_digests", Json.String (line_value "trace_digests " traced_lines));
               ("setups_digest", Json.String (line_value "setups_digest " traced_lines));
               ("metrics", floats traced) ]) ] )
  in
  let entries = List.map workload Workload.all in
  let doc =
    Json.Obj
      [ ("seed", Json.String (Int64.to_string seed)); ("seconds", Json.Float seconds);
        ("runs_per_set", Json.Int runs); ("cpu", Json.String (cpu_model ()));
        ("cores", Json.Int (Domain.recommended_domain_count ()));
        ("quartiles", Json.String "linear interpolation between order statistics");
        ("workloads", Json.Obj entries) ]
  in
  Out_channel.with_open_bin out (fun oc ->
      Out_channel.output_string oc (Json.to_string ~pretty:true doc);
      Out_channel.output_char oc '\n');
  Printf.printf "wrote %s\n" out;
  0

(* ---------------- command line ---------------- *)

open Cmdliner

let workload_arg =
  let names = Arg.enum (List.map (fun (w : Workload.t) -> (w.name, w)) Workload.all) in
  Arg.(required & opt (some names) None & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run.")

let seed_arg =
  Arg.(value & opt int64 2026L
       & info [ "seed" ] ~docv:"N" ~doc:"Seed all trial inputs derive from.")

let seconds_arg =
  Arg.(value & opt float 10. & info [ "seconds" ] ~docv:"S"
       ~doc:"Timed budget per run; at least one trial always runs.")

let trace_arg =
  Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false
       & info [ "trace" ] ~docv:"0|1" ~doc:"1 = traced run reporting the per-layer metrics.")

let run_term = Term.(ret (const run_workload $ workload_arg $ seed_arg $ seconds_arg $ trace_arg))

let cmd =
  let doc = "end-to-end benchmark workloads with outside-in phase tracing" in
  Cmd.group ~default:run_term (Cmd.info "workloads" ~doc)
    [ Cmd.v (Cmd.info "all" ~doc:"Run every workload, each in a fresh process.")
        Term.(const all $ seed_arg $ seconds_arg $ trace_arg);
      Cmd.v (Cmd.info "layers" ~doc:"Time the layer micros, 500 ms each.")
        Term.(const layers $ const ());
      Cmd.v (Cmd.info "smoke" ~doc:"Check every declared metric is printed with its unit.")
        Term.(const smoke
              $ Arg.(required & pos 0 (some file) None & info [] ~docv:"BENCHMARK.json"));
      Cmd.v (Cmd.info "baseline" ~doc:"Write per-set medians, quartiles and digests.")
        Term.(const baseline $ seed_arg $ seconds_arg
              $ Arg.(required & opt (some string) None
                     & info [ "o" ] ~docv:"FILE" ~doc:"Output file.")) ]

let () = exit (Cmd.eval' cmd)
