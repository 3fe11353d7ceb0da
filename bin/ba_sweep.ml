(* ba_sweep: run registered experiments (E1-E23 from DESIGN.md §5).

   The experiment set comes from Ba_experiments.Experiments.registry — this
   driver holds no list of its own.

   Examples:
     ba_sweep --list
     ba_sweep E3 E4 --seed 7
     ba_sweep --tag scaling --json out.json
     ba_sweep --all --quick --json out.json --csv out.csv
     ba_sweep --all --keep-going --retries 1 --json out.json

   Campaign mode (checkpoint/resume over worker processes, DESIGN.md §14):
     ba_sweep E1 --quick --workers 4 --checkpoint-dir ck --json out.json
     ba_sweep E1 --quick --workers 4 --checkpoint-dir ck --resume

   Exit codes: 0 all verdicts pass/shape_ok; 1 at least one scientific FAIL
   verdict; 2 usage error or infrastructure failure (a crashed/runaway
   experiment, trial, or campaign shard, after retries). *)

open Cmdliner

let registry = Ba_experiments.Experiments.registry

let ids_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment IDs (e.g. E3 E4).")

let all_arg = Arg.(value & flag & info [ "all" ] ~doc:"Run every experiment.")
let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List experiment IDs and exit.")
let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sizes and fewer trials.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"K"
        ~doc:
          "Run trials across $(docv) OCaml domains. Reports are byte-identical at any value; \
           only wall-clock changes.")
let seed_arg = Arg.(value & opt int64 2026L & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let tag_arg =
  let doc =
    Printf.sprintf "Run every experiment carrying $(docv) (repeatable). One of: %s."
      (String.concat ", "
         (List.map Ba_harness.Registry.tag_to_string Ba_harness.Registry.all_tags))
  in
  Arg.(value & opt_all string [] & info [ "tag" ] ~docv:"TAG" ~doc)

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"PATH"
           ~doc:"Write the schema-versioned suite document for the selected experiments.")

let csv_arg =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~docv:"PATH" ~doc:"Write long-form metrics CSV (id,claim,verdict,metric,value).")

let keep_going_arg =
  Arg.(value & flag
       & info [ "keep-going" ]
           ~doc:"Crashing or runaway trials become structured failure records in the report \
                 (and the suite JSON) instead of aborting the sweep; the remaining trials and \
                 experiments still run. Implies exit code 2 when any failure is recorded.")

let retries_arg =
  Arg.(value & opt int 0
       & info [ "retries" ] ~docv:"N"
           ~doc:"Retry each failing trial up to $(docv) extra times with deterministically \
                 re-derived seeds before recording/raising the failure.")

let round_cap_arg =
  Arg.(value & opt (some int) None
       & info [ "trial-round-cap" ] ~docv:"ROUNDS"
           ~doc:"Watchdog: fail any trial whose simulated execution exceeds $(docv) rounds \
                 (deterministic — never wall clock).")

(* ---------------- campaign mode flags ---------------- *)

let workers_arg =
  Arg.(value & opt (some int) None
       & info [ "workers" ] ~docv:"K"
           ~doc:"Campaign mode: fan the experiment's trial shards out across $(docv) worker \
                 processes with supervised retry. Requires --checkpoint-dir and exactly one \
                 campaign-capable experiment. The merged suite JSON is byte-identical for \
                 every worker count.")

let checkpoint_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint-dir" ] ~docv:"DIR"
           ~doc:"Directory for per-shard checkpoint JSON (and worker logs). Each completed \
                 shard is persisted here; a killed campaign restarted with --resume re-runs \
                 only the missing or corrupt shards.")

let resume_arg =
  Arg.(value & flag
       & info [ "resume" ]
           ~doc:"Re-scan --checkpoint-dir, keep every validated shard checkpoint, and run \
                 only what is missing or corrupt. Without this flag a campaign refuses a \
                 checkpoint directory that already contains shard checkpoints.")

let shard_size_arg =
  Arg.(value & opt (some int) None
       & info [ "shard-size" ] ~docv:"N"
           ~doc:"Override the experiment's trials-per-shard (campaign mode).")

let campaign_trials_arg =
  Arg.(value & opt (some int) None
       & info [ "campaign-trials" ] ~docv:"N"
           ~doc:"Override the experiment's campaign trial count (campaign mode).")

let shard_retries_arg =
  Arg.(value & opt int 2
       & info [ "shard-retries" ] ~docv:"N"
           ~doc:"Extra attempts for a shard whose worker dies, stalls, or writes a corrupt \
                 checkpoint. A shard that exhausts its budget becomes a structured \
                 shard-failure record in the merged suite JSON instead of aborting the \
                 campaign.")

let stall_ticks_arg =
  Arg.(value & opt int 1200
       & info [ "stall-ticks" ] ~docv:"TICKS"
           ~doc:"Heartbeat-by-progress: a worker that produces no output for $(docv) \
                 scheduler ticks (~50ms each) is presumed hung, killed, and its shard \
                 retried.")

(* Internal: how the driver re-invokes itself as a shard worker. *)
let campaign_worker_arg =
  Arg.(value & opt (some int) None
       & info [ "campaign-worker" ] ~docv:"SHARD"
           ~doc:"Internal: run a single campaign shard and write its checkpoint. Spawned by \
                 the campaign driver; not for direct use.")

(* Test hooks for the crash-injection smoke path (@campaign-smoke). *)
let kill_shard_arg =
  Arg.(value & opt (some int) None
       & info [ "campaign-kill-shard" ] ~docv:"SHARD"
           ~doc:"Test hook: the worker running $(docv) kills itself (SIGKILL) mid-shard on \
                 its first attempt, before writing a checkpoint; retries run normally.")

let kill_every_attempt_arg =
  Arg.(value & flag
       & info [ "campaign-kill-every-attempt" ]
           ~doc:"Test hook: with --campaign-kill-shard, kill on every attempt (exercises \
                 retry exhaustion and the shard-failure degradation path).")

let campaign_cell (d : Ba_harness.Registry.descriptor) =
  match d.campaign with
  | None -> "-"
  | Some c ->
      (* quick/full campaign trial counts, so --workers users can see the
         fan-out an experiment offers without reading the source. *)
      Printf.sprintf "campaign %d/%d" (c.Ba_harness.Registry.c_trials ~quick:true)
        (c.Ba_harness.Registry.c_trials ~quick:false)

let list_registry ~json_path () =
  List.iter
    (fun (d : Ba_harness.Registry.descriptor) ->
      Format.printf "%-5s %-28s %-20s %s@." d.id
        (String.concat ","
           (List.map Ba_harness.Registry.tag_to_string d.tags))
        (campaign_cell d) d.title)
    (Ba_harness.Registry.all registry);
  match json_path with
  | None -> ()
  | Some path ->
      let entry (d : Ba_harness.Registry.descriptor) =
        Ba_harness.Json.Obj
          [ ("id", Ba_harness.Json.String d.id);
            ("title", Ba_harness.Json.String d.title);
            ("claim", Ba_harness.Json.String d.claim);
            ( "tags",
              Ba_harness.Json.List
                (List.map
                   (fun t -> Ba_harness.Json.String (Ba_harness.Registry.tag_to_string t))
                   d.tags) );
            ( "campaign",
              match d.campaign with
              | None -> Ba_harness.Json.Null
              | Some c ->
                  Ba_harness.Json.Obj
                    [ ( "trials_quick",
                        Ba_harness.Json.Int (c.Ba_harness.Registry.c_trials ~quick:true) );
                      ( "trials_full",
                        Ba_harness.Json.Int (c.Ba_harness.Registry.c_trials ~quick:false) );
                      ( "shard_size_quick",
                        Ba_harness.Json.Int (c.Ba_harness.Registry.c_shard_size ~quick:true) );
                      ( "shard_size_full",
                        Ba_harness.Json.Int (c.Ba_harness.Registry.c_shard_size ~quick:false)
                      ) ] ) ]
      in
      let doc =
        Ba_harness.Json.Obj
          [ ("schema_version", Ba_harness.Json.Int Ba_harness.Report.schema_version);
            ("suite", Ba_harness.Json.String "adaptive_ba_registry");
            ( "experiments",
              Ba_harness.Json.List
                (List.map entry (Ba_harness.Registry.all registry)) ) ]
      in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Ba_harness.Json.to_string ~pretty:true doc);
          Out_channel.output_string oc "\n");
      Format.printf "wrote %s@." path

(* Returns [Error ()] if any requested id or tag is unknown: partial runs
   must not exit 0. *)
let select ~ids ~tags ~all =
  let bad = ref false in
  let by_tag =
    List.concat_map
      (fun name ->
        match Ba_harness.Registry.tag_of_string name with
        | Some tag -> Ba_harness.Registry.with_tag registry tag
        | None ->
            Format.eprintf "error: unknown tag %S (see --help)@." name;
            bad := true;
            [])
      tags
  in
  let by_id =
    List.filter_map
      (fun id ->
        match Ba_harness.Registry.find registry id with
        | Some d -> Some d
        | None ->
            Format.eprintf "error: unknown experiment %S (see --list)@." id;
            bad := true;
            None)
      ids
  in
  if !bad then Error ()
  else if all then Ok (Ba_harness.Registry.all registry)
  else
    (* Dedup while preserving registry order. *)
    let chosen = by_id @ by_tag in
    Ok
      (List.filter
         (fun (d : Ba_harness.Registry.descriptor) ->
           List.exists (fun (c : Ba_harness.Registry.descriptor) -> c.id = d.id) chosen)
         (Ba_harness.Registry.all registry))

(* A crashed experiment (not just a crashed trial) under --keep-going still
   produces a report: verdict fail, with the crash carried in the report's
   dedicated [crash] field. (Historically this was smuggled through a
   failure record with trial = -1; trial indices now always name real
   trials and the validator rejects anything below -1.) *)
let crashed_report (d : Ba_harness.Registry.descriptor) ~seed exn bt =
  Ba_harness.Report.make ~id:d.id ~title:d.title ~claim:d.claim
    ~crash:
      { Ba_harness.Report.crash_seed = seed;
        crash_error = Printexc.to_string exn;
        crash_backtrace = Ba_harness.Supervisor.digest bt }
    ~verdict:Ba_harness.Report.Fail
    ~summary:(Printf.sprintf "experiment crashed: %s" (Printexc.to_string exn))
    ~body:"" ()

(* ================== campaign mode (DESIGN.md §14) ================== *)

module Campaign = Ba_harness.Campaign
module Checkpoint = Ba_harness.Checkpoint

let empty_stats : Ba_harness.Experiment.stats =
  { trials = 0;
    rounds = Ba_stats.Summary.create ();
    phases = Ba_stats.Summary.create ();
    messages = Ba_stats.Summary.create ();
    bits = Ba_stats.Summary.create ();
    corruptions = Ba_stats.Summary.create ();
    agreement_failures = 0;
    validity_failures = 0;
    incomplete = 0;
    violations = [];
    failures = [] }

let profile_of ~quick = if quick then "quick" else "full"

let checkpoint_path ~dir ~exp ~index = Filename.concat dir (Checkpoint.filename ~exp ~index)

let log_path ~dir ~exp ~index = Filename.concat dir (Printf.sprintf "%s.shard-%05d.log" exp index)

(* ---------------- worker ---------------- *)

(* One shard, run in-process: slice the range so the parent sees periodic
   progress lines (its heartbeat), fold the slices with the exact stats
   merge (byte-identical to one pass), checkpoint atomically, exit 0. Any
   escape hatch — crash, kill, truncated write — is the parent's problem:
   it re-runs the shard. *)
let worker_main (d : Ba_harness.Registry.descriptor) (c : Ba_harness.Registry.campaign) ~dir
    ~quick ~seed ~trials ~shard_size ~index ~domains ~retries ~round_cap ~kill_shard
    ~kill_every =
  let plan = Campaign.plan ~trials ~shard_size in
  match List.nth_opt plan index with
  | None ->
      Format.eprintf "worker: shard %d outside the %d-shard plan@." index (List.length plan);
      2
  | Some shard ->
      let kill_requested =
        match kill_shard with
        | Some k when k = index ->
            kill_every
            ||
            (* Kill only the first attempt: a marker file remembers that this
               shard already died once, so the retry completes. *)
            let marker =
              Filename.concat dir (Printf.sprintf "%s.shard-%05d.killed" d.id index)
            in
            if Sys.file_exists marker then false
            else begin
              Out_channel.with_open_bin marker (fun _ -> ());
              true
            end
        | Some _ | None -> false
      in
      let policy = Ba_harness.Supervisor.supervised ?round_cap ~retries () in
      let slice_len = max 1 ((shard.Campaign.s_hi - shard.Campaign.s_lo + 3) / 4) in
      let rec slices lo =
        if lo >= shard.Campaign.s_hi then []
        else
          let hi = min shard.Campaign.s_hi (lo + slice_len) in
          (lo, hi) :: slices hi
      in
      let stats = ref empty_stats in
      List.iteri
        (fun i (lo, hi) ->
          let s = c.c_run ~policy ~domains ~quick ~seed ~lo ~hi in
          stats :=
            if (!stats).Ba_harness.Experiment.trials = 0 then s
            else Ba_harness.Experiment.merge_stats !stats s;
          Printf.printf "progress shard=%d trials=%d/%d\n%!" index
            (hi - shard.Campaign.s_lo)
            (shard.Campaign.s_hi - shard.Campaign.s_lo);
          if kill_requested && i = 0 then
            (* Mid-shard SIGKILL: work done, no checkpoint written — exactly
               the worker-lost failure the supervisor must absorb. *)
            Unix.kill (Unix.getpid ()) Sys.sigkill)
        (slices shard.Campaign.s_lo);
      let ck =
        { Checkpoint.ck_exp = d.id;
          ck_seed = seed;
          ck_profile = profile_of ~quick;
          ck_trials = trials;
          ck_shards = List.length plan;
          ck_shard = shard;
          ck_stats = !stats }
      in
      Checkpoint.save_file (checkpoint_path ~dir ~exp:d.id ~index) ck;
      0

(* ---------------- driver ---------------- *)

type worker_proc = { wp_pid : int; wp_log : string; mutable wp_log_size : int }

let campaign_main (d : Ba_harness.Registry.descriptor) (c : Ba_harness.Registry.campaign) ~dir
    ~quick ~seed ~trials ~shard_size ~workers ~resume ~shard_retries ~stall_ticks ~domains
    ~retries ~round_cap ~json_path ~csv_path ~kill_shard ~kill_every =
  let profile = profile_of ~quick in
  let plan = Campaign.plan ~trials ~shard_size in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let scanned = Checkpoint.scan_dir ~dir ~exp:d.id in
  if (not resume) && scanned <> [] then begin
    Format.eprintf
      "error: %s already contains %d shard checkpoint(s) for %s; pass --resume to continue \
       that campaign or use an empty --checkpoint-dir@."
      dir (List.length scanned) d.id;
    2
  end
  else begin
    let completed =
      if not resume then []
      else
        List.filter_map
          (fun (index, path, loaded) ->
            let verdict =
              match loaded with
              | Error msg -> Error msg
              | Ok ck -> (
                  match Checkpoint.matches ck ~exp:d.id ~seed ~profile ~trials ~plan with
                  | Ok () -> Ok ()
                  | Error msg -> Error msg)
            in
            match verdict with
            | Ok () -> Some index
            | Error msg ->
                Format.printf "campaign %s: shard %d checkpoint invalid (%s) — re-running@."
                  d.id index msg;
                ignore (path : string);
                None)
          scanned
    in
    Format.printf "campaign %s: %d trials in %d shards of <=%d; %d already checkpointed@."
      d.id trials (List.length plan) shard_size (List.length completed);
    let cfg =
      { Campaign.workers; shard_retries; stall_ticks; backoff_cap = 40; seed }
    in
    let shards = Array.of_list plan in
    let procs : worker_proc option array = Array.make (Array.length shards) None in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    let spawn (shard : Campaign.shard) ~attempt =
      let index = shard.Campaign.s_index in
      let log = log_path ~dir ~exp:d.id ~index in
      let log_fd =
        Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      let argv =
        [ Sys.executable_name; d.id; "--campaign-worker"; string_of_int index;
          "--checkpoint-dir"; dir; "--seed"; Int64.to_string seed; "--campaign-trials";
          string_of_int trials; "--shard-size"; string_of_int shard_size; "--domains";
          string_of_int domains; "--retries"; string_of_int retries ]
        @ (if quick then [ "--quick" ] else [])
        @ (match round_cap with
          | Some cap -> [ "--trial-round-cap"; string_of_int cap ]
          | None -> [])
        @ (match kill_shard with
          | Some k -> [ "--campaign-kill-shard"; string_of_int k ]
          | None -> [])
        @ if kill_every then [ "--campaign-kill-every-attempt" ] else []
      in
      let pid =
        Unix.create_process Sys.executable_name (Array.of_list argv) devnull log_fd log_fd
      in
      Unix.close log_fd;
      procs.(index) <- Some { wp_pid = pid; wp_log = log; wp_log_size = 0 };
      Format.printf "campaign %s: shard %d attempt %d started (trials [%d, %d))@." d.id index
        attempt shard.Campaign.s_lo shard.Campaign.s_hi
    in
    let exec_action = function
      | Campaign.Start { shard; attempt } -> spawn shard ~attempt
      | Campaign.Stop index -> (
          match procs.(index) with
          | Some wp ->
              (try Unix.kill wp.wp_pid Sys.sigkill with Unix.Unix_error _ -> ());
              Format.printf "campaign %s: shard %d stalled — worker killed@." d.id index
          | None -> ())
      | Campaign.Give_up (f : Campaign.shard_failure) ->
          Format.printf "campaign %s: shard %d FAILED permanently after %d attempts (%s: %s)@."
            d.id f.Campaign.sf_shard f.Campaign.sf_attempts
            (Campaign.shard_failure_kind_to_string f.Campaign.sf_kind)
            f.Campaign.sf_error
    in
    (* OCaml's Unix module reports signals as its own negative constants;
       name the common ones so failure records read as SIGKILL, not -7. *)
    let signal_name sg =
      if sg = Sys.sigkill then "SIGKILL"
      else if sg = Sys.sigterm then "SIGTERM"
      else if sg = Sys.sigint then "SIGINT"
      else if sg = Sys.sigsegv then "SIGSEGV"
      else if sg = Sys.sigabrt then "SIGABRT"
      else if sg = Sys.sigbus then "SIGBUS"
      else string_of_int sg
    in
    (* After a worker exits, the checkpoint on disk is the ground truth:
       validated checkpoint => shard done (whatever the exit status);
       clean exit without one => Invalid; killed/crashed => Exited. *)
    let exit_event index status =
      match Checkpoint.load_file (checkpoint_path ~dir ~exp:d.id ~index) with
      | Ok ck -> (
          match Checkpoint.matches ck ~exp:d.id ~seed ~profile ~trials ~plan with
          | Ok () -> Campaign.Completed index
          | Error msg -> Campaign.Invalid (index, msg))
      | Error msg -> (
          match status with
          | Unix.WEXITED 0 -> Campaign.Invalid (index, msg)
          | Unix.WEXITED n -> Campaign.Exited (index, Printf.sprintf "worker exit code %d" n)
          | Unix.WSIGNALED sg ->
              Campaign.Exited (index, Printf.sprintf "worker killed by %s" (signal_name sg))
          | Unix.WSTOPPED sg ->
              Campaign.Exited (index, Printf.sprintf "worker stopped by %s" (signal_name sg)))
    in
    let st, actions = Campaign.create cfg ~plan ~completed in
    List.iter exec_action actions;
    let last_line = ref "" in
    let narrate st =
      let line =
        Printf.sprintf "campaign %s: %d/%d shards done, %d failed, %d running (%d/%d trials)"
          d.id (Campaign.shards_done st) (Array.length shards)
          (List.length (Campaign.failed st))
          (List.length (Campaign.running st))
          (Campaign.trials_done st) trials
      in
      if line <> !last_line then begin
        last_line := line;
        print_endline line
      end
    in
    narrate st;
    while not (Campaign.finished st) do
      Unix.sleepf 0.05;
      let events = ref [] in
      Array.iteri
        (fun index proc ->
          match proc with
          | None -> ()
          | Some wp -> (
              (* Heartbeat-by-progress: any growth of the worker's log since
                 the last tick counts as progress. *)
              (match (Unix.stat wp.wp_log).Unix.st_size with
              | size when size > wp.wp_log_size ->
                  wp.wp_log_size <- size;
                  events := Campaign.Progress index :: !events
              | _ -> ()
              | exception Unix.Unix_error _ -> ());
              match Unix.waitpid [ Unix.WNOHANG ] wp.wp_pid with
              | 0, _ -> ()
              | _, status ->
                  procs.(index) <- None;
                  events := exit_event index status :: !events
              | exception Unix.Unix_error _ ->
                  procs.(index) <- None;
                  events := Campaign.Exited (index, "worker process lost") :: !events))
        procs;
      List.iter
        (fun ev ->
          let _, actions = Campaign.step st ev in
          List.iter exec_action actions)
        (List.rev !events);
      let _, actions = Campaign.step st Campaign.Tick in
      List.iter exec_action actions;
      narrate st
    done;
    Unix.close devnull;
    (* Merge in shard-index order: with exact summary merging the order is
       immaterial for the numbers, but a fixed order also pins the
       violations list, making the merged document fully deterministic. *)
    let merged =
      List.fold_left
        (fun acc index ->
          match Checkpoint.load_file (checkpoint_path ~dir ~exp:d.id ~index) with
          | Ok ck ->
              if acc.Ba_harness.Experiment.trials = 0 then ck.Checkpoint.ck_stats
              else Ba_harness.Experiment.merge_stats acc ck.Checkpoint.ck_stats
          | Error msg -> failwith (Printf.sprintf "completed shard %d unreadable: %s" index msg))
        empty_stats (Campaign.completed st)
    in
    let shard_failures = Campaign.failed st in
    let report =
      Ba_harness.Report.with_shard_failures (c.c_report ~quick ~seed ~trials merged)
        shard_failures
    in
    Format.printf "%a@." Ba_harness.Report.pp report;
    (match json_path with
    | None -> ()
    | Some path ->
        let doc =
          Ba_harness.Registry.suite_json ~suite:"adaptive_ba_campaign"
            ~campaign:(trials, shard_size, List.length plan) ~seed ~profile
            ~entries:[ (d, report, None) ] ()
        in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (Ba_harness.Json.to_string ~pretty:true doc);
            Out_channel.output_char oc '\n');
        Format.printf "wrote %s@." path);
    (match csv_path with
    | None -> ()
    | Some path ->
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (Ba_harness.Report.csv_of_reports [ report ]));
        Format.printf "wrote %s@." path);
    if report.failures <> [] || report.shard_failures <> [] || report.crash <> None then begin
      Format.eprintf "error: infrastructure failure (shard/trial failures recorded)@.";
      2
    end
    else if report.verdict = Ba_harness.Report.Fail then begin
      Format.eprintf "error: campaign experiment verdict is FAIL@.";
      1
    end
    else 0
  end

(* Validate campaign-mode flags and dispatch to worker or driver. *)
let campaign_dispatch ~ids ~tags ~all ~quick ~domains ~seed ~json_path ~csv_path ~retries
    ~round_cap ~workers ~checkpoint_dir ~resume ~shard_size ~campaign_trials ~shard_retries
    ~stall_ticks ~campaign_worker ~kill_shard ~kill_every =
  match checkpoint_dir with
  | None ->
      Format.eprintf "error: campaign mode (--workers / --campaign-worker) requires --checkpoint-dir@.";
      2
  | Some dir -> (
      match select ~ids ~tags ~all with
      | Error () -> 2
      | Ok [ d ] -> (
          match d.Ba_harness.Registry.campaign with
          | None ->
              Format.eprintf "error: experiment %s has no campaign form@." d.id;
              2
          | Some c ->
              let trials =
                match campaign_trials with Some n -> n | None -> c.c_trials ~quick
              in
              let shard_size =
                match shard_size with Some n -> n | None -> c.c_shard_size ~quick
              in
              if trials < 1 || shard_size < 1 then begin
                Format.eprintf "error: --campaign-trials and --shard-size must be >= 1@.";
                2
              end
              else (
                match campaign_worker with
                | Some index ->
                    worker_main d c ~dir ~quick ~seed ~trials ~shard_size ~index ~domains
                      ~retries ~round_cap ~kill_shard ~kill_every
                | None ->
                    let workers = Option.value workers ~default:1 in
                    if workers < 1 || shard_retries < 0 || stall_ticks < 1 then begin
                      Format.eprintf
                        "error: --workers must be >= 1, --shard-retries >= 0, --stall-ticks >= 1@.";
                      2
                    end
                    else
                      campaign_main d c ~dir ~quick ~seed ~trials ~shard_size ~workers ~resume
                        ~shard_retries ~stall_ticks ~domains ~retries ~round_cap ~json_path
                        ~csv_path ~kill_shard ~kill_every))
      | Ok _ ->
          Format.eprintf "error: campaign mode runs exactly one experiment (e.g. ba_sweep E1 \
                          --workers 4 --checkpoint-dir DIR)@.";
          2)

(* ================== one-process sweep mode ================== *)

let run_sweep ids all list quick domains seed tags json_path csv_path keep_going retries round_cap =
  if list then begin
    list_registry ~json_path ();
    0
  end
  else if domains < 1 then begin
    Format.eprintf "error: --domains must be >= 1@.";
    2
  end
  else if (not all) && ids = [] && tags = [] then begin
    Format.eprintf
      "ba_sweep: nothing selected.@.Usage: ba_sweep [E3 E4 ...] [--all] [--tag TAG] \
       [--quick] [--seed SEED] [--json PATH] [--csv PATH]@.Run 'ba_sweep --list' for the \
       experiment index or 'ba_sweep --help' for details.@.";
    2
  end
  else
    match select ~ids ~tags ~all with
    | Error () -> 2
    | Ok [] ->
        Format.eprintf "error: nothing to run@.";
        2
    | Ok selected
      when retries < 0 || (match round_cap with Some c -> c <= 0 | None -> false) ->
        ignore (selected : Ba_harness.Registry.descriptor list);
        Format.eprintf "error: --retries must be >= 0 and --trial-round-cap > 0@.";
        2
    | Ok selected ->
        let entries =
          List.map
            (fun (d : Ba_harness.Registry.descriptor) ->
              let sink = Ba_harness.Supervisor.sink () in
              let policy =
                { Ba_harness.Supervisor.round_cap; retries; keep_going;
                  failure_sink = (if keep_going then Some sink else None) }
              in
              let t0 = Unix.gettimeofday () in
              let report =
                if keep_going then
                  match d.run ~policy ~domains ~quick ~seed with
                  | r -> Ba_harness.Report.with_failures r (Ba_harness.Supervisor.drain sink)
                  | exception exn ->
                      let bt = Printexc.get_backtrace () in
                      crashed_report d ~seed exn bt
                else d.run ~policy ~domains ~quick ~seed
              in
              let wall = Unix.gettimeofday () -. t0 in
              Format.printf "%a@." Ba_harness.Report.pp report;
              (d, report, Some wall))
            selected
        in
        let reports = List.map (fun (_, r, _) -> r) entries in
        (match json_path with
        | None -> ()
        | Some path ->
            let doc =
              Ba_harness.Registry.suite_json ~seed
                ~profile:(if quick then "quick" else "full")
                ~entries ()
            in
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc (Ba_harness.Json.to_string ~pretty:true doc);
                Out_channel.output_char oc '\n');
            Format.printf "wrote %s@." path);
        (match csv_path with
        | None -> ()
        | Some path ->
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc (Ba_harness.Report.csv_of_reports reports));
            Format.printf "wrote %s@." path);
        let broken (r : Ba_harness.Report.t) =
          r.failures <> [] || r.crash <> None || r.shard_failures <> []
        in
        let infra = List.exists broken reports in
        let science_fail =
          List.exists
            (fun (r : Ba_harness.Report.t) ->
              (not (broken r)) && r.verdict = Ba_harness.Report.Fail)
            reports
        in
        if infra then begin
          Format.eprintf "error: infrastructure failure (crashed/runaway trials recorded)@.";
          2
        end
        else if science_fail then begin
          Format.eprintf "error: at least one experiment verdict is FAIL@.";
          1
        end
        else 0

let run ids all list quick domains seed tags json_path csv_path keep_going retries round_cap
    workers checkpoint_dir resume shard_size campaign_trials shard_retries stall_ticks
    campaign_worker kill_shard kill_every =
  if workers <> None || campaign_worker <> None || checkpoint_dir <> None then
    if list || keep_going then begin
      Format.eprintf "error: --list/--keep-going do not combine with campaign mode@.";
      2
    end
    else if domains < 1 || retries < 0
            || (match round_cap with Some c -> c <= 0 | None -> false)
    then begin
      Format.eprintf
        "error: --domains must be >= 1, --retries >= 0 and --trial-round-cap > 0@.";
      2
    end
    else
      campaign_dispatch ~ids ~tags ~all ~quick ~domains ~seed ~json_path ~csv_path ~retries
        ~round_cap ~workers ~checkpoint_dir ~resume ~shard_size ~campaign_trials
        ~shard_retries ~stall_ticks ~campaign_worker ~kill_shard ~kill_every
  else
    run_sweep ids all list quick domains seed tags json_path csv_path keep_going retries
      round_cap

let cmd =
  let doc = "run the paper's registered experiments (E1-E23)" in
  Cmd.v (Cmd.info "ba_sweep" ~doc)
    Term.(const run $ ids_arg $ all_arg $ list_arg $ quick_arg $ domains_arg $ seed_arg $ tag_arg
          $ json_arg $ csv_arg $ keep_going_arg $ retries_arg $ round_cap_arg
          $ workers_arg $ checkpoint_dir_arg $ resume_arg $ shard_size_arg
          $ campaign_trials_arg $ shard_retries_arg $ stall_ticks_arg $ campaign_worker_arg
          $ kill_shard_arg $ kill_every_attempt_arg)

let () = exit (Cmd.eval' cmd)
