(* Layer micros: Bechamel timings of public layer functions on fixed
   inputs, each with its minor-heap allocation per call. Every micro names
   the workload whose end-to-end numbers it should move (README.md).

   Measured like bench/main.ml: monotonic clock plus minor-heap words, OLS
   against the run count, r^2 reported. *)

open Bechamel

type result = { name : string; ns : float; minor_words : float; r2 : float }

(* Bechamel's own minor_allocated reads [Gc.quick_stat], whose minor_words
   OCaml 5.1 only refreshes at minor collections, so a micro that allocates
   a few words per call reads as zero. [Gc.minor_words] is exact. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "words"
end

let minor_words = Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let skeleton_msgs n =
  Array.init n (fun i ->
      Some
        { Ba_core.Skeleton.m_phase = 3;
          m_sub = Ba_core.Skeleton.R2;
          m_val = i mod 2;
          m_decided = i mod 3 = 0;
          m_flip = Some (if i mod 5 < 2 then -1 else 1) })

(* The (phase, sub) key of a packed code, so kernel queries match. *)
let key_of code = (code lsr 7, (code lsr 3) land 3)

let plane_tests () =
  let encode = Ba_core.Skeleton.msg_code in
  let msgs = skeleton_msgs 1024 in
  let phase, sub = key_of (encode (Option.get msgs.(0))) in
  let slab = Array.make 1024 Ba_sim.Plane.absent in
  let shared = Ba_sim.Plane.shared ~encode ~slab msgs in
  let solo = skeleton_msgs 128 in
  let degree = Ba_sparse.Ks_agreement.default_degree ~n:8192 in
  let srcs = Array.init degree (fun k -> k * 89) in
  let ks =
    Array.map
      (fun s -> Some { Ba_sparse.Ks_agreement.g_round = 2; g_val = s mod 2; g_decided = false })
      srcs
  in
  let codes = Array.map (fun m -> Ba_sparse.Ks_agreement.msg_code (Option.get m)) ks in
  let ks_phase, ks_sub = key_of codes.(0) in
  [ Test.make ~name:"plane.shared_n1024"
      (Staged.stage (fun () -> Ba_sim.Plane.shared ~encode ~slab msgs));
    (* a fresh shard view per call defeats the memo, so the scan is timed *)
    Test.make ~name:"plane.vote_counts_n1024"
      (Staged.stage (fun () ->
           Ba_sim.Plane.vote_counts (Ba_sim.Plane.shard_view shared) ~phase ~sub
             ~decided_only:false));
    Test.make ~name:"plane.signed_sum_n1024"
      (Staged.stage (fun () ->
           Ba_sim.Plane.signed_sum (Ba_sim.Plane.shard_view shared) ~phase ~sub
             ~members:(fun v -> v land 7 = 0)));
    (* the dense-Byzantine arm's per-recipient solo plane: copy, wrap, tally *)
    Test.make ~name:"plane.of_array_n128"
      (Staged.stage (fun () ->
           Ba_sim.Plane.vote_counts
             (Ba_sim.Plane.of_array ~encode (Array.copy solo))
             ~phase ~sub ~decided_only:false));
    Test.make ~name:"plane.sparse_slice_d91"
      (Staged.stage (fun () ->
           Ba_sim.Plane.vote_counts
             (Ba_sim.Plane.sparse_slice ~codes ~n:8192 ~srcs ~msgs:ks ~lo:0 ~hi:degree ())
             ~phase:ks_phase ~sub:ks_sub ~decided_only:false)) ]

let topology_test ~name ~n ~degree =
  let topo = Ba_sim.Topology.instantiate (Ba_sim.Topology.Sampled { degree }) ~n ~seed:11L in
  let src = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         src := (!src + 7919) mod n;
         Ba_sim.Topology.recipients topo ~round:1 ~src:!src))

let faults_test () =
  let n = 40 in
  let inst =
    Ba_sim.Faults.instantiate (Ba_sim.Faults.make ~drop:0.05 ~duplicate:0.05 ()) ~n ~seed:5L
  in
  let metrics = Ba_sim.Metrics.create () in
  let link = ref 0 in
  Test.make ~name:"faults.deliver"
    (Staged.stage (fun () ->
         incr link;
         let l = !link in
         Ba_sim.Faults.deliver inst ~metrics
           ~round:(1 + (l / (n * n)))
           ~src:(l mod n)
           ~dst:(l / n mod n)
           (Some l)))

let mailbox_tests () =
  let steady = Ba_async.Mailbox.create ~n:16 () in
  for i = 0 to 63 do
    ignore (Ba_async.Mailbox.enqueue steady ~src:(i mod 16) ~dst:(i * 7 mod 16) ~birth:0 i : int)
  done;
  let k = ref 0 in
  let big = Ba_async.Mailbox.create ~n:64 () in
  for i = 0 to 4095 do
    ignore (Ba_async.Mailbox.enqueue big ~src:(i mod 64) ~dst:(i * 7 mod 64) ~birth:0 i : int)
  done;
  let rng = Ba_prng.Rng.create 3L in
  [ Test.make ~name:"mailbox.enqueue_remove"
      (Staged.stage (fun () ->
           incr k;
           ignore
             (Ba_async.Mailbox.enqueue steady ~src:(!k mod 16) ~dst:(!k * 7 mod 16) ~birth:!k !k
               : int);
           Ba_async.Mailbox.remove steady (Ba_async.Mailbox.head steady)));
    Test.make ~name:"mailbox.nth_global_n4096"
      (Staged.stage (fun () -> Ba_async.Mailbox.nth_global big (Ba_prng.Rng.int rng 4096))) ]

(* One capped Ben-Or n=16 run per call on a fixed seed; [steps] divides
   the per-run figures down to one scheduler step. *)
let async_step_test ~name ~adversary =
  let n = 16 and t = 3 in
  let protocol = Ba_async.Ben_or_async.make ~n ~t in
  let inputs = Array.init n (fun i -> i mod 2) in
  let seed = 2026L in
  let run () =
    let rng = Ba_prng.Rng.create (Ba_prng.Splitmix64.mix seed) in
    (Ba_async.Async_engine.run ~max_steps:2048 ~protocol ~adversary:(adversary rng) ~n ~t ~inputs
       ~seed ())
      .steps
  in
  let steps = run () in
  (Test.make ~name (Staged.stage run), float_of_int (max 1 steps))

(* [(test, divisor)]: per-call figures are divided by [divisor]. *)
let tests () =
  let rng = Ba_prng.Rng.create 7L in
  List.map
    (fun t -> (t, 1.0))
    ((Test.make ~name:"rng.bits64" (Staged.stage (fun () -> Ba_prng.Rng.bits64 rng))
     :: plane_tests ())
    @ [ topology_test ~name:"topology.recipients_n8192_d91" ~n:8192
          ~degree:(Ba_sparse.Ks_agreement.default_degree ~n:8192);
        topology_test ~name:"topology.recipients_n1M_d4" ~n:1_000_000 ~degree:4;
        faults_test () ]
    @ mailbox_tests ())
  @ [ async_step_test ~name:"async.fifo_step" ~adversary:(fun _ -> Ba_async.Async_engine.fifo);
      async_step_test ~name:"async.uniform_step" ~adversary:(fun rng ->
          Ba_async.Async_adv.random_scheduler ~rng);
      async_step_test ~name:"async.opaque_step" ~adversary:(fun rng ->
          Ba_async.Async_engine.opaque_of (Ba_async.Async_adv.random_scheduler ~rng)) ]

let estimate analysis name =
  let ols = Hashtbl.find analysis name in
  match Analyze.OLS.estimates ols with
  | Some [ e ] -> (e, Option.value (Analyze.OLS.r_square ols) ~default:nan)
  | Some _ | None -> (nan, nan)

(* Runs every micro with [quota_ms] per test, in list order. *)
let run ~quota_ms =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = [ Toolkit.Instance.monotonic_clock; minor_words ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second (quota_ms /. 1000.)) ~stabilize:true ()
  in
  List.map
    (fun (test, per) ->
      let name = Test.name test in
      let raw = Benchmark.all cfg instances test in
      let ns, r2 = estimate (Analyze.all ols Toolkit.Instance.monotonic_clock raw) name in
      let words, _ = estimate (Analyze.all ols minor_words raw) name in
      { name; ns = ns /. per; minor_words = words /. per; r2 })
    (tests ())
