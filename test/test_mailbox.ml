(* Mailbox slab + async engine picks: structural invariants under random
   op sequences (model-based), slot recycling without aliasing,
   FIFO-per-link delivery order under duplicates and silence, and
   byte-identity of every pure-scheduler pick (PRNG replay included)
   against the view-building opaque pick. *)

open Ba_async
module Rng = Ba_prng.Rng
module Strategy = Ba_adversary.Strategy
module Faults = Ba_sim.Faults
module Metrics = Ba_sim.Metrics

(* ---------------- model-based slab checks ---------------- *)

(* Reference model: the live set as a list of (id, src, dst, birth, msg) in
   ascending id order. *)
let check_against_model mb model =
  Mailbox.validate mb;
  Alcotest.(check int) "size" (List.length model) (Mailbox.size mb);
  (* global walk = the model *)
  let walked = ref [] in
  let s = ref (Mailbox.head mb) in
  while !s <> -1 do
    walked :=
      (Mailbox.id mb !s, Mailbox.src mb !s, Mailbox.dst mb !s, Mailbox.birth mb !s,
       Mailbox.msg mb !s)
      :: !walked;
    s := Mailbox.next_global mb !s
  done;
  Alcotest.(check bool) "global walk = model" true (List.rev !walked = model);
  (* rank selection and id lookup agree with the model *)
  List.iteri
    (fun k (i, _, _, _, m) ->
      let sk = Mailbox.nth_global mb k in
      Alcotest.(check int) "nth_global id" i (Mailbox.id mb sk);
      Alcotest.(check int) "find_by_id payload" m (Mailbox.msg mb (Mailbox.find_by_id mb i)))
    model;
  Alcotest.(check int) "nth_global out of range" (-1) (Mailbox.nth_global mb (List.length model))

let per_src mb v =
  let out = ref [] in
  let s = ref (Mailbox.head_src mb v) in
  while !s <> -1 do
    out := Mailbox.id mb !s :: !out;
    s := Mailbox.next_src mb !s
  done;
  List.rev !out

let prop_model_random_ops =
  QCheck.Test.make ~name:"slab model agreement under random op sequences" ~count:40
    QCheck.(pair int64 (int_range 30 120))
    (fun (seed, len) ->
      let n = 5 in
      let rng = Rng.create seed in
      let mb = Mailbox.create ~n () in
      let model = ref [] (* ascending id order *) in
      for i = 0 to len - 1 do
        let op = Rng.int rng 100 in
        if op < 55 || !model = [] then begin
          let src = Rng.int rng n and dst = Rng.int rng n and m = Rng.int rng 1000 in
          let id = Mailbox.enqueue mb ~src ~dst ~birth:i m in
          Alcotest.(check int) "dense id" (Mailbox.next_id mb - 1) id;
          model := !model @ [ (id, src, dst, i, m) ]
        end
        else if op < 85 then begin
          let k = Rng.int rng (List.length !model) in
          let id, _, _, _, _ = List.nth !model k in
          Mailbox.remove mb (Mailbox.find_by_id mb id);
          Alcotest.(check int) "removed id gone" (-1) (Mailbox.find_by_id mb id);
          model := List.filter (fun (i', _, _, _, _) -> i' <> id) !model
        end
        else begin
          let v = Rng.int rng n in
          Mailbox.remove_src mb v;
          model := List.filter (fun (_, s', _, _, _) -> s' <> v) !model
        end;
        Mailbox.validate mb
      done;
      check_against_model mb !model;
      for v = 0 to n - 1 do
        let want f = List.filter_map (fun (i, s, _, _, _) -> if f s then Some i else None) !model in
        Alcotest.(check (list int)) "per-src queue" (want (fun s -> s = v))
          (per_src mb v)
      done;
      true)

let test_recycle_no_aliasing () =
  (* Fill, drain, refill: capacity must not grow (slots recycled) and every
     recycled slot must read back the new message, not the old one. *)
  let n = 4 in
  let mb = Mailbox.create ~n () in
  let k = 32 in
  for i = 0 to k - 1 do
    ignore (Mailbox.enqueue mb ~src:(i mod n) ~dst:((i + 1) mod n) ~birth:0 (1000 + i))
  done;
  let cap = Mailbox.capacity mb in
  while not (Mailbox.is_empty mb) do
    Mailbox.remove mb (Mailbox.head mb)
  done;
  Mailbox.validate mb;
  for i = 0 to k - 1 do
    ignore (Mailbox.enqueue mb ~src:(i mod n) ~dst:(i mod n) ~birth:1 (2000 + i))
  done;
  Alcotest.(check int) "capacity unchanged by recycling" cap (Mailbox.capacity mb);
  Alcotest.(check int) "ids stay dense across recycling" (2 * k) (Mailbox.next_id mb);
  let s = ref (Mailbox.head mb) and expect = ref 2000 in
  while !s <> -1 do
    Alcotest.(check int) "recycled slot holds the new payload" !expect (Mailbox.msg mb !s);
    incr expect;
    s := Mailbox.next_global mb !s
  done;
  Mailbox.validate mb

let test_mailbox_validation () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Mailbox.create: n must be positive")
    (fun () -> ignore (Mailbox.create ~n:0 ()));
  let mb = Mailbox.create ~n:2 () in
  Alcotest.check_raises "bad dst" (Invalid_argument "Mailbox.enqueue: dst out of range")
    (fun () -> ignore (Mailbox.enqueue mb ~src:0 ~dst:2 ~birth:0 0))

(* ---------------- FIFO-per-link order under duplicates + silence -------- *)

(* Recorder protocol: every node broadcasts sequence number 0 at init and
   seq [k + 1] upon receiving its own seq [k] (self-delivery clocks the
   chain), up to [per] numbers; receivers log (src, seq) in delivery order
   and decide once they have seen [need] deliveries. Spreading the sends
   over the run lets silence windows (which start at step 1) actually
   suppress some of them. *)
type recorder_state = { log : (int * int) list (* newest first *); cnt : int }

let recorder ~per ~need : (recorder_state, int) Async_engine.protocol =
  { Async_engine.name = "recorder";
    init =
      (fun ctx ~input:_ ->
        ({ log = []; cnt = 0 }, Async_engine.broadcast ~n:ctx.Async_engine.n 0));
    on_message =
      (fun ctx st ~src msg ->
        let sends =
          if src = ctx.Async_engine.me && msg + 1 < per then
            Async_engine.broadcast ~n:ctx.n (msg + 1)
          else []
        in
        ({ log = (src, msg) :: st.log; cnt = st.cnt + 1 }, sends));
    output = (fun st -> if st.cnt >= need then Some 0 else None);
    msg_bits = (fun _ -> 8) }

let first_occurrences_increasing log_oldest_first ~n =
  List.for_all
    (fun src ->
      let seen = Hashtbl.create 16 in
      let last = ref (-1) in
      List.for_all
        (fun (s, seq) ->
          if s <> src || Hashtbl.mem seen seq then true
          else begin
            Hashtbl.add seen seq ();
            let ok = seq > !last in
            last := seq;
            ok
          end)
        log_oldest_first)
    (List.init n Fun.id)

let run_recorder ~adversary ~seed =
  let n = 8 and per = 6 in
  let silenced = 1 in
  let need = (n - 1) * per in
  let faults =
    Faults.make ~duplicate:0.3
      ~silences:[ { Faults.s_node = silenced; s_from = 1; s_until = 40_000 } ]
      ()
  in
  Async_engine.run ~protocol:(recorder ~per ~need) ~adversary ~faults ~n ~t:0
    ~inputs:(Array.make n 0) ~seed ()

(* The engine outcome does not expose protocol states, so the order check
   taps the recorder's [on_message] into per-node log cells. *)
let prop_fifo_per_link =
  QCheck.Test.make ~name:"fifo per-link first-occurrence order under dup + silence" ~count:25
    QCheck.int64 (fun seed ->
      let n = 8 and per = 6 in
      let logs = Array.make n [] in
      let protocol =
        let base = recorder ~per ~need:((n - 1) * per) in
        { base with
          Async_engine.on_message =
            (fun ctx st ~src msg ->
              logs.(ctx.Async_engine.me) <- (src, msg) :: logs.(ctx.me);
              base.on_message ctx st ~src msg) }
      in
      let faults =
        Faults.make ~duplicate:0.3
          ~silences:[ { Faults.s_node = 1; s_from = 1; s_until = 40_000 } ]
          ()
      in
      let o =
        Async_engine.run ~protocol ~adversary:Async_engine.fifo ~faults ~n ~t:0
          ~inputs:(Array.make n 0) ~seed ()
      in
      o.Async_engine.completed
      && Metrics.link_duplicates o.metrics > 0
      && Metrics.crash_silences o.metrics > 0
      && Array.for_all (fun l -> first_occurrences_increasing (List.rev l) ~n) logs)

(* ---------------- fast-path byte-identity ---------------- *)

let same_outcome (a : Async_engine.outcome) (b : Async_engine.outcome) =
  a.steps = b.steps && a.deliveries = b.deliveries && a.completed = b.completed
  && a.outputs = b.outputs && a.corrupted = b.corrupted
  && a.corruptions_used = b.corruptions_used
  && Metrics.messages a.metrics = Metrics.messages b.metrics
  && Metrics.bits a.metrics = Metrics.bits b.metrics
  && Metrics.link_drops a.metrics = Metrics.link_drops b.metrics
  && Metrics.link_duplicates a.metrics = Metrics.link_duplicates b.metrics
  && Metrics.crash_silences a.metrics = Metrics.crash_silences b.metrics
  && Metrics.fault_events a.metrics = Metrics.fault_events b.metrics

let ben_or_faults () =
  Faults.make ~drop:0.02 ~duplicate:0.05
    ~silences:[ { Faults.s_node = 2; s_from = 10; s_until = 60 } ]
    ()

let ben_or_run ?faults ~adversary ~seed () =
  let n = 11 and t = 2 in
  Async_engine.run ?faults ~protocol:(Ben_or_async.make ~n ~t) ~adversary ~n ~t
    ~inputs:(Array.init n (fun i -> i mod 2)) ~seed ()

let prop_policy_vs_opaque =
  (* Every policy's slab pick (fifo, delayer, PRNG-replay uniform and
     scored) must be byte-identical to the same adversary forced through
     the view-building opaque pick, with and without benign faults;
     the recorder workload adds fifo under duplicates and a silence
     window. *)
  QCheck.Test.make ~name:"policy fast paths = opaque general loop" ~count:12 QCheck.int64
    (fun seed ->
      let advs =
        [ (fun () -> Async_engine.fifo);
          (fun () -> Async_adv.of_strategy (Strategy.async_delayer_point ~victims:[ 0; 3 ]));
          (fun () -> Async_adv.random_scheduler ~rng:(Rng.create (Int64.add seed 7L)));
          (fun () ->
            Async_adv.of_strategy_ben_or ~rng:(Rng.create (Int64.add seed 9L))
              Strategy.async_balancer_point) ]
      in
      List.for_all
        (fun mk ->
          List.for_all
            (fun faults ->
              let fast = ben_or_run ?faults ~adversary:(mk ()) ~seed () in
              let slow =
                ben_or_run ?faults ~adversary:(Async_engine.opaque_of (mk ())) ~seed ()
              in
              same_outcome fast slow)
            [ None; Some (ben_or_faults ()) ])
        advs
      && same_outcome
           (run_recorder ~adversary:Async_engine.fifo ~seed)
           (run_recorder ~adversary:(Async_engine.opaque_of Async_engine.fifo) ~seed))

let () =
  Alcotest.run "ba_mailbox"
    [ ("slab",
       [ Alcotest.test_case "recycle without aliasing" `Quick test_recycle_no_aliasing;
         Alcotest.test_case "validation" `Quick test_mailbox_validation;
         QCheck_alcotest.to_alcotest prop_model_random_ops ]);
      ("engine-paths",
       [ QCheck_alcotest.to_alcotest prop_fifo_per_link;
         QCheck_alcotest.to_alcotest prop_policy_vs_opaque ]) ]
