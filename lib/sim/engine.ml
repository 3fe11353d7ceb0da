type round_record = {
  rr_round : int;
  rr_new_corruptions : int list;
  rr_views : Protocol.node_view option array;
}

type outcome = {
  protocol_name : string;
  adversary_name : string;
  n : int;
  t : int;
  inputs : int array;
  rounds : int;
  completed : bool;
  outputs : int option array;
  corrupted : bool array;
  corruptions_used : int;
  metrics : Metrics.t;
  records : round_record list;
}

let validate ~n ~t ~inputs =
  if t < 0 || t >= n then invalid_arg "Engine.run: need 0 <= t < n";
  if Array.length inputs <> n then invalid_arg "Engine.run: inputs length <> n";
  Array.iter (fun b -> if b <> 0 && b <> 1 then invalid_arg "Engine.run: inputs must be 0/1") inputs

let run ?max_rounds ?(record = false) ?congest_limit_bits ?faults ?(topology = Topology.Dense)
    ?trace ~(protocol : ('state, 'msg) Protocol.t) ~(adversary : ('state, 'msg) Adversary.t) ~n ~t
    ~inputs ~seed () =
  validate ~n ~t ~inputs;
  let max_rounds =
    match max_rounds with Some m -> m | None -> Protocol.default_round_cap ~n
  in
  let faults =
    match faults with
    | Some plan when not (Faults.is_none plan) -> Some (Faults.instantiate plan ~n ~seed)
    | Some _ | None -> None
  in
  (* The dense plan keeps the historical broadcast path bit-for-bit; a
     restricted plan (sampled / committee links) routes delivery through
     per-recipient sparse plane slices (DESIGN.md §13). *)
  let topo =
    if Topology.is_dense topology then None else Some (Topology.instantiate topology ~n ~seed)
  in
  let master = Ba_prng.Rng.create seed in
  let node_rngs = Ba_prng.Rng.split_n master n in
  let ctx_of v = { Protocol.n; t; me = v; rng = node_rngs.(v) } in
  let states = Array.init n (fun v -> protocol.init (ctx_of v) ~input:inputs.(v)) in
  let corrupted = Array.make n false in
  let halted = Array.make n false in
  let corruptions_used = ref 0 in
  let metrics = Metrics.create () in
  let meter payload ~byzantine =
    let bits = protocol.msg_bits payload in
    Metrics.record_message metrics ~bits ~words:(protocol.msg_words payload) ~byzantine;
    match congest_limit_bits with
    | Some limit when bits > limit -> Metrics.record_congest_violation metrics
    | Some _ | None -> ()
  in
  let records = ref [] in
  let codec = protocol.codec in
  (* One packed-code slab for the whole run, repacked in place each benign
     broadcast round (DESIGN.md section 10). *)
  let slab = Array.make (max n 1) Plane.absent in
  let live v = (not corrupted.(v)) && not halted.(v) in
  let all_honest_halted () =
    let stop = ref true in
    for v = 0 to n - 1 do
      if live v then stop := false
    done;
    !stop
  in
  let round = ref 0 in
  let completed = ref (all_honest_halted ()) in
  let emit e = match trace with Some f -> f e | None -> () in
  while (not !completed) && !round < max_rounds do
    incr round;
    let r = !round in
    Metrics.record_round metrics;
    emit (Run.Tick { index = r });
    (* 1. Honest nodes commit their round broadcasts. *)
    let honest_msgs =
      Array.init n (fun v -> if live v then protocol.send (ctx_of v) states.(v) ~round:r else None)
    in
    (* 1b. Crash-recovery schedules suppress broadcasts of silenced nodes
       (the node keeps receiving and stepping, so it stays in sync). The
       rushing adversary observes the silence like everything else. *)
    (match faults with
    | Some inst ->
        for v = 0 to n - 1 do
          if live v && Option.is_some honest_msgs.(v) && Faults.silenced inst ~node:v ~round:r
          then begin
            honest_msgs.(v) <- None;
            Metrics.record_crash_silence metrics
          end
        done
    | None -> ());
    (* 2. The rushing adversary observes everything and acts. *)
    let view =
      { Adversary.round = r;
        n;
        t;
        corrupted = Array.copy corrupted;
        budget_left = t - !corruptions_used;
        halted = Array.copy halted;
        honest_msgs = Array.copy honest_msgs;
        states = Array.init n (fun v -> if live v then Some states.(v) else None);
        views =
          Array.init n (fun v -> if live v then protocol.inspect states.(v) else None) }
    in
    let action = adversary.act view in
    (* 3. Apply corruptions, clamped to the remaining budget. *)
    let new_corruptions = ref [] in
    List.iter
      (fun v ->
        if v >= 0 && v < n && (not corrupted.(v)) && !corruptions_used < t then begin
          corrupted.(v) <- true;
          incr corruptions_used;
          emit (Run.Corrupt { index = r; node = v });
          new_corruptions := v :: !new_corruptions;
          (* Rushing adaptivity: the just-produced honest broadcast of a
             newly corrupted node never reaches anyone. *)
          honest_msgs.(v) <- None
        end)
      action.corrupt;
    (* 4. Delivery + 5. recv for each live honest node. Under a restricted
       topology, delivery routes through per-recipient sparse plane slices
       (first arm below; DESIGN.md §13). On the dense plan, two modes, both
       observably identical to per-link delivery (same metrics, same RNG
       draw order — the determinism proof obligation of DESIGN.md §10):

       - benign broadcast (no fault instance, no corrupted node): every
         live recipient's inbox is the same array, so one shared plane is
         packed once and every recv reads it;
       - Byzantine senders or link faults: the exact per-link loop on a
         per-recipient copy of the honest slab (recipients ascending, then
         senders ascending): [byz_msg] for a corrupted sender, then
         [Faults.deliver] when the run has a fault instance, then
         metering, as index-level edits on the copy.

       Each recv reads and writes only its own node's state, and the view
       holds its own arrays, so states are stepped in place. Corruptions
       never revert, so the budget counter is the corrupted-set size. *)
    (match (topo, faults) with
    | Some ti, _ ->
        (* Restricted topology: per-recipient delivery lists, built in a
           single src-ascending pass — sampling, Byzantine patching and
           fault draws all happen here. Each list is built newest-head, then
           materialized back-to-front into sorted slices.
           Byzantine traffic is constrained to the sender's sampled links:
           corruption buys a node's slots in the topology, not extra edges
           (DESIGN.md §13). *)
        let inboxes = Array.make n [] in
        let push ~src ~dst payload = inboxes.(dst) <- (src, payload) :: inboxes.(dst) in
        for v = 0 to n - 1 do
          if corrupted.(v) then begin
            let rs = Topology.recipients ti ~round:r ~src:v in
            Array.iter
              (fun u ->
                if live u then begin
                  let raw = action.byz_msg ~src:v ~dst:u in
                  let m =
                    match faults with
                    | None -> raw
                    | Some inst -> Faults.deliver inst ~metrics ~round:r ~src:v ~dst:u raw
                  in
                  match m with
                  | Some p ->
                      meter p ~byzantine:true;
                      push ~src:v ~dst:u p
                  | None -> ()
                end)
              rs
          end
          else if live v then
            match honest_msgs.(v) with
            | Some p -> (
                (* a node always hears itself, unmetered — as on the dense
                   plane *)
                push ~src:v ~dst:v p;
                let rs = Topology.recipients ti ~round:r ~src:v in
                match faults with
                | None ->
                    let copies = ref 0 in
                    Array.iter
                      (fun u ->
                        if live u then begin
                          push ~src:v ~dst:u p;
                          incr copies
                        end)
                      rs;
                    if !copies > 0 then begin
                      let bits = protocol.msg_bits p in
                      Metrics.record_broadcast metrics ~bits ~words:(protocol.msg_words p)
                        ~copies:!copies ~byzantine:false;
                      match congest_limit_bits with
                      | Some limit when bits > limit ->
                          Metrics.record_congest_violations metrics !copies
                      | Some _ | None -> ()
                    end
                | Some inst ->
                    Array.iter
                      (fun u ->
                        if live u then
                          match Faults.deliver inst ~metrics ~round:r ~src:v ~dst:u (Some p) with
                          | Some p' ->
                              meter p' ~byzantine:false;
                              push ~src:v ~dst:u p'
                          | None -> ())
                      rs)
            | None -> ()
        done;
        let plane_of u =
          let entries = inboxes.(u) in
          let len = List.length entries in
          let srcs = Array.make len 0 in
          let msgs = Array.make len None in
          let codes = match codec with Some _ -> Some (Array.make len Plane.absent) | None -> None
          in
          let k = ref len in
          List.iter
            (fun (s, p) ->
              decr k;
              srcs.(!k) <- s;
              msgs.(!k) <- Some p;
              match (codes, codec) with
              | Some cs, Some enc -> cs.(!k) <- enc p
              | (Some _ | None), _ -> ())
            entries;
          Plane.sparse_slice ?codes ~n ~srcs ~msgs ~lo:0 ~hi:len ()
        in
        for u = 0 to n - 1 do
          if live u then
            states.(u) <- protocol.recv (ctx_of u) states.(u) ~round:r ~inbox:(plane_of u)
        done
    | None, None when !corruptions_used = 0 ->
        let live_recipients = ref 0 in
        for v = 0 to n - 1 do
          if live v then incr live_recipients
        done;
        for v = 0 to n - 1 do
          match honest_msgs.(v) with
          | Some payload ->
              let copies = !live_recipients - if live v then 1 else 0 in
              if copies > 0 then begin
                let bits = protocol.msg_bits payload in
                Metrics.record_broadcast metrics ~bits ~words:(protocol.msg_words payload) ~copies
                  ~byzantine:false;
                match congest_limit_bits with
                | Some limit when bits > limit ->
                    Metrics.record_congest_violations metrics copies
                | Some _ | None -> ()
              end
          | None -> ()
        done;
        let plane = Plane.shared ?encode:codec ~slab honest_msgs in
        for u = 0 to n - 1 do
          if live u then
            states.(u) <- protocol.recv (ctx_of u) states.(u) ~round:r ~inbox:plane
        done
    | None, _ ->
        for u = 0 to n - 1 do
          if live u then begin
            let data = Array.copy honest_msgs in
            for v = 0 to n - 1 do
              if v <> u then begin
                let byzantine = corrupted.(v) in
                let raw = if byzantine then action.byz_msg ~src:v ~dst:u else data.(v) in
                (* Benign link faults apply to honest and Byzantine payloads
                   alike; self-delivery is exempt (a node always hears itself
                   unless silenced above). Slots are written only when they
                   change: each write to the boxed array is a barrier call. *)
                (match faults with
                | Some inst -> data.(v) <- Faults.deliver inst ~metrics ~round:r ~src:v ~dst:u raw
                | None -> if byzantine then data.(v) <- raw);
                match data.(v) with Some payload -> meter payload ~byzantine | None -> ()
              end
            done;
            states.(u) <-
              protocol.recv (ctx_of u) states.(u) ~round:r ~inbox:(Plane.of_array ?encode:codec data)
          end
        done);
    for v = 0 to n - 1 do
      if (not corrupted.(v)) && (not halted.(v)) && protocol.halted states.(v) then
        halted.(v) <- true
    done;
    if record then begin
      let rr_views =
        Array.init n (fun v ->
            if corrupted.(v) then None else protocol.inspect states.(v))
      in
      records :=
        { rr_round = r; rr_new_corruptions = List.rev !new_corruptions; rr_views }
        :: !records
    end;
    completed := all_honest_halted ()
  done;
  let outputs =
    Array.init n (fun v -> if corrupted.(v) then None else protocol.output states.(v))
  in
  { protocol_name = protocol.name;
    adversary_name = adversary.adv_name;
    n;
    t;
    inputs = Array.copy inputs;
    rounds = !round;
    completed = !completed;
    outputs;
    corrupted = Array.copy corrupted;
    corruptions_used = !corruptions_used;
    metrics;
    records = List.rev !records }

(* Projection into the engine-agnostic substrate. The arrays are shared,
   not copied: an outcome is immutable once returned. *)
let to_run o =
  { Run.protocol_name = o.protocol_name;
    adversary_name = o.adversary_name;
    n = o.n;
    t = o.t;
    inputs = o.inputs;
    span = Run.Rounds o.rounds;
    completed = o.completed;
    outputs = o.outputs;
    corrupted = o.corrupted;
    corruptions_used = o.corruptions_used;
    metrics = o.metrics }

let honest_outputs o = Run.honest_outputs (to_run o)

let agreement_holds o = Run.agreement_holds (to_run o)

let validity_holds o = Run.validity_holds (to_run o)
