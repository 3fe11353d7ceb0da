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
  (* A restricted plan delivers through one CSR inbox slab per run
     (DESIGN.md section 13), sized once from the plan's out-degree bound:
     every sender has at most its self-edge plus [degree_bound] links per
     round. [edge_msg] keeps per-edge payloads, needed only when a fault
     plan or a corrupted sender can change them. *)
  let cap = match topo with Some ti -> n * (Topology.degree_bound ti + 1) | None -> 0 in
  let per_node = if cap > 0 then n + 1 else 0 in
  let edge_dst = Array.make cap 0 in
  let edge_msg = Array.make (if Option.is_some faults || t > 0 then cap else 0) None in
  let src_off = Array.make per_node 0 in
  let inbox_end = Array.make per_node 0 in
  let sender_code = Array.make per_node Plane.absent in
  let inbox_srcs = Array.make cap 0 in
  let inbox_msgs = Array.make cap None in
  let inbox_codes = if cap > 0 && Option.is_some codec then Some (Array.make cap Plane.absent) else None in
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
       topology, delivery routes through sparse plane slices of the CSR
       inbox slab (first arm below; DESIGN.md §13). On the dense plan, two modes, both
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
        (* Restricted topology, pass 1, senders ascending: sampling,
           [byz_msg], fault draws and metering happen here, in the order of
           the per-link loop. Each delivered edge's recipient is appended
           to [edge_dst] (compacting the sampled set in place) and counted
           in [inbox_end.(dst + 1)]. Byzantine traffic is constrained to
           the sender's sampled links: corruption buys a node's slots in
           the topology, not extra edges (DESIGN.md §13). *)
        Array.fill inbox_end 0 (n + 1) 0;
        let e = ref 0 in
        let keep u =
          edge_dst.(!e) <- u;
          incr e;
          inbox_end.(u + 1) <- inbox_end.(u + 1) + 1
        in
        let keep_owned u m =
          edge_msg.(!e) <- m;
          keep u
        in
        let link ~src ~dst raw ~byzantine =
          let m =
            match faults with
            | None -> raw
            | Some inst -> Faults.deliver inst ~metrics ~round:r ~src ~dst raw
          in
          match m with
          | Some p ->
              meter p ~byzantine;
              keep_owned dst m
          | None -> ()
        in
        for v = 0 to n - 1 do
          src_off.(v) <- !e;
          if corrupted.(v) then begin
            let first = !e in
            for i = first to first + Topology.recipients_into ti ~round:r ~src:v edge_dst ~pos:first - 1 do
              let u = edge_dst.(i) in
              if live u then link ~src:v ~dst:u (action.byz_msg ~src:v ~dst:u) ~byzantine:true
            done
          end
          else if live v then
            match honest_msgs.(v) with
            | Some p -> (
                (match codec with Some enc -> sender_code.(v) <- enc p | None -> ());
                (* a node always hears itself, unmetered — as on the dense
                   plane; the self-edge takes the slot before the sample *)
                let first = !e + 1 in
                let last = first + Topology.recipients_into ti ~round:r ~src:v edge_dst ~pos:first - 1 in
                match faults with
                | None ->
                    keep v;
                    for i = first to last do
                      if live edge_dst.(i) then keep edge_dst.(i)
                    done;
                    let copies = !e - first in
                    if copies > 0 then begin
                      let bits = protocol.msg_bits p in
                      Metrics.record_broadcast metrics ~bits ~words:(protocol.msg_words p)
                        ~copies ~byzantine:false;
                      match congest_limit_bits with
                      | Some limit when bits > limit ->
                          Metrics.record_congest_violations metrics copies
                      | Some _ | None -> ()
                    end
                | Some _ ->
                    keep_owned v honest_msgs.(v);
                    for i = first to last do
                      let u = edge_dst.(i) in
                      if live u then link ~src:v ~dst:u honest_msgs.(v) ~byzantine:false
                    done)
            | None -> ()
        done;
        src_off.(n) <- !e;
        (* Prefix sum: [inbox_end.(u)] becomes the start of [u]'s slice.
           Pass 2 is a stable counting sort by recipient into the inbox
           slab: senders run ascending, so every slice is src-ascending,
           and afterwards [inbox_end.(u)] is the end of [u]'s slice. Only
           edges a fault or a corruption can change carry their own
           payload; the rest take their sender's broadcast and its code,
           encoded once, in a sequential pass 3 (cheaper than scattering
           two more arrays). *)
        for u = 1 to n do
          inbox_end.(u) <- inbox_end.(u) + inbox_end.(u - 1)
        done;
        for v = 0 to n - 1 do
          let owned = Option.is_some faults || corrupted.(v) in
          for i = src_off.(v) to src_off.(v + 1) - 1 do
            let u = edge_dst.(i) in
            let k = inbox_end.(u) in
            inbox_end.(u) <- k + 1;
            inbox_srcs.(k) <- v;
            if owned then begin
              let m = edge_msg.(i) in
              inbox_msgs.(k) <- m;
              match (inbox_codes, codec, m) with
              | Some cs, Some enc, Some p -> cs.(k) <- enc p
              | (Some _ | None), _, _ -> ()
            end
          done
        done;
        if Option.is_none faults then
          for k = 0 to src_off.(n) - 1 do
            let v = inbox_srcs.(k) in
            if not corrupted.(v) then begin
              inbox_msgs.(k) <- honest_msgs.(v);
              match inbox_codes with Some cs -> cs.(k) <- sender_code.(v) | None -> ()
            end
          done;
        let lo = ref 0 in
        for u = 0 to n - 1 do
          let hi = inbox_end.(u) in
          if live u then
            states.(u) <-
              protocol.recv (ctx_of u) states.(u) ~round:r
                ~inbox:
                  (Plane.sparse_slice ?codes:inbox_codes ~n ~srcs:inbox_srcs ~msgs:inbox_msgs
                     ~lo:!lo ~hi ());
          lo := hi
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
