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
  let max_rounds = Option.value max_rounds ~default:(Protocol.default_round_cap ~n) in
  let faults =
    match faults with
    | Some plan when not (Faults.is_none plan) -> Some (Faults.instantiate plan ~n ~seed)
    | Some _ | None -> None
  in
  (* A restricted plan (sampled / committee links) routes delivery through
     per-recipient sparse plane slices (DESIGN.md §13). *)
  let topo =
    if Topology.is_dense topology then None else Some (Topology.instantiate topology ~n ~seed)
  in
  let node_rngs = Ba_prng.Rng.split_n (Ba_prng.Rng.create seed) n in
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
  let faulted ~round ~src ~dst m =
    match faults with Some inst -> Faults.deliver inst ~metrics ~round ~src ~dst m | None -> m
  in
  (* [copies] unchanged deliveries of one honest broadcast, metered at once *)
  let meter_copies payload ~copies =
    if copies > 0 then begin
      let bits = protocol.msg_bits payload in
      Metrics.record_broadcast metrics ~bits ~words:(protocol.msg_words payload) ~copies
        ~byzantine:false;
      match congest_limit_bits with
      | Some limit when bits > limit -> Metrics.record_congest_violations metrics copies
      | Some _ | None -> ()
    end
  in
  let records = ref [] and codec = protocol.codec in
  (* One packed-code slab for the whole run, repacked in place each dense
     round (DESIGN.md section 10). *)
  let slab = Array.make (max n 1) Plane.absent in
  (* A restricted plan delivers through one CSR inbox slab per run
     (DESIGN.md section 13), sized once from the plan's out-degree bound:
     every sender has at most its self-edge plus [degree_bound] links per
     round. Per-edge payloads ([edge_msg], [inbox_msgs], [inbox_codes])
     exist only when a fault plan or a corrupted sender can make an edge
     differ from its sender's broadcast; otherwise slices read the
     broadcast and [sender_code] through the sender id. *)
  let cap = match topo with Some ti -> n * (Topology.degree_bound ti + 1) | None -> 0 in
  let per_node = if cap > 0 then n + 1 else 0 in
  let owned_cap = if Option.is_some faults || t > 0 then cap else 0 in
  let edge_dst = Array.make cap 0 in
  let edge_msg = Array.make owned_cap None in
  let src_off = Array.make per_node 0 in
  let inbox_end = Array.make per_node 0 in
  let sender_code = Array.make per_node Plane.absent in
  let sender_codes = Option.map (fun _ -> sender_code) codec in
  let inbox_srcs = Array.make cap 0 in
  let inbox_msgs = Array.make owned_cap None in
  let inbox_codes = Option.map (fun _ -> Array.make owned_cap Plane.absent) codec in
  (* Dense plan: a recipient's patch of the slots where its inbox differs
     from the round's shared plane (DESIGN.md section 10), the senders whose
     links can differ, and [edited.(v)], [v]'s count of fault-edited links. *)
  let patch_cap = if Option.is_none topo && (t > 0 || Option.is_some faults) then n else 0 in
  let patch_slots = Array.make patch_cap 0 in
  let patch_msgs = Array.make patch_cap None in
  let patch_codes = Option.map (fun _ -> Array.make patch_cap Plane.absent) codec in
  let patch_len = ref 0 in
  let patch v m ~byzantine =
    (match m with Some p -> meter p ~byzantine | None -> ());
    patch_slots.(!patch_len) <- v;
    patch_msgs.(!patch_len) <- m;
    (match (patch_codes, codec) with
    | Some cs, Some enc -> cs.(!patch_len) <- Option.fold ~none:Plane.absent ~some:enc m
    | (Some _ | None), _ -> ());
    incr patch_len
  in
  let patch_srcs = Array.make patch_cap 0 in
  let edited = Array.make (if Option.is_none topo then n else 0) 0 in
  let live v = (not corrupted.(v)) && not halted.(v) in
  let rec halted_from v = v >= n || ((not (live v)) && halted_from (v + 1)) in
  let all_honest_halted () = halted_from 0 in
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
    (* 4. Delivery + 5. recv for each live honest node. A restricted topology
       delivers through sparse slices of the CSR inbox slab (DESIGN.md §13).
       The dense plan packs the honest broadcasts into one shared plane; a
       recipient whose inbox differs reads a patched view of the differing
       slots ([byz_msg] payloads, its [Faults.deliver_edit] edits, drawn
       recipients then senders ascending; DESIGN.md §10). Honest copies left
       unchanged are metered per sender, patched links one by one. A recv
       touches only its own node's state, so states are stepped in place. *)
    (match (topo, faults) with
    | Some ti, _ ->
        (* Restricted topology, pass 1, senders ascending: sampling,
           [byz_msg], fault draws and metering happen here, in the order of
           the per-link loop. A sampled set arrives in draw order and is
           sorted only where a per-link draw or [byz_msg] call follows it;
           a clean sender's order is not observable, since pass 2 orders
           every slice by sender. Each delivered edge's recipient is
           appended to [edge_dst] (compacting the sampled set in place) and
           counted in [inbox_end.(dst + 1)]. Byzantine traffic is
           constrained to the sender's sampled links: corruption buys a
           node's slots in the topology, not extra edges (DESIGN.md §13).
           A round is clean when no edge can differ from its sender's
           broadcast. *)
        let clean = Option.is_none faults && !corruptions_used = 0 in
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
          let m = faulted ~round:r ~src ~dst raw in
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
            let len = Topology.recipients_into ti ~round:r ~src:v edge_dst ~pos:first in
            Topology.sort_recipients ti edge_dst ~pos:first ~len;
            for i = first to first + len - 1 do
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
                let len = Topology.recipients_into ti ~round:r ~src:v edge_dst ~pos:first in
                match faults with
                | None ->
                    keep v;
                    for i = first to first + len - 1 do
                      if live edge_dst.(i) then keep edge_dst.(i)
                    done;
                    meter_copies p ~copies:(!e - first)
                | Some _ ->
                    Topology.sort_recipients ti edge_dst ~pos:first ~len;
                    keep_owned v honest_msgs.(v);
                    for i = first to first + len - 1 do
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
           payload. In a clean round every slice reads its senders'
           broadcasts by sender id. Otherwise the other edges take their
           sender's broadcast and its code, encoded once, in a sequential
           pass 3 (cheaper than scattering two more arrays). *)
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
        if (not clean) && Option.is_none faults then
          for k = 0 to src_off.(n) - 1 do
            let v = inbox_srcs.(k) in
            if not corrupted.(v) then begin
              inbox_msgs.(k) <- honest_msgs.(v);
              match inbox_codes with Some cs -> cs.(k) <- sender_code.(v) | None -> ()
            end
          done;
        let msgs, codes = if clean then (honest_msgs, sender_codes) else (inbox_msgs, inbox_codes) in
        let lo = ref 0 in
        for u = 0 to n - 1 do
          let hi = inbox_end.(u) in
          if live u then
            states.(u) <-
              protocol.recv (ctx_of u) states.(u) ~round:r
                ~inbox:
                  (Plane.sparse_slice ?codes ~by_sender:clean ~n ~srcs:inbox_srcs ~msgs ~lo:!lo
                     ~hi ());
          lo := hi
        done
    | None, _ ->
        let live_recipients = ref 0 and srcs = ref 0 in
        let patching = !corruptions_used > 0 || Option.is_some faults in
        for v = 0 to n - 1 do
          if live v then incr live_recipients;
          if patching && (corrupted.(v) || Option.is_some faults) then begin
            patch_srcs.(!srcs) <- v;
            incr srcs
          end
        done;
        if Option.is_some faults then Array.fill edited 0 n 0;
        let plane = Plane.shared ?encode:codec ~slab honest_msgs in
        for u = 0 to n - 1 do
          if live u then begin
            patch_len := 0;
            for i = 0 to !srcs - 1 do
              (* a corrupted [v] is never [u]; [deliver_edit] keeps self-links *)
              let v = patch_srcs.(i) in
              if corrupted.(v) then begin
                let m = faulted ~round:r ~src:v ~dst:u (action.byz_msg ~src:v ~dst:u) in
                if Option.is_some m then patch v m ~byzantine:true
              end
              else
                match faults with
                | Some inst -> (
                    let honest = honest_msgs.(v) in
                    match Faults.deliver_edit inst ~metrics ~round:r ~src:v ~dst:u honest with
                    | Faults.Kept -> ()
                    | Faults.Dropped | Faults.Replaced ->
                        edited.(v) <- edited.(v) + 1;
                        patch v (Faults.replacement inst) ~byzantine:false)
                | None -> ()
            done;
            let inbox =
              if !patch_len = 0 then plane
              else
                Plane.patched ?codes:patch_codes plane ~slots:patch_slots ~msgs:patch_msgs
                  ~len:!patch_len
            in
            states.(u) <- protocol.recv (ctx_of u) states.(u) ~round:r ~inbox
          end
        done;
        for v = 0 to n - 1 do
          match honest_msgs.(v) with
          | Some p ->
              meter_copies p ~copies:(!live_recipients - (if live v then 1 else 0) - edited.(v))
          | None -> ()
        done);
    for v = 0 to n - 1 do
      if live v && protocol.halted states.(v) then halted.(v) <- true
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
