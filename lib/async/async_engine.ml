type ctx = { n : int; t : int; me : int; rng : Ba_prng.Rng.t }

type 'msg send = { to_ : int; payload : 'msg }

let broadcast ~n payload = List.init n (fun to_ -> { to_; payload })

type ('state, 'msg) protocol = {
  name : string;
  init : ctx -> input:int -> 'state * 'msg send list;
  on_message : ctx -> 'state -> src:int -> 'msg -> 'state * 'msg send list;
  output : 'state -> int option;
  msg_bits : 'msg -> int;
}

type 'msg pending = { id : int; src : int; dst : int; msg : 'msg; age : int }

type ('state, 'msg) view = {
  step : int;
  n : int;
  t : int;
  corrupted : bool array;
  budget_left : int;
  decided : bool array;
  pending : 'msg pending list;
  states : 'state option array;
}

type 'msg action = {
  deliver : int option;
  corrupt : int list;
  inject : (int * int * 'msg) list;
}

type ('state, 'msg) policy =
  | Opaque
  | Fifo_pick
  | Avoid_srcs of int list
  | Uniform_pick of Ba_prng.Rng.t
  | Scored of ('state, 'msg) scorer

and ('state, 'msg) scorer = {
  sc_rng : Ba_prng.Rng.t;
  sc_score : states:'state option array -> src:int -> dst:int -> msg:'msg -> int;
}

type ('state, 'msg) adversary = {
  adv_name : string;
  policy : ('state, 'msg) policy;
  act : ('state, 'msg) view -> 'msg action;
}

(* The reference semantics of each declared policy, as a plain [act] over
   the adversary view. The engine's pick rule for a pure scheduler
   replicates this behavior (and its PRNG draw pattern) against the slab
   without materializing the view; [opaque_of] forces any adversary
   through the view-building [Opaque] pick so tests can check the two stay
   byte-identical. *)
let act_of_policy policy view =
  let deliver =
    match (policy, view.pending) with
    | _, [] -> None
    | (Opaque | Fifo_pick), _ -> None
    | Avoid_srcs victims, ps -> (
        match List.find_opt (fun p -> not (List.mem p.src victims)) ps with
        | Some p -> Some p.id
        | None -> None)
    | Uniform_pick rng, ps -> Some (Ba_prng.Rng.choose rng (Array.of_list ps)).id
    | Scored { sc_rng; sc_score }, ps ->
        let score p = sc_score ~states:view.states ~src:p.src ~dst:p.dst ~msg:p.msg in
        let best = List.fold_left (fun acc p -> min acc (score p)) max_int ps in
        let candidates = List.filter (fun p -> score p = best) ps in
        Some (Ba_prng.Rng.choose sc_rng (Array.of_list candidates)).id
  in
  { deliver; corrupt = []; inject = [] }

let scheduler ~name policy = { adv_name = name; policy; act = act_of_policy policy }

let opaque ~name act = { adv_name = name; policy = Opaque; act }

let opaque_of adv = { adv with policy = Opaque }

let fifo =
  { adv_name = "fifo";
    policy = Fifo_pick;
    act = (fun _ -> { deliver = None; corrupt = []; inject = [] }) }

type outcome = {
  protocol_name : string;
  adversary_name : string;
  n : int;
  t : int;
  inputs : int array;
  steps : int;
  deliveries : int;
  completed : bool;
  outputs : int option array;
  corrupted : bool array;
  corruptions_used : int;
  metrics : Ba_sim.Metrics.t;
}

let validate ~n ~t ~inputs =
  if t < 0 || t >= n then invalid_arg "Async_engine.run: need 0 <= t < n";
  if Array.length inputs <> n then invalid_arg "Async_engine.run: inputs length <> n";
  Array.iter
    (fun b -> if b <> 0 && b <> 1 then invalid_arg "Async_engine.run: inputs must be 0/1")
    inputs

let run ?max_steps ?max_delay ?faults ?trace
    ~(protocol : ('state, 'msg) protocol) ~(adversary : ('state, 'msg) adversary) ~n ~t
    ~inputs ~seed () =
  validate ~n ~t ~inputs;
  let max_steps = Option.value max_steps ~default:(5000 * n) in
  let max_delay = Option.value max_delay ~default:(8 * n) in
  let faults =
    match faults with
    | Some plan when not (Ba_sim.Faults.is_none plan) ->
        Some (Ba_sim.Faults.instantiate plan ~n ~seed)
    | Some _ | None -> None
  in
  let master = Ba_prng.Rng.create seed in
  let node_rngs = Ba_prng.Rng.split_n master n in
  let ctx_of v = { n; t; me = v; rng = node_rngs.(v) } in
  let corrupted = Array.make n false in
  let corruptions_used = ref 0 in
  let metrics = Ba_sim.Metrics.create () in
  let emit e = match trace with Some f -> f e | None -> () in
  let mb : 'msg Mailbox.t = Mailbox.create ~n () in
  let step = ref 0 in
  let deliveries = ref 0 in
  let states = Array.make n None in
  (* Completion is one counter of undecided honest nodes. Decisions are
     sticky (the protocol contract: [output] is "decided value, once set"),
     so a node leaves the count exactly once: when it decides, or when it
     is corrupted while still undecided. No step rescans the nodes. *)
  let decided = Array.make n false in
  let undecided = ref n in
  let note_decided v st =
    if (not decided.(v)) && protocol.output st <> None then begin
      decided.(v) <- true;
      decr undecided
    end
  in
  (* Silence windows are indexed by the current scheduler step. *)
  let enqueue ~src sends =
    if not corrupted.(src) then begin
      let silent =
        match faults with
        | Some inst -> Ba_sim.Faults.silenced inst ~node:src ~round:!step
        | None -> false
      in
      List.iter
        (fun { to_; payload } ->
          if to_ >= 0 && to_ < n then
            if silent then begin
              Ba_sim.Metrics.record_crash_silence metrics;
              emit (Ba_sim.Run.Fault
                      { index = !step; kind = Ba_sim.Run.Silence; src; dst = to_ })
            end
            else ignore (Mailbox.enqueue mb ~src ~dst:to_ ~birth:!step payload : int))
        sends
    end
  in
  for v = 0 to n - 1 do
    let st, sends = protocol.init (ctx_of v) ~input:inputs.(v) in
    states.(v) <- Some st;
    note_decided v st;
    enqueue ~src:v sends
  done;
  let state_of v = match states.(v) with Some s -> s | None -> assert false in
  let deliver ~src ~dst msg =
    if dst >= 0 && dst < n && not corrupted.(dst) then begin
      (* Link faults apply at delivery time, in scheduler order — the one
         deterministic total order an async run has — so the fault stream
         replays bit-for-bit from (seed, plan). *)
      let payload =
        match faults with
        | Some inst when src <> dst ->
            let d = Ba_sim.Faults.apply_async inst ~metrics ~src ~dst msg in
            (match d.Ba_sim.Faults.d_payload with
            | None ->
                emit (Ba_sim.Run.Fault
                        { index = !step; kind = Ba_sim.Run.Drop; src; dst })
            | Some m ->
                if d.Ba_sim.Faults.d_mutated then
                  emit (Ba_sim.Run.Fault
                          { index = !step; kind = Ba_sim.Run.Corrupt_payload; src; dst });
                if d.Ba_sim.Faults.d_duplicate then begin
                  (* The copy becomes a fresh scheduler-visible message the
                     adversary orders like any other. *)
                  ignore (Mailbox.enqueue mb ~src ~dst ~birth:!step m : int);
                  emit (Ba_sim.Run.Fault
                          { index = !step; kind = Ba_sim.Run.Duplicate; src; dst })
                end);
            d.Ba_sim.Faults.d_payload
        | Some _ | None -> Some msg
      in
      match payload with
      | None -> ()
      | Some msg ->
          incr deliveries;
          let bits = protocol.msg_bits msg in
          Ba_sim.Metrics.record_message metrics ~bits ~byzantine:corrupted.(src);
          emit (Ba_sim.Run.Deliver
                  { index = !step; src; dst; bits; byzantine = corrupted.(src) });
          let st, sends = protocol.on_message (ctx_of dst) (state_of dst) ~src msg in
          states.(dst) <- Some st;
          note_decided dst st;
          enqueue ~src:dst sends
    end
  in
  (* Whether this step's adversary injected anything: an injecting
     adversary is never deadlocked, even with nothing in flight. Only the
     opaque pick can set it. *)
  let injected = ref false in
  (* [Opaque]: materialize the full view, let [act] choose, and apply its
     corruptions and injections before naming a slot. The global list is
     already id-sorted, so it is the view's pending list as is. *)
  let pick_opaque () =
    let pending =
      let rec collect s acc =
        if s = -1 then List.rev acc
        else
          collect (Mailbox.next_global mb s)
            ({ id = Mailbox.id mb s;
               src = Mailbox.src mb s;
               dst = Mailbox.dst mb s;
               msg = Mailbox.msg mb s;
               age = !step - Mailbox.birth mb s }
            :: acc)
      in
      collect (Mailbox.head mb) []
    in
    let view =
      { step = !step;
        n;
        t;
        corrupted = Array.copy corrupted;
        budget_left = t - !corruptions_used;
        decided = Array.init n (fun v -> decided.(v) && not corrupted.(v));
        pending;
        states = Array.init n (fun v -> if corrupted.(v) then None else states.(v)) }
    in
    let action = adversary.act view in
    (* Adaptive corruption: the victim's undelivered messages are
       retracted (the adversary may re-inject whatever it likes). *)
    List.iter
      (fun v ->
        if v >= 0 && v < n && (not corrupted.(v)) && !corruptions_used < t then begin
          corrupted.(v) <- true;
          incr corruptions_used;
          if not decided.(v) then decr undecided;
          emit (Ba_sim.Run.Corrupt { index = !step; node = v });
          Mailbox.remove_src mb v
        end)
      action.corrupt;
    (* Byzantine injections: delivered immediately, capped at n per step. *)
    List.iteri
      (fun i (src, dst, msg) ->
        if i < n && src >= 0 && src < n && corrupted.(src) then deliver ~src ~dst msg)
      action.inject;
    injected := action.inject <> [];
    match action.deliver with Some id -> Mailbox.find_by_id mb id | None -> -1
  in
  (* Oldest pending message whose sender is not a victim: the minimum id
     over the per-src mailbox heads — O(n), not O(queue). *)
  let first_non_victim victim =
    let best = ref (-1) in
    let best_id = ref max_int in
    for v = 0 to n - 1 do
      if not victim.(v) then begin
        let h = Mailbox.head_src mb v in
        if h <> -1 && Mailbox.id mb h < !best_id then begin
          best := h;
          best_id := Mailbox.id mb h
        end
      end
    done;
    !best
  in
  let pick_scored sc_rng sc_score =
    (* Mirrors [act_of_policy]: minimum score wins, ties broken by one
       uniform draw over the tied candidates in id order. Scores are
       cached per slot in the slab scratch between the two walks. *)
    let scr = Mailbox.scratch mb in
    let best = ref max_int in
    let s = ref (Mailbox.head mb) in
    while !s <> -1 do
      let sc =
        sc_score ~states ~src:(Mailbox.src mb !s) ~dst:(Mailbox.dst mb !s)
          ~msg:(Mailbox.msg mb !s)
      in
      scr.(!s) <- sc;
      if sc < !best then best := sc;
      s := Mailbox.next_global mb !s
    done;
    let count = ref 0 in
    let s = ref (Mailbox.head mb) in
    while !s <> -1 do
      if scr.(!s) = !best then incr count;
      s := Mailbox.next_global mb !s
    done;
    let k = Ba_prng.Rng.int sc_rng !count in
    let s = ref (Mailbox.head mb) in
    let seen = ref 0 in
    let found = ref (-1) in
    while !found = -1 do
      if scr.(!s) = !best then
        if !seen = k then found := !s else incr seen;
      if !found = -1 then s := Mailbox.next_global mb !s
    done;
    !found
  in
  (* One pick rule per policy: a slot to deliver, or -1 for "no pick"
     (deliver the oldest). The pure schedulers pick straight from the slab
     and make exactly [act_of_policy]'s PRNG draws, which never happen on
     an empty pending set. *)
  let pick =
    match adversary.policy with
    | Opaque -> pick_opaque
    | Fifo_pick -> fun () -> Mailbox.head mb
    | Avoid_srcs vs ->
        let victim = Array.make n false in
        List.iter (fun v -> if v >= 0 && v < n then victim.(v) <- true) vs;
        fun () -> first_non_victim victim
    | Uniform_pick rng ->
        fun () ->
          let size = Mailbox.size mb in
          if size = 0 then -1 else Mailbox.nth_global mb (Ba_prng.Rng.int rng size)
    | Scored { sc_rng; sc_score } ->
        fun () -> if Mailbox.head mb = -1 then -1 else pick_scored sc_rng sc_score
  in
  (* The one scheduler loop: pick, then the bounded-delay override (a stale
     global head goes first; ids are monotone in birth, so the minimum-id
     stale message is the head), delivery, completion, deadlock. *)
  let completed = ref (!undecided = 0) in
  while (not !completed) && !step < max_steps do
    incr step;
    emit (Ba_sim.Run.Tick { index = !step });
    let p = pick () in
    let h = Mailbox.head mb in
    let chosen = if p = -1 || !step - Mailbox.birth mb h >= max_delay then h else p in
    if chosen <> -1 then begin
      let src = Mailbox.src mb chosen
      and dst = Mailbox.dst mb chosen
      and m = Mailbox.msg mb chosen in
      Mailbox.remove mb chosen;
      deliver ~src ~dst m
    end;
    completed := !undecided = 0;
    if (not !completed) && chosen = -1 && not !injected then
      (* Deadlock: nothing in flight, nothing injected, not all decided. *)
      step := max_steps
  done;
  { protocol_name = protocol.name;
    adversary_name = adversary.adv_name;
    n;
    t;
    inputs = Array.copy inputs;
    steps = !step;
    deliveries = !deliveries;
    completed = !completed;
    outputs =
      Array.init n (fun v -> if corrupted.(v) then None else protocol.output (state_of v));
    corrupted = Array.copy corrupted;
    corruptions_used = !corruptions_used;
    metrics }

(* Projection into the engine-agnostic substrate (Ba_sim.Run). Arrays are
   shared, not copied: an outcome is immutable once returned. *)
let to_run o =
  { Ba_sim.Run.protocol_name = o.protocol_name;
    adversary_name = o.adversary_name;
    n = o.n;
    t = o.t;
    inputs = o.inputs;
    span = Ba_sim.Run.Steps o.steps;
    completed = o.completed;
    outputs = o.outputs;
    corrupted = o.corrupted;
    corruptions_used = o.corruptions_used;
    metrics = o.metrics }
