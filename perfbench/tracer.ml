(* Outside-in phase tracer for traced runs.

   The library emits no phase boundaries of its own, so a traced run wraps
   the public callback records instead: the protocol's [send] / [inspect] /
   [recv] / [halted], the adversary's [act] (on entry and on return), and a
   [?trace] hook that marks each round's [Tick]. Every wrapper sets one
   "current phase" cell; the monotonic clock is read only when the phase
   changes (about six reads per synchronous round), so a phase's self time
   runs from its first call to the next phase's first call. Engine work
   between callbacks therefore lands in the phase that precedes it: sparse
   slice building lands in [recv], allocation of the honest-message array
   in [send], view construction in [view], and everything between the
   adversary's return and the first [recv] (corruption, packing, inbox
   building) in [deliver].

   [byz_msg] is counted, not timed: it is called once per Byzantine edge
   (millions of times per workload), and a clock read per call would
   distort the run it is meant to describe.

   The asynchronous tracer wraps [on_message] (phase [recv]) and an opaque
   adversary's [act] only. It never passes [?trace] to the async engine:
   tracing forces the engine onto its serial paths, which would measure a
   different program. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Phase indices into [self_ns]. [idle] collects time outside any run. *)
let init = 0
let send = 1
let view = 2
let act = 3
let deliver = 4
let recv = 5
let halt = 6
let idle = 7

(* Phases reported as shares of a tick, in report order. *)
let tick_phases = [ ("send", send); ("view", view); ("act", act); ("deliver", deliver);
                    ("recv", recv); ("halt", halt) ]

type t = {
  mutable phase : int;
  mutable mark : int;  (** clock at the last phase change, ns *)
  self_ns : int array;  (** accumulated self time per phase *)
  mutable runs : int;  (** engine calls traced *)
  mutable send_calls : int;
  mutable inspect_calls : int;
  mutable recv_calls : int;
  mutable byz_msgs : int;
      (** [byz_msg] calls (sync) or proposed injections (async) *)
}

let create () =
  { phase = idle; mark = 0; self_ns = Array.make 8 0; runs = 0; send_calls = 0; inspect_calls = 0;
    recv_calls = 0; byz_msgs = 0 }

let switch tr p =
  if tr.phase <> p then begin
    let now = now_ns () in
    tr.self_ns.(tr.phase) <- tr.self_ns.(tr.phase) + (now - tr.mark);
    tr.phase <- p;
    tr.mark <- now
  end

(* Bracket one engine call: [start] right before it, [stop] right after. *)
let start tr =
  tr.runs <- tr.runs + 1;
  tr.phase <- init;
  tr.mark <- now_ns ()

let stop tr = switch tr idle

(* ---- synchronous plane ---- *)

let tick tr = function
  | Ba_sim.Run.Tick _ -> switch tr send
  | Ba_sim.Run.Corrupt _ | Ba_sim.Run.Deliver _ | Ba_sim.Run.Fault _ -> ()

let sync_protocol tr (p : ('s, 'm) Ba_sim.Protocol.t) =
  { p with
    send =
      (fun ctx st ~round ->
        switch tr send;
        tr.send_calls <- tr.send_calls + 1;
        p.send ctx st ~round);
    inspect =
      (fun st ->
        switch tr view;
        tr.inspect_calls <- tr.inspect_calls + 1;
        p.inspect st);
    recv =
      (fun ctx st ~round ~inbox ->
        switch tr recv;
        tr.recv_calls <- tr.recv_calls + 1;
        p.recv ctx st ~round ~inbox);
    halted =
      (fun st ->
        switch tr halt;
        p.halted st) }

let sync_adversary tr (a : ('s, 'm) Ba_sim.Adversary.t) =
  { a with
    act =
      (fun v ->
        switch tr act;
        let action = a.act v in
        switch tr deliver;
        { action with
          byz_msg =
            (fun ~src ~dst ->
              tr.byz_msgs <- tr.byz_msgs + 1;
              action.byz_msg ~src ~dst) }) }

(* ---- asynchronous plane ---- *)

let async_protocol tr (p : ('s, 'm) Ba_async.Async_engine.protocol) =
  { p with
    on_message =
      (fun ctx st ~src m ->
        switch tr recv;
        tr.recv_calls <- tr.recv_calls + 1;
        p.on_message ctx st ~src m) }

(* Policy adversaries never have [act] called (the engine runs the declared
   policy against the slab), so only opaque ones are wrapped. *)
let async_adversary tr (a : ('s, 'm) Ba_async.Async_engine.adversary) =
  match a.policy with
  | Ba_async.Async_engine.Opaque ->
      { a with
        act =
          (fun v ->
            switch tr act;
            let action = a.act v in
            switch tr deliver;
            tr.byz_msgs <- tr.byz_msgs + List.length action.inject;
            action) }
  | Fifo_pick | Avoid_srcs _ | Uniform_pick _ | Scored _ -> a
