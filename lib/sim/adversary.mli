(** Adaptive, rushing, full-information adversary interface.

    Once per round, after every live honest node has produced its broadcast
    but before anything is delivered, the engine hands the adversary a
    {!view} containing the complete network state: every honest node's
    current protocol state, every honest broadcast of the *current* round
    (this is what makes the adversary rushing), the corruption set and the
    remaining budget. The adversary answers with an {!action}:

    - [corrupt]: node IDs to corrupt *this* round. Corruption is adaptive and
      retroactive within the round — a node corrupted in round [r] has its
      already-produced round-[r] broadcast replaced by the adversary's
      messages. The engine clamps the list to the remaining budget (in list
      order) and ignores already-corrupted IDs.
    - [byz_msg ~src ~dst]: the payload each Byzantine node [src] sends to
      each honest node [dst] this round. Byzantine nodes may equivocate
      (different payloads per recipient) or stay silent ([None]).

    Adversary state (e.g. "which committee did I already burn") lives in the
    closure that built the record. *)

type ('state, 'msg) view = {
  round : int;
  n : int;
  t : int;
  corrupted : bool array;  (** corruption set before this round's action *)
  budget_left : int;
  halted : bool array;  (** honest nodes that have terminated *)
  honest_msgs : 'msg option array;
      (** [honest_msgs.(v)] is v's current-round broadcast; [None] for
          corrupted, halted or silent nodes *)
  states : 'state option array;
      (** full information: [states.(v)] for live honest [v] *)
  views : Protocol.node_view option array;
      (** protocol-agnostic introspection of live honest nodes *)
}

type 'msg action = {
  corrupt : int list;
  byz_msg : src:int -> dst:int -> 'msg option;
}

type ('state, 'msg) t = {
  adv_name : string;
  act : ('state, 'msg) view -> 'msg action;
}

(** [silent] — corrupts nobody, sends nothing: the honest-run adversary. *)
val silent : ('state, 'msg) t

(** [no_op_action] — an action corrupting nobody and sending nothing. *)
val no_op_action : 'msg action

(** [live_honest view] — IDs that are neither corrupted nor halted. *)
val live_honest : ('state, 'msg) view -> int list
