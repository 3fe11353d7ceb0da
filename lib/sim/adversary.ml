type ('state, 'msg) view = {
  round : int;
  n : int;
  t : int;
  corrupted : bool array;
  budget_left : int;
  halted : bool array;
  honest_msgs : 'msg option array;
  states : 'state option array;
  views : Protocol.node_view option array;
}

type 'msg action = { corrupt : int list; byz_msg : src:int -> dst:int -> 'msg option }

type ('state, 'msg) t = { adv_name : string; act : ('state, 'msg) view -> 'msg action }

let no_op_action = { corrupt = []; byz_msg = (fun ~src:_ ~dst:_ -> None) }

let silent = { adv_name = "silent"; act = (fun _ -> no_op_action) }

let live_honest view =
  let ids = ref [] in
  for v = view.n - 1 downto 0 do
    if (not view.corrupted.(v)) && not view.halted.(v) then ids := v :: !ids
  done;
  !ids
