(* The committee killer's catalog point, named; Strategy.to_skeleton hosts
   the attack's logic. *)

let committee_killer ~config ~designated =
  Strategy.to_skeleton ~name:"committee-killer" Strategy.committee_killer_point ~config
    ~designated
