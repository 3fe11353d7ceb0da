(* Assembles the per-claim experiment modules' descriptors into the one
   registry that bin/ba_sweep drives. *)

let registry =
  let num (d : Ba_harness.Registry.descriptor) =
    (* Ids are "E<n>"; a malformed id would be a programming error caught by
       the DESIGN.md coverage test, so default it to the end of the list. *)
    match int_of_string_opt (String.sub d.id 1 (String.length d.id - 1)) with
    | Some n -> n
    | None -> max_int
  in
  Ba_harness.Registry.of_list
    (List.sort
       (fun a b -> compare (num a) (num b))
       (Exp_coin.experiments @ Exp_scaling.experiments @ Exp_complexity.experiments
      @ Exp_baselines.experiments @ Exp_ablations.experiments @ Exp_async.experiments
      @ Exp_robustness.experiments @ Exp_sparse.experiments @ Exp_attack.experiments))
