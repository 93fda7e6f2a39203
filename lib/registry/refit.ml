(** Incremental trainer over evidence ledgers — see refit.mli for the
    byte-identity contract. *)

type entry = {
  e_prog : string;
  e_prog_digest : string;
  e_uarch_key : string;
  mutable e_features : float array;
  e_counts : Ml_model.Distribution.counts;
  mutable e_records : int;
}

type t = {
  tbl : (string, entry) Hashtbl.t;
  mutable rev_order : entry list;  (** First-seen order, reversed. *)
  mutable records : int;
}

let create () = { tbl = Hashtbl.create 64; rev_order = []; records = 0 }

let fold t (records : Evidence.record list) =
  List.iter
    (fun (r : Evidence.record) ->
      let key = Evidence.pair_key r in
      let e =
        match Hashtbl.find_opt t.tbl key with
        | Some e -> e
        | None ->
          let e =
            {
              e_prog = r.Evidence.prog;
              e_prog_digest = r.Evidence.prog_digest;
              e_uarch_key = r.Evidence.uarch_key;
              e_features = r.Evidence.features_raw;
              e_counts = Ml_model.Distribution.counts ();
              e_records = 0;
            }
          in
          Hashtbl.add t.tbl key e;
          t.rev_order <- e :: t.rev_order;
          e
      in
      (* Freshest profile wins: a later record for a known pair updates
         its feature vector (re-profiled counters) while its good
         settings pile onto the same counts. *)
      e.e_features <- r.Evidence.features_raw;
      Ml_model.Distribution.add_counts e.e_counts r.Evidence.good;
      e.e_records <- e.e_records + 1;
      t.records <- t.records + 1)
    records

let of_records records =
  let t = create () in
  fold t records;
  t

let pairs t = Hashtbl.length t.tbl
let records t = t.records

let to_model ?k ?beta t =
  match Array.of_list (List.rev t.rev_order) with
  | [||] -> Error "refit: no evidence folded"
  | entries ->
    (* Dimension consistency across pairs: of_parts would raise on a
       ragged matrix deep inside; surface it as a typed error here. *)
    let dim = Array.length entries.(0).e_features in
    if Array.exists (fun e -> Array.length e.e_features <> dim) entries then
      Error "refit: evidence pairs disagree on feature dimension"
    else
      let sharing = Ml_model.Distribution.sharing () in
      Ok
        (Ml_model.Model.of_parts ?k ?beta
           ~features_raw:(Array.map (fun e -> e.e_features) entries)
           ~distributions:
             (Array.map
                (fun e ->
                  Ml_model.Distribution.share sharing
                    (Ml_model.Distribution.of_counts e.e_counts))
                entries)
           ())
