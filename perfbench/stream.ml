(* The seeded query stream a serve phase sends, with the reference answer
   of every distinct query.

   Queries are (counters of a program's -O3 profile on a configuration,
   that configuration).  Every configuration is drawn from a seed
   distinct from training's.  A [hot]
   share of the stream repeats a small hot set (served from the server's
   LRU after its first occurrence); the rest are distinct never-seen
   pairs, each of which runs kNN on the server. *)

module J = Obs.Json
open Common

type query = {
  counters : Sim.Counters.t;
  uarch : Uarch.Config.t;
  hot : bool;
}

(* Training draws configurations with [seed] and settings with
   [seed * 7919]; queries use a stream of their own. *)
let query_seed seed = (seed * 1_000_003) + 17

let generate ~store ~seed ~count ~hot_set ~hot_share =
  let o3 = o3_runs store in
  let n_progs = Array.length o3 in
  let rng = Prelude.Rng.create (query_seed seed) in
  let n_hot_uarchs = (hot_set + n_progs - 1) / n_progs in
  (* Room for a stream made of misses only. *)
  let n_uarchs = n_hot_uarchs + ((count + n_progs - 1) / n_progs) in
  let uarchs =
    Uarch.Space.sample Uarch.Space.Base ~seed:(query_seed seed) n_uarchs
  in
  let query p u hot =
    { counters = (Sim.Xtrem.time o3.(p) u).Sim.Pipeline.counters; uarch = u; hot }
  in
  let hot_pairs =
    Array.init hot_set (fun i ->
        query (i mod n_progs) uarchs.(i / n_progs) true)
  in
  let misses =
    Array.init (n_uarchs - n_hot_uarchs) (fun j ->
        let order = Array.init n_progs Fun.id in
        Prelude.Rng.shuffle rng order;
        Array.map (fun p -> (p, uarchs.(n_hot_uarchs + j))) order)
    |> Array.to_list |> Array.concat
  in
  let next_miss = ref 0 in
  Array.init count (fun _ ->
      if hot_set > 0 && Prelude.Rng.float rng 1.0 < hot_share then
        hot_pairs.(Prelude.Rng.int rng hot_set)
      else begin
        let p, u = misses.(!next_miss) in
        incr next_miss;
        query p u false
      end)

let request q =
  Serve.Protocol.Predict
    { counters = q.counters; uarch = q.uarch; objective = None }

let features artifact q =
  Ml_model.Features.raw artifact.Serve.Artifact.space q.counters q.uarch

(* One line per request: the payload the generator frames and sends, and
   the answer the served model must give. *)
let write ~artifact ~path queries =
  let answers = Hashtbl.create 4096 in
  let lines =
    Array.to_list
      (Array.mapi
         (fun i q ->
           let x = features artifact q in
           let key = Serve.Server.quantise x in
           let r =
             match Hashtbl.find_opt answers key with
             | Some r -> r
             | None ->
               let r =
                 Ml_model.Model.predict_full artifact.Serve.Artifact.model x
               in
               Hashtbl.add answers key r;
               r
           in
           J.to_string
             (J.Obj
                [
                  ( "payload",
                    J.Str (J.to_string (Serve.Protocol.request_to_json ~id:i (request q))) );
                  ("hot", J.Bool q.hot);
                  ("passes", ints r.Ml_model.Predict.setting);
                  ( "neighbours",
                    ints
                      (Array.map
                         (fun nb -> nb.Ml_model.Predict.index)
                         r.Ml_model.Predict.neighbours) );
                ]))
         queries)
  in
  write_lines path lines;
  Hashtbl.length answers

(* Read a stream file back: the typed query of every line plus its
   expected answer, for the in-process replay. *)
let read path =
  List.map
    (fun line ->
      let j = json_of_string line in
      let payload =
        json_of_string (Option.get (J.to_str (member "payload" j)))
      in
      let q =
        match Serve.Protocol.request_of_json payload with
        | Ok (Serve.Protocol.Predict { counters; uarch; _ }) ->
          {
            counters;
            uarch;
            hot = member "hot" j = J.Bool true;
          }
        | Ok _ -> fail "stream line is not a predict request"
        | Error e -> fail "stream line: %s" e
      in
      let id = Option.get (J.to_int (member "id" payload)) in
      (id, q, int_array (member "passes" j), int_array (member "neighbours" j)))
    (read_lines path)
  |> Array.of_list
