(* The traced serve replay: the stream a serve phase sent, pushed
   in-process through the same public calls a predict request takes —
   [Protocol.request_to_json], [Obs.Json.to_string], [Net.Codec]
   framing, [Obs.Json.of_string], [Protocol.request_of_json],
   [Features.raw], [Serve.Server.quantise], [Model.predict_full] (on
   the first sight of a key only, as the server's cache would) and
   [Protocol.prediction_to_json] back out through the codec.  Every
   answer is checked against the stream's reference. *)

open Common

let frame decoder s =
  Prelude.Bytebuf.add_string (Net.Codec.buffer decoder)
    (Net.Codec.encode Net.Codec.Binary s);
  match Net.Codec.next decoder with
  | Ok (Some (_, payload)) -> payload
  | Ok None -> fail "codec: incomplete frame"
  | Error e -> fail "codec: %s" (Net.Codec.error_to_string e)

let wire_neighbours (ns : Ml_model.Predict.neighbour array) =
  let z = Array.fold_left (fun acc nb -> acc +. nb.Ml_model.Predict.weight) 0.0 ns in
  let z = if z > 0.0 then z else 1.0 in
  Array.map
    (fun (nb : Ml_model.Predict.neighbour) ->
      {
        Serve.Protocol.index = nb.Ml_model.Predict.index;
        distance = nb.Ml_model.Predict.distance;
        weight = nb.Ml_model.Predict.weight /. z;
      })
    ns

let run ~artifact ~stream =
  let model = artifact.Serve.Artifact.model in
  let version = Serve.Artifact.version_id artifact in
  let decoder = Net.Codec.decoder () in
  let answers = Hashtbl.create 4096 in
  let bad = ref 0 in
  Spans.with_ "serve.replay" (fun () ->
      Array.iter
        (fun (id, q, passes, neighbours) ->
          let j =
            Spans.with_ "protocol.request_to_json" (fun () ->
                Serve.Protocol.request_to_json ~id (Stream.request q))
          in
          let s = Spans.with_ "json.print" (fun () -> J.to_string j) in
          let payload = Spans.with_ "codec" (fun () -> frame decoder s) in
          let j = Spans.with_ "json.parse" (fun () -> json_of_string payload) in
          let counters, uarch =
            match
              Spans.with_ "protocol.decode" (fun () ->
                  Serve.Protocol.request_of_json j)
            with
            | Ok (Serve.Protocol.Predict { counters; uarch; _ }) -> (counters, uarch)
            | _ -> fail "replay: request did not decode as predict"
          in
          let x =
            Spans.with_ "features" (fun () ->
                Ml_model.Features.raw artifact.Serve.Artifact.space counters uarch)
          in
          let key =
            Spans.with_ "cache.key" (fun () -> version ^ "|" ^ Serve.Server.quantise x)
          in
          let cached, (setting, flags, wire) =
            match Hashtbl.find_opt answers key with
            | Some a -> (true, a)
            | None ->
              let a =
                Spans.with_ "knn" (fun () ->
                    let r = Ml_model.Model.predict_full model x in
                    ( r.Ml_model.Predict.setting,
                      Passes.Flags.to_string r.Ml_model.Predict.setting,
                      wire_neighbours r.Ml_model.Predict.neighbours ))
              in
              Hashtbl.add answers key a;
              (false, a)
          in
          if
            setting <> passes
            || Array.map (fun nb -> nb.Serve.Protocol.index) wire <> neighbours
          then incr bad;
          let reply =
            Spans.with_ "protocol.encode" (fun () ->
                Serve.Protocol.prediction_to_json ~id:(J.Int id)
                  {
                    Serve.Protocol.setting;
                    flags;
                    neighbours = wire;
                    latency_ms = 0.0;
                    cached;
                    arm = Some "stable";
                    model = Some version;
                  })
          in
          let s = Spans.with_ "json.print" (fun () -> J.to_string reply) in
          ignore (Spans.with_ "codec" (fun () -> frame decoder s)))
        stream);
  !bad

let metrics ~artifact ~stream =
  let n = float_of_int (Array.length stream) in
  let s name = (Spans.total name).Spans.wall in
  let us name den = if den > 0.0 then s name *. 1e6 /. den else 0.0 in
  let knn_calls = float_of_int (Spans.total "knn").Spans.calls in
  let layers =
    [
      ("protocol", s "protocol.request_to_json" +. s "protocol.decode" +. s "protocol.encode");
      ("json", s "json.print" +. s "json.parse");
      ("codec", s "codec");
      ("features", s "features");
      ("cache.key", s "cache.key");
      ("knn", s "knn");
    ]
  in
  ( [
      ("codec.us_per_frame", us "codec" (2.0 *. n));
      ("json.parse_us", us "json.parse" n);
      ("json.print_us", us "json.print" n);
      ("protocol.decode_us", us "protocol.decode" n);
      ("protocol.encode_us", us "protocol.encode" n);
      ("cache.key_us", us "cache.key" n);
      ("knn.us_per_query", us "knn" knn_calls);
      ("knn.queries", knn_calls);
      ("knn.pairs", float_of_int (Ml_model.Model.n_points artifact.Serve.Artifact.model));
      ("serve.replay_s", s "serve.replay");
    ],
    layers )
