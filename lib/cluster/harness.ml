(** The local-cluster harness — see harness.mli for the contract. *)

type options = {
  workers : int;
  listen : Net.Addr.t option;
  lease_size : int;
  lease_timeout_s : float;
}

let run ?store ?on_result ~launch opts f =
  if opts.workers = 0 && opts.listen = None then Ok (f None)
  else
    let address =
      Option.value opts.listen ~default:(Net.Addr.Tcp ("127.0.0.1", 0))
    in
    let config =
      {
        (Coordinator.config ~address ()) with
        Coordinator.lease_size = opts.lease_size;
        lease_timeout_s = opts.lease_timeout_s;
      }
    in
    match Coordinator.create ?store config with
    | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot listen on %s: %s"
           (Net.Addr.to_string address) (Unix.error_message e))
    | coord ->
      let stop _ = Coordinator.stop coord in
      let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle stop) in
      let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle stop) in
      let reapers = ref [] in
      let cleanup () =
        Coordinator.shutdown coord;
        List.iter (fun reap -> reap ()) (List.rev !reapers);
        Sys.set_signal Sys.sigint prev_int;
        Sys.set_signal Sys.sigterm prev_term
      in
      Fun.protect ~finally:cleanup (fun () ->
          let connect = Coordinator.address coord in
          Obs.Span.log
            (Printf.sprintf "cluster: coordinator listening on %s"
               (Net.Addr.to_string connect));
          for i = 0 to opts.workers - 1 do
            reapers := launch ~connect i :: !reapers
          done;
          let last = ref (-1) in
          let tick ~done_ ~total =
            (* At most ~20 progress lines per evaluation round. *)
            let step = max 1 (total / 20) in
            if done_ = total || done_ / step > !last / step then begin
              last := done_;
              Obs.Span.log
                (Printf.sprintf "cluster: %d of %d tasks evaluated" done_
                   total)
            end
          in
          Ok (f (Some (Coordinator.evaluate ~tick ?on_result coord))))
