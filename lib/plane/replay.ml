module J = Protego_journal.Journal
module Request = Protego_core.Request

type mismatch = {
  mm_seq : int;
  mm_field : string;
  mm_expected : string;
  mm_got : string;
}

type report = {
  rp_total : int;
  rp_matched : int;
  rp_mismatches : mismatch list;
  rp_missing_epochs : int list;
}

let replay ~snapshot_of_epoch (ds : J.decision array) =
  let mismatches = ref [] in
  let missing = ref [] in
  let matched = ref 0 in
  Array.iter
    (fun (dec : J.decision) ->
      let mismatch field expected got =
        mismatches :=
          { mm_seq = dec.J.d_seq; mm_field = field; mm_expected = expected;
            mm_got = got }
          :: !mismatches
      in
      match snapshot_of_epoch dec.J.d_epoch with
      | None ->
          if not (List.mem dec.J.d_epoch !missing) then
            missing := dec.J.d_epoch :: !missing
      | Some snap -> (
          match Request.of_journal ~subject:dec.J.d_subject dec.J.d_req with
          | None -> mismatch "request" "mount, umount, bind or ppp" "nf"
          | Some req ->
              let exp_verdict, exp_errno =
                Request.expected snap.Snapshot.frozen ~phase:dec.J.d_phase
                  ~recorded:(dec.J.d_verdict = 3) req
              in
              if dec.J.d_verdict <> exp_verdict then
                mismatch "verdict" (J.verdict_name exp_verdict)
                  (J.verdict_name dec.J.d_verdict);
              if dec.J.d_errno <> exp_errno then
                mismatch "errno" (J.errno_name exp_errno)
                  (J.errno_name dec.J.d_errno);
              if dec.J.d_verdict = exp_verdict && dec.J.d_errno = exp_errno
              then incr matched))
    ds;
  { rp_total = Array.length ds;
    rp_matched = !matched;
    rp_mismatches = List.rev !mismatches;
    rp_missing_epochs = List.rev !missing }

let replay_run plane ~run ~count =
  match J.stitch (Plane.journal plane) ~run ~base:0 ~count with
  | Error e -> failwith ("Replay.replay_run: " ^ e)
  | Ok ds -> replay ~snapshot_of_epoch:(Plane.snapshot_at plane) ds

let render r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "replay total %d matched %d mismatches %d\n" r.rp_total
       r.rp_matched
       (List.length r.rp_mismatches));
  List.iter
    (fun m ->
      Buffer.add_string b
        (Printf.sprintf "mismatch seq %d field %s expected %s got %s\n"
           m.mm_seq m.mm_field m.mm_expected m.mm_got))
    r.rp_mismatches;
  List.iter
    (fun e ->
      Buffer.add_string b (Printf.sprintf "missing epoch %d\n" e))
    r.rp_missing_epochs;
  Buffer.contents b
