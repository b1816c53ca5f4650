(* Writes the pinned simulator traces that sim:replay checks: one
   digest line per (spec, seed) to digests.txt, and the full script and
   trace of a few seeded runs to <name>.trace.  Run from the repo root:

     dune exec test/fixtures/sim/gen.exe -- test/fixtures/sim

   Regenerate only when a trace change is intended; the test then pins
   the new traces. *)

module Sim = Protego_sim.Sim

let specs =
  [ "lane=plane,workers=3,steps=120,reloads=4";
    "lane=plane,workers=3,steps=120,reloads=4,phases=on";
    "faults=crash:1"; "faults=stale:1"; "faults=dup:1"; "faults=drop:1";
    "faults=delay:1"; "faults=wrap:1";
    "segments=4,faults=wrap:1";
    "lane=dispatch,steps=120,edits=4";
    "lane=dispatch,golden=1";
    "lane=plane,golden=1" ]

let seeds = 20

(* Spec of the seed-0 runs pinned in full, by file name. *)
let full =
  [ ("plane", "lane=plane,workers=3,steps=120,reloads=4");
    ("phased", "lane=plane,workers=3,steps=120,reloads=4,phases=on");
    ("crash", "faults=crash:1");
    ("dispatch", "lane=dispatch,steps=120,edits=4");
    ("dispatch-golden", "lane=dispatch,golden=1") ]

let parse s =
  match Sim.spec_of_string s with Ok sp -> sp | Error e -> failwith e

let with_out path f =
  let oc = open_out_bin path in
  f oc;
  close_out oc

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  with_out (Filename.concat dir "digests.txt") (fun oc ->
      List.iter
        (fun s ->
          for seed = 0 to seeds - 1 do
            let sp = { (parse s) with Sim.sp_seed = seed } in
            let ctx = Sim.run sp Sim.Seeded in
            Printf.fprintf oc "%s %s\n"
              (Digest.to_hex
                 (Digest.string
                    (Sim.trace_to_string ctx ^ "\n"
                    ^ Sim.script_to_string ctx.Sim.x_script)))
              (Sim.spec_to_string sp)
          done)
        specs);
  List.iter
    (fun (name, s) ->
      let sp = { (parse s) with Sim.sp_seed = 0 } in
      let ctx = Sim.run sp Sim.Seeded in
      with_out (Filename.concat dir (name ^ ".trace")) (fun oc ->
          Printf.fprintf oc "spec %s\nscript %s\n%s\n" (Sim.spec_to_string sp)
            (Sim.script_to_string ctx.Sim.x_script)
            (Sim.trace_to_string ctx)))
    full
