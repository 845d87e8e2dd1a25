(* Entry point: bench.exe --workload NAME --seed N --seconds S --trace 0|1
   [--rtsyn PATH] [--scratch DIR].  Prints diagnostics on stderr and, as
   the last line of stdout, the JSON result. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload synth_cold|serve_mixed|paper_models --seed N \
     --seconds S --trace 0|1 [--rtsyn PATH] [--scratch DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rtsyn = ref "_build/default/bin/rtsyn.exe" and scratch = ref ".perfbench-run" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := (v = "1"); parse rest
    | "--rtsyn" :: v :: rest -> rtsyn := v; parse rest
    | "--scratch" :: v :: rest -> scratch := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let seed = !seed and seconds = !seconds in
  let result =
    match (!workload, !trace) with
    | "synth_cold", false -> Synth_cold.run_plain ~seed ~seconds
    | "synth_cold", true -> Synth_cold.run_traced ~seed ~seconds
    | "serve_mixed", trace ->
      Serve_mixed.run ~trace ~seed ~seconds ~rtsyn:!rtsyn ~scratch:!scratch
    | "paper_models", false -> Paper_models.run_plain ~seed ~seconds
    | "paper_models", true -> Paper_models.run_traced ~seed ~seconds
    | _ -> usage ()
  in
  let result =
    if !trace then { result with Common.metrics = Layer_metrics.complete result.Common.metrics }
    else result
  in
  Common.print_result result
