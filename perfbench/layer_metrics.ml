(* The per-layer metrics, with their units, as BENCHMARK.json (at the
   root of the checkout the benchmark runs from) declares them.  A traced
   run of any workload prints all of them; a layer the workload never
   calls reads 0. *)

module Json = Rtcad_serve.Json

let declared () =
  let j = Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
  let field k e =
    match Option.bind (Json.member k e) Json.to_str with
    | Some v -> v
    | None -> failwith ("BENCHMARK.json: a per_layer entry has no " ^ k)
  in
  match Json.member "per_layer" j with
  | Some (Json.List l) -> List.map (fun e -> (field "name" e, field "unit" e)) l
  | _ -> failwith "BENCHMARK.json: no per_layer list"

let complete (measured : Common.metric list) =
  let all = declared () in
  List.iter
    (fun (mt : Common.metric) ->
      if not (List.mem_assoc mt.Common.name all) then
        failwith ("per-layer metric not declared: " ^ mt.Common.name))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (mt : Common.metric) -> mt.Common.name = name) measured with
      | Some mt ->
        if mt.Common.unit_ <> unit_ then failwith ("unit mismatch for " ^ name);
        mt
      | None -> Common.m name unit_ 0.0)
    all
