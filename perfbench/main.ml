(* perfbench: one command, four workloads.

   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   Prints host facts, every end-to-end metric of the workload with its
   clock and unit, the output checks, and (traced) the per-layer table;
   the last line is one JSON object with [correct], [attempted],
   [failed] and [metrics]. End-to-end numbers always come from untraced
   iterations; a traced run adds per-layer metrics and the tracing
   overhead. *)

let workloads =
  [
    ("tune-ops", Tune_ops.run);
    ("compile-nets", Compile_nets.run);
    ("serve-traffic", Serve_traffic.run);
    ("tvmd-restart", Tvmd_restart.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (tune-ops|compile-nets|serve-traffic|tvmd-restart) \
     --seed N --seconds S --trace 0|1 [--out DIR]";
  exit 2

let parse argv =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "workload" in
  if not (List.mem_assoc workload workloads) then usage ();
  let seconds = match float_of_string_opt (get "seconds") with
    | Some s when s > 0. -> s | _ -> usage () in
  let trace = match int "trace" with 0 -> false | 1 -> true | _ -> usage () in
  let out = Option.value ~default:".perfbench" (List.assoc_opt "out" kv) in
  (workload, int "seed", seconds, trace, out)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_line (r : Bench.result) metrics =
  let correct = List.for_all snd r.Bench.checks in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct r.Bench.attempted r.Bench.failed
    (String.concat ", "
       (List.map
          (fun (m : Bench.metric) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S, \"clock\": %S}" m.Bench.name
              (json_num m.Bench.value) m.Bench.unit_ (Bench.clock_name m.Bench.clock))
          metrics))

let print_metrics title ms =
  Printf.printf "\n%s\n" title;
  List.iter
    (fun (m : Bench.metric) ->
      Printf.printf "  %-28s %16.6f  %-6s (%s)\n" m.Bench.name m.Bench.value m.Bench.unit_
        (Bench.clock_name m.Bench.clock))
    ms

let print_table (t : Bench.table) =
  let capacity = t.Bench.wall_s *. float_of_int t.Bench.domains in
  Printf.printf "\nlayer table (traced iteration, wall_s %.4f s)\n" t.Bench.wall_s;
  let row name v =
    Printf.printf "  %-58s %10.4f s  %5.1f%%\n" name v (100. *. Bench.ratio v capacity)
  in
  List.iter (fun (n, v) -> row n v) t.Bench.rows;
  row "unattributed_s" (Bench.unattributed t);
  row (Printf.sprintf "total (= %d x wall_s)" t.Bench.domains) capacity;
  Printf.printf "  (%s)\n" t.Bench.accounting

let () =
  let workload, seed, seconds, trace, out = parse Sys.argv in
  let facts = Bench.host_facts ~workload ~seed ~seconds ~trace in
  Printf.printf "perfbench %s\n" workload;
  List.iter (fun (k, v) -> Printf.printf "  %-10s %s\n" k v) facts;
  mkdir_p out;
  Bench.out_dir := out;
  let r = (List.assoc workload workloads) ~seed ~seconds ~trace in
  List.iter (fun n -> Printf.printf "  %s\n" n) r.Bench.notes;
  print_metrics "end-to-end metrics (untraced iterations)" r.Bench.e2e;
  Printf.printf "  attempted %d, failed %d\n" r.Bench.attempted r.Bench.failed;
  Printf.printf "\noutput checks\n";
  List.iter
    (fun (n, ok) -> Printf.printf "  [%s] %s\n" (if ok then "pass" else "FAIL") n)
    r.Bench.checks;
  let metrics =
    if not trace then r.Bench.e2e
    else begin
      print_metrics "per-layer metrics (traced iteration)" r.Bench.layers;
      Option.iter print_table r.Bench.table;
      let base = Filename.concat out (Printf.sprintf "%s-seed%d" workload seed) in
      Tvm_obs.Trace.write_chrome_trace (base ^ ".trace.json");
      Printf.printf "\nspans of the last traced iteration written to %s.trace.json\n" base;
      r.Bench.layers
      @ Option.fold ~none:[]
          ~some:(fun t -> [ Bench.host "unattributed_s" "s" (Bench.unattributed t) ])
          r.Bench.table
    end
  in
  let facts_json =
    String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) facts)
  in
  Printf.printf "\nfacts {%s}\n" facts_json;
  print_endline (result_line r metrics)
