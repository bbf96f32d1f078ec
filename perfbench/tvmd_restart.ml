(* tvmd-restart: a multi-tenant job trace through [Tvmd.serve] with two
   slots and a durable store. The cold run starts from an empty store,
   so every job runs live and the store is written; the warm restart
   replays from that store, so the store is read. The tuner and the
   compiler run here inside lanes with [jobs = 1] and under store
   replay, which exposes [Scheduler], [Store] and [Fleet].

   Known defect, deliberately left visible: tenant alpha's
   [tune C1 --trials 32] on one device overruns the default 10 s
   budget cold, but the compile job after it in the same scope flushes
   the scope and persists the timed-out job's trial log. The warm
   restart replays that log, the tune succeeds, and every later
   schedule column shifts. The mismatching jobs count in [fail_share];
   the output check recognises exactly this pattern and fails on any
   other cold/warm difference. *)

module Tvmd = Tvm_serve.Tvmd
module Sched = Tvm_serve.Scheduler
module Spec = Tvm_spec.Job_spec

let slots = Bench.host_jobs

(* The job trace: the defect reproducer, then one job mix. Tenants are
   weighted 2:1:1:1; beta and gamma share the C7 fleet tune through the
   shared scope. The seed drives every job's seed but the reproducer's,
   which keeps the default spec (seed 42) so the defect shows at every
   run seed. *)
let requests seed =
  (* Faulty fleets get a 1 s per-measurement timeout, so an injected
     hang costs 1 s of device time, not the whole 10 s job budget. *)
  let tune ~k ?(devices = 1) ?(fleet = 0) ?(fault_rate = 0.) ?(speculate = false) w trials =
    let timeout_s = if fault_rate > 0. then 1.0 else Spec.default.Spec.timeout_s in
    Spec.make ~op:Spec.Tune ~workload:w ~trials ~seed:(seed + (97 * k)) ~devices ~fleet
      ~fault_rate ~speculate ~timeout_s ()
  in
  let net ~k op w = Spec.make ~op ~workload:w ~trials:0 ~seed:(seed + (97 * k)) () in
  let fleet_c7 = tune ~k:3 ~fleet:64 ~fault_rate:0.1 ~speculate:true "C7" 48 in
  [
    Tvmd.request ~tenant:"alpha" ~weight:2. ~submit_s:0.
      (Spec.make ~op:Spec.Tune ~workload:"C1" ~trials:32 ());
    Tvmd.request ~tenant:"alpha" ~weight:2. ~submit_s:0.5 (net ~k:2 Spec.Compile "dqn");
    Tvmd.request ~tenant:"beta" ~submit_s:0. ~share:true fleet_c7;
    Tvmd.request ~tenant:"gamma" ~submit_s:1. ~share:true fleet_c7;
    Tvmd.request ~tenant:"delta" ~submit_s:0. (tune ~k:4 ~devices:4 ~fault_rate:0.05 "D4" 32);
    Tvmd.request ~tenant:"delta" ~submit_s:2. (net ~k:5 Spec.Profile "dqn");
    Tvmd.request ~tenant:"beta" ~submit_s:3. (net ~k:6 Spec.Compile "lstm");
    Tvmd.request ~tenant:"gamma" ~submit_s:3. (net ~k:7 Spec.Compile "dcgan");
    Tvmd.request ~tenant:"alpha" ~weight:2. ~submit_s:4. (tune ~k:8 ~devices:4 "C4" 16);
    Tvmd.request ~tenant:"delta" ~submit_s:5. (net ~k:9 Spec.Compile "dqn");
  ]

(* Set-up is what a client and the daemon do before serving: build the
   envelopes and round-trip them through the single-line wire format. *)
let setup seed =
  List.map (fun r -> Tvmd.of_string (Tvmd.to_string r)) (requests seed)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

type iter = {
  cold : Tvmd.outcome;
  warm : Tvmd.outcome;
  cold_s : float;
  warm_s : float;
  bytes_cold : int;
  bytes_warm : int;
  metrics : (string * float) list;  (** program counters of the cold run *)
  spans : (string * float) list;  (** program spans of the cold run *)
}

let counters =
  [ "tune.phase.propose_s"; "tune.phase.prepare_s"; "tune.phase.fit_s";
    "tune.phase.measure_s"; "cache.hit"; "cache.miss"; "fleet.steals";
    "fleet.spec_launched"; "fleet.attempts"; "fleet.jobs"; "pool.jobs" ]

let iterate ~traced ~dir reqs i =
  let store = Filename.concat dir (Printf.sprintf "tvmd-%d.store" i) in
  if Sys.file_exists store then Sys.remove store;
  Tvm_obs.Metrics.reset ();
  (* Cold start and warm restart are each a fresh daemon process: no
     compile caches survive in memory, only the store on disk, and no
     garbage of earlier work is left for the collector. *)
  Tvm.Compiler.clear_cache ();
  Gc.full_major ();
  Bench.set_tracing traced;
  let cold, cold_s =
    Bench.timed (fun () -> Bench.span "serve.cold" (fun () -> Tvmd.serve ~slots ~store reqs))
  in
  let metrics = List.map (fun n -> (n, Bench.metric n)) counters in
  let spans = List.map (fun n -> (n, Bench.trace_sum n)) [ "tune"; "compile"; "kernel" ] in
  Bench.set_tracing false;
  let bytes_cold = file_size store in
  Tvm.Compiler.clear_cache ();
  Gc.full_major ();
  let warm, warm_s = Bench.timed (fun () -> Tvmd.serve ~slots ~store reqs) in
  let bytes_warm = file_size store - bytes_cold in
  Sys.remove store;
  { cold; warm; cold_s; warm_s; bytes_cold; bytes_warm; metrics; spans }

(* Cold/warm comparison. A job's line differs either because it is the
   known defect (failed cold on a timeout, succeeds warm) or because a
   defect job submitted or finished before it shifted its schedule
   columns (start, queue wait, finish) while everything else matched.
   Results-line columns: 6 submit, 7 start, 8 queue wait, 10 finish,
   12 status, 13 summary. *)
type diff = Same | Defect | Shifted | Unexplained

let fields line = Array.of_list (String.split_on_char '\t' line)

let classify_one cold warm =
  if cold = warm then Same
  else
    let c = fields cold and w = fields warm in
    if Array.length c <> 14 || Array.length w <> 14 then Unexplained
    else if
      c.(12) = "failed" && w.(12) = "ok"
      && Bench.contains c.(13) "timeout"
    then Defect
    else if List.for_all (fun k -> List.mem k [ 7; 8; 10 ] || c.(k) = w.(k)) (List.init 14 Fun.id)
    then Shifted
    else Unexplained

let classify cold_lines warm_lines =
  let diffs = List.map2 classify_one cold_lines warm_lines in
  let time line k = float_of_string (fields line).(k) in
  let defects =
    List.filter_map (fun (d, l) -> if d = Defect then Some l else None)
      (List.combine diffs cold_lines)
  in
  let explained line =
    List.exists
      (fun d -> time d 6 <= time line 6 || time d 10 <= time line 10)
      defects
  in
  List.map2 (fun d l -> if d = Shifted && not (explained l) then Unexplained else d) diffs cold_lines

let run ~seed ~seconds ~trace =
  let setup_samples = Bench.samples () in
  let reqs = Bench.sample setup_samples (fun () -> setup seed) in
  let its, traced =
    Bench.iterations ~seconds ~trace
      ~between:(fun _ ->
        for _ = 1 to 20 do ignore (Bench.sample setup_samples (fun () -> setup seed)) done)
      (fun ~traced i ->
        let it = iterate ~traced ~dir:!Bench.out_dir reqs i in
        if i = 0 then ignore (Bench.peak_heap_after_fixed ());
        it)
  in
  let setup_s = Bench.median !setup_samples in
  let first = List.hd its in
  let cold it = it.cold_s in
  (* The cold serve takes seconds, longer than the host's fast spells
     usually last, so its fastest repetition is an outlier of the run
     more than a measurement: [wall_s] is the median. The warm serve is
     short and reports its fastest, as the other workloads do. *)
  let wall_s = Bench.median (List.map cold its)
  and warm_s = Bench.fastest (List.map (fun it -> it.warm_s) its) in
  let diffs = classify first.cold.Tvmd.oc_lines first.warm.Tvmd.oc_lines in
  let n_jobs = List.length first.cold.Tvmd.oc_lines in
  let cold_failed =
    List.map
      (fun l -> match String.split_on_char '\t' l with
         | fields when List.length fields = 14 -> List.nth fields 12 = "failed"
         | _ -> true)
      first.cold.Tvmd.oc_lines
  in
  let bad = List.map2 (fun d f -> f || d <> Same) diffs cold_failed in
  let failed = List.length (List.filter Fun.id bad) in
  let count d = List.length (List.filter (( = ) d) diffs) in
  let latencies =
    List.map
      (fun (c : Tvmd.request Sched.completion) ->
        c.Sched.cp_finish_s -. c.Sched.cp_job.Sched.jb_submit_s)
      first.cold.Tvmd.oc_completions
  in
  let e2e =
    [
      Bench.host "wall_s" "s" wall_s;
      Bench.host "setup_s" "s" setup_s;
      Bench.host "peak_heap_mb" "MB" (Bench.peak_heap_after_fixed ());
      Bench.host "check_s" "s" warm_s;
      Bench.count "fail_share" "ratio" (Bench.ratio (float_of_int failed) (float_of_int n_jobs));
      Bench.host "warm_s" "s" warm_s;
      Bench.virt "job_p50_vs" "s" (Bench.median latencies);
    ]
  in
  let layers, table =
    match traced with
    | [] -> ([], None)
    | t :: _ ->
        let m n = List.assoc n t.metrics and sp n = List.assoc n t.spans in
        ( [
            Bench.host "serve.cold_s" "s" t.cold_s;
            Bench.host "serve.warm_s" "s" t.warm_s;
            Bench.count "store.bytes_cold" "bytes" (float_of_int t.bytes_cold);
            Bench.count "store.bytes_warm" "bytes" (float_of_int t.bytes_warm);
            Bench.count "jobs.executed" "count" (float_of_int t.cold.Tvmd.oc_executed);
            Bench.count "jobs.restored" "count" (float_of_int t.warm.Tvmd.oc_restored);
            Bench.count "jobs.failed" "count" (float_of_int t.cold.Tvmd.oc_failed);
            Bench.virt "queue_wait_vs.p50" "s"
              (Bench.median
                 (List.map
                    (fun (c : Tvmd.request Sched.completion) -> c.Sched.cp_queue_wait_s)
                    t.cold.Tvmd.oc_completions));
            Bench.host "tune.phase.propose_s" "s" (m "tune.phase.propose_s");
            Bench.host "tune.phase.prepare_s" "s" (m "tune.phase.prepare_s");
            Bench.host "tune.phase.fit_s" "s" (m "tune.phase.fit_s");
            Bench.host "tune.phase.measure_s" "s" (m "tune.phase.measure_s");
            Bench.count "sa_cache.hit_ratio" "ratio"
              (Bench.ratio (m "cache.hit") (m "cache.hit" +. m "cache.miss"));
            Bench.count "measure.calls" "count" (m "fleet.jobs" +. m "pool.jobs");
            Bench.count "fleet.steals" "count" (m "fleet.steals");
            Bench.count "fleet.spec_launched" "count" (m "fleet.spec_launched");
          ]
          @ Bench.overhead_metrics ~untraced:(List.map cold its) ~traced:(List.map cold traced),
          Some
            {
              Bench.rows =
                [
                  ("Tuner.tune inside lanes (tune spans)", sp "tune");
                  ("Compiler.build inside lanes (compile spans)", sp "compile");
                  ("Graph_executor profile runs inside lanes (kernel spans)", sp "kernel");
                ];
              wall_s = t.cold_s;
              domains = slots;
              accounting =
                Printf.sprintf
                  "domain-seconds: %d lanes x wall_s of the cold Tvmd.serve; \
                   unattributed = Scheduler replay, Store flushes and lane idle \
                   time, which publish no spans"
                  slots;
            } )
  in
  {
    Bench.e2e;
    layers;
    table;
    attempted = n_jobs;
    failed;
    checks =
      [
        ( "cold and warm results match, apart from the known defect",
          count Unexplained = 0 );
        ("no job failed warm", first.warm.Tvmd.oc_failed = 0);
        ( "every iteration gives the same cold and the same warm results",
          List.for_all
            (fun it ->
              it.cold.Tvmd.oc_lines = first.cold.Tvmd.oc_lines
              && it.warm.Tvmd.oc_lines = first.warm.Tvmd.oc_lines)
            (its @ traced) );
      ];
    notes =
      [
        Printf.sprintf "%d jobs, 4 tenants weighted 2:1:1:1, %d slots, durable store" n_jobs
          slots;
        Printf.sprintf
          "KNOWN DEFECT: %d job(s) timed out cold and succeeded warm from a persisted \
           trial log; %d later job(s) shifted; %d cold failure(s); counted in fail_share"
          (count Defect) (count Shifted)
          (List.length (List.filter Fun.id cold_failed));
        Printf.sprintf "iterations: %d untraced, %d traced; cold s: %s" (List.length its)
          (List.length traced)
          (String.concat " " (List.map (fun it -> Printf.sprintf "%.3f" it.cold_s) its));
      ];
  }
