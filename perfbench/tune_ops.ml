(* tune-ops: ML-guided tuning of five Table-2 operators through
   [Tuner.tune], a batch job with one caller. This is where the tuner
   spends its host time: lowering inside [tpl_instantiate], then
   featurization and the GBT. *)

module Tuner = Tvm_autotune.Tuner
module Pool = Tvm_rpc.Device_pool
module Mr = Tvm_autotune.Measure_result
module Workloads = Tvm_models.Workloads
module Spec = Tvm_spec.Job_spec

let trials = 128
let devices = 4
let fault_rate = 0.05

(* The run tunes three conv2d from C1-C12 and two depthwise from
   D1-D9, one drawn by the seed from each stratum below. The strata
   group operators of similar shape, and so of similar tuning and
   checking cost, so every seed gives a run of the same shape: 3x3/7x7
   convs at 28-224 px, 3x3 convs at 7-28 px, 1x1 convs, and depthwise
   convs with 56-112 px and with 14-28 px outputs. D8 and D9, with 7 px
   outputs, take about half the host time of any other depthwise op to
   tune and a third to check, so they are left out of the draw. The seed
   draws the operators only: each operator tunes with the default spec
   seed, so a given operator costs the same in every run that draws
   it. *)
let strata =
  [
    [ "C1"; "C2"; "C4"; "C6" ];
    [ "C7"; "C9"; "C10"; "C12" ];
    [ "C3"; "C5"; "C8"; "C11" ];
    [ "D1"; "D2"; "D3" ];
    [ "D4"; "D5"; "D6"; "D7" ];
  ]

(* Configurations validated per op, and repetitions of the output
   check; [check_s] is the fastest repetition. *)
let check_top = 32
let check_reps = 5

let draw seed =
  let rng = Random.State.make [| seed; 0x70e |] in
  List.map
    (fun names -> Workloads.find (List.nth names (Random.State.int rng (List.length names))))
    strata

let template (w : Workloads.conv) =
  Tvm_autotune.Templates.gpu_flat ~name:("perfbench_" ^ w.Workloads.name)
    (Tvm_experiments.Fig_e2e.conv_tensor w)

type op_run = {
  w : Workloads.conv;
  res : Tuner.result;
  measured : int;  (** configurations handed to [measure_batch] *)
  attempts : int;  (** device attempts they took, retries included *)
  ok : int;
  host_s : float;  (** host wall time of the tune call *)
}

(* One op through the public tuner API. When traced, the template's
   [tpl_instantiate] and the pool's [measure_batch] are wrapped in
   benchmark spans; the tuner itself is untouched. *)
let tune_op ~par (w, (tpl : Tuner.template)) =
  let spec =
    Spec.make ~op:Spec.Tune ~workload:w.Workloads.name ~trials ~jobs:Bench.host_jobs ~devices
      ~fault_rate ()
  in
  let pool = Pool.of_spec spec in
  let measure = Pool.measure_fn pool ~kind_pred:(fun _ -> true) in
  let batch = Pool.batch_measure_fn ~par pool ~kind_pred:(fun _ -> true) in
  let measured = Atomic.make 0 and attempts = Atomic.make 0 and ok = Atomic.make 0 in
  let measure_batch jobs =
    Bench.span "measure" (fun () ->
        let rs = batch jobs in
        Array.iter
          (fun (r : Mr.t) ->
            Atomic.incr measured;
            ignore (Atomic.fetch_and_add attempts r.Mr.attempts);
            if Mr.is_ok r then Atomic.incr ok)
          rs;
        rs)
  in
  let tpl =
    { tpl with
      Tuner.tpl_instantiate =
        (fun cfg -> Bench.span "lower" (fun () -> tpl.Tuner.tpl_instantiate cfg)) }
  in
  let db = Tuner.Db.create () in
  let res, host_s =
    Bench.timed (fun () ->
        Bench.span "tune" (fun () ->
            Tuner.tune ~spec ~db ~measure_batch ~method_:Tuner.Ml_model ~measure
              ~n_trials:trials tpl))
  in
  { w; res; host_s; measured = Atomic.get measured; attempts = Atomic.get attempts;
    ok = Atomic.get ok }

(* Span totals of a traced iteration. *)
type spans = {
  lower_s : float;  (** [tpl_instantiate], all domains *)
  lower_main_s : float;  (** [tpl_instantiate] on the coordinator *)
  measure_s : float;  (** [measure_batch], on the coordinator *)
  tune_s : float;  (** [Tuner.tune] *)
  calls : int;  (** [tpl_instantiate] calls *)
  invalid : int;  (** of which raised *)
}

type iter = {
  wall_s : float;
  runs : op_run list;
  spans : spans option;  (** traced iterations only *)
  metrics : (string * float) list;  (** program counters of this iteration *)
}

let counters =
  [ "tune.phase.propose_s"; "tune.phase.prepare_s"; "tune.phase.fit_s";
    "tune.phase.measure_s"; "cache.hit"; "cache.miss" ]

let iterate ~par ~traced ops =
  Tvm_obs.Metrics.reset ();
  Bench.set_tracing traced;
  let runs, wall_s =
    Bench.timed (fun () -> List.map (tune_op ~par) ops)
  in
  let spans =
    if not traced then None
    else
      Some
        {
          lower_s = Bench.trace_sum "perfbench.lower";
          lower_main_s = Bench.trace_sum ~where:Bench.on_coordinator "perfbench.lower";
          measure_s = Bench.trace_sum "perfbench.measure";
          tune_s = Bench.trace_sum "perfbench.tune";
          calls = Bench.trace_calls "perfbench.lower";
          invalid = Bench.trace_calls ~where:Bench.raised "perfbench.lower";
        }
  in
  Bench.set_tracing false;
  { wall_s; runs; spans; metrics = List.map (fun n -> (n, Bench.metric n)) counters }

(* Output check of one op: the [check_top] fastest configurations the
   search measured successfully, the best one included, re-instantiate
   and pass the TIR validator with zero errors. A fixed number per op
   keeps the check's cost from following how many trials happened to
   succeed. Returns the number of configurations checked and of those
   that failed. *)
let check_op (tpl : Tuner.template) r =
  let ok =
    List.filter_map
      (fun (t : Tuner.trial) ->
        Option.map (fun time -> (time, t.Tuner.config)) (Mr.time t.Tuner.result))
      r.res.Tuner.history
    |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
    |> List.filteri (fun i _ -> i < check_top)
    |> List.map snd
  in
  let valid cfg =
    match tpl.Tuner.tpl_instantiate cfg with
    | stmt -> Tvm_tir.Validate.errors (Tvm_tir.Validate.check stmt) = []
    | exception _ -> false
  in
  (List.length ok, List.length (List.filter (fun c -> not (valid c)) ok))

let layer_metrics (it : iter) =
  let { lower_s; lower_main_s = lower_main; measure_s; tune_s; calls; invalid } =
    Option.get it.spans
  in
  let m n = List.assoc n it.metrics in
  let measured = List.fold_left (fun a r -> a + r.measured) 0 it.runs in
  let attempts = List.fold_left (fun a r -> a + r.attempts) 0 it.runs in
  let ok = List.fold_left (fun a r -> a + r.ok) 0 it.runs in
  let tuner_self = tune_s -. lower_main -. measure_s in
  let domains = Bench.host_jobs in
  let table =
    {
      Bench.rows =
        [
          ("lower (Templates -> Tvm_lower, all domains)", lower_s);
          ("Tuner self (coordinator: tune - lower - measure)", tuner_self);
          ("Device_pool measure_batch (coordinator)", measure_s);
          ( "helper domains outside lowering (Feature, Gbt, SA, idle)",
            (float_of_int (domains - 1) *. it.wall_s) -. (lower_s -. lower_main) );
        ];
      wall_s = it.wall_s;
      domains;
      accounting =
        Printf.sprintf
          "domain-seconds: %d domains x wall_s; unattributed = coordinator \
           time outside Tuner.tune"
          domains;
    }
  in
  ( [
      Bench.count "lower.calls" "count" (float_of_int calls);
      Bench.count "lower.invalid" "count" (float_of_int invalid);
      Bench.count "lower.valid_ratio" "ratio"
        (Bench.ratio (float_of_int (calls - invalid)) (float_of_int calls));
      Bench.host "lower.busy_s" "s" lower_s;
      Bench.host "tuner.self_s" "s" tuner_self;
      Bench.host "tune.phase.propose_s" "s" (m "tune.phase.propose_s");
      Bench.host "tune.phase.prepare_s" "s" (m "tune.phase.prepare_s");
      Bench.host "tune.phase.fit_s" "s" (m "tune.phase.fit_s");
      Bench.host "tune.phase.measure_s" "s" (m "tune.phase.measure_s");
      Bench.count "sa_cache.hit_ratio" "ratio"
        (Bench.ratio (m "cache.hit") (m "cache.hit" +. m "cache.miss"));
      Bench.count "measure.calls" "count" (float_of_int measured);
      Bench.host "measure.busy_s" "s" measure_s;
      Bench.count "measure.attempts" "count" (float_of_int attempts);
      Bench.count "measure.ok_ratio" "ratio"
        (Bench.ratio (float_of_int ok) (float_of_int measured));
    ],
    table )

let run ~seed ~seconds ~trace =
  let ws = draw seed in
  let setup = Bench.samples () in
  let build () = Bench.sample setup (fun () -> List.map (fun w -> (w, template w)) ws) in
  let ops = build () in
  let par = Tvm_par.Pool.create ~domains:Bench.host_jobs () in
  (* Every iteration tunes the same five operators with the same seeds,
     so it repeats the same work: the tuning results are a pure
     function of the inputs. *)
  let its, traced =
    Bench.iterations ~seconds ~trace ~min_iters:2
      ~between:(fun _ -> for _ = 1 to 10 do ignore (build ()) done)
      (fun ~traced i ->
        let it = iterate ~par ~traced ops in
        if i = 0 then ignore (Bench.peak_heap_after_fixed ());
        it)
  in
  let setup_s = Bench.median !setup in
  let runs = (List.hd its).runs in
  (* Each op's check repeats [check_reps] times; [check_s] sums, over
     the ops, the fastest repetition of each. *)
  let checked =
    List.map2
      (fun (_, tpl) r ->
        let reps = Bench.samples () in
        let v = List.hd (List.init check_reps (fun _ -> Bench.sample reps (fun () -> check_op tpl r))) in
        (v, Bench.fastest !reps))
      ops runs
  in
  let verdicts = List.map fst checked in
  let check_s = Bench.sum (List.map snd checked) in
  (* [wall_s] sums, over the operators, the fastest tune of each: a
     tune of a few seconds is more likely than the whole loop to run
     undisturbed by other load on the host. *)
  let op_s =
    List.mapi
      (fun k (w, _) ->
        (w, Bench.fastest (List.map (fun it -> (List.nth it.runs k).host_s) its)))
      ops
  in
  let wall_s = Bench.sum (List.map snd op_s) in
  let histories = List.map (fun r -> r.res.Tuner.history) runs in
  let trials_run = List.fold_left (fun a h -> a + List.length h) 0 histories in
  let not_ok =
    List.fold_left
      (fun a h -> a + List.length (List.filter (fun t -> not (Mr.is_ok t.Tuner.result)) h))
      0 histories
  in
  let e2e =
    [
      Bench.host "wall_s" "s" wall_s;
      Bench.host "setup_s" "s" setup_s;
      Bench.host "peak_heap_mb" "MB" (Bench.peak_heap_after_fixed ());
      Bench.host "check_s" "s" check_s;
      Bench.count "fail_share" "ratio" (Bench.ratio (float_of_int not_ok) (float_of_int trials_run));
      Bench.sim "kernel_us_sim" "us"
        (Bench.geomean (List.map (fun r -> 1e6 *. r.res.Tuner.best_time) runs));
    ]
  in
  let layers, table =
    match traced with
    | [] -> ([], None)
    | it :: _ ->
        let layers, table = layer_metrics it in
        let wall it = it.wall_s in
        ( layers
          @ Bench.overhead_metrics ~untraced:(List.map wall its) ~traced:(List.map wall traced),
          Some table )
  in
  {
    Bench.e2e;
    layers;
    table;
    attempted = trials_run;
    failed = not_ok;
    checks =
      List.map2
        (fun r (n, bad) ->
          ( Printf.sprintf "%s: %d/%d of the fastest measured configs (best included) validate" r.w.Workloads.name
              (n - bad) n,
            bad = 0 ))
        runs verdicts
      @ [
          ( "every iteration tunes to the same configurations",
            List.for_all
              (fun it ->
                List.for_all2
                  (fun a b ->
                    List.map (fun t -> t.Tuner.config) a.res.Tuner.history
                    = List.map (fun t -> t.Tuner.config) b.res.Tuner.history)
                  it.runs runs)
              (its @ traced) );
        ];
    notes =
      [
        Printf.sprintf "ops: %s (gpu_flat, %d trials each, -j %d, %d devices, %.0f%% faults)"
          (String.concat " " (List.map (fun w -> w.Workloads.name) ws))
          trials Bench.host_jobs devices (100. *. fault_rate);
        "per-op fastest tune, host s: "
        ^ String.concat " "
            (List.map (fun ((w : Workloads.conv), t) -> Printf.sprintf "%s=%.3f" w.Workloads.name t) op_s);
        "per-op fastest check, host s: "
        ^ String.concat " "
            (List.map2
               (fun (w : Workloads.conv) (_, t) -> Printf.sprintf "%s=%.4f" w.Workloads.name t)
               ws checked);
        Printf.sprintf "iterations: %d untraced, %d traced; loop s: %s" (List.length its)
          (List.length traced)
          (String.concat " " (List.map (fun it -> Printf.sprintf "%.3f" it.wall_s) its));
      ];
  }
