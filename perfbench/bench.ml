(* Shared vocabulary of the benchmark: metrics with their clock, the
   run loop, statistics, and the result each workload returns. *)

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* Host wall time of [f ()], in seconds, with its result. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

(* Which clock a number comes from. Host numbers are wall time or
   memory of this process; virtual numbers come from a deterministic
   virtual clock inside the program; simulated numbers are device-model
   estimates; counts and ratios have no clock. *)
type clock = Host | Virtual | Sim | Count

let clock_name = function
  | Host -> "host"
  | Virtual -> "virtual"
  | Sim -> "sim"
  | Count -> "count"

type metric = { name : string; value : float; unit_ : string; clock : clock }

let host name unit_ value = { name; value; unit_; clock = Host }
let virt name unit_ value = { name; value; unit_; clock = Virtual }
let sim name unit_ value = { name; value; unit_; clock = Sim }
let count name unit_ value = { name; value; unit_; clock = Count }

(* A per-layer table for one traced iteration: rows plus
   [unattributed_s] add up to [wall_s] times the number of domains the
   accounting spans ([domains]). *)
type table = {
  rows : (string * float) list;
  wall_s : float;  (** of the traced iteration the rows come from *)
  domains : int;
  accounting : string;  (** how the rows add up, printed under the table *)
}

type result = {
  e2e : metric list;  (** end-to-end metrics of the untraced iterations *)
  layers : metric list;  (** per-layer metrics; filled only when traced *)
  table : table option;  (** per-layer table; only when traced *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** output checks: name, passed *)
  notes : string list;  (** run facts worth a line in the report *)
}

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean = function
  | [] -> nan
  | l -> exp (List.fold_left (fun acc x -> acc +. log x) 0. l /. float_of_int (List.length l))

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

(* Where the run writes its spans and scratch files; inside the checkout. *)
let out_dir = ref ".perfbench"

let sum l = List.fold_left ( +. ) 0. l
let ratio a b = if b = 0. then 0. else a /. b

(* Nearest-rank percentile of a sample ([p] in 0..100). *)
let percentile p l =
  match l with
  | [] -> nan
  | _ ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* Host timings repeated within a run report the fastest repetition. On
   a shared host, load from other tenants only ever slows a repetition
   down, so the fastest one is the least disturbed; it moves less from
   run to run than the median. Set-up time is the exception: every
   workload sets up several times in a run and reports the median, so
   work moved into set-up shows in full. *)
let fastest l = List.fold_left Float.min infinity l

(* Host-time samples of one quantity. Samples are spread over the run
   (the [between] hook of [repeat]), not taken back to back, so that the
   fastest is not the luck of one moment. *)
type samples = float list ref

let samples () : samples = ref []

let sample (r : samples) f =
  let v, dt = timed f in
  r := dt :: !r;
  v

(* Run [iterate] for about [seconds] of host time, at least [min_iters]
   times: an iteration starts only if, at the pace of the slowest one so
   far, it ends within the budget. [between i] runs after iteration [i]
   and counts against the budget, not against the iteration. Returns the
   results in run order. *)
let repeat ~seconds ?(min_iters = 1) ?(between = fun _ -> ()) iterate =
  let t0 = now_ns () in
  let rec go n slowest acc =
    let elapsed = seconds_since t0 in
    if n >= min_iters && elapsed +. slowest > seconds then List.rev acc
    else
      let v, dt = timed (fun () -> iterate n) in
      between n;
      go (n + 1) (Float.max slowest dt) (v :: acc)
  in
  go 0 0. []

(* The untraced and traced iterations of a run, each in run order. A
   traced run alternates untraced and traced iterations, at least three,
   so the tracing overhead is measured on the same work in the same
   process against a warm untraced iteration. *)
let iterations ~seconds ~trace ?(min_iters = 1) ?between iterate =
  let untraced = ref [] and traced = ref [] in
  ignore
    (repeat ~seconds ~min_iters:(if trace then max 3 min_iters else min_iters) ?between
       (fun i ->
         let t = trace && i mod 2 = 1 in
         let it = iterate ~traced:t i in
         if t then traced := it :: !traced else untraced := it :: !untraced));
  (List.rev !untraced, List.rev !traced)

(* [traced.wall_s] and [trace.overhead_s]: the fastest traced wall time,
   and its excess over the fastest untraced one after the first (cold)
   iteration. *)
let overhead_metrics ~untraced ~traced =
  let warm = match untraced with [] | [ _ ] -> untraced | _ :: w -> w in
  let traced_wall = fastest traced in
  [
    { name = "traced.wall_s"; value = traced_wall; unit_ = "s"; clock = Host };
    { name = "trace.overhead_s"; value = traced_wall -. fastest warm; unit_ = "s"; clock = Host };
  ]

(* Capacity of a table not covered by its rows. *)
let unattributed t = (t.wall_s *. float_of_int t.domains) -. sum (List.map snd t.rows)

(* Tracing is the program's own tracer ([Tvm_obs.Trace]): turning it
   on records the spans the program already emits (the compiler's
   [phase.*], [tune], [compile]) and the benchmark's own [perfbench.*]
   spans around each layer call. It is domain-safe and puts each
   [Tvm_par] worker domain on its own lane. Turning it on clears the
   spans of the previous traced iteration; spans stay in memory until
   the run ends. *)
let set_tracing b = Tvm_obs.Trace.set_enabled b

(* A benchmark span around a layer call; a flag check when untraced. *)
let span name f = Tvm_obs.Trace.with_span ("perfbench." ^ name) f

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Peak major heap at the end of the run's fixed-size portion (set-up
   plus the first iterations). How many further iterations fit in the
   time budget depends on host speed, and must not move a memory
   metric. The first call records; later calls return the record. *)
let fixed_peak = ref nan

let peak_heap_after_fixed () =
  if Float.is_nan !fixed_peak then fixed_peak := peak_heap_mb ();
  !fixed_peak

(* A counter or gauge from the program's metrics registry (0 if absent). *)
let metric name = Option.value ~default:0. (Tvm_obs.Metrics.get name)

(* Closed spans of the current trace named [name] (the benchmark's
   own are [perfbench.*]) and satisfying [where]: their total duration
   in seconds, and their number. *)
let traced ?(where = fun _ -> true) name =
  List.filter
    (fun (sp : Tvm_obs.Trace.span) -> sp.Tvm_obs.Trace.sp_name = name && where sp)
    (Tvm_obs.Trace.spans ())

let trace_sum ?where name =
  List.fold_left
    (fun acc (sp : Tvm_obs.Trace.span) -> acc +. (Int64.to_float sp.Tvm_obs.Trace.sp_dur_ns /. 1e9))
    0. (traced ?where name)

let trace_calls ?where name = List.length (traced ?where name)

(* The coordinator domain records on the host lane; [Tvm_par] workers
   and lanes record on lanes of their own. *)
let on_coordinator (sp : Tvm_obs.Trace.span) =
  (sp.Tvm_obs.Trace.sp_pid, sp.Tvm_obs.Trace.sp_tid) = Tvm_obs.Trace.host_lane

(* The traced call raised. *)
let raised (sp : Tvm_obs.Trace.span) = List.mem_assoc "error" sp.Tvm_obs.Trace.sp_attrs

(* Every run records the same host facts, so results from different
   hosts or settings are never compared by mistake. *)
let host_jobs = max 1 (min 2 (Domain.recommended_domain_count ()))

let host_facts ~workload ~seed ~seconds ~trace =
  [
    ("workload", workload);
    ("seed", string_of_int seed);
    ("seconds", Printf.sprintf "%g" seconds);
    ("trace", string_of_int (if trace then 1 else 0));
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("jobs", string_of_int host_jobs);
    ("word_size", string_of_int Sys.word_size);
  ]
