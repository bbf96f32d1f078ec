(* serve-traffic: an open-loop trace from [Traffic.generate] served by
   [Model_server] over the reduced serving suite, default config, 50 ms
   SLO. The only workload that exercises admission, batching, placement
   and the slab arena: at [lo] batching is mostly idle, at [hi] it does
   most of the work.

   Latency runs from each request's scheduled arrival. The trace is
   precomputed before the server runs, so the generator is never late:
   its lateness is 0 by construction. *)

module Ms = Tvm_serve.Model_server
module Traffic = Tvm_serve.Traffic

let slo_s = 0.05
let tenants_n = 8

(* Offered rates, requests per virtual second over all tenants. The
   parent's saturation point is near 18.7k req/s; [lo] and [hi] sit at
   about a quarter and three quarters of it. *)
let lo_rps = 4_700.
let hi_rps = 14_000.
let ladder = [ 8_000.; 12_000.; 16_000.; 17_000.; 18_000.; 19_000.; 20_000.; 22_000.; 26_000. ]
let horizon_s = 0.5
let setup_every = 20

let trace ~seed ~models rps =
  Traffic.generate ~seed ~horizon_s
    (List.init tenants_n (fun i ->
         Traffic.tenant ~rate_hz:(rps /. float_of_int tenants_n) ~slo_s
           ~model:(List.nth models (i mod List.length models))
           (Printf.sprintf "tenant%d" i)))

type rung = {
  rps : float;
  requests : Traffic.request list;
  mutable out : Ms.outcome option;
  mutable run_s : float;
}

let exactly_once (r : rung) (o : Ms.outcome) =
  let n = List.length r.requests in
  let seen = Array.make n 0 in
  List.iter
    (fun (c : Ms.completion) ->
      if c.Ms.rc_id >= 0 && c.Ms.rc_id < n then seen.(c.Ms.rc_id) <- seen.(c.Ms.rc_id) + 1)
    o.Ms.oc_completions;
  List.length o.Ms.oc_completions = n
  && Array.for_all (( = ) 1) seen
  && List.for_all (fun (q : Traffic.request) -> q.Traffic.rq_id < n) r.requests

(* The rate is sustained when p99 meets the SLO and the backlog does not
   grow: the last request completes within one SLO of the trace end. *)
let sustained (o : Ms.outcome) =
  o.Ms.oc_p99_s <= slo_s && o.Ms.oc_makespan_s <= horizon_s +. slo_s

let ms_list f (o : Ms.outcome) = List.map (fun c -> 1e3 *. f c) o.Ms.oc_completions

type iter = { wall_s : float; rungs : rung list }

(* Only [keep] iterations retain their outcomes (each holds every
   completion); the others keep their timings. *)
let iterate ~traced ~keep server rung_inputs =
  Bench.set_tracing traced;
  let rungs =
    List.map (fun (rps, requests) -> { rps; requests; out = None; run_s = 0. }) rung_inputs
  in
  let (), wall_s =
    Bench.timed (fun () ->
        List.iter
          (fun r ->
            let o, dt = Bench.timed (fun () -> Bench.span "run" (fun () -> Ms.run server r.requests)) in
            if keep then r.out <- Some o;
            r.run_s <- dt)
          rungs)
  in
  Bench.set_tracing false;
  { wall_s; rungs }

let out r = Option.get r.out

let run ~seed ~seconds ~trace:traced_run =
  let graphs = Tvm_models.Models.serving_suite () in
  let models = List.map fst graphs in
  let rates = lo_rps :: hi_rps :: ladder in
  (* Set-up: load (compile + place) the five models and generate every
     trace of the run. *)
  let setup = Bench.samples () in
  let do_setup () =
    Bench.sample setup (fun () ->
        let server, load_s =
          Bench.timed (fun () -> Ms.load ~lanes:Bench.host_jobs (Ms.config ()) graphs)
        in
        let inputs, gen_s =
          Bench.timed (fun () -> List.map (fun rps -> (rps, trace ~seed ~models rps)) rates)
        in
        (server, load_s, inputs, gen_s))
  in
  let server, load_s, rung_inputs, gen_s = do_setup () in
  let hi_requests = snd (List.nth rung_inputs 1) in
  (* Output check, taken after every iteration: a second
     [Model_server.run] of the [hi] trace. Set-up repeats every
     [setup_every] iterations. *)
  let check = Bench.samples () in
  let expected = ref [] and identical = ref true in
  let between i =
    let o = Bench.sample check (fun () -> Ms.run server hi_requests) in
    identical := !identical && Ms.results_lines o = !expected;
    if i mod setup_every = setup_every - 1 then ignore (do_setup ())
  in
  let its, traced =
    Bench.iterations ~seconds ~trace:traced_run ~between (fun ~traced i ->
        (* Iterations 0 and 1 keep their outcomes: the first untraced
           one and, in a traced run, the first traced one. *)
        let it = iterate ~traced ~keep:(i < 2) server rung_inputs in
        if i = 0 then begin
          expected := Ms.results_lines (out (List.nth it.rungs 1));
          ignore (Bench.peak_heap_after_fixed ())
        end;
        it)
  in
  let setup_s = Bench.median !setup and check_s = Bench.fastest !check in
  let first = List.hd its in
  let lo = List.nth first.rungs 0 and hi = List.nth first.rungs 1 in
  let walls = List.map (fun it -> it.wall_s) its in
  let wall_s = Bench.fastest walls in
  let served = Bench.sum (List.map (fun r -> float_of_int (List.length r.requests)) first.rungs) in
  let host_us_per_req =
    Bench.fastest
      (List.map
         (fun it -> 1e6 *. Bench.sum (List.map (fun r -> r.run_s) it.rungs) /. served)
         its)
  in
  (* Output checks: exactly-once completion on every rung, and every
     rerun of the [hi] trace gives identical results lines. *)
  let once = List.for_all (fun r -> exactly_once r (out r)) first.rungs in
  let slo_failed r =
    (out r).Ms.oc_slo_misses + (List.length r.requests - List.length (out r).Ms.oc_completions)
  in
  let attempted = List.length lo.requests + List.length hi.requests in
  let failed = slo_failed lo + slo_failed hi in
  let max_vrps =
    List.fold_left
      (fun acc r -> if sustained (out r) then Float.max acc r.rps else acc)
      0. first.rungs
  in
  let lat r = ms_list (fun c -> c.Ms.rc_latency_s) (out r) in
  let e2e =
    [
      Bench.host "wall_s" "s" wall_s;
      Bench.host "setup_s" "s" setup_s;
      Bench.host "peak_heap_mb" "MB" (Bench.peak_heap_after_fixed ());
      Bench.host "check_s" "s" check_s;
      Bench.count "fail_share" "ratio" (Bench.ratio (float_of_int failed) (float_of_int attempted));
      Bench.virt "lo.p50_vms" "ms" (Bench.percentile 50. (lat lo));
      Bench.virt "lo.p99_vms" "ms" (Bench.percentile 99. (lat lo));
      Bench.virt "hi.p50_vms" "ms" (Bench.percentile 50. (lat hi));
      Bench.virt "hi.p99_vms" "ms" (Bench.percentile 99. (lat hi));
      Bench.virt "max_vrps" "req/s" max_vrps;
      Bench.host "host_us_per_req" "us" host_us_per_req;
      Bench.virt "slab_mb" "MB" ((out hi).Ms.oc_slab_bytes /. 1e6);
      Bench.virt "generator_lateness_vms" "ms" 0.;
    ]
  in
  let layers, table =
    match traced with
    | [] -> ([], None)
    | t :: _ ->
        let tlo = List.nth t.rungs 0 and thi = List.nth t.rungs 1 in
        let rest = List.filteri (fun i _ -> i >= 2) t.rungs in
        let per_rate name r =
          let o = out r in
          [
            Bench.virt (name ^ ".queue_wait_vms.p50") "ms"
              (Bench.percentile 50. (ms_list (fun c -> c.Ms.rc_start_s -. c.Ms.rc_submit_s) o));
            Bench.virt (name ^ ".queue_wait_vms.p99") "ms"
              (Bench.percentile 99. (ms_list (fun c -> c.Ms.rc_start_s -. c.Ms.rc_submit_s) o));
            Bench.virt (name ^ ".service_vms.p50") "ms"
              (Bench.percentile 50. (ms_list (fun c -> c.Ms.rc_finish_s -. c.Ms.rc_start_s) o));
          ]
        in
        let placement dev =
          List.fold_left
            (fun acc (m : Ms.model) ->
              acc + Option.value ~default:0 (List.assoc_opt dev m.Ms.mv_placement))
            0 (Ms.models server)
        in
        let ho = out thi in
        ( [
            Bench.host "traffic.gen_s" "s" gen_s;
            Bench.count "requests" "count" served;
            Bench.host "load_s" "s" load_s;
            Bench.host "run_s" "s" (Bench.sum (List.map (fun r -> r.run_s) t.rungs));
          ]
          @ per_rate "lo" tlo @ per_rate "hi" thi
          @ [
              Bench.virt "batch.mean" "requests" ho.Ms.oc_mean_batch;
              Bench.count "batches" "count" (float_of_int (List.length ho.Ms.oc_batches));
              Bench.count "slab.reuses" "count" (float_of_int ho.Ms.oc_slab_reuses);
              Bench.count "slab.saving" "ratio" ho.Ms.oc_slab_saving;
              Bench.count "placement.cpu" "groups" (float_of_int (placement "cpu"));
              Bench.count "placement.gpu" "groups" (float_of_int (placement "gpu"));
              Bench.count "placement.vdla" "groups" (float_of_int (placement "vdla"));
            ]
          @ Bench.overhead_metrics ~untraced:walls
              ~traced:(List.map (fun it -> it.wall_s) traced),
          Some
            {
              Bench.rows =
                [
                  ("Model_server.run at lo", tlo.run_s);
                  ("Model_server.run at hi", thi.run_s);
                  ("Model_server.run over the ladder", Bench.sum (List.map (fun r -> r.run_s) rest));
                ];
              wall_s = t.wall_s;
              domains = 1;
              accounting =
                "host seconds on one domain; Model_server publishes no spans for \
                 admission/batching/placement, so run time is one row per rate; \
                 unattributed = loop time outside Model_server.run";
            } )
  in
  {
    Bench.e2e;
    layers;
    table;
    attempted;
    failed;
    checks =
      [
        ("every request completes exactly once, at every rate", once);
        ("every rerun of the hi trace: identical results lines", !identical);
      ];
    notes =
      [
        Printf.sprintf
          "open loop, %d tenants over %d models, SLO %.0f ms, horizon %.2f virtual s; \
           lo %.0f req/s (%d requests), hi %.0f req/s (%d requests)"
          tenants_n (List.length models) (1e3 *. slo_s) horizon_s lo_rps
          (List.length lo.requests) hi_rps (List.length hi.requests);
        Printf.sprintf "ladder (req/s): %s; sustained: %s"
          (String.concat " " (List.map (fun r -> Printf.sprintf "%.0f" r.rps) first.rungs))
          (String.concat " "
             (List.map
                (fun r -> if sustained (out r) then "y" else "n")
                first.rungs));
        Printf.sprintf "iterations: %d untraced (wall median %.4f s), %d traced" (List.length its)
          (Bench.median walls) (List.length traced);
      ];
  }
