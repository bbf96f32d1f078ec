(* compile-nets: the tuner is bypassed ([trials = 0]), so graph passes,
   default-schedule lowering, packaging, the graph executor and the
   interpreter do the work.

   Build: [Compiler.build_executor] on the five paper networks at full
   shape, for cuda and arm_cpu, fusion on. Verify: reduced variants of
   the five networks (the shapes the end-to-end tests use) run in
   [`Compiled] mode on the interpreter and are compared with
   [`Reference] mode. *)

module Compiler = Tvm.Compiler
module Exec = Tvm_runtime.Graph_executor
module Models = Tvm_models.Models
module Nd = Tvm_nd.Ndarray
module Spec = Tvm_spec.Job_spec

let tolerance = 2e-3

(* Verify passes per run; [verify_s] sums, per network, the fastest. *)
let verify_passes = 2
let targets = [ ("cuda", Tvm.Target.cuda ()); ("arm_cpu", Tvm.Target.arm_cpu ()) ]
let spec = Spec.make ~op:Spec.Compile ~trials:0 ~fusion:true ~jobs:Bench.host_jobs ()

let verify_graphs () =
  [
    ("resnet18", Models.resnet18 ~input_hw:32 ~width:0.125 ~num_classes:10 ());
    ("mobilenet", Models.mobilenet ~input_hw:32 ~width:0.125 ~num_classes:10 ());
    ("lstm", Models.lstm_lm ~hidden:32 ~layers:2 ~vocab:50 ());
    ("dqn", Models.dqn ~input_hw:40 ());
    ("dcgan", Models.dcgan ~code_dim:8 ~base:4 ());
  ]

type inputs = {
  full : (string * Tvm_graph.Graph_ir.t) list;
  verify :
    (string * Tvm_graph.Graph_ir.t * (int * Nd.t) list * (string * Nd.t) list) list;
}

let make_inputs seed =
  {
    full = Models.serving_suite ~full:true ();
    verify =
      List.map
        (fun (n, g) ->
          (n, g, Models.random_params ~seed g, Models.random_inputs ~seed:(seed + 1000) g))
        (verify_graphs ());
  }

type build = {
  net : string;
  target : string;
  build_s : float;
  est_s : float;  (** [Graph_executor.estimated_time_s] *)
  groups : int;
  kernels : int;
  mem : Exec.memory_stats;
}

type verified = {
  v_net : string;
  create_s : float;
  ref_s : float;
  compiled_s : float;
  equal : bool;
}

type iter = {
  wall_s : float;  (** the builds *)
  builds : build list;
  phases : (string * float) list;  (** compiler spans, traced only *)
}

let build_all inputs =
  List.concat_map
    (fun (net, g) ->
      List.map
        (fun (tname, t) ->
          let (r, exec), build_s =
            Bench.timed (fun () ->
                Bench.span "build_executor" (fun () -> Compiler.build_executor ~spec g t))
          in
          {
            net; target = tname; build_s;
            est_s = Exec.estimated_time_s exec;
            groups = List.length r.Compiler.groups;
            kernels = List.length (Tvm_runtime.Rt_module.kernels r.Compiler.module_);
            mem = Exec.memory_stats exec;
          })
        targets)
    inputs.full

(* One network of a verify pass: build, run both modes, compare. *)
let verify_one (net, g, params, ins) =
  let r = Compiler.build ~spec g (Tvm.Target.cuda ()) in
  let exec, create_s =
    Bench.timed (fun () ->
        Exec.create ~graph:r.Compiler.graph ~groups:r.Compiler.groups
          ~module_:r.Compiler.module_ ())
  in
  Exec.set_params exec params;
  List.iter (fun (n, v) -> Exec.set_input exec n v) ins;
  let (), ref_s = Bench.timed (fun () -> Exec.run ~mode:`Reference exec) in
  let reference = Nd.copy (Exec.get_output exec 0) in
  let (), compiled_s = Bench.timed (fun () -> Exec.run ~mode:`Compiled exec) in
  let equal = Nd.equal_approx ~tol:tolerance reference (Exec.get_output exec 0) in
  { v_net = net; create_s; ref_s; compiled_s; equal }

let phase_names =
  [ "phase.fusion"; "phase.template"; "phase.tuning"; "phase.lowering";
    "phase.validate"; "phase.packaging"; "compile" ]

let iterate ~traced inputs =
  (* Each iteration compiles cold, as a fresh compiler process would,
     with no garbage of earlier work left for the collector. *)
  Compiler.clear_cache ();
  Gc.full_major ();
  Bench.set_tracing traced;
  let builds, wall_s = Bench.timed (fun () -> build_all inputs) in
  let phases = List.map (fun n -> (n, Bench.trace_sum n)) phase_names in
  Bench.set_tracing false;
  { wall_s; builds; phases }

let layer_metrics (it : iter) verified =
  let ph n = List.assoc n it.phases in
  let phases_s =
    Bench.sum (List.map (fun n -> ph n) (List.filter (( <> ) "compile") phase_names))
  in
  let build_exec_s = Bench.sum (List.map (fun b -> b.build_s) it.builds) in
  let table =
    {
      Bench.rows =
        [
          ("Fusion (phase.fusion)", ph "phase.fusion");
          ("template construction (phase.template)", ph "phase.template");
          ("default-schedule lowering (phase.lowering)", ph "phase.lowering");
          ("default-config search (phase.tuning at trials 0)", ph "phase.tuning");
          ("Validate (phase.validate)", ph "phase.validate");
          ("packaging (phase.packaging)", ph "phase.packaging");
          ("Compiler outside phases (Mem_plan, signatures)", ph "compile" -. phases_s);
          ("Graph_executor.create in build_executor", build_exec_s -. ph "compile");
        ];
      wall_s = it.wall_s;
      domains = 1;
      accounting =
        "host seconds on one domain; unattributed = loop time outside \
         Compiler.build_executor";
    }
  in
  let sum_b f = Bench.sum (List.map f it.builds) in
  let per_build =
    List.map
      (fun b -> Bench.host (Printf.sprintf "build.%s.%s_s" b.net b.target) "s" b.build_s)
      it.builds
  in
  let per_net =
    List.concat_map
      (fun v ->
        [
          Bench.host (Printf.sprintf "exec.create.%s_s" v.v_net) "s" v.create_s;
          Bench.host (Printf.sprintf "exec.ref.%s_s" v.v_net) "s" v.ref_s;
          Bench.host (Printf.sprintf "exec.compiled.%s_s" v.v_net) "s" v.compiled_s;
        ])
      verified
  in
  ( per_build
    @ [
        Bench.host "phase.fusion_s" "s" (ph "phase.fusion");
        Bench.host "phase.template_s" "s" (ph "phase.template");
        Bench.host "phase.lowering_s" "s" (ph "phase.lowering");
        Bench.host "phase.packaging_s" "s" (ph "phase.packaging");
        Bench.count "groups" "count" (sum_b (fun b -> float_of_int b.groups));
        Bench.count "kernels" "count" (sum_b (fun b -> float_of_int b.kernels));
        Bench.count "mem.pooled_bytes" "bytes"
          (sum_b (fun b -> float_of_int b.mem.Exec.pooled_bytes));
        Bench.count "mem.naive_bytes" "bytes"
          (sum_b (fun b -> float_of_int b.mem.Exec.naive_bytes));
      ]
    @ per_net,
    table )

let run ~seed ~seconds ~trace =
  let setup = Bench.samples () in
  let inputs = Bench.sample setup (fun () -> make_inputs seed) in
  (* The verify passes run one network at a time between build
     iterations, each followed by a set-up repetition, so builds,
     verify runs and set-up are all sampled across the whole run.
     Networks the time budget leaves over are verified after the
     builds; the peak heap is taken once every network is verified. *)
  let pending = ref (List.concat (List.init verify_passes (fun _ -> inputs.verify))) in
  let done_ = ref [] in
  let verify_next () =
    match !pending with
    | [] -> ()
    | v :: rest ->
        pending := rest;
        done_ := verify_one v :: !done_;
        if rest = [] then ignore (Bench.peak_heap_after_fixed ())
  in
  let its, traced =
    Bench.iterations ~seconds ~trace
      ~between:(fun _ ->
        verify_next ();
        ignore (Bench.sample setup (fun () -> make_inputs seed)))
      (fun ~traced _ -> iterate ~traced inputs)
  in
  while !pending <> [] do verify_next () done;
  let verified =
    List.map
      (fun (net, _, _, _) ->
        let runs = List.filter (fun v -> v.v_net = net) !done_ in
        let fastest f = Bench.fastest (List.map f runs) in
        { v_net = net; create_s = fastest (fun v -> v.create_s); ref_s = fastest (fun v -> v.ref_s);
          compiled_s = fastest (fun v -> v.compiled_s);
          equal = List.for_all (fun v -> v.equal) runs })
      inputs.verify
  in
  let setup_s = Bench.median !setup in
  let first = List.hd its in
  let walls = List.map (fun it -> it.wall_s) its in
  (* [wall_s] sums, over the ten builds, the fastest repetition of each:
     a build of a fraction of a second is more likely than the whole
     loop to run undisturbed by other load on the host. *)
  let wall_s =
    Bench.sum
      (List.mapi
         (fun k _ -> Bench.fastest (List.map (fun it -> (List.nth it.builds k).build_s) its))
         first.builds)
  in
  let verify_s = Bench.sum (List.map (fun v -> v.compiled_s) verified) in
  let mismatched = List.filter (fun v -> not v.equal) verified in
  let e2e =
    [
      Bench.host "wall_s" "s" wall_s;
      Bench.host "setup_s" "s" setup_s;
      Bench.host "peak_heap_mb" "MB" (Bench.peak_heap_after_fixed ());
      Bench.host "check_s" "s" verify_s;
      Bench.count "fail_share" "ratio"
        (Bench.ratio (float_of_int (List.length mismatched))
           (float_of_int (List.length verified)));
      Bench.host "verify_s" "s" verify_s;
      Bench.sim "model_ms_sim" "ms"
        (Bench.geomean (List.map (fun b -> 1e3 *. b.est_s) first.builds));
    ]
  in
  let layers, table =
    match traced with
    | [] -> ([], None)
    | t :: _ ->
        let layers, table = layer_metrics t verified in
        ( layers
          @ Bench.overhead_metrics ~untraced:walls
              ~traced:(List.map (fun it -> it.wall_s) traced),
          Some table )
  in
  {
    Bench.e2e;
    layers;
    table;
    attempted = List.length verified;
    failed = List.length mismatched;
    checks =
      List.map
        (fun v -> (Printf.sprintf "%s compiled == reference (tol %g)" v.v_net tolerance, v.equal))
        verified;
    notes =
      [
        Printf.sprintf "builds: %d nets x %d targets, trials 0, fusion on"
          (List.length inputs.full) (List.length targets);
        Printf.sprintf "iterations: %d untraced, %d traced; build s: %s" (List.length its)
          (List.length traced)
          (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
        Printf.sprintf "verify: %d passes, one network at a time between builds" verify_passes;
      ];
  }
