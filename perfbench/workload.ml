(* The three benchmark workloads and the construction steps the benchmark
   times from outside the library.  Why each workload exists is in
   README.md; the specs are written out here rather than pulled from the
   registered experiments so that a later change to e3 cannot silently
   change what the benchmark measures. *)

type t = Mp_lying | Nw_dense | Sweep_s1

let all = [ ("mp_lying", Mp_lying); ("nw_dense", Nw_dense); ("sweep_s1", Sweep_s1) ]
let of_name name = List.assoc_opt name all
let name w = fst (List.find (fun (_, w') -> w' = w) all)

(* e3's quick MultiPathRB t=3 cell at 5% liars. *)
let mp_spec seed =
  {
    Scenario.default with
    allow_unreachable = true;
    map_w = 10.0;
    map_h = 10.0;
    deployment = Scenario.Uniform 200;
    radius = 2.5;
    message = Bitvec.of_string "101";
    protocol = Scenario.Multi_path { tolerance = 3 };
    faults = Scenario.Lying 0.05;
    heard_relay_limit = Some 6;
    seed;
  }

let nw_spec seed =
  let base = { Scenario.default with message = Bitvec.of_string "1011"; seed } in
  Scale_sweep.cell_spec ~base ~klass:Scale_sweep.Uniform_radio ~nodes:10_000 ~density:40.0

(* The registered quick S1 job with its seed stream rebased on [seed]. *)
let s1_job seed =
  {
    Scale_sweep.sweep with
    Experiment.config = (fun _ -> { Experiment.repetitions = 3; base_seed = seed });
  }

(* Every (spec, seed) trial of a job, in the order [Runner.run_job]
   flattens them. *)
let job_trials (job : Experiment.job) =
  let seeds = Experiment.seeds (job.Experiment.config Experiment.Quick) in
  List.concat_map
    (function
      | Experiment.Grid { specs; _ } ->
        List.concat_map (fun spec -> List.map (fun seed -> { spec with Scenario.seed }) seeds) specs
      | Experiment.Thunk _ -> invalid_arg "Workload.job_trials: thunk cells are not benchmarked")
    (job.Experiment.cells Experiment.Quick)

(* The trial specs one pass runs.  Seeds follow the registry's stream
   (base + 7919 i), so seed 1000 reproduces e3's and s1's own trials.
   MultiPathRB and NeighborWatchRB run several deployments per pass
   because one deployment's cost swings by ~10% from seed to seed. *)
let specs w ~seed =
  let seeds repetitions = Experiment.seeds { Experiment.repetitions; base_seed = seed } in
  match w with
  | Mp_lying -> List.map mp_spec (seeds 6)
  | Nw_dense -> List.map nw_spec (seeds 2)
  | Sweep_s1 -> job_trials (s1_job seed)

let now () = Unix.gettimeofday ()

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Mirrors [Scenario.run]'s construction, which the library does not
   export: the deployment draws from the first split of the spec's rng,
   the Byzantine set from the second, the channel from the third. *)
let rng_streams (spec : Scenario.spec) =
  let rng = Rng.create spec.Scenario.seed in
  let deployment = Rng.split rng in
  let faults = Rng.split rng in
  let channel = Rng.split rng in
  (deployment, faults, channel)

let build_topology (spec : Scenario.spec) =
  let rng, _, _ = rng_streams spec in
  match spec.Scenario.deployment with
  | Scenario.Uniform n ->
    let deployment = Deployment.uniform rng ~n ~width:spec.map_w ~height:spec.map_h in
    let propagation =
      match spec.radio with
      | Scenario.Friis -> Propagation.friis spec.radius
      | Disk_l2 -> Propagation.disk_l2 spec.radius
      | Disk_linf -> Propagation.disk_linf spec.radius
    in
    Topology.build deployment propagation
  | Expander { n; degree } -> Graphs.expander rng ~n ~degree
  | _ -> invalid_arg "Workload.build_topology: deployment kind not benchmarked"

let links rows = Array.fold_left (fun acc row -> acc + Array.length row) 0 rows
let sensed_links t = links (Topology.sensed t)
let rx_links t = links (Topology.rx t)

(* The honest set [Scenario.run] draws: a random fraction of the
   non-source nodes lies, nobody else is faulty. *)
let honest_set (spec : Scenario.spec) topology ~source =
  let n = Topology.size topology in
  match spec.Scenario.faults with
  | Scenario.No_faults -> Array.make n true
  | Lying fraction ->
    let _, rng, _ = rng_streams spec in
    let eligible = Array.of_list (List.filter (fun i -> i <> source) (List.init n Fun.id)) in
    let count = min (Array.length eligible) (int_of_float (Float.round (fraction *. float_of_int n))) in
    Rng.shuffle rng eligible;
    let honest = Array.make n true in
    for k = 0 to count - 1 do
      honest.(eligible.(k)) <- false
    done;
    honest
  | _ -> invalid_arg "Workload.honest_set: fault model not benchmarked"

type protocol = {
  machines : Msg.t Engine.machine array;
  cycle_rounds : int;
  progress : unit -> int;
  make_ctx_s : float;
  machines_s : float;
}

let proto_name (spec : Scenario.spec) =
  match spec.Scenario.protocol with
  | Scenario.Multi_path _ -> "multi_path"
  | Neighbor_watch _ -> "neighbor_watch"
  | _ -> invalid_arg "Workload.proto_name: protocol not benchmarked"

let protocol_radius (spec : Scenario.spec) topology =
  if Topology.is_geometric topology then spec.Scenario.radius else Topology.rx_reach topology

let nw_config (spec : Scenario.spec) topology =
  let votes =
    match spec.Scenario.protocol with Scenario.Neighbor_watch { votes } -> votes | _ -> 1
  in
  let base =
    Neighbor_watch.default_config ~radius:(protocol_radius spec topology)
      ~msg_len:(Bitvec.length spec.message)
  in
  {
    base with
    Neighbor_watch.votes;
    pipelined = spec.pipelined;
    square_side = Option.value spec.square_side ~default:base.Neighbor_watch.square_side;
  }

(* The protocol context and one machine per node, as [Scenario.run] builds
   them: the source, liars pre-committed to [fake], honest relays. *)
let build_protocol (spec : Scenario.spec) topology ~source ~honest ~fake =
  let n = Topology.size topology in
  let msg_len = Bitvec.length spec.Scenario.message in
  let radius = protocol_radius spec topology in
  let build make_ctx schedule machine ~source_role ~liar_role ~relay_role progress =
    let ctx, make_ctx_s = timed make_ctx in
    let machines, machines_s =
      timed (fun () ->
          Array.init n (fun i ->
              if i = source then machine ctx i source_role
              else if not honest.(i) then
                match fake with
                | Some msg -> machine ctx i (liar_role msg)
                | None -> invalid_arg "Workload.build_protocol: faulty node without a fake message"
              else machine ctx i relay_role))
    in
    {
      machines;
      cycle_rounds = Schedule.cycle (schedule ctx) * Schedule.rounds_per_interval;
      progress = (fun () -> progress ctx);
      make_ctx_s;
      machines_s;
    }
  in
  match spec.protocol with
  | Scenario.Multi_path { tolerance } ->
    let config =
      {
        (Multi_path.default_config ~radius ~tolerance ~msg_len) with
        heard_relay_limit = spec.heard_relay_limit;
      }
    in
    build
      (fun () -> Multi_path.make_ctx config ~topology ~source)
      Multi_path.schedule Multi_path.machine ~source_role:(Multi_path.Source spec.message)
      ~liar_role:(fun m -> Multi_path.Liar m) ~relay_role:Multi_path.Relay Multi_path.progress
  | Neighbor_watch _ ->
    let config = nw_config spec topology in
    build
      (fun () -> Neighbor_watch.make_ctx config ~topology ~source)
      Neighbor_watch.schedule
      (fun ctx i role -> Neighbor_watch.machine ctx i role)
      ~source_role:(Neighbor_watch.Source spec.message)
      ~liar_role:(fun m -> Neighbor_watch.Liar m) ~relay_role:Neighbor_watch.Relay
      Neighbor_watch.progress
  | _ -> invalid_arg "Workload.build_protocol: protocol not benchmarked"

let fake_of (spec : Scenario.spec) =
  match spec.Scenario.faults with
  | Scenario.Lying _ -> Some (Scenario.fake_message spec.message)
  | _ -> None

(* One set-up of a trial, timed around the public constructors: the
   deployment and topology, then the protocol context and machines. *)
let setup spec =
  let topology, topology_s = timed (fun () -> build_topology spec) in
  let source = Deployment.center_node (Topology.deployment topology) in
  let honest = honest_set spec topology ~source in
  let p = build_protocol spec topology ~source ~honest ~fake:(fake_of spec) in
  (topology, topology_s +. p.make_ctx_s +. p.machines_s)

(* NeighborWatchRB relays from square to adjacent square, so a node whose
   square is cut off from the source's square by empty squares can never
   hear a stream: its delivery is not the protocol's to give (seed 1000 of
   nw_dense has one such node, in a map-edge square whose five neighbours
   are all empty).  Marks the nodes of the source's component of the
   non-empty-square adjacency graph, which a fault-free run must reach. *)
let nw_square_component (r : Scenario.result) =
  let topology = r.Scenario.topology in
  let ctx = Neighbor_watch.make_ctx (nw_config r.spec topology) ~topology ~source:r.source in
  let squares = Neighbor_watch.squares ctx in
  let n = Topology.size topology in
  let square = Array.init n (fun i -> Squares.square_of squares (Topology.position topology i)) in
  let populated = Array.make (Squares.count squares) false in
  Array.iter (fun s -> populated.(s) <- true) square;
  let seen = Array.make (Squares.count squares) false in
  let rec visit s =
    if not seen.(s) then begin
      seen.(s) <- true;
      List.iter (fun nb -> if populated.(nb) then visit nb) (Squares.neighbors squares s)
    end
  in
  visit square.(r.source);
  Array.map (fun s -> seen.(s)) square
