(* The traced replica: the per-layer split, measured from outside the
   library by wrapping the calls [Engine.run] makes into the protocol
   machines.

   Every call is counted; only one call in 64 of each kind (see [sample_mask]) is
   timed, because timing every call doubles the wall time.  A layer's time
   is its sampled time scaled by calls / sampled calls.  The wrappers
   allocate nothing (counters live in preallocated int arrays and the
   clock is an untagged [@@noalloc] external), which the self-test checks
   by comparing minor words with and without them. *)

external now_ns : unit -> (int[@untagged]) = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

let kinds = [| "act"; "observe"; "next_active"; "delivered"; "progress" |]
let act = 0
let observe = 1
let next_active = 2
let delivered = 3
let progress = 4

(* [progress] runs once per stall check (a few hundred times a run, each
   a full walk of the protocol state), so every call is timed. *)
let sample_mask = [| 63; 63; 63; 63; 0 |]

type counters = {
  calls : int array;
  sampled : int array;
  ns : int array;
  mutable transmissions : int;
  mutable fanout_links : int;  (** sensed degree summed over transmitters *)
  mutable clear : int;  (** receptions resolved to one decoded message *)
  mutable busy : int;  (** receptions resolved to energy without a message *)
}

let counters () =
  let z () = Array.make (Array.length kinds) 0 in
  { calls = z (); sampled = z (); ns = z (); transmissions = 0; fanout_links = 0; clear = 0; busy = 0 }

let add_into acc c =
  Array.iteri (fun k v -> acc.calls.(k) <- acc.calls.(k) + v) c.calls;
  Array.iteri (fun k v -> acc.sampled.(k) <- acc.sampled.(k) + v) c.sampled;
  Array.iteri (fun k v -> acc.ns.(k) <- acc.ns.(k) + v) c.ns;
  acc.transmissions <- acc.transmissions + c.transmissions;
  acc.fanout_links <- acc.fanout_links + c.fanout_links;
  acc.clear <- acc.clear + c.clear;
  acc.busy <- acc.busy + c.busy

(* The exact counts: everything but the sampled times. *)
let exact_counts c = (Array.to_list c.calls, c.transmissions, c.fanout_links, c.clear, c.busy)

(* What one clock read adds to every sampled interval, measured once:
   without subtracting it, tens of millions of ~10 ns calls would be
   charged several times their cost. *)
let clock_read_ns =
  lazy
    (let reps = 200_000 in
     let t0 = now_ns () in
     for _ = 1 to reps do
       ignore (Sys.opaque_identity (now_ns ()))
     done;
     float_of_int (now_ns () - t0) /. float_of_int reps)

let estimated_s c k =
  if c.sampled.(k) = 0 then 0.0
  else begin
    let sampled = float_of_int c.sampled.(k) in
    let ns = Float.max 0.0 (float_of_int c.ns.(k) -. (sampled *. Lazy.force clock_read_ns)) in
    ns *. float_of_int c.calls.(k) /. sampled /. 1e9
  end

(* Returns the start time of a sampled call, or -1. *)
let[@inline] start c k =
  let n = c.calls.(k) in
  c.calls.(k) <- n + 1;
  if n land sample_mask.(k) = 0 then now_ns () else -1

let[@inline] stop c k t0 =
  if t0 >= 0 then begin
    c.ns.(k) <- c.ns.(k) + (now_ns () - t0);
    c.sampled.(k) <- c.sampled.(k) + 1
  end

let[@inline] count_code c code =
  if code = Channel.Packed.busy then c.busy <- c.busy + 1
  else if Channel.Packed.is_clear code then c.clear <- c.clear + 1

let wrap c ~sensed_degree (m : Msg.t Engine.machine) =
  {
    Engine.act =
      (fun round ->
        let t0 = start c act in
        let a = m.Engine.act round in
        stop c act t0;
        (match a with
        | Engine.Transmit _ ->
          c.transmissions <- c.transmissions + 1;
          c.fanout_links <- c.fanout_links + sensed_degree
        | Silent -> ());
        a);
    observe =
      (fun round obs ->
        let t0 = start c observe in
        m.observe round obs;
        stop c observe t0;
        match obs with
        | Channel.Busy -> c.busy <- c.busy + 1
        | Clear _ -> c.clear <- c.clear + 1
        | Silence -> ());
    observe_packed =
      Option.map
        (fun f round code slots ->
          let t0 = start c observe in
          f round code slots;
          stop c observe t0;
          count_code c code)
        m.observe_packed;
    delivered =
      (fun () ->
        let t0 = start c delivered in
        let d = m.delivered () in
        stop c delivered t0;
        d);
    next_active =
      (fun r ->
        let t0 = start c next_active in
        let q = m.next_active r in
        stop c next_active t0;
        q);
  }

let wrap_progress c f () =
  let t0 = start c progress in
  let p = f () in
  stop c progress t0;
  p

(* [Scenario.run]'s cut-offs, rebuilt around a (possibly wrapped)
   progress counter: idle after three silent schedule cycles, stalled when
   progress is flat for 25 cycles of stall checks. *)
let engine_run (spec : Scenario.spec) topology ~honest ~source ~machines ~cycle_rounds ~progress =
  let n = Topology.size topology in
  let _, _, channel_rng = Workload.rng_streams spec in
  let waiters = Array.init n (fun i -> honest.(i) && i <> source) in
  let idle_stop = (3 * cycle_rounds) + 64 in
  let stall_window = 25 * cycle_rounds in
  let stop_when =
    let last_progress = ref (-1) in
    let checks_since_change = ref 0 in
    let checks_allowed = max 1 (stall_window / 96) in
    fun () ->
      let p = progress () in
      if p <> !last_progress then begin
        last_progress := p;
        checks_since_change := 0;
        false
      end
      else begin
        incr checks_since_change;
        !checks_since_change >= checks_allowed
      end
  in
  let w0 = Gc.minor_words () in
  let t0 = Workload.now () in
  let result =
    Engine.run ~mode:`Sparse ~rng:channel_rng ~channel:spec.Scenario.channel ~idle_stop ~stop_when
      ~topology ~machines ~waiters ~cap:spec.cap ()
  in
  let wall = Workload.now () -. t0 in
  (result, wall, Gc.minor_words () -. w0)

let same_engine_result (a : Engine.result) (b : Engine.result) =
  a.Engine.rounds_used = b.Engine.rounds_used
  && a.active_rounds = b.active_rounds
  && a.hit_cap = b.hit_cap
  && a.completion_round = b.completion_round
  && a.broadcasts = b.broadcasts
  && Array.for_all2 (Option.equal Bitvec.equal) a.delivered b.delivered

type span = {
  trial : int;  (** spans of one trial share this id *)
  name : string;
  parent : string option;
  domain : int;
  start_s : float;
  end_s : float;
}

(* One trial's layer measurements. *)
type trial = {
  trial_id : int;
  proto : string;
  counters : counters;
  topology_s : float;
  sensed : int;
  rx : int;
  make_ctx_s : float;
  machines_s : float;
  run_s : float;  (** wrapped [Engine.run] *)
  plain_run_s : float;  (** the same run without wrappers *)
  loop_words : float;  (** minor words inside the wrapped [Engine.run] *)
  active_rounds : int;
  rounds : int;
  summarize_s : float;
  spans : span list;
  failures : string list;
}

(* Replays one untraced [Scenario.run] result three times — bare, then
   wrapped twice — and checks that every replay reproduces its
   [Engine.result], that the wrappers allocate nothing, and that the
   exact counts repeat. *)
let replay ~trial_id (r : Scenario.result) =
  let spec = r.Scenario.spec in
  let proto = Workload.proto_name spec in
  let domain = (Domain.self () :> int) in
  let spans = ref [] in
  let record ?(parent = Some "trial") name start_s end_s =
    spans := { trial = trial_id; name; parent; domain; start_s; end_s } :: !spans
  in
  let span name f =
    let t0 = Workload.now () in
    let x = f () in
    let t1 = Workload.now () in
    record name t0 t1;
    (x, t1 -. t0)
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let trial_start = Workload.now () in
  let rebuilt, topology_s = span "topology.build" (fun () -> Workload.build_topology spec) in
  let sensed = Workload.sensed_links rebuilt and rx = Workload.rx_links rebuilt in
  if sensed <> Workload.sensed_links r.topology || rx <> Workload.rx_links r.topology then
    fail "trial %d: rebuilt topology differs from the run's" trial_id;
  let sensed_rows = Topology.sensed r.topology in
  let run_replica ?counters () =
    let built = Workload.now () in
    let p =
      Workload.build_protocol spec r.topology ~source:r.source ~honest:r.honest ~fake:r.fake
    in
    let machines, progress =
      match counters with
      | None -> (p.Workload.machines, p.progress)
      | Some c ->
        ( Array.mapi (fun i m -> wrap c ~sensed_degree:(Array.length sensed_rows.(i)) m) p.machines,
          wrap_progress c p.progress )
    in
    let ran = Workload.now () in
    let result, wall, words =
      engine_run spec r.topology ~honest:r.honest ~source:r.source ~machines
        ~cycle_rounds:p.cycle_rounds ~progress
    in
    if not (same_engine_result result r.engine) then
      fail "trial %d: %s replica diverged from the untraced run" trial_id
        (if counters = None then "bare" else "traced");
    (p, built, ran, wall, words)
  in
  let _, _, _, plain_run_s, plain_words = run_replica () in
  let c = counters () in
  let p, built, ran, run_s, loop_words = run_replica ~counters:c () in
  record (proto ^ ".make_ctx") built (built +. p.make_ctx_s);
  record (proto ^ ".machines") (built +. p.make_ctx_s) (built +. p.make_ctx_s +. p.machines_s);
  record "engine.run" ran (ran +. run_s);
  if loop_words <> plain_words then
    fail "trial %d: wrappers allocated (%.0f minor words traced, %.0f bare)" trial_id loop_words
      plain_words;
  let c2 = counters () in
  ignore (run_replica ~counters:c2 ());
  if exact_counts c <> exact_counts c2 then
    fail "trial %d: traced counts drifted between replays" trial_id;
  let summary, summarize_s = span "scenario.summarize" (fun () -> Scenario.summarize r) in
  record ~parent:None "trial" trial_start (Workload.now ());
  {
    trial_id;
    proto;
    counters = c;
    topology_s;
    sensed;
    rx;
    make_ctx_s = p.make_ctx_s;
    machines_s = p.machines_s;
    run_s;
    plain_run_s;
    loop_words;
    active_rounds = summary.Scenario.active_rounds;
    rounds = summary.rounds;
    summarize_s;
    spans = List.rev !spans;
    failures = List.rev !failures;
  }
