type 'm action = Silent | Transmit of 'm

(* The round's transmissions in global ascending-transmitter order.  The
   engine owns one of these per run and reuses it every round; packed
   observers read decoded payloads out of it by slot index.  [payloads] is
   lazily sized from the first payload (the engine is polymorphic in ['m],
   so there is no dummy element to preallocate with). *)
type 'm slots = { mutable payloads : 'm array; mutable count : int }

type 'm machine = {
  act : int -> 'm action;
  observe : int -> 'm Channel.observation -> unit;
  observe_packed : (int -> int -> 'm slots -> unit) option;
  delivered : unit -> Bitvec.t option;
  next_active : int -> int;
}

let always_active r = r
let never_active _ = max_int

let silent_machine =
  {
    act = (fun _ -> Silent);
    observe = (fun _ _ -> ());
    observe_packed = Some (fun _ _ _ -> ());
    delivered = (fun () -> None);
    next_active = never_active;
  }

let boxed_machine m = { m with observe_packed = None }

let observation_of_packed slots p =
  if p = 0 then Channel.Silence
  else if p land 3 = 1 then Channel.Busy
  else Channel.Clear slots.payloads.(p lsr 2)

let slots_push s capacity payload =
  if Array.length s.payloads = 0 then s.payloads <- Array.make (max 1 capacity) payload;
  s.payloads.(s.count) <- payload;
  s.count <- s.count + 1

type mode = [ `Dense | `Sparse | `Sharded of int ]

type result = {
  rounds_used : int;
  active_rounds : int;
  loop_words : float;
  hit_cap : bool;
  delivered : Bitvec.t option array;
  completion_round : int array;
  broadcasts : int array;
}

type round_digest = { round : int; transmitters : int list; observations : int array }

(* The default Hashtbl.hash stops after 10 meaningful nodes; deep payloads
   would alias in determinism-checker traces. *)
let fingerprint_payload payload = 2 + (Hashtbl.hash_param 64 128 payload land 0x3FFFFFFF)

let fingerprint_observation = function
  | Channel.Silence -> 0
  | Channel.Busy -> 1
  | Channel.Clear payload -> fingerprint_payload payload

(* Tap fingerprint of a packed code: the payload hash was computed once per
   slot when the transmission entered the round (see [slot_fp] below), not
   once per (receiver, observation). *)
let fingerprint_packed slot_fp p =
  if p = 0 then 0 else if p land 3 = 1 then 1 else slot_fp.(p lsr 2)

(* [stop_when] is polled every [stop_stride] rounds, which keeps
   progress-based cut-offs off the per-round hot path. *)
let stop_stride = 96

(* One tile: a slice of the machines plus all the per-round state the
   round needs, touched only by the tile's own domain between barriers.
   The serial loop is the one-tile case, members [0 .. n-1].  [members]
   is ascending, and every array indexed by "local index" li refers to
   machine [members.(li)]. *)
type 'm tile = {
  t_id : int;
  members : int array;
  cal : Calendar.t;  (* wakeup rounds -> local indices *)
  (* [stamp.(li) = r] marks machine li scheduled for round r; it both
     dedupes calendar entries and drives the ascending-id sweeps. *)
  stamp : int array;
  (* Machines stamped for the very next round, bypassing the heap: inside
     a relevant TDMA interval a machine wakes six rounds in a row, and a
     pop + push per poll would cost more than the calls the calendar
     saves, so only wakeups that jump ahead go through [cal]. *)
  mutable pre : int;
  mutable pre_next : int;
  mutable t_pending : int;
  completed : bool array;
  (* Flat per-receiver channel aggregates: resolution only needs the
     sensed power sum, the strongest decodable signal and the signal
     counts, so the round allocates nothing.  [touched] stacks the
     receivers [has_rx] marks, for the after-round reset. *)
  sum_power : float array;
  n_decodable : int array;
  best_power : float array;
  best_slot : int array;
  obs_packed : int array;
  has_rx : bool array;
  touched : int array;
  mutable n_touched : int;
  (* this round's transmitters (ascending) and payloads; the serial tile
     shares them with the run's global slots *)
  tx_ids : int array;
  txs : 'm slots;
  (* merged-slot activity words (sharded only): bit m set iff merged
     transmitter m has a link into the tile.  Written by the coordinator
     during the merge, consumed and cleared by the tile in phase B — the
     halo exchange is whole words, not per-transmission lists. *)
  halo : Bitvec.t;
  (* machines polled this round, for tap fingerprint resets *)
  polled : int array;
  mutable n_polled : int;
}

let run ?(mode : mode = `Sparse) ?rng ?(channel = Channel.ideal) ?stop_when ?idle_stop ?tap
    ?tile_of ~topology ~machines ~waiters ~cap () =
  let n = Topology.size topology in
  if Array.length machines <> n || Array.length waiters <> n then
    invalid_arg "Engine.run: machines/waiters size mismatch";
  (* The dense reference is the sparse loop with every wakeup contract
     replaced by "wake me every round". *)
  let machines =
    match mode with
    | `Dense -> Array.map (fun m -> { m with next_active = always_active }) machines
    | `Sparse | `Sharded _ -> machines
  in
  let tiles, tile_of =
    match mode with
    | `Dense | `Sparse -> (1, [||])
    | `Sharded requested ->
      let tiles = max 1 (min requested (max 1 n)) in
      ( tiles,
        match tile_of with
        | Some a ->
          if Array.length a <> n then invalid_arg "Engine.run: tile_of length mismatch";
          Array.iter
            (fun t ->
              if t < 0 || t >= tiles then invalid_arg "Engine.run: tile_of entry out of range")
            a;
          a
        | None -> Shard.partition topology ~tiles )
  in
  let sharded = tiles > 1 in
  let broadcasts = Array.make n 0 in
  let completion_round = Array.make n (-1) in
  (* Outgoing links in CSR form, built once per topology and cached on the
     graph (receivers descending within each row — see Graph.csr). *)
  let { Graph.out_off; out_rcv; out_pow } = Graph.csr (Topology.graph topology) in
  let loss = channel.Channel.loss_prob in
  let lossy = loss > 0.0 in
  let draw_loss () =
    match rng with
    | Some r -> Rng.bernoulli r loss
    | None -> invalid_arg "Engine.run: loss_prob > 0 requires an rng"
  in
  (* Tile members (ascending) and each machine's local index; the serial
     tile's are both the identity. *)
  let members, local_ix =
    if not sharded then
      let ids = Array.init n Fun.id in
      ([| ids |], ids)
    else begin
      let counts = Array.make tiles 0 in
      Array.iter (fun t -> counts.(t) <- counts.(t) + 1) tile_of;
      let members = Array.init tiles (fun t -> Array.make counts.(t) 0) in
      let local_ix = Array.make n 0 in
      Array.fill counts 0 tiles 0;
      Array.iteri
        (fun i t ->
          members.(t).(counts.(t)) <- i;
          local_ix.(i) <- counts.(t);
          counts.(t) <- counts.(t) + 1)
        tile_of;
      (members, local_ix)
    end
  in
  (* The round's transmissions in global ascending order: payloads and
     transmitter ids per slot.  The serial tile collects into these
     directly; shards collect their own and the coordinator merges. *)
  let slots = { payloads = [||]; count = 0 } in
  let slot_tx = Array.make (max 1 n) 0 in
  (* Trace capture is allocated only when a tap is installed.  [slot_fp]
     memoizes the payload hash per slot; receivers reuse it. *)
  let traced = Option.is_some tap in
  let tap_fp = match tap with None -> [||] | Some _ -> Array.make n 0 in
  let slot_fp = match tap with None -> [||] | Some _ -> Array.make (max 1 n) 0 in
  let tile_make t_id =
    let m = members.(t_id) in
    let len = Array.length m in
    let size = max 1 len in
    {
      t_id;
      members = m;
      cal = Calendar.create ~capacity:(2 * (len + 1)) ();
      stamp = Array.make size (-1);
      pre = 0;
      pre_next = 0;
      t_pending = Array.fold_left (fun c i -> if waiters.(i) then c + 1 else c) 0 m;
      completed = Array.make size false;
      sum_power = Array.make size 0.0;
      n_decodable = Array.make size 0;
      best_power = Array.make size 0.0;
      best_slot = Array.make size 0;
      obs_packed = Array.make size 0;
      has_rx = Array.make size false;
      touched = Array.make size 0;
      n_touched = 0;
      tx_ids = (if sharded then Array.make size 0 else slot_tx);
      txs = (if sharded then { payloads = [||]; count = 0 } else slots);
      halo = Bitvec.create (if sharded then n else 0) false;
      polled = Array.make (if traced then len else 0) 0;
      n_polled = 0;
    }
  in
  let tile_arr = Array.init tiles tile_make in
  (* Per-(transmitter, tile) segments of the CSR rows, sharded only: a
     tile walks just the slice of each row that lands in it, in the
     original within-row order, via the [seg_orig] indirection into
     out_rcv/out_pow.  [lost] holds the round's loss outcomes, indexed
     like the CSR links and written only by the coordinator. *)
  let links_total = out_off.(n) in
  let seg_off = Array.make (if sharded then (n * tiles) + 1 else 0) 0 in
  let seg_orig = Array.make (if sharded then max 1 links_total else 0) 0 in
  if sharded then begin
    for i = 0 to n - 1 do
      for k = out_off.(i) to out_off.(i + 1) - 1 do
        let cell = (i * tiles) + tile_of.(out_rcv.(k)) in
        seg_off.(cell + 1) <- seg_off.(cell + 1) + 1
      done
    done;
    for c = 1 to n * tiles do
      seg_off.(c) <- seg_off.(c) + seg_off.(c - 1)
    done;
    let cursor = Array.sub seg_off 0 (n * tiles) in
    for i = 0 to n - 1 do
      for k = out_off.(i) to out_off.(i + 1) - 1 do
        let cell = (i * tiles) + tile_of.(out_rcv.(k)) in
        seg_orig.(cursor.(cell)) <- k;
        cursor.(cell) <- cursor.(cell) + 1
      done
    done
  end;
  let lost = Bytes.make (if sharded && lossy then max 1 links_total else 0) '\000' in
  (* --- per-round phases, shared by the serial and sharded drivers ------ *)
  let[@inline] stamp_for t li q =
    if t.stamp.(li) <> q then begin
      t.stamp.(li) <- q;
      t.pre_next <- t.pre_next + 1
    end
  in
  (* Wakeup of machine li for rounds [>= q]; [q] is the round about to be
     processed next, so a same-round wakeup is a stamp, not a heap entry. *)
  let[@inline] schedule t li q =
    let na = machines.(t.members.(li)).next_active q in
    let na = if na < q then q else na in
    if na < cap then if na = q then stamp_for t li q else Calendar.add t.cal na li
  in
  let[@inline] check_complete t li r =
    if not t.completed.(li) then begin
      let i = t.members.(li) in
      match machines.(i).delivered () with
      | Some _ ->
        t.completed.(li) <- true;
        completion_round.(i) <- r;
        if waiters.(i) then t.t_pending <- t.t_pending - 1
      | None -> ()
    end
  in
  (* Phase A: drain this round's wakeups and poll the scheduled machines in
     ascending id, collecting their transmissions (no fan-out yet). *)
  let phase_a t r =
    while (not (Calendar.is_empty t.cal)) && Calendar.min_key t.cal = r do
      t.stamp.(Calendar.pop_min t.cal) <- r
    done;
    t.txs.count <- 0;
    let m = t.members and stamp = t.stamp in
    for li = 0 to Array.length m - 1 do
      if stamp.(li) = r then begin
        let i = m.(li) in
        match machines.(i).act r with
        | Silent -> ()
        | Transmit payload ->
          broadcasts.(i) <- broadcasts.(i) + 1;
          t.tx_ids.(t.txs.count) <- i;
          slots_push t.txs (Array.length m) payload
      end
    done
  in
  (* The per-link aggregate update, written once for both fan-ins: link
     [k] of slot [m] reaches local receiver [lr]; [dropped] is its loss
     coin.  Inlined, so the link loops below pay no call per link. *)
  let[@inline] add_link t lr k m dropped =
    let power = out_pow.(k) in
    if not t.has_rx.(lr) then begin
      t.has_rx.(lr) <- true;
      t.touched.(t.n_touched) <- lr;
      t.n_touched <- t.n_touched + 1
    end;
    t.sum_power.(lr) <- t.sum_power.(lr) +. power;
    if power >= 1.0 && not dropped then begin
      t.n_decodable.(lr) <- t.n_decodable.(lr) + 1;
      if power > t.best_power.(lr) then begin
        t.best_power.(lr) <- power;
        t.best_slot.(lr) <- m
      end
    end
  in
  (* Slot [m]'s links into tile [t], in within-row order, so per-receiver
     sums, capture ties and loss draws match bit for bit whichever driver
     runs.  The serial tile walks the transmitter's CSR row directly and
     draws loss inline; a shard walks its own segment of the row and reads
     the coordinator's loss coins. *)
  let fan_in t m =
    let i = slot_tx.(m) in
    if sharded then begin
      let cell = (i * tiles) + t.t_id in
      for s = seg_off.(cell) to seg_off.(cell + 1) - 1 do
        let k = seg_orig.(s) in
        add_link t local_ix.(out_rcv.(k)) k m (lossy && Bytes.get lost k <> '\000')
      done
    end
    else if lossy then
      for k = out_off.(i) to out_off.(i + 1) - 1 do
        add_link t out_rcv.(k) k m (out_pow.(k) >= 1.0 && draw_loss ())
      done
    else
      (* The ideal channel gets its own loop: with no coin-draw call in the
         body, the loop state stays in registers. *)
      for k = out_off.(i) to out_off.(i + 1) - 1 do
        add_link t out_rcv.(k) k m false
      done
  in
  (* Resolve the channel, then deliver observations to the polled machines
     (scheduled, or reached by a transmission); everyone else observes the
     silence their contract implies.  The one packed/boxed bridge. *)
  let observe_sweep t r =
    Channel.resolve_packed channel ~touched:t.touched ~n_touched:t.n_touched
      ~sum_power:t.sum_power ~n_decodable:t.n_decodable ~best_power:t.best_power
      ~best_slot:t.best_slot ~out:t.obs_packed;
    let m = t.members and stamp = t.stamp and has_rx = t.has_rx in
    for li = 0 to Array.length m - 1 do
      if stamp.(li) = r || has_rx.(li) then begin
        let i = m.(li) in
        let p = t.obs_packed.(li) in
        if traced then begin
          tap_fp.(i) <- fingerprint_packed slot_fp p;
          t.polled.(t.n_polled) <- i;
          t.n_polled <- t.n_polled + 1
        end;
        match machines.(i).observe_packed with
        | Some f -> f r p slots
        | None -> machines.(i).observe r (observation_of_packed slots p)
      end
    done
  in
  (* Completion and rescheduling over the polled set (every machine in
     round 0, for construction-time deliveries), while [has_rx] still
     marks the receivers.  A poll can change any machine state, so the
     wakeup is re-asked after every poll.  Then the channel scratch is
     cleared and next round's stamps become current. *)
  let complete_sweep t r =
    let stamp = t.stamp and has_rx = t.has_rx in
    for li = 0 to Array.length t.members - 1 do
      if stamp.(li) = r || has_rx.(li) then begin
        check_complete t li r;
        schedule t li (r + 1)
      end
      else if r = 0 then check_complete t li 0
    done;
    for k = 0 to t.n_touched - 1 do
      let lr = t.touched.(k) in
      t.sum_power.(lr) <- 0.0;
      t.n_decodable.(lr) <- 0;
      t.best_power.(lr) <- 0.0;
      t.best_slot.(lr) <- 0;
      t.obs_packed.(lr) <- 0;
      has_rx.(lr) <- false
    done;
    t.n_touched <- 0;
    t.pre <- t.pre_next;
    t.pre_next <- 0
  in
  (* Phase B of a tile: everything after the transmissions are known. *)
  let phase_b t r =
    if sharded then
      (* Fan-in over the slots named by this tile's halo words, slot bits
         ascending (= merged transmitters ascending).  Words the round
         never touched are skipped and stay zero; touched words are
         cleared on the way out. *)
      for wi = 0 to Bitvec.word_count t.halo - 1 do
        let word = Bitvec.word t.halo wi in
        if word <> 0 then begin
          let base = wi * Bitvec.bits_per_word in
          for b = 0 to Bitvec.bits_per_word - 1 do
            if (word lsr b) land 1 = 1 then fan_in t (base + b)
          done;
          Bitvec.set_range t.halo ~pos:base ~len:(min Bitvec.bits_per_word (n - base)) false
        end
      done
    else
      for m = 0 to slots.count - 1 do
        if traced then slot_fp.(m) <- fingerprint_payload slots.payloads.(m);
        fan_in t m
      done;
    observe_sweep t r;
    complete_sweep t r
  in
  (* The serial round: one tile, fan-out straight from phase A's slots. *)
  let process_round t r =
    phase_a t r;
    phase_b t r
  in
  (* Initial scheduling, tile by tile in member order.  Round 0 always
     executes (construction-time deliveries: sources, liars), so machine 0
     is force-stamped in whichever tile owns it. *)
  Array.iter
    (fun t ->
      for li = 0 to Array.length t.members - 1 do
        schedule t li 0
      done)
    tile_arr;
  if cap > 0 && n > 0 then stamp_for tile_arr.(if sharded then tile_of.(0) else 0) local_ix.(0) 0;
  Array.iter
    (fun t ->
      t.pre <- t.pre_next;
      t.pre_next <- 0)
    tile_arr;
  (* --- the driver ------------------------------------------------------ *)
  let pending = ref (Array.fold_left (fun c t -> c + t.t_pending) 0 tile_arr) in
  let round = ref 0 in
  (* [check_stop r] is "should the run stop at the top of round r": the
     idle counter is reconstructed as r - 1 - last_tx (consecutive silent
     rounds ending at r - 1), so skipped rounds count without being
     executed. *)
  let last_tx = ref (-1) in
  (* Rounds with at least one transmission: mode-independent, and the
     denominator of the words/active-round allocation gate. *)
  let active_rounds = ref 0 in
  let idle_limit = match idle_stop with Some k -> k | None -> max_int in
  let has_idle_stop = idle_stop <> None in
  let check_stop r =
    !pending = 0
    || (has_idle_stop && r - 1 - !last_tx >= idle_limit)
    ||
    match stop_when with
    | Some f when r mod stop_stride = 0 -> f ()
    | Some _ | None -> false
  in
  let stopping = ref false in
  let silent_digest r = { round = r; transmitters = []; observations = Array.make n 0 } in
  (* Skip the all-silent rounds in [!round, target) in O(1) per stride
     check, stopping where a round-by-round loop would have. *)
  let advance_silent target =
    if !pending = 0 then stopping := true
    else begin
      (* First round at which the idle cut-off fires, absent further
         transmissions. *)
      let idle_bound = if has_idle_stop then !last_tx + idle_limit + 1 else max_int in
      let bound = min target idle_bound in
      let stop_round = ref bound in
      (match stop_when with
      | Some f ->
        (* stop_when is stateful (progress counters): call it at every
           stride multiple a round-by-round loop would have, in order. *)
        let r = ref ((!round + stop_stride - 1) / stop_stride * stop_stride) in
        let checking = ref true in
        while !checking && !r < bound do
          if f () then begin
            stop_round := !r;
            checking := false
          end
          else r := !r + stop_stride
        done
      | None -> ());
      (match tap with
      | Some g ->
        for q = !round to !stop_round - 1 do
          g (silent_digest q)
        done
      | None -> ());
      round := !stop_round;
      if !stop_round < target then stopping := true
    end
  in
  let next_target () =
    let pre = ref 0 and target = ref cap in
    for p = 0 to tiles - 1 do
      let t = tile_arr.(p) in
      pre := !pre + t.pre;
      if not (Calendar.is_empty t.cal) then target := min !target (Calendar.min_key t.cal)
    done;
    if !pre > 0 then !round else !target
  in
  (* After a round: the tap digest (the polled stacks restore the
     all-silent background the skipped-round digests rely on), then the
     stop bookkeeping. *)
  let end_round r =
    (match tap with
    | None -> ()
    | Some f ->
      f
        {
          round = r;
          transmitters = List.init slots.count (fun m -> slot_tx.(m));
          observations = Array.copy tap_fp;
        };
      for p = 0 to tiles - 1 do
        let t = tile_arr.(p) in
        for j = 0 to t.n_polled - 1 do
          tap_fp.(t.polled.(j)) <- 0
        done;
        t.n_polled <- 0
      done);
    if slots.count > 0 then begin
      last_tx := r;
      incr active_rounds
    end;
    let p = ref 0 in
    for q = 0 to tiles - 1 do
      p := !p + tile_arr.(q).t_pending
    done;
    pending := !p
  in
  (* Wakeup-driven loop.  Invariants tying it to a round-by-round loop
     polling every machine (the [`Dense] reference):
     - a machine is polled (act + observe) at round r iff its wakeup
       contract covers r or a transmission reached it; the contract
       promises that in all other rounds act returns Silent without side
       effects and observe of the implied Silence is a no-op;
     - machines are processed in ascending id, so loss draws, capture ties
       and tap transmitter order are identical;
     - the stop conditions (waiters, idle cut-off, strided stop_when) are
       evaluated for skipped rounds exactly as if they had run, including
       the call count of the stateful stop_when;
     - a tap sees one digest per round, skipped rounds fingerprinting as
       uniform silence.
     Returns the minor words the calling domain allocated inside the loop
     (construction excluded): the exact in-loop allocation count. *)
  let drive step =
    let w0 = Gc.minor_words () in
    while (not !stopping) && !round < cap do
      let target = next_target () in
      if target > !round then advance_silent target;
      if (not !stopping) && !round < cap && !round = target then begin
        if check_stop !round then stopping := true
        else begin
          step !round;
          end_round !round;
          incr round
        end
      end
    done;
    Gc.minor_words () -. w0
  in
  (* The sharded driver runs the same phases on [tiles] domains,
     synchronized by a 4-barrier round:

       B0  coordinator publishes the round number (or the stop command)
       A   every tile runs phase A
       B1  all transmissions collected
           coordinator merges them into the global slots, marks each
           tile's halo words, and draws the per-link loss coins in exactly
           the serial sequence
       B2  merged slots + halo words + loss outcomes published
       B   every tile runs phase B over the slots its halo words name
       B3  round effects done; coordinator emits the tap digest, sums
           pending, and decides stop / skip / next round

     Determinism: the only RNG consumer (loss) runs serially on the
     coordinator in the serial draw order; per-receiver float accumulation
     and capture tie-breaks see transmitters in the same ascending order as
     the serial sweep; and machines are only ever touched by their owning
     tile, in ascending id within the tile.  Cross-tile visibility is by
     barrier only: tiles write before a barrier what others read after it. *)
  let run_sharded () =
    let merge_cursor = Array.make tiles 0 in
    (* Merge scratch, in place of per-call refs: [0] candidate tile, [1]
       candidate id, [2] loop flag. *)
    let merge_scratch = Array.make 3 0 in
    let merge_and_draw () =
      (* Tiles partition the ids and each tile's list is ascending, so a
         cursor merge yields the global ascending transmitter order. *)
      slots.count <- 0;
      Array.fill merge_cursor 0 tiles 0;
      merge_scratch.(2) <- 1;
      while merge_scratch.(2) = 1 do
        merge_scratch.(0) <- -1;
        merge_scratch.(1) <- max_int;
        for t = 0 to tiles - 1 do
          if merge_cursor.(t) < tile_arr.(t).txs.count then begin
            let id = tile_arr.(t).tx_ids.(merge_cursor.(t)) in
            if id < merge_scratch.(1) then begin
              merge_scratch.(1) <- id;
              merge_scratch.(0) <- t
            end
          end
        done;
        if merge_scratch.(0) < 0 then merge_scratch.(2) <- 0
        else begin
          let t = tile_arr.(merge_scratch.(0)) in
          let c = merge_cursor.(merge_scratch.(0)) in
          let i = merge_scratch.(1) in
          let slot = slots.count in
          slot_tx.(slot) <- i;
          let payload = t.txs.payloads.(c) in
          if traced then slot_fp.(slot) <- fingerprint_payload payload;
          slots_push slots n payload;
          for td = 0 to tiles - 1 do
            let cell = (i * tiles) + td in
            if seg_off.(cell + 1) > seg_off.(cell) then Bitvec.set tile_arr.(td).halo slot true
          done;
          merge_cursor.(merge_scratch.(0)) <- c + 1
        end
      done;
      (* Per-link loss coins in exactly the order the serial fan-in draws
         them: transmitters ascending, links in within-row order, decodable
         links only. *)
      if lossy then
        for m = 0 to slots.count - 1 do
          let i = slot_tx.(m) in
          for k = out_off.(i) to out_off.(i + 1) - 1 do
            if out_pow.(k) >= 1.0 then Bytes.set lost k (if draw_loss () then '\001' else '\000')
          done
        done
    in
    (* The round command, published by barrier B0: the round to process,
       or -1 to shut the team down.  Each participant's phase closures are
       built once and read the round from [cmd]. *)
    let cmd = ref 0 in
    let team = Shard.Team.create ~tiles in
    let run_a t () = phase_a t !cmd and run_b t () = phase_b t !cmd in
    let worker p =
      let a = run_a tile_arr.(p) and b = run_b tile_arr.(p) in
      let running = ref true in
      while !running do
        Shard.Team.await team;
        if !cmd < 0 then running := false
        else begin
          Shard.Team.guard team a;
          Shard.Team.await team;
          (* coordinator merges and draws losses *)
          Shard.Team.await team;
          Shard.Team.guard team b;
          Shard.Team.await team
        end
      done
    in
    let a = run_a tile_arr.(0) and b = run_b tile_arr.(0) in
    let sharded_round r =
      cmd := r;
      Shard.Team.await team;
      Shard.Team.guard team a;
      Shard.Team.await team;
      Shard.Team.guard team merge_and_draw;
      Shard.Team.await team;
      Shard.Team.guard team b;
      Shard.Team.await team;
      if Shard.Team.failed team then stopping := true
    in
    let main () =
      let words = drive sharded_round in
      cmd := -1;
      Shard.Team.await team;
      words
    in
    Shard.Team.run team ~worker ~main
  in
  let loop_words = if sharded then run_sharded () else drive (process_round tile_arr.(0)) in
  {
    rounds_used = !round;
    active_rounds = !active_rounds;
    loop_words;
    hit_cap = !round >= cap && !pending > 0;
    delivered = Array.init n (fun i -> machines.(i).delivered ());
    completion_round;
    broadcasts;
  }
