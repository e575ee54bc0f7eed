(* One benchmark process: runs one workload for a wall-clock budget,
   checks every circuit's outputs against an evaluation made apart from
   the program, and prints one raw result line
     {"correct":..,"attempted":..,"failed":..,"values":{name: number}}
   which perfbench/run.py turns into the benchmark's result line.

   Untraced runs give the end-to-end values; traced runs (--trace 1)
   give the per-layer values by timing calls into each layer's public
   functions from here.  Nothing inside the program is instrumented.
   README.md says which end-to-end metric each layer value should move,
   and on which workload. *)

module F = Yoso_field.Field.Fp
module B = Yoso_bigint.Bigint
module Circuit = Yoso_circuit.Circuit
module Gen = Yoso_circuit.Generators
module Params = Yoso_mpc.Params
module Protocol = Yoso_mpc.Protocol
module Offline = Yoso_mpc.Offline
module Cdn = Yoso_mpc.Cdn_paillier
module Factory = Yoso_factory.Factory
module Depot = Yoso_factory.Depot
module Pool = Yoso_parallel.Pool
module Board = Yoso_net.Board
module Meter = Yoso_net.Meter
module Cost = Yoso_runtime.Cost
module Role = Yoso_runtime.Role
module Splitmix = Yoso_hash.Splitmix
module Feldman = Yoso_shamir.Feldman
module Paillier = Yoso_paillier.Paillier
module Threshold = Yoso_paillier.Threshold
module Sigma = Yoso_nizk.Sigma
module Compiler = Yoso_lang.Compiler
module Programs = Yoso_lang.Programs
module Interp = Yoso_lang.Interp

let now = Unix.gettimeofday

exception Check of string

let check cond fmt = Printf.ksprintf (fun s -> if not cond then raise (Check s)) fmt

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mb bytes = float_of_int bytes /. 1e6

(* ------------------------------------------------------------------ *)
(* Machine-speed calibration                                            *)
(* ------------------------------------------------------------------ *)

(* The speed of this shared machine moves by up to ~2x for minutes at a
   time, core by core, and every phase of a workload moves with the
   cores it runs on.  So each round is bracketed by a fixed calibration
   kernel -- this file's own code, independent of the program: an
   18-limb schoolbook multiply and a loop of independent multiplies --
   run at once on as many cores as the workload uses, and every time
   the round reports is scaled by [reference_ms / kernel time]: it is
   expressed at the machine speed at which the kernel takes
   [reference_ms].  README.md gives the measurements behind this. *)
let reference_ms = 2.5

let schoolbook x y z =
  for r = 1 to 6000 do
    Array.fill z 0 36 0;
    for i = 0 to 17 do
      let xi = Array.unsafe_get x i in
      for j = 0 to 17 do
        let k = i + j in
        Array.unsafe_set z k (Array.unsafe_get z k + (xi * Array.unsafe_get y j))
      done
    done;
    x.(r mod 18) <- Array.unsafe_get z 18 land 0x1FFFFFFF
  done

let independent_multiplies () =
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  for _ = 1 to 1_500_000 do
    a := (!a * 0x9E3779B1) + 1;
    b := (!b * 0x85EBCA77) + 3;
    c := (!c * 0xC2B2AE3D) + 5;
    d := (!d * 0x27D4EB2F) + 7
  done;
  ignore (Sys.opaque_identity (!a + !b + !c + !d))

(* Kernel time in ms on one core: geometric mean of the two loops, best
   of two runs each. *)
let kernel () =
  let x = Array.init 18 (fun i -> ((i * 0x1234567) + 99) land 0x1FFFFFFF) in
  let y = Array.init 18 (fun i -> ((i * 0x7654321) + 7) land 0x1FFFFFFF) in
  let z = Array.make 36 0 in
  let timed f =
    let t0 = now () in
    f ();
    now () -. t0
  in
  let best f = Float.min (timed f) (timed f) in
  1000. *. sqrt (best (fun () -> schoolbook x y z) *. best independent_multiplies)

(* The kernel on [cores] cores at once (1 or 2), geometric mean. *)
let calibrate ~cores =
  if cores < 2 then kernel ()
  else
    let other = Domain.spawn kernel in
    let here = kernel () in
    sqrt (here *. Domain.join other)

(* Peak major heap of the current round, sampled at the end of every
   major cycle and at the end of the round. *)
let round_heap_words = Atomic.make 0

let note_heap () =
  let w = (Gc.quick_stat ()).heap_words in
  if w > Atomic.get round_heap_words then Atomic.set round_heap_words w

let _heap_alarm = Gc.create_alarm note_heap

(* Times scale with the factor, rates against it; counts, bytes and
   ratios do not move. *)
let scale factor (name, v) =
  let ends suffix = String.ends_with ~suffix name in
  if ends "_per_s" then (name, v /. factor)
  else if ends "_s" || ends "_ms" || ends "_us_per_triple" then (name, v *. factor)
  else (name, v)

(* ------------------------------------------------------------------ *)
(* Rounds                                                               *)
(* ------------------------------------------------------------------ *)

(* A round is the unit the loop repeats: one circuit evaluation, or one
   stream of circuits on the stream workload.  Every circuit is one
   attempted operation. *)
type round = {
  failed : int;  (** circuits of the round that failed a check *)
  mults : int;  (** mult gates completed by the circuits that passed *)
  wall : float;  (** seconds spent in the program for this round *)
  samples : (string * float) list;
      (** per-circuit values, taken as medians over the run *)
}

type workload = {
  per_round : int;  (** circuits in one round *)
  cores : int;  (** domains the workload keeps busy *)
  round : traced:bool -> int -> round;
  finish : unit -> int;
      (** run-level property checked once after the timed loop;
          returns the number of circuits it found failed *)
}

let no_finish () = 0

(* ------------------------------------------------------------------ *)
(* Independent evaluations                                              *)
(* ------------------------------------------------------------------ *)

(* Plain F_p evaluation over the gate list with native ints, apart from
   Circuit.Eval and Protocol.expected. *)
let eval_fp (c : Circuit.t) ~(inputs : int -> F.t array) =
  let p = F.p in
  let v = Array.make c.Circuit.wire_count 0 in
  let cursor = Hashtbl.create 8 in
  let out = ref [] in
  Array.iter
    (function
      | Circuit.Input { client; wire } ->
        let i = Option.value ~default:0 (Hashtbl.find_opt cursor client) in
        Hashtbl.replace cursor client (i + 1);
        v.(wire) <- F.to_int (inputs client).(i) mod p
      | Circuit.Add { a; b; out = o } -> v.(o) <- (v.(a) + v.(b)) mod p
      | Circuit.Mul { a; b; out = o } -> v.(o) <- v.(a) * v.(b) mod p
      | Circuit.Output { client; wire } -> out := (client, v.(wire)) :: !out)
    c.Circuit.gates;
  List.rev !out

(* Z_N evaluation with Bigint, apart from Cdn_paillier.expected. *)
let eval_zn (c : Circuit.t) ~modulus ~(inputs : int -> B.t array) =
  let v = Array.make c.Circuit.wire_count B.zero in
  let cursor = Hashtbl.create 8 in
  let out = ref [] in
  Array.iter
    (function
      | Circuit.Input { client; wire } ->
        let i = Option.value ~default:0 (Hashtbl.find_opt cursor client) in
        Hashtbl.replace cursor client (i + 1);
        v.(wire) <- B.erem (inputs client).(i) modulus
      | Circuit.Add { a; b; out = o } -> v.(o) <- B.addmod v.(a) v.(b) modulus
      | Circuit.Mul { a; b; out = o } -> v.(o) <- B.mulmod v.(a) v.(b) modulus
      | Circuit.Output { client; wire } -> out := (client, v.(wire)) :: !out)
    c.Circuit.gates;
  List.rev !out

let check_outputs (r : Protocol.report) expected =
  let got =
    List.map (fun (o : Yoso_mpc.Online.output) -> (o.client, F.to_int o.value)) r.outputs
  in
  check (got = expected) "outputs differ from the independent evaluation"

(* Fault-free runs: nothing blamed or rejected, every frame on time, and
   the meter conserves bytes: per phase the step rows sum to data +
   framing, and the phases and the role rows each sum to the transcript's
   frame bytes. *)
let check_fault_free (r : Protocol.report) =
  check (r.blames = []) "%d blames" (List.length r.blames);
  check (r.posts_rejected = 0) "%d rejected posts" r.posts_rejected;
  check (r.faults_detected = 0) "%d faults detected" r.faults_detected;
  check (r.net.late = 0 && r.net.dropped = 0) "late %d dropped %d" r.net.late r.net.dropped;
  let m = r.meter in
  let sum l = List.fold_left (fun acc (_, b) -> acc + b) 0 l in
  let phases = Meter.phases m in
  List.iter
    (fun phase ->
      check
        (sum (Meter.steps m ~phase)
        = Meter.data_bytes m ~phase + Meter.framing_bytes m ~phase)
        "meter: %s steps do not sum to data + framing" phase)
    phases;
  let total = List.fold_left (fun acc phase -> acc + Meter.phase_total m ~phase) 0 phases in
  check (total = r.transcript.frame_bytes) "meter: phases %d <> frames %d" total
    r.transcript.frame_bytes;
  check (sum (Meter.roles m) = total) "meter: roles do not sum to the phase totals"

let per_gate bytes (r : Protocol.report) = float_of_int bytes /. float_of_int r.num_mult

let byte_samples (r : Protocol.report) =
  [
    ("offline_bytes_per_gate", per_gate r.offline_bytes r);
    ("online_bytes_per_gate", per_gate r.online_bytes r);
    ("online_field_bytes_per_gate", per_gate r.online_field_bytes r);
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer probes (traced rounds only)                                *)
(* ------------------------------------------------------------------ *)

let meter_kinds =
  [
    ("field_element", Some Cost.Field_element);
    ("ciphertext", Some Cost.Ciphertext);
    ("proof", Some Cost.Proof);
    ("partial_decryption", Some Cost.Partial_decryption);
    ("key", Some Cost.Key);
    ("framing", None);
  ]

let meter_samples (r : Protocol.report) =
  List.concat_map
    (fun phase ->
      List.map
        (fun (name, kind) ->
          let b =
            match kind with
            | Some k -> Meter.kind_bytes r.meter ~phase k
            | None -> Meter.framing_bytes r.meter ~phase
          in
          (Printf.sprintf "Meter.%s.%s_bytes" phase name, float_of_int b))
        meter_kinds)
    [ "setup"; "offline"; "online" ]

let report_samples (r : Protocol.report) =
  let t = r.transcript in
  [
    ("Committee_ops.committees", float_of_int r.committees);
    ("Committee_ops.posts", float_of_int r.posts);
    ("Board.frames_per_gate", float_of_int t.frames /. float_of_int r.num_mult);
    ("Board.mean_frame_bytes", float_of_int t.frame_bytes /. float_of_int t.frames);
    ("Sim.rounds", float_of_int r.net.rounds);
  ]
  @ meter_samples r

(* Board throughput: frames of the workload's mean size and kind mix,
   posted through Board.prepare and then Board.commit on a fresh board.
   [counts] is the workload's element count per kind over [frames]
   frames of [bytes] in all; frame j carries its Bresenham share, so any
   prefix keeps the mix and the mean size.  At most ~16 MB are posted.
   The implied time is that of one circuit's [circuit_bytes]. *)
let board_probe ~counts ~frames ~bytes ~circuit_bytes =
  let m = min frames (max 64 (16_000_000 / max 1 (bytes / frames))) in
  let board = Board.create () in
  let share total j = ((j + 1) * total / frames) - (j * total / frames) in
  let t0 = now () in
  let prepared =
    Array.init m (fun j ->
        let cost = List.map (fun (k, total) -> (k, share total j)) counts in
        Board.prepare board
          ~author:(Role.id ~committee:"probe" ~index:j)
          ~phase:"offline" ~step:"probe" ~cost ~tag:j ())
  in
  let t1 = now () in
  Array.iteri
    (fun j p ->
      ignore (Board.commit board p);
      if j mod 256 = 255 then Board.next_round board)
    prepared;
  let t2 = now () in
  let bytes = (Board.transcript board).frame_bytes in
  let prep = mb bytes /. (t1 -. t0) and commit = mb bytes /. (t2 -. t1) in
  let implied = (mb circuit_bytes /. prep) +. (mb circuit_bytes /. commit) in
  [
    ("Board.prepare_mb_per_s", prep);
    ("Board.commit_mb_per_s", commit);
    ("Board.implied_s", implied);
  ]

let cost_counts cost =
  List.map
    (fun k ->
      (k, List.fold_left (fun acc phase -> acc + Cost.count cost ~phase k) 0 (Cost.phases cost)))
    Cost.all_kinds

(* Allocation and major collections over [f], with the per-gate
   allocation normalised by the caller. *)
let gc_measure f =
  let words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  let alloc_bytes = (words s1 -. words s0) *. float_of_int (Sys.word_size / 8) in
  (r, alloc_bytes, s1.major_collections - s0.major_collections)

(* Pool profile between two drains: busy seconds, chunk count, busy
   share of [domains x wall], and the busiest domain over the mean. *)
let pool_samples ~domains ~wall profile =
  let busy = Array.make domains 0. in
  List.iter
    (fun (d, _, ms) -> if d < domains then busy.(d) <- busy.(d) +. (ms /. 1000.))
    profile;
  let total = Array.fold_left ( +. ) 0. busy in
  let mean = total /. float_of_int domains in
  [
    ("Pool.busy_s", total);
    ("Pool.chunks", float_of_int (List.length profile));
    ("Pool.busy_share", total /. (float_of_int domains *. wall));
    ("Pool.imbalance", if mean > 0. then Array.fold_left max 0. busy /. mean else 0.);
  ]

(* ------------------------------------------------------------------ *)
(* Packed one-shot circuits: wide-n128 and deep-tally-n32               *)
(* ------------------------------------------------------------------ *)

type packed_job = {
  params : Params.t;
  domains : int;
  circuit : Circuit.t;
  inputs : int -> F.t array;
  expected : (int * int) list;
  seed : int;
  pre_setup : float;  (** seconds of per-circuit set-up before open_session *)
  extra : (string * float) list;  (** traced values the job brings along *)
}

(* The offline stepper, timed per item kind: lambdas (Beaver triples +
   random wire values), inputs (dependent values + input re-encryption),
   layers (packing + re-encryption to KFF; the final holder item rides
   with them). *)
let traced_offline s =
  let st = Protocol.start_stream s in
  let spans = Hashtbl.create 4 in
  let add k dt = Hashtbl.replace spans k (dt +. Option.value ~default:0. (Hashtbl.find_opt spans k)) in
  let rec drain acc =
    let t0 = now () in
    match Offline.prepare_batch st with
    | None -> List.rev acc
    | Some item ->
      let dt = now () -. t0 in
      (match Offline.item_kind item with
      | "lambdas" -> add "lambdas" dt
      | "inputs" -> add "inputs" dt
      | _ -> add "layers" dt);
      drain (item :: acc)
  in
  let items = drain [] in
  let get k = Option.value ~default:0. (Hashtbl.find_opt spans k) in
  (Offline.assemble (Protocol.session_layout s) items, (get "lambdas", get "inputs", get "layers"))

(* An Offline.source that stamps the first draw of each kind: Online
   draws the holder (future key distribution), then the input preps,
   then each layer's shares, then the wire lambdas (output step). *)
let timing_source (src : Offline.source) =
  let marks = Hashtbl.create 4 in
  let mark k = if not (Hashtbl.mem marks k) then Hashtbl.replace marks k (now ()) in
  let source =
    {
      src with
      Offline.src_final_holder = (fun () -> mark "holder"; src.Offline.src_final_holder ());
      src_input_preps = (fun () -> mark "inputs"; src.Offline.src_input_preps ());
      src_mult_preps = (fun li -> mark "layers"; src.Offline.src_mult_preps li);
      src_wire_lambda = (fun () -> mark "output"; src.Offline.src_wire_lambda ());
    }
  in
  (source, fun k -> Hashtbl.find marks k)

let packed_round ~traced job =
  let config = Protocol.config ~seed:job.seed ~domains:job.domains () in
  if traced then (Pool.set_profiling true; ignore (Pool.drain_profile ()));
  let run () =
    let t0 = now () in
    let s = Protocol.open_session ~params:job.params ~config ~circuit:job.circuit () in
    let t1 = now () in
    let result =
      Fun.protect
        ~finally:(fun () -> Protocol.close_session s)
        (fun () ->
          let prep, spans =
            if traced then traced_offline s else (Protocol.produce s, (0., 0., 0.))
          in
          let t2 = now () in
          let off_profile = if traced then Pool.drain_profile () else [] in
          let source, marks =
            if traced then timing_source (Offline.source_of prep)
            else (Offline.source_of prep, fun _ -> 0.)
          in
          let r = Protocol.consume s source ~inputs:job.inputs in
          let t3 = now () in
          let on_profile = if traced then Pool.drain_profile () else [] in
          let cost = Board.cost (Protocol.session_board s) in
          (r, spans, marks, (t0, t1, t2, t3), off_profile @ on_profile, cost))
    in
    (result, now () -. t0)
  in
  let ((r, spans, marks, (t0, t1, t2, t3), profile, cost), wall), alloc, majors =
    gc_measure run
  in
  if traced then Pool.set_profiling false;
  check_outputs r job.expected;
  check_fault_free r;
  let offline = t2 -. t1 and online = t3 -. t2 in
  let samples =
    [
      ("setup_s", job.pre_setup +. (t1 -. t0));
      ("offline_s", offline);
      ("online_s", online);
    ]
    @ byte_samples r
  in
  let samples =
    if not traced then samples
    else begin
      let lambdas, inputs, layers = spans in
      let keydist = marks "inputs" -. marks "holder"
      and input = marks "layers" -. marks "inputs"
      and mult = marks "output" -. marks "layers"
      and output = t3 -. marks "output" in
      let t = r.transcript in
      samples @ job.extra
      @ [
          ("Offline.lambdas_s", lambdas);
          ("Offline.inputs_s", inputs);
          ("Offline.layers_s", layers);
          ("Online.keydist_s", keydist);
          ("Online.input_s", input);
          ("Online.mult_s", mult);
          ("Online.output_s", output);
          ("Trace.offline_cover", (lambdas +. inputs +. layers) /. offline);
          ("Trace.online_cover", (keydist +. input +. mult +. output) /. online);
          ("Gc.alloc_mb_per_gate", alloc /. 1e6 /. float_of_int r.num_mult);
          ("Gc.major_collections", float_of_int majors);
        ]
      @ pool_samples ~domains:job.domains ~wall:(offline +. online) profile
      @ report_samples r
      @ board_probe ~counts:(cost_counts cost) ~frames:t.frames ~bytes:t.frame_bytes
          ~circuit_bytes:t.frame_bytes
    end
  in
  { failed = 0; mults = r.num_mult; wall = job.pre_setup +. wall; samples }

let rng_of seed i = Random.State.make [| seed; i |]

(* wide-n128: every mult layer fills one packed batch (width = k). *)
let wide ~seed =
  let params = Params.create ~n:128 ~t:32 ~k:32 () in
  let circuit = Gen.wide_mul_reduced ~width:32 ~depth:2 ~clients:2 in
  let per_client = Circuit.num_inputs circuit / 2 in
  let round ~traced i =
    let rng = rng_of seed i in
    let vectors = Array.init 2 (fun _ -> Array.init per_client (fun _ -> F.random rng)) in
    let inputs c = vectors.(c) in
    packed_round ~traced
      {
        params;
        domains = 2;
        circuit;
        inputs;
        expected = eval_fp circuit ~inputs;
        seed = Splitmix.mix seed i;
        pre_setup = 0.;
        extra = [];
      }
  in
  { per_round = 1; cores = 2; round; finish = no_finish }

(* deep-tally-n32: the DSL tally, compiled per circuit (compilation is
   part of set-up) and checked against the interpreter on the AST.
   Even rounds pass the threshold, odd rounds miss it, so both outcomes
   occur in every run. *)
let tally_voters = 5
let tally_threshold = 3

let tally ~seed =
  let params = Params.create ~n:32 ~t:8 ~k:8 () in
  let program = Programs.tally ~voters:tally_voters ~threshold:tally_threshold () in
  let round ~traced i =
    let rng = rng_of seed i in
    let yes =
      if i mod 2 = 0 then tally_threshold + Random.State.int rng (tally_voters - tally_threshold + 1)
      else Random.State.int rng tally_threshold
    in
    (* a seeded permutation decides who votes yes *)
    let order = Array.init tally_voters Fun.id in
    for j = tally_voters - 1 downto 1 do
      let k = Random.State.int rng (j + 1) in
      let x = order.(j) in
      order.(j) <- order.(k);
      order.(k) <- x
    done;
    let votes = Array.make tally_voters 0 in
    for j = 0 to yes - 1 do
      votes.(order.(j)) <- 1
    done;
    let vote c = [| votes.(c) |] in
    let expected = List.map (fun (c, v) -> (c, F.to_int v)) (Interp.run program ~inputs:vote) in
    let passed = if yes >= tally_threshold then 1 else 0 in
    check (List.for_all (fun (_, v) -> v = passed) expected) "interpreter disagrees with the count";
    let t0 = now () in
    let compiled = Compiler.compile program in
    let compile_s = now () -. t0 in
    let circuit = compiled.Compiler.circuit in
    packed_round ~traced
      {
        params;
        domains = 1;
        circuit;
        inputs = Compiler.protocol_inputs compiled ~inputs:vote;
        expected;
        seed = Splitmix.mix seed i;
        pre_setup = compile_s;
        extra =
          [
            ("Compiler.compile_s", compile_s);
            ("Compiler.mults", float_of_int (Circuit.num_mul circuit));
            ("Compiler.mult_depth", float_of_int (Circuit.depth circuit));
          ];
      }
  in
  { per_round = 1; cores = 1; round; finish = no_finish }

(* ------------------------------------------------------------------ *)
(* stream-audited-n32                                                   *)
(* ------------------------------------------------------------------ *)

let stream_circuits = 8

let stream ~seed =
  let params = Params.create ~n:32 ~t:8 ~k:8 () in
  let circuit = Gen.wide_mul_reduced ~width:8 ~depth:3 ~clients:2 in
  let per_client = Circuit.num_inputs circuit / 2 in
  let opts = { Offline.default_opts with Offline.audit_triples = true; packed_reenc = true } in
  Feldman.prepare ();
  let probe = ref None in
  let round ~traced i =
    let rng = rng_of seed i in
    let vectors =
      Array.init stream_circuits (fun _ ->
          Array.init 2 (fun _ -> Array.init per_client (fun _ -> F.random rng)))
    in
    let jobs =
      Array.init stream_circuits (fun j -> { Factory.circuit; inputs = (fun c -> vectors.(j).(c)) })
    in
    let base = Splitmix.mix seed i in
    let config = Protocol.config ~seed:base ~domains:1 ~offline:opts () in
    let run () =
      let t0 = now () in
      let fr = Factory.stream ~params ~config ~jobs () in
      (fr, now () -. t0)
    in
    let (fr, wall), alloc, majors = gc_measure run in
    let failed = ref 0 and mults = ref 0 and samples = ref [] in
    List.iter
      (fun (cr : Factory.circuit_result) ->
        let r = cr.report in
        match
          check_outputs r (eval_fp circuit ~inputs:jobs.(cr.index).inputs);
          check_fault_free r
        with
        | () ->
          mults := !mults + r.num_mult;
          let phase p = List.assoc p r.phase_ms /. 1000. in
          samples :=
            [ ("setup_s", phase "setup"); ("offline_s", phase "offline"); ("online_s", phase "online") ]
            @ byte_samples r
            @ (if traced then report_samples r else [])
            @ !samples
        | exception Check msg ->
          Printf.eprintf "circuit %d of round %d failed: %s\n%!" cr.index i msg;
          incr failed)
      fr.results;
    if Option.is_none !probe then probe := Some (base, fr, jobs);
    let samples =
      if not traced then !samples
      else begin
        let d = fr.depot in
        (* Feldman product proofs over the stream's audited triples *)
        let frng = rng_of seed (-i) in
        let triples = fr.total_mult in
        let t0 = now () in
        let proofs =
          Array.init triples (fun _ ->
              let x = F.random frng and y = F.random frng in
              Feldman.Product.prove ~rng:frng ~x ~y ~z:(F.mul x y))
        in
        let t1 = now () in
        let ok = Feldman.Product.verify_batch ~rng:frng proofs in
        let t2 = now () in
        check ok "honest product proofs rejected";
        let us dt = dt *. 1e6 /. float_of_int triples in
        let frames, frame_bytes =
          List.fold_left
            (fun (f, b) (cr : Factory.circuit_result) ->
              (f + cr.report.transcript.frames, b + cr.report.transcript.frame_bytes))
            (0, 0) fr.results
        in
        !samples
          @ [
              ("Depot.consumer_blocks", float_of_int d.Depot.consumer_blocks);
              ("Depot.producer_blocks", float_of_int d.Depot.producer_blocks);
              ("Depot.max_occupancy", float_of_int d.Depot.max_occupancy);
              ("Factory.refills_during_online", float_of_int fr.refills_during_online);
              ("Feldman.prove_us_per_triple", us (t1 -. t0));
              ("Feldman.verify_batch_us_per_triple", us (t2 -. t1));
              ("Gc.alloc_mb_per_gate", alloc /. 1e6 /. float_of_int fr.total_mult);
              ("Gc.major_collections", float_of_int majors);
            ]
          @ board_probe ~counts:(cost_counts fr.cost) ~frames ~bytes:frame_bytes
              ~circuit_bytes:(frame_bytes / stream_circuits)
      end
    in
    { failed = !failed; mults = !mults; wall; samples }
  in
  (* streaming invariance: one circuit of the first (warm-up) stream
     again, as an independent one-shot run at its derived seed with the
     same opts *)
  let outputs (r : Protocol.report) =
    List.map (fun (o : Yoso_mpc.Online.output) -> (o.client, o.wire, F.to_int o.value)) r.outputs
  in
  let finish () =
    match !probe with
    | None -> 0
    | Some (base, fr, jobs) ->
      let j = seed land max_int mod stream_circuits in
      let streamed = (List.nth fr.Factory.results j).report in
      let config =
        Protocol.config ~seed:(Factory.derived_seed base j) ~domains:1 ~offline:opts ()
      in
      let one = Protocol.execute ~params ~config ~circuit ~inputs:jobs.(j).Factory.inputs () in
      if
        one.transcript.digest = streamed.transcript.digest && outputs one = outputs streamed
      then 0
      else begin
        prerr_endline "streaming invariance broken: one-shot run differs from the stream";
        1
      end
  in
  { per_round = stream_circuits; cores = 2; round; finish }

(* ------------------------------------------------------------------ *)
(* paillier-cdn-n5                                                      *)
(* ------------------------------------------------------------------ *)

let cdn_n = 5
let cdn_t = 2
let cdn_bits = 512
let cdn_len = 4

let bytes_of_bits b = (b + 7) / 8

(* Time per call of [f], over [reps] calls. *)
let per_call_ms reps f =
  let t0 = now () in
  for i = 0 to reps - 1 do
    ignore (Sys.opaque_identity (f i))
  done;
  (now () -. t0) *. 1000. /. float_of_int reps

let paillier ~seed =
  let circuit = Gen.dot_product ~len:cdn_len in
  let mults = Circuit.num_mul circuit in
  let round ~traced i =
    let rng = rng_of seed i in
    let vectors = Array.init 2 (fun _ -> Array.init cdn_len (fun _ -> B.of_int (Random.State.bits rng))) in
    let cdn_seed = Splitmix.mix seed i in
    (* set-up: the key, context and tables Cdn_paillier.execute derives
       first from the same seed *)
    let t0 = now () in
    let tpk, shares =
      Threshold.keygen ~bits:cdn_bits ~n:cdn_n ~t:cdn_t ~rng:(Random.State.make [| cdn_seed |]) ()
    in
    let tk = now () in
    let tctx = Threshold.context tpk in
    Threshold.Ctx.preload tctx;
    let t1 = now () in
    (* the first input draw ends the preprocessing: execute builds every
       Beaver triple before it evaluates the first gate *)
    let first_input = ref 0. in
    let inputs c =
      if !first_input = 0. then first_input := now ();
      vectors.(c)
    in
    let t2 = now () in
    let r = Cdn.execute ~n:cdn_n ~t:cdn_t ~bits:cdn_bits ~seed:cdn_seed ~circuit ~inputs () in
    let t3 = now () in
    let pk = tpk.Threshold.pk in
    check (B.equal r.modulus pk.Paillier.n) "execute derived another key";
    check (r.rejected_contributions = 0) "%d rejected contributions" r.rejected_contributions;
    let expected = eval_zn circuit ~modulus:r.modulus ~inputs:(fun c -> vectors.(c)) in
    check
      (List.length r.outputs = List.length expected
      && List.for_all2 (fun (c, _, v) (c', v') -> c = c' && B.equal v v') r.outputs expected)
      "outputs differ from the Z_N evaluation";
    (* message sizes at this key: there is no board, so bytes are the
       sizes of the messages CDN posts per mult gate — one encryption
       with a plaintext-knowledge proof per member of the first Beaver
       committee, two encryptions with a multiplication proof per member
       of the second; online, two threshold openings of t+1 partial
       decryptions carrying two Z_N values *)
    let ct = bytes_of_bits (B.bit_length pk.Paillier.n2) in
    let zn = bytes_of_bits (B.bit_length pk.Paillier.n) in
    let pok = bytes_of_bits (Sigma.Plaintext_knowledge.size_bits pk) in
    let pom = bytes_of_bits (Sigma.Multiplication.size_bits pk) in
    let samples =
      [
        ("setup_s", t1 -. t0);
        ("offline_s", !first_input -. t2);
        ("online_s", t3 -. !first_input);
        ("offline_bytes_per_gate", float_of_int ((cdn_n * (ct + pok)) + (cdn_n * ((2 * ct) + pom))));
        ("online_bytes_per_gate", float_of_int (2 * (cdn_t + 1) * ct));
        ("online_field_bytes_per_gate", float_of_int (2 * zn));
      ]
    in
    let samples =
      if not traced then samples
      else begin
        let pctx = Threshold.Ctx.paillier tctx in
        let mrng = rng_of seed (-i) in
        let msgs = Array.init 4 (fun _ -> B.random_below mrng pk.Paillier.n) in
        let rs = Array.init 4 (fun _ -> Paillier.sample_unit pk ~rng:mrng) in
        let cts = Array.init 4 (fun j -> Paillier.Ctx.encrypt_with pctx ~r:rs.(j) msgs.(j)) in
        let proofs =
          Array.init 4 (fun j ->
              Sigma.Plaintext_knowledge.prove pk ~rng:mrng ~m:msgs.(j) ~r:rs.(j) ~c:cts.(j))
        in
        let partials =
          List.init (cdn_t + 1) (fun j -> Threshold.Ctx.partial_decrypt tctx shares.(j) cts.(0))
        in
        check (B.equal (Threshold.Ctx.combine tctx partials) msgs.(0)) "threshold decryption wrong";
        let exps = Array.init 4 (fun _ -> B.random_below mrng pk.Paillier.n) in
        [
          ("Threshold.keygen_s", tk -. t0);
          ("Paillier.encrypt_ms", per_call_ms 4 (fun j -> Threshold.Ctx.encrypt tctx ~rng:mrng msgs.(j)));
          ( "Threshold.partial_decrypt_ms",
            per_call_ms (cdn_t + 1) (fun j -> Threshold.Ctx.partial_decrypt tctx shares.(j) cts.(1)) );
          ("Threshold.combine_ms", per_call_ms 4 (fun _ -> Threshold.Ctx.combine tctx partials));
          ( "Sigma.prove_ms",
            per_call_ms 4 (fun j ->
                Sigma.Plaintext_knowledge.prove pk ~rng:mrng ~m:msgs.(j) ~r:rs.(j) ~c:cts.(j)) );
          ( "Sigma.verify_ms",
            per_call_ms 4 (fun j ->
                check (Sigma.Plaintext_knowledge.verify pk ~c:cts.(j) proofs.(j)) "proof rejected") );
          ( "Bigint.powmod_ms",
            per_call_ms 4 (fun j -> B.powmod rs.(j) exps.(j) pk.Paillier.n2) );
        ]
        @ samples
      end
    in
    { failed = 0; mults; wall = t3 -. t2; samples }
  in
  { per_round = 1; cores = 1; round; finish = no_finish }

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let workloads =
  [
    ("wide-n128", wide);
    ("deep-tally-n32", tally);
    ("stream-audited-n32", stream);
    ("paillier-cdn-n5", paillier);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed part of the run");
      ("--trace", Arg.Set_int trace, "0|1 per-layer values instead of end-to-end ones");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "yosobench --workload NAME --seed N --seconds S --trace 0|1";
  let make =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let traced_run = !trace = 1 in
  let w = make ~seed:!seed in
  let attempted = ref 0 and failed = ref 0 in
  let round ~traced i =
    attempted := !attempted + w.per_round;
    (* every round starts from a compacted heap, as in a fresh process *)
    Gc.compact ();
    let k0 = calibrate ~cores:w.cores in
    Atomic.set round_heap_words 0;
    match w.round ~traced i with
    | r ->
      note_heap ();
      let heap = mb (Atomic.get round_heap_words * (Sys.word_size / 8)) in
      let kernel = sqrt (k0 *. calibrate ~cores:w.cores) in
      let factor = reference_ms /. kernel in
      failed := !failed + r.failed;
      let samples = ("heap_peak_mb", heap) :: List.map (scale factor) r.samples in
      Some ({ r with wall = r.wall *. factor; samples }, kernel)
    | exception e ->
      Printf.eprintf "round %d failed: %s\n%!"
        i (match e with Check m -> m | e -> Printexc.to_string e);
      failed := !failed + w.per_round;
      None
  in
  (* warm-up round: checked and counted, not timed *)
  ignore (round ~traced:false 0);
  (* timed part; a traced run alternates untraced and traced rounds so
     it can report the tracing overhead *)
  let plain = ref [] and traced = ref [] and kernels = ref [] in
  let t0 = now () in
  let i = ref 1 in
  while now () -. t0 < !seconds || !i <= (if traced_run then 2 else 1) do
    let tr = traced_run && !i mod 2 = 0 in
    (match round ~traced:tr !i with
    | Some (r, kernel) ->
      kernels := kernel :: !kernels;
      if tr then traced := r :: !traced else plain := r :: !plain
    | None -> ());
    incr i
  done;
  (failed :=
     !failed
     +
     match w.finish () with
     | n -> n
     | exception e ->
       Printf.eprintf "run-level check failed: %s\n%!" (Printexc.to_string e);
       1);
  let values rounds =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun r ->
        List.iter
          (fun (k, v) ->
            Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
          r.samples)
      rounds;
    Hashtbl.fold (fun k l acc -> (k, median l) :: acc) tbl []
  in
  let sum f rounds = List.fold_left (fun acc r -> acc +. f r) 0. rounds in
  let wall_median rounds = median (List.map (fun r -> r.wall) rounds) in
  let out =
    if traced_run then
      values !traced
      @ [
          ( "Trace.overhead_pct",
            100. *. ((wall_median !traced /. wall_median !plain) -. 1.) );
          ("Calib.kernel_ms", median !kernels);
        ]
    else
      values !plain
      @ [
          ("gates_per_s", sum (fun r -> float_of_int r.mults) !plain /. sum (fun r -> r.wall) !plain);
        ]
  in
  let out = List.sort compare out in
  let correct = !plain <> [] && List.for_all (fun (_, v) -> Float.is_finite v) out in
  let out = List.filter (fun (_, v) -> Float.is_finite v) out in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"cores\":%d,\"values\":{%s}}\n"
    correct !attempted !failed
    (Domain.recommended_domain_count ())
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%.17g" k v) out))
