(* Host-side driver for the MD5 circuit, over one word path.

   The circuit's wide ports are driven as words: the 640-bit "msg"
   token is staged in a 20-word buffer in the 32-bit-limb layout of
   [Hw.Sim.write_words] — [Md5_circuit.input_bits ~block ~iv] puts the
   chaining value in bits 0..127 and the block above it, so chaining
   words a..d are limbs 0..3 and block word w is limb 4 + w — and the
   128-bit digest is read back as 4 words, a..d.  No [Bits.t] is built
   on the host side.

   [step] is the one per-cycle inject/harvest loop; its callers keep
   only their policy.  [hash_messages] hashes arbitrary-length messages
   (one per thread) by feeding padded blocks with digest chaining.  The
   barrier synchronizes ALL participating threads every episode, so the
   host must keep the batches aligned: it proceeds in explicit rounds
   of max-block-count batches, where a thread whose message has fewer
   blocks contributes dummy blocks (standard IV, digest discarded).
   Each round is fully drained before the next is submitted — exactly
   the discipline a hardware host controller for the paper's design
   needs.  [Serve.Md5_backend] drives [step] with continuous batching:
   slots, cancels and padding windows. *)

let msg_words = Md5_circuit.input_width / Bits.limb_width
let digest_words = Md5_circuit.state_width / Bits.limb_width

let set_iv buf off =
  let a, b, c, d = Md5_ref.iv in
  buf.(off) <- a;
  buf.(off + 1) <- b;
  buf.(off + 2) <- c;
  buf.(off + 3) <- d

(* The dummy token: standard IV, all-zero block. *)
let dummy_words =
  let w = Array.make msg_words 0 in
  set_iv w 0;
  w

type t = {
  sim : Hw.Sim.t;
  threads : int;
  msg_valid : Hw.Sim.port;
  msg_data : Hw.Sim.port;
  msg_ready : Hw.Sim.port;
  digest_fire : Hw.Sim.port;
  digest_data : Hw.Sim.port;
  round_counter : Hw.Sim.port;
  stage : int array;  (* the staged [msg] token *)
  digest : int array;  (* the fired digest *)
  chains : int array;  (* thread i's chaining value at [digest_words * i] *)
  msgs : string array;
  real : bool array;  (* thread i's token in the loop carries a real block *)
  mutable next : int;  (* round-robin pointer *)
}

let create sim ~threads =
  let module N = Melastic.Names in
  let chains = Array.make (digest_words * threads) 0 in
  for i = 0 to threads - 1 do set_iv chains (digest_words * i) done;
  Hw.Sim.write_int (Hw.Sim.input_port sim (N.ready "digest")) ((1 lsl threads) - 1);
  { sim;
    threads;
    msg_valid = Hw.Sim.input_port sim (N.valid "msg");
    msg_data = Hw.Sim.input_port sim (N.data "msg");
    msg_ready = Hw.Sim.signal_port sim (N.ready "msg");
    digest_fire = Hw.Sim.signal_port sim (N.fire "digest");
    digest_data = Hw.Sim.signal_port sim (N.data "digest");
    round_counter = Hw.Sim.signal_port sim "round_counter";
    stage = Array.make msg_words 0;
    digest = Array.make digest_words 0;
    chains;
    msgs = Array.make threads "";
    real = Array.make threads false;
    next = 0 }

let load d i msg =
  d.msgs.(i) <- msg;
  set_iv d.chains (digest_words * i)

let hex d i = Md5_ref.hex_of_words d.chains (digest_words * i)
let round_counter d = Hw.Sim.read_int d.round_counter

(* The [msg] ready is a function of registered state (admission gate,
   merge loopback), so it is read as the last cycle's settle left it:
   the valids of this cycle cannot change it. *)
let step d ~eligible ~inject =
  let n = d.threads in
  let ready = Hw.Sim.read_int d.msg_ready in
  let chosen = ref (-1) and k = ref 0 in
  while !chosen < 0 && !k < n do
    let i = (d.next + !k) mod n in
    if ready land (1 lsl i) <> 0 && eligible i then chosen := i;
    incr k
  done;
  let i = !chosen in
  if i >= 0 then begin
    let block = inject i in
    if block >= 0 then begin
      Array.blit d.chains (digest_words * i) d.stage 0 digest_words;
      Md5_ref.fill_block d.msgs.(i) block d.stage digest_words;
      Hw.Sim.write_words d.msg_data d.stage 0
    end
    else Hw.Sim.write_words d.msg_data dummy_words 0;
    d.real.(i) <- block >= 0;
    Hw.Sim.write_int d.msg_valid (1 lsl i);
    d.next <- (i + 1) mod n
  end
  else Hw.Sim.write_int d.msg_valid 0;
  Hw.Sim.settle d.sim;
  let fire = Hw.Sim.read_int d.digest_fire in
  if fire <> 0 then begin
    Hw.Sim.read_words d.digest_data d.digest 0;
    for i = 0 to n - 1 do
      if fire land (1 lsl i) <> 0 && d.real.(i) then
        Array.blit d.digest 0 d.chains (digest_words * i) digest_words
    done
  end;
  Hw.Sim.cycle d.sim;
  fire

let popcount x =
  let rec go x c = if x = 0 then c else go (x land (x - 1)) (c + 1) in
  go x 0

(* Hash [messages] (thread i gets message i) on a simulator built from
   [Md5_circuit.circuit ~threads:(List.length messages)]; returns the
   hex digests.  Raises [Failure] if the circuit does not finish within
   [limit] cycles. *)
let hash_messages ?(limit = 200_000) sim messages =
  let msgs = Array.of_list messages in
  let threads = Array.length msgs in
  let d = create sim ~threads in
  Array.iteri (load d) msgs;
  let blocks = Array.map (fun m -> Md5_ref.block_count (String.length m)) msgs in
  let rounds = Array.fold_left max 0 blocks in
  let pending = Array.make threads false in
  let round = ref 0 in
  let eligible i = pending.(i) in
  let inject i =
    pending.(i) <- false;
    if !round < blocks.(i) then !round else -1
  in
  let budget = ref limit in
  while !round < rounds do
    (* Submit one batch: every thread sends a block (real or dummy),
       and the whole batch drains before the next round. *)
    Array.fill pending 0 threads true;
    let drained = ref 0 in
    while !drained < threads && !budget > 0 do
      decr budget;
      drained := !drained + popcount (step d ~eligible ~inject)
    done;
    if !drained < threads then
      failwith "Md5_host.hash_messages: cycle limit exceeded";
    incr round
  done;
  List.init threads (hex d)
