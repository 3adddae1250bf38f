#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, build, tests. Run before every PR.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== no data-plane loop on the owned packet codec"
# Every real-transport loop parses borrowed `PacketView`s and encodes
# into reused frames; the owned `Packet` (decode -> Vec -> encode) is
# for tests and the benchmark's traced pipeline only. The type must
# not reappear in the non-test code of the loop files (comments aside).
# A loop file's code: everything above its tests, comments aside.
loop_code() { sed '/#\[cfg(test)\]/,$d' "$1" | grep -vE '^\s*//'; }
for f in crates/transport/src/{endpoint,runner,reactor,shard,hier}.rs \
         crates/ctrl/src/{runner,tenant,netsim}.rs; do
  if loop_code "$f" | grep -nw 'Packet'; then
    echo "ERROR: $f uses the owned Packet codec outside its tests" >&2
    exit 1
  fi
done

echo "== one ingress per state machine"
# Switches and workers have one ingress, `on_view` (a validated
# `PacketView` in, the response encoded into the caller's frame), and
# netsim, the checker and the in-process harness drive frames through
# it. Across the non-test code of crates/*/src: no fn hands out owned
# packets, `SwitchAction` (a decoded response) lives only beside the
# one owned-packet adapter, `MultiJobSwitch::on_packet` (kept for the
# benchmark's traced pipeline), and the oracle has no owned-packet
# glue. Netsim's `Node::on_packet(SimPacket)` is another method.
ingress_violations=0
owned_ingress=()
for f in $(find crates/*/src -name "*.rs" | sort); do
  code=$(loop_code "$f")
  if grep -nE 'fn .*-> *(Result<)?Vec<Packet>' <<<"$code"; then
    echo "ERROR: $f returns owned packets" >&2
    ingress_violations=1
  fi
  case "$f" in
    crates/core/src/switch/mod.rs|crates/core/src/switch/multijob.rs) ;;
    *) if grep -nw 'SwitchAction' <<<"$code"; then
         echo "ERROR: $f names SwitchAction outside the owned-packet adapter" >&2
         ingress_violations=1
       fi ;;
  esac
  if grep -nwE 'observe_packet|checked_on_packet' <<<"$code"; then
    echo "ERROR: $f has owned-packet oracle glue" >&2
    ingress_violations=1
  fi
  if grep -qE 'fn on_packet\([^)]*\bPacket\b' <<<"$code"; then
    owned_ingress+=("$f")
  fi
done
if [ "${owned_ingress[*]}" != "crates/core/src/switch/multijob.rs" ]; then
  echo "ERROR: owned-packet on_packet in: ${owned_ingress[*]:-none}" \
       "(only MultiJobSwitch's benchmark adapter may take a Packet)" >&2
  ingress_violations=1
fi
[ "$ingress_violations" = 0 ] || exit 1

echo "== one §6 leaf: the socket tree and netsim drive transport::hier::Leaf"
# The leaf's protocol is the sans-IO `transport::hier::Leaf`; the
# threads' leaf endpoint and netsim's `SimEndpoint` only drive it. Across the
# non-test code of crates/*/src, the deleted netsim-only tree
# (`HierarchicalSwitch`, `HierAction`) and the frame re-stamp it
# forwarded with (`restamp_as_update`) stay gone, and the up-hop
# engine's send-instant re-arm has exactly one caller: the leaf.
leaf_violations=0
rearm_callers=()
for f in $(find crates/*/src -name "*.rs" | sort); do
  code=$(loop_code "$f")
  if grep -nwE 'HierarchicalSwitch|HierAction|restamp_as_update' <<<"$code"; then
    echo "ERROR: $f brings back a second §6 leaf" >&2
    leaf_violations=1
  fi
  n=$(grep -cE '\.rearm_slot\(' <<<"$code" || true)
  for _ in $(seq 1 "$n"); do rearm_callers+=("$f"); done
done
if [ "${rearm_callers[*]}" != "crates/transport/src/hier.rs" ]; then
  echo "ERROR: SlotEngine::rearm_slot called from: ${rearm_callers[*]:-nowhere}" \
       "(only the leaf, crates/transport/src/hier.rs, may call it, once)" >&2
  leaf_violations=1
fi
[ "$leaf_violations" = 0 ] || exit 1

echo "== the control protocol is written once"
# The worker and switch ends of the control protocol are the sans-IO
# machines of crates/ctrl/src/tenant.rs, the controller's end is
# controller.rs. The threaded runner, the simulator and the scheduler
# only drive them: none of them handles a message the endpoints
# exchange.
for f in crates/ctrl/src/{runner,netsim,sched}.rs; do
  if loop_code "$f" | grep -nE \
      'CtrlMsg::(Welcome|Start|Quiesce|Reconfigure|Probe|AdmitJob|EvictJob|AdmitAck)\b|SwitchLink'; then
    echo "ERROR: $f handles the control protocol itself (belongs in tenant.rs)" >&2
    exit 1
  fi
done

echo "== one wait policy: no bare sleep or yield in a data-plane loop"
# Every data-plane wait is `port::IdleBackoff` (poll -> bounded spin ->
# nap) or a `Port` receive timeout; a loop that sleeps on its own
# escapes the policy and its counters.
for f in crates/transport/src/{endpoint,reactor,shard,hier,runner}.rs \
         crates/ctrl/src/{runner,sched}.rs; do
  if loop_code "$f" | grep -nE 'thread::sleep|yield_now'; then
    echo "ERROR: $f waits outside port::IdleBackoff" >&2
    exit 1
  fi
done

echo "== one controller driver: the Controller is driven in one place"
# The Controller is an executor endpoint, `runner::ControllerEndpoint`,
# on both clocks: `sched::drive` seats it on its lane and netsim runs it
# through `SimEndpoint`. Only it feeds the Controller frames and ticks,
# and no ctrl/src code receives on a port by hand. Its threads are the
# executor's (see "one executor" below), so ctrl/src opens no spawn/join
# scope.
ctrl_code() { for f in crates/ctrl/src/*.rs; do loop_code "$f"; done; }
for pat in '\.on_tick\(' '\.on_datagram\('; do
  n=$(ctrl_code | grep -cE "$pat" || true)
  m=$(loop_code crates/ctrl/src/runner.rs | grep -cE "$pat" || true)
  if [ "$n" -ne 1 ] || [ "$m" -ne 1 ]; then
    echo "ERROR: $pat appears $n times in ctrl/src, $m in runner.rs (want 1: ControllerEndpoint)" >&2
    exit 1
  fi
done
if ctrl_code | grep -n 'recv_timeout('; then
  echo "ERROR: ctrl/src receives on a port by hand (the lane's step receives)" >&2
  exit 1
fi

echo "== tenant workers are endpoints, not threads"
# The driver steps every tenant worker on its own thread's lane, and the
# tenant switch is placed on a thread through the executor: ctrl/src
# spawns nothing. A per-worker thread parked in a 500 us receive would
# bring back eight threads on two cores.
n=$(for f in crates/ctrl/src/*.rs; do loop_code "$f"; done \
     | grep -cE '\.spawn\(|thread::scope' || true)
if [ "$n" -ne 0 ]; then
  echo "ERROR: .spawn( or thread::scope appears $n times in ctrl/src (want 0: threads are the executor's)" >&2
  exit 1
fi
if (loop_code crates/ctrl/src/runner.rs; loop_code crates/ctrl/src/sched.rs) \
    | grep -nE 'worker_thread|from_micros\(500\)'; then
  echo "ERROR: ctrl/src/{runner,sched}.rs run a tenant worker on its own thread" >&2
  exit 1
fi

echo "== engines aggregate in place: no copy of a worker's tensors"
# The engine path quantizes from the caller's tensors and dequantizes
# the aggregate back into them, one disjoint region per engine. A
# flattened copy of the input, a shared read-only copy or a per-engine
# result buffer stitched at join would bring the copies back.
for f in crates/transport/src/{runner,reactor,hier,shard}.rs; do
  if loop_code "$f" | grep -nE '\.concat\(|flat_results|Arc<Vec<f32>>'; then
    echo "ERROR: $f copies a worker's tensors instead of aggregating in place" >&2
    exit 1
  fi
done

echo "== tensor streams aggregate in place: no copy of a tenant's tensors"
# A TensorStream owns its caller's tensors: it quantizes each chunk from
# them and writes each aggregate over the elements it came from, keeping
# only one undo chunk per pool slot for re-streaming. A result buffer
# beside the input, or a tenant worker that copies its tensors into the
# stream or reads a copy back out, would bring the copies back.
if loop_code crates/core/src/worker/stream.rs \
    | grep -nE 'result: Vec<|; total\]|with_capacity\(total|\.to_vec\(\)'; then
  echo "ERROR: crates/core/src/worker/stream.rs holds a second element buffer" >&2
  exit 1
fi
for f in crates/ctrl/src/{tenant,runner}.rs; do
  if loop_code "$f" \
      | grep -nE 'from_(f32|i32)\(&|tensors\.clone\(\)|\.to_vec\(\)|result_tensors_f32\('; then
    echo "ERROR: $f copies a tenant's tensors instead of moving them" >&2
    exit 1
  fi
done

echo "== one executor: every data-plane endpoint behind one loop body"
# Every data-plane state machine (switch shard, worker engine, leaf,
# tenant switch, tenant worker) is a `transport::endpoint::Endpoint`,
# and `Lane::step` is the one loop body that receives for them: one
# `.recv_batch(` call site and one spawn/join scope (`endpoint::run`) in
# transport/src, and one `IdleBackoff` owner (the lane) across
# transport/src and ctrl/src. The hand-written loops it replaced stay
# gone. Every flat run is the engine driver, so no loop drives a whole
# `Worker` over a `TensorStream` copy of its input (the control plane's
# tenant workers do, in ctrl/src). faulty.rs is left out: its
# recv_batch calls only delegate.
transport_code() {
  for f in crates/transport/src/*.rs; do
    if [ "$f" != crates/transport/src/faulty.rs ]; then loop_code "$f"; fi
  done
}
for pat in '\.recv_batch\(' 'thread::scope'; do
  n=$(transport_code | grep -cE "$pat" || true)
  if [ "$n" -ne 1 ]; then
    echo "ERROR: $pat appears $n times in transport/src (want 1: the executor's)" >&2
    exit 1
  fi
done
n=$( (transport_code; for f in crates/ctrl/src/*.rs; do loop_code "$f"; done) \
     | grep -c 'IdleBackoff::new(' || true)
if [ "$n" -ne 1 ]; then
  echo "ERROR: IdleBackoff::new( appears $n times in transport/src + ctrl/src (want 1: the lane)" >&2
  exit 1
fi
for f in $(find crates/*/src -name "*.rs" | sort); do
  if loop_code "$f" | grep -nwE 'shard_switch_loop|reactor_thread_loop|leaf_loop|switch_thread'; then
    echo "ERROR: $f brings back a hand-written data-plane loop" >&2
    exit 1
  fi
done
if transport_code | grep -nwE 'TensorStream|Worker'; then
  echo "ERROR: transport/src drives a Worker or a TensorStream (engines only)" >&2
  exit 1
fi

echo "== one endpoint on both clocks: netsim drives the executor's endpoints"
# Netsim runs the threads' own endpoints (the switch shard, the §6 leaf,
# the tenant switch, the tenant worker) through one adapter,
# `baselines::switchml::SimEndpoint`. The hand-written sim copies stay
# gone, the Algorithm 3 audit of a reliable switch is built in one
# place (`shard::AuditedSwitch`), and ctrl/src has no sim node of its
# own: the controller is an endpoint too.
for f in $(find crates/*/src -name "*.rs" | sort); do
  if loop_code "$f" | grep -nwE 'CtrlWorkerNode|CtrlSwitchNode|CtrlControllerNode|LeafNode|SwitchMLSwitchNode'; then
    echo "ERROR: $f brings back a hand-written sim copy of an endpoint" >&2
    exit 1
  fi
done
n=$(for f in $(find crates/*/src -name "*.rs"); do loop_code "$f"; done \
     | grep -c 'ReliableOracle::for_switch(' || true)
if [ "$n" -ne 1 ]; then
  echo "ERROR: ReliableOracle::for_switch( has $n call sites in crates/*/src (want 1: AuditedSwitch)" >&2
  exit 1
fi
n=$(for f in crates/ctrl/src/*.rs; do loop_code "$f"; done | grep -c 'impl Node for' || true)
if [ "$n" -ne 0 ]; then
  echo "ERROR: ctrl/src has $n 'impl Node for' (want 0: every machine is an endpoint)" >&2
  exit 1
fi

echo "== one worker codec: updates quantized into the frame, results dequantized out of it"
# The worker drivers (the engines' EngineCtx, the tenants' and netsim's
# TensorStream) quantize a chunk straight into the update frame
# (`WireChunk::Fixed32`) and dequantize a result straight out of the
# received payload (`WireElems::dequantize_into`). A quantize or
# dequantize through a scratch integer buffer, or the engines' byte-swap
# of a result into one, would bring the second pass back.
for f in $(find crates/transport/src crates/ctrl/src crates/core/src/worker -name "*.rs" | sort); do
  if loop_code "$f" | grep -nE '\b(de)?quantize_chunk\('; then
    echo "ERROR: $f quantizes or dequantizes through a scratch buffer" >&2
    exit 1
  fi
done
if loop_code crates/transport/src/reactor.rs | grep -n 'overwrite_into('; then
  echo "ERROR: crates/transport/src/reactor.rs byte-swaps a result into a scratch buffer" >&2
  exit 1
fi

echo "== clock-honest receives: no socket read timeout in the UDP transport"
# A socket read timeout is counted in kernel jiffies: on a 250 Hz
# kernel anything armed below 4 ms returns after 8 ms. UDP receives
# poll with MSG_DONTWAIT and wait in ppoll, which the kernel times with
# a high-resolution timer.
if loop_code crates/transport/src/udp.rs | grep -nE 'set_read_timeout|SO_RCVTIMEO'; then
  echo "ERROR: crates/transport/src/udp.rs arms a socket read timeout" >&2
  exit 1
fi

echo "== one way to run an experiment: the CLI builds no fabric and calls no runner"
# udp, hier, chaos, sched and ctrl are flag shims over `run_scenario`;
# building a fabric or calling a runner is `switchml-scenario`'s job.
if loop_code crates/cli/src/commands.rs \
    | grep -nE 'run_allreduce|run_controlled|run_scheduled|_fabric\('; then
  echo "ERROR: crates/cli/src/commands.rs wires a runner by hand" >&2
  exit 1
fi

echo "== non-test line count (reported, not gated)"
bash loc.sh

echo "== cargo build --release"
cargo build --workspace --release

echo "== benchmark ledger: compile + smoke (own workspace, so tier-1 never builds it)"
# benchmark/ path-depends on core/transport/ctrl but is not a workspace
# member: a refactor that drops a re-export it calls would otherwise
# break it silently. --smoke = 3 rounds per workload, every round
# verified bit-for-bit, JSON shape checked; no bounds applied. Writes
# benchmark/results.json (gitignored).
timeout 300 bash benchmark/run.sh --smoke

echo "== cargo test"
cargo test --workspace -q

echo "== slot timers derive from the estimate"
# A slot keeps when it last (re)sent and how often it has backed off;
# its deadline is derived from the engine's current RTO estimate on
# every read. A stored per-slot deadline or timeout freezes the first
# window at the initial RTO after the path has been measured, and holds
# Karn's backoff past the engine's next clean sample.
if loop_code crates/core/src/worker/engine.rs | grep -nE '^\s*(deadline|cur_rto)\s*:'; then
  echo "ERROR: crates/core/src/worker/engine.rs stores a per-slot deadline or timeout" >&2
  exit 1
fi
# The Adaptive rules (estimate, Karn's hold, time-ordered loss
# detection and its proptest), and Fixed/ExponentialBackoff timing held
# to the frozen-deadline model (the proptest), run by name.
timer_tests=$(cargo test --release -q -p switchml-core --lib -- --exact \
    worker::engine::tests::adaptive_first_sample_rederives_the_first_window \
    worker::engine::tests::karn_hold_lapses_at_the_engines_next_clean_sample \
    worker::engine::tests::overtaken_slot_fires_a_reorder_window_after_the_answer \
    worker::engine::tests::slots_sent_with_the_answered_one_are_not_overtaken \
    worker::engine::tests::early_fire_taints_keeps_backoff_and_waits_for_a_later_answer \
    worker::engine::tests::tainted_answer_leaves_the_mark \
    worker::engine::tests::adaptive_early_fires_follow_a_later_answer \
    worker::engine::tests::fixed_and_backoff_timing_matches_frozen_deadlines 2>&1)
if ! grep -q "test result: ok. 8 passed" <<<"$timer_tests"; then
  echo "$timer_tests" >&2
  echo "ERROR: the slot-timer tests did not all run and pass" >&2
  exit 1
fi

echo "== cargo bench --no-run (criterion benches must compile)"
cargo bench --workspace --no-run

echo "== SIMD kernel parity: dispatched vs forced-scalar (release)"
# The quantize/aggregation/byteswap kernels must be bit-identical to
# the scalar reference on BOTH dispatch arms: once with whatever ISA
# the host detects (built for it explicitly so the autovectorized
# scalar baseline is as strong as possible), once with dispatch pinned
# to scalar via the env override.
RUSTFLAGS="-C target-cpu=native" \
    timeout 300 cargo test --release -q -p switchml-core simd
RUSTFLAGS="-C target-cpu=native" SWITCHML_FORCE_SCALAR=1 \
    timeout 300 cargo test --release -q -p switchml-core simd
SWITCHML_FORCE_SCALAR=1 timeout 300 cargo test --release -q -p switchml-core kernel_properties
# The frame CRC likewise: the carry-less-multiply fold and the table
# loop must equal the bytewise reference at every length and split,
# with the fold dispatched and with the table loop pinned (the tests
# also call the fold directly wherever the CPU has it).
timeout 300 cargo test --release -q -p switchml-core checksum
SWITCHML_FORCE_SCALAR=1 timeout 300 cargo test --release -q -p switchml-core checksum

echo "== hotpath smoke (release, sharded runner with n_cores > 1, zero-alloc check)"
cargo run --release -q -p switchml-bench --bin hotpath -- --smoke

# The published hotpath bench must carry the new raw-speed fields: the
# dispatch backend that produced the numbers, the oversubscription
# marker on threaded ATE rows, the reactor scaling section, and the
# frame checksum's table-vs-kernel rows.
for key in '"backend"' '"quantize_kernel_gbps"' '"reactor_scale"' '"engines_per_thread"' \
           '"threaded_ate"' '"crc_table_gbps"' '"crc_kernel_gbps"' '"crc_fold_active"' \
           '"k256_encode_into_ns"' '"k256_view_parse_ns"'; do
  if ! grep -qF "$key" BENCH_hotpath.json; then
    echo "ERROR: BENCH_hotpath.json missing $key" >&2
    exit 1
  fi
done

echo "== udp burst data plane: tests + quick bench (release, hard time budget)"
# Every test whose name mentions udp — transport unit tests plus the
# sharded UDP-vs-channel-vs-reference differentials.
timeout 180 cargo test --workspace -q udp
# The burst receive bench must complete and write a well-formed
# BENCH_udp.json (both sections present, allocation counter included).
timeout 300 cargo run --release -q -p switchml-bench --bin hotpath -- \
    --quick --udp --udp-out /tmp/ci_bench_udp.json
for key in '"bench": "udp"' '"recv_path"' '"allreduce"' '"allocs_per_packet"'; do
  if ! grep -qF "$key" /tmp/ci_bench_udp.json; then
    echo "ERROR: BENCH_udp.json missing $key" >&2
    exit 1
  fi
done
rm -f /tmp/ci_bench_udp.json

echo "== hierarchical data plane: differentials + rack-kill refence + crossover bench (release)"
# Every test whose name mentions hier — the flat-vs-tree-vs-reference
# differentials on channel and UDP, loss on both hops, leaf-kill
# recovery, and the scenario-crate hierarchy runs.
timeout 300 cargo test --workspace -q hier
# A seeded leaf-switch crash must refence only its rack's epoch and
# still produce bit-identical tensors (exits nonzero on violation).
timeout 120 cargo run --release -q -p switchml-cli -- scenario run \
    hier-rack-kill-refence --transport channel
# The `hier` shim's tree and its flat-star rerun, both held to the
# sequential reference.
timeout 120 cargo run --release -q -p switchml-cli -- hier \
    --transport channel --racks 2 --per-rack 2 --flat
# The crossover bench must complete, verify bit-identity at every grid
# point, and write a well-formed BENCH_hierarchy.json.
timeout 600 cargo run --release -q -p switchml-bench --bin hotpath -- \
    --hierarchy --quick --hier-out /tmp/ci_bench_hier.json
for key in '"bench": "hierarchy"' '"crossover"' '"first_win_at_workers"' \
           '"hier_ate_per_sec"' '"flat_ate_per_sec"'; do
  if ! grep -qF "$key" /tmp/ci_bench_hier.json; then
    echo "ERROR: BENCH_hierarchy.json missing $key" >&2
    exit 1
  fi
done
rm -f /tmp/ci_bench_hier.json

echo "== model checker: bounded-exhaustive exploration (release, hard time budget)"
# The two acceptance configurations must explore to exhaustion with
# zero violations. `timeout` enforces the CI wall-clock budget.
timeout 120 cargo run --release -q -p switchml-cli -- check \
    --workers 2 --slots 1 --chunks 2
timeout 300 cargo run --release -q -p switchml-cli -- check \
    --workers 2 --slots 2 --chunks 3
# The seeded mutants must be caught — a checker that cannot fail is
# not checking anything. First Algorithm 3 minus the duplicate check,
# then Algorithm 3 minus the §5.4 epoch fence (hunted with the
# dead-generation ghost adversary move).
if timeout 120 cargo run --release -q -p switchml-cli -- check \
    --switch mutant-no-bitmap >/dev/null 2>&1; then
  echo "ERROR: explorer failed to catch the no-bitmap mutant" >&2
  exit 1
fi
if timeout 120 cargo run --release -q -p switchml-cli -- check \
    --switch mutant-no-epoch --stale-epochs 1 >/dev/null 2>&1; then
  echo "ERROR: explorer failed to catch the no-epoch-fence mutant" >&2
  exit 1
fi

echo "== model checker: regression trace replay (release)"
timeout 300 cargo test --release -q -p switchml-check

echo "== scenario suite: the standing chaos-lab regression gate (release)"
# The full named-scenario library on netsim + channel and the curated
# UDP subset, each run held to its declared expectation oracles. The
# command exits nonzero on any violated oracle — silent corruption,
# a failed resume, a missing epoch bump, leaked tenant faults.
timeout 300 cargo run --release -q -p switchml-cli -- scenario suite
# The old chaos CLI path must keep working as a thin DSL adapter
# (same flags, same exit-code contract) on its historical seed.
timeout 120 cargo run --release -q -p switchml-cli -- chaos \
    --transport channel --workers 3 --elems 8192 --seed 7 --straggler 1
# A worker killed under the control plane on real sockets: the chaos
# fabric must keep the survivors' bursts bursts, or their heartbeats
# starve behind receive timeouts and live workers are declared dead.
timeout 120 cargo run --release -q -p switchml-cli -- chaos \
    --transport udp --workers 3 --ctrl --kill 2 --kill-at-ms 5
# Loss-only faults on real sockets: the faulty port keeps its bursts,
# and its zero-timeout polls must not sleep (each empty poll used to
# cost a socket read timeout, 8 ms on a 250 Hz kernel). The run is
# Adaptive, so time-ordered loss detection must have fired: a loss is
# retransmitted once a later send is answered, not at the RTO floor.
chaos_loss=$(timeout 60 cargo run --release -q -p switchml-cli -- chaos \
    --transport udp --loss 0.01 --dup 0 --reorder 0)
echo "$chaos_loss"
if ! grep -qE '^ *engine: .*"early_retx":[1-9]' <<<"$chaos_loss"; then
  echo "ERROR: chaos --loss 0.01 fired no early retransmission (engine: early_retx 0)" >&2
  exit 1
fi

echo "== multi-tenant scheduler: seeded churn + measured isolation (release)"
# One seeded churn per transport: staggered arrivals, priority
# preemption, live repartition, plus a 10% loss storm aimed at one
# tenant. The command exits nonzero if any job fails to drain, a quiet
# tenant absorbs injected faults, or the quiet p99 completion latency
# leaves 2x of the storm-free baseline.
timeout 180 cargo run --release -q -p switchml-cli -- sched \
    --transport channel --noisy-loss 0.1 --seed 7
timeout 300 cargo run --release -q -p switchml-cli -- sched \
    --transport udp --noisy-loss 0.1 --seed 7
# The scheduler that skipped the slot-disjointness check must be
# caught by the partition-disjoint oracle.
if timeout 120 cargo run --release -q -p switchml-cli -- check \
    --switch mutant-overlap-partition >/dev/null 2>&1; then
  echo "ERROR: explorer failed to catch the overlap-partition mutant" >&2
  exit 1
fi

echo "CI green."
