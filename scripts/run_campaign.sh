#!/usr/bin/env sh
# Regenerate every table and figure of the paper from a clean tree.
# Results land in ./results; see EXPERIMENTS.md for the expected shapes.
# A bench that exits nonzero does not stop the run: every bench runs, and
# the script then lists the failed ones and exits 1.
set -eu

failed=""

# bench LOG CMD...: run CMD, showing its output and saving it to LOG, and
# record a nonzero exit (sh has no pipefail, so `CMD | tee LOG` alone
# would lose CMD's status)
bench() {
  log=$1
  shift
  rm -f "$log.status"
  { "$@" || echo "$?" >"$log.status"; } | tee "$log"
  if [ -f "$log.status" ]; then
    failed="$failed
  $log: exit $(cat "$log.status")"
    rm -f "$log.status"
  fi
}

# gtest FILTER CMD...: run the gtest binary command CMD (an `env VAR=...`
# prefix allowed) on the tests FILTER selects. gtest passes a filter that
# selects nothing ("0 tests ran", exit 0), so every ':'-separated pattern
# of FILTER is listed first (--gtest_list_tests), and a pattern that
# selects no test fails the script
gtest() {
  filter=$1
  shift
  if ! printf '%s\n' "$filter" | tr ':' '\n' | while read -r pattern; do
    "$@" --gtest_filter="$pattern" --gtest_list_tests </dev/null |
      grep -q '^  ' || {
      echo "run_campaign.sh: '$pattern' selects no test of $*" >&2
      exit 1
    }
  done; then
    exit 1
  fi
  "$@" --gtest_filter="$filter"
}

cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

mkdir -p results
cd results

echo "== Figure 1 =="
bench fig1.txt ../build/bench/fig1_binning

echo "== Table 1 =="
bench table1.txt ../build/bench/table1_runs

echo "== Figures 2 and 3 (scaled default) =="
bench fig2_fig3.txt ../build/bench/fig2_fig3_placement

echo "== Figures 2 and 3 (paper-shape workload) =="
bench fig2_fig3_paper_scale.txt \
  env SENSEI_PAPER_SCALE=1 ../build/bench/fig2_fig3_placement

echo "== microbenches / ablations =="
for b in ../build/bench/um_*; do
  name=$(basename "$b")
  echo "-- $name"
  bench "$name.txt" "$b" --benchmark_min_time=0.05
done

# um_pool_reuse additionally writes the pooled-vs-unpooled campaign
# (per-iteration virtual timings + pool hit rate) as machine-readable JSON
if [ -f BENCH_pool.json ]; then
  echo "wrote results/BENCH_pool.json"
fi
# um_sched writes the skewed-load placement campaign (static Eq. 1 vs
# least-loaded vs cost-model) and the backpressure memory experiment
if [ -f BENCH_sched.json ]; then
  echo "wrote results/BENCH_sched.json"
fi
# um_compress writes the per-codec ratios, the in transit payload
# reduction (the binary exits nonzero below the 2x target), and the
# eight-case campaign with compression on vs off
if [ -f BENCH_compress.json ]; then
  echo "wrote results/BENCH_compress.json"
fi
# um_exec writes real wall-clock for the sharded binning region and the
# eight-case campaign under VP_EXEC=serial vs threads; on machines with
# >= 4 hardware threads the binary exits nonzero unless the threaded
# region is at least 2x faster than serial
if [ -f BENCH_exec.json ]; then
  echo "wrote results/BENCH_exec.json"
fi
# um_service writes the multi-tenant service campaign: aggregate frames/s
# and p99 latency for 1/2/4/8 streaming clients plus the kill experiment;
# on machines with >= 4 hardware threads the binary exits nonzero unless
# 4 clients reach 2x the aggregate throughput of 1 and killing 1 of 4
# tenants costs the survivors < 10% throughput
if [ -f BENCH_service.json ]; then
  echo "wrote results/BENCH_service.json"
fi
# um_layout writes the SIMD-switch campaign: real wall-clock for the
# SoA+SIMD nbody force kernel vs the seed's scalar loop, plus the binning
# bit-exactness matrix across serial x threads execution; the
# binary exits nonzero when the matrix diverges, and on machines with
# >= 4 hardware threads it also gates on the 1.5x force speedup
if [ -f BENCH_layout.json ]; then
  echo "wrote results/BENCH_layout.json"
fi
# um_tune writes the auto-tuner campaign: every hand-written config scored
# on the comparison campaign, the tuned configuration's winning margin,
# annealer-vs-random search quality, and the online controller's
# shifting-workload adaptation; the binary exits nonzero unless the tuned
# config strictly beats the best hand-written one, the annealer beats
# random at equal budget, the online controller improves the shifted
# workload, and the fixed-seed search is bit-reproducible
if [ -f BENCH_tune.json ]; then
  echo "wrote results/BENCH_tune.json"
fi
# um_viz writes the steerable visualization campaign: 4-viewer streaming
# with one comatose viewer (drop-oldest must fire while the responsive
# viewers' p99 frame age stays bounded and no publish stalls the step
# loop), a mid-run resolution+variable steer (applied within <= 2 step
# boundaries without killing the viewer session), and the bit-exactness
# probe (framebuffers identical across serial x threads execution);
# the binary exits nonzero when a gate fails (the timing gate needs
# >= 4 hardware threads, the steer and bit-exact gates always apply)
if [ -f BENCH_viz.json ]; then
  echo "wrote results/BENCH_viz.json"
fi

echo "== end-to-end benchmark smoke run =="
# bench/e2e's own build and self test: its step loop is bit-identical to
# newton::Driver::Run, and every workload's output checks pass (every
# binning holds every body and all the mass, every histogram counts every
# body)
bench e2e_smoke.txt bash ../bench/e2e/run.sh --smoke

echo "== checked pooled campaign (VP_CHECK=1) =="
# the race/lifetime checker instruments the whole pooled campaign; any
# violation (use-after-free, unsynced access, cross-stream race, double
# free, leak) makes um_pool_reuse exit nonzero and fails the run
bench um_pool_reuse_checked.txt env VP_CHECK=1 ../build/bench/um_pool_reuse \
  --benchmark_min_time=0.05
echo "== scheduler campaign (VP_CHECK=1) =="
# the adaptive-scheduler campaign under the checker: placement policies,
# the bounded pipeline (including its consumer thread in the labelled
# tests), and the backpressure matrix must all be race/lifetime clean
bench um_sched_checked.txt env VP_CHECK=1 ../build/bench/um_sched \
  --benchmark_min_time=0.05
echo "== compression campaign (VP_CHECK=1) =="
# the codec sweep, the compressed in transit pipeline, and the on/off
# campaign under the checker; the binary also gates on the 2x in transit
# payload reduction, so a ratio regression fails the run
bench um_compress_checked.txt env VP_CHECK=1 ../build/bench/um_compress \
  --benchmark_min_time=0.05
echo "== execution-engine campaign (VP_CHECK=1 VP_EXEC=threads) =="
# the threaded execution engine under the checker: deferred kernel
# bodies, sharded host regions, and real copy queues must be
# race/lifetime clean; the binary also gates on the 2x wall-clock
# speedup where the hardware has >= 4 threads
bench um_exec_checked.txt \
  env VP_CHECK=1 VP_EXEC=threads ../build/bench/um_exec \
  --benchmark_min_time=0.05
echo "== multi-tenant service campaign (VP_CHECK=1) =="
# the service's dispatcher, worker pool, and heartbeat threads under the
# checker: the scaling sweep and the mid-run tenant kill must be
# race/lifetime clean; the binary also gates on the 2x client-scaling
# and <10% survivor-loss targets where the hardware has >= 4 threads
bench um_service_checked.txt env VP_CHECK=1 ../build/bench/um_service \
  --benchmark_min_time=0.05
echo "== auto-tuner smoke gate (VP_CHECK=1) =="
# the tuner's campaigns under the checker, which checks every operation
# of every step: hand-config scoring, a short warm-started comparison
# search (the committed tuned config keeps the margin gate honest at the
# reduced budget), the annealer-vs-random proxy searches, and both
# shifting-workload runs must be race/lifetime clean; every acceptance
# gate still applies
bench um_tune_checked.txt env VP_CHECK=1 VP_TUNE_BUDGET=6 \
  ../build/bench/um_tune --benchmark_min_time=0.05
echo "== steerable visualization campaign (VP_CHECK=1) =="
# the streamer's fan-out, the viewer threads, the steer control path,
# and the render kernels (host shards and the device path) under the
# checker; the steer and serial x threads bit-exact gates still apply
bench um_viz_checked.txt env VP_CHECK=1 ../build/bench/um_viz \
  --benchmark_min_time=0.05
echo "== layout-engine campaign (VP_CHECK=1) =="
# the serial x threads binning matrix and the lane-vectorized force
# kernel under the checker; the bit-exactness matrix still applies, so
# an exec mode that perturbs the binning grids fails the run
bench um_layout_checked.txt env VP_CHECK=1 ../build/bench/um_layout \
  --benchmark_min_time=0.05
echo "== scheduler-labelled tests =="
ctest --test-dir ../build -L sched --output-on-failure

echo "== checker-labelled tests =="
ctest --test-dir ../build -L check --output-on-failure

echo "== compression-labelled tests =="
ctest --test-dir ../build -L compress --output-on-failure

echo "== execution-engine tests =="
ctest --test-dir ../build -L exec --output-on-failure

echo "== service tests =="
ctest --test-dir ../build -L svc --output-on-failure

echo "== auto-tuner tests =="
ctest --test-dir ../build -L tune --output-on-failure

echo "== layout-engine tests =="
ctest --test-dir ../build -L layout --output-on-failure

echo "== visualization tests =="
ctest --test-dir ../build -L viz --output-on-failure

echo "== configuration tests =="
ctest --test-dir ../build -L config --output-on-failure

echo "== sanitized scheduler + compression runs (-DVP_SANITIZE=ON) =="
# a separate ASan+UBSan build configuration; the pipeline's consumer
# thread, the drop/coalesce task destruction paths, and the codec byte-twiddling
# (shuffle, varint, quantize) run under the sanitizers
cmake -B ../build-sanitize -S .. -G Ninja -DVP_SANITIZE=ON
cmake --build ../build-sanitize --target um_sched testSched testExtensions um_compress testCompress testService testInTransit testTune testViz testLayout um_layout testBinning testMinimpi testConfigs testKnob testExec vp_tune testNewton testHamrAccess testSensei testAutocorrelation
bench um_sched_sanitized.txt ../build-sanitize/bench/um_sched \
  --benchmark_min_time=0.05
../build-sanitize/tests/testSched
# asynchronous analyses on the pipeline, inline and on its consumer
# thread, under ASan+UBSan. UBSan recovers by default, so these runs and
# the binning, back-end and minimpi runs below halt on the first report
gtest 'AsyncRunner.*' \
  env UBSAN_OPTIONS=halt_on_error=1 ../build-sanitize/tests/testExtensions
# every back end's tasks on the AnalysisAdaptor base's one pipeline and
# duplicated communicator: histograms, column statistics,
# autocorrelation windows and posthoc writes in both methods, on 1 to 3
# ranks, a switch from asynchronous to lockstep under coalescing
# backpressure, and the malformed per-analysis attributes, under
# ASan+UBSan
UBSAN_OPTIONS=halt_on_error=1 ../build-sanitize/tests/testSensei
UBSAN_OPTIONS=halt_on_error=1 ../build-sanitize/tests/testAutocorrelation
gtest 'ColumnStatistics.*' \
  env UBSAN_OPTIONS=halt_on_error=1 ../build-sanitize/tests/testExtensions
bench um_compress_sanitized.txt \
  env VP_CHECK=1 ../build-sanitize/bench/um_compress \
  --benchmark_min_time=0.05
../build-sanitize/tests/testCompress
# the service's ring transfers, frame reassembly, and session teardown
# paths under ASan+UBSan
../build-sanitize/tests/testService
# the in transit endpoint's table decoding and its per-frame failure
# contract (a corrupt table, a hostile chunk header, a short read, a
# missed deadline) under ASan+UBSan
../build-sanitize/tests/testInTransit
# the tuner's knob-space serialization, evaluator state resets, and the
# online controller's apply/revert closures under ASan+UBSan
../build-sanitize/tests/testTune
# framebuffer fills, per-viewer downsample/codec paths, the steer wire
# encodings, and the streamer's session teardown under ASan+UBSan
../build-sanitize/tests/testViz
# the codec's per-plane shuffle, the <layout simd> configuration, the
# serial x threads binning matrix and the lane-vectorized force kernel
# under ASan+UBSan; um_layout keeps its bit-exactness matrix gate in the
# sanitized build too
../build-sanitize/tests/testLayout
bench um_layout_sanitized.txt \
  env VP_CHECK=1 ../build-sanitize/bench/um_layout \
  --benchmark_min_time=0.05
# the packed binning record of a 4-rank mixed-op binning, the data
# adaptor's shared per-step snapshot and the axis ranges its gather
# folds for asynchronous binnings, the batch's range pass (one scan per
# source column and block, through the first reader's view), the resident record
# reset by its compaction and reallocated on a new shape, and the
# lockstep batch (host halves queued until the step's last lockstep
# binning, a Finalize or delete before ReleaseData running the queue,
# each device's share compacted into the leading instance's buffers and
# read back into its pinned arena at per-record offsets), under
# ASan+UBSan
gtest 'Binning.MultiRankReductionMatchesSerial:BinningPacked.*:BinningSnapshot.*:BinningSharedRange.*:BinningResident.*:BinningBatch.*' \
  env UBSAN_OPTIONS=halt_on_error=1 ../build-sanitize/tests/testBinning
# the solver's ring pass (one packed block per hop, staged through the
# resident device buffer) against its host reference on 1 to 5 ranks,
# the bridge's resident derived columns, a host view of a deep copy
# still in flight on another stream, a deep copy's synchronize() waiting
# on its transfer's event only, what a deep copy guarantees when it
# returns (sync, in flight from a device, complete from the host), and
# packed deep copies (slices of one gathered block that outlive their
# siblings, a block dropped unread, pooled staging, the parts' ranges
# the gather folds, ranges dropped before their readback ran), under
# ASan+UBSan
gtest 'NewtonRing.*:NewtonBridge.*' ../build-sanitize/tests/testNewton
gtest 'HamrMoveOrdering.*:HamrSyncEvent.*:HamrDeepCopy.*:HamrPackedCopy.*' \
  ../build-sanitize/tests/testHamrAccess
# serial vs threads: bit-exact binning grids and virtual time on the
# host and under both device strategies, and a host campaign's virtual
# timings independent of the pool width, under ASan+UBSan
gtest 'ExecEquality.*' ../build-sanitize/tests/testExec
# all of minimpi (point to point, collectives with empty messages on
# Gather's non-root ranks, the compact record's pack, unpack and sparse
# allreduce, one record or a batch, the hostile chunk headers), stopping
# at the first UBSan report
UBSAN_OPTIONS=halt_on_error=1 ../build-sanitize/tests/testMinimpi
# the knob rows: every shipped config, the golden effective config, the
# env matrix, every row's bad attribute/variable and vp_tune's malformed
# --budget under ASan+UBSan
ctest --test-dir ../build-sanitize -L config --output-on-failure

echo "== ThreadSanitizer execution-engine run (-DVP_TSAN=ON) =="
# a separate TSan build configuration (mutually exclusive with ASan):
# the worker queues, sharded regions, fences and event edges of the
# threaded engine run under the race detector
cmake -B ../build-tsan -S .. -G Ninja -DVP_TSAN=ON
cmake --build ../build-tsan --target testExec um_exec testService testTune testViz testLayout testBinning testMinimpi testConfigs testKnob vp_tune testNewton testHamrAccess testSched testExtensions testSensei testAutocorrelation
# all of testExec, the 1000-seed random stream/event/copy/sharded-kernel
# DAG sweep included: it sets each run's exec mode itself, and every
# tenth seed runs under the threaded engine with the checker on
../build-tsan/tests/testExec
# the bounded pipeline's resident consumer thread: submitters handing it
# tasks, waiting for its finishes and draining it, also across a switch
# between serial and threads exec, and asynchronous analyses running on
# it, under the race detector
../build-tsan/tests/testSched
gtest 'AsyncRunner.*' ../build-tsan/tests/testExtensions
# the same back ends with every asynchronous task on its pipeline's
# consumer thread (VP_EXEC=threads): the base's drains, the duplicated
# communicator's collectives and each back end's result under its lock,
# under the race detector
VP_EXEC=threads ../build-tsan/tests/testSensei
# histograms (each a one-axis count binning) on host and devices, both
# methods, their asynchronous tasks on consumer threads, with the checker
# on
gtest 'Histogram.*' \
  env VP_CHECK=1 VP_EXEC=threads ../build-tsan/tests/testSensei
VP_EXEC=threads ../build-tsan/tests/testAutocorrelation
gtest 'ColumnStatistics.*' \
  env VP_EXEC=threads ../build-tsan/tests/testExtensions
bench um_exec_tsan.txt env VP_EXEC=threads ../build-tsan/bench/um_exec \
  --benchmark_min_time=0.05
# the service's dispatcher/worker/heartbeat thread interplay under the
# race detector
../build-tsan/tests/testService
# lockstep evaluator campaigns (rank threads under the cooperative
# scheduler) and the online controller under the race detector
../build-tsan/tests/testTune
# the publisher step loop vs viewer poll threads vs the steer control
# path: the streamer's pending-slot and fan-out locking under the race
# detector
../build-tsan/tests/testViz
# the serial x threads binning matrix and the lane-vectorized force
# kernel under the threaded engine: the serial-vs-threads equality tests
# must be race clean
../build-tsan/tests/testLayout
# 4 rank threads meeting in the packed binning record's collectives
gtest 'Binning.MultiRankReductionMatchesSerial:BinningPacked.*' \
  ../build-tsan/tests/testBinning
# async binnings sharing one snapshot copy per column under
# <exec mode="threads">: consumer threads drop the last references to
# the shared copies while the simulation thread drops the snapshot's;
# then snapshot copies still in flight while the simulation rewrites
# the columns on their stream, ten columns gathered into one block
# whose slices outlive their siblings, and consumer threads reducing
# their axes from the ranges the snapshot's gather folded, with the
# checker on
gtest 'BinningSnapshot.SharedCopiesAreCheckerCleanUnderExecThreads:BinningSnapshot.SimulationWritesAfterTheSnapshotDoNotReachIt:BinningSnapshot.OneTransferPerColumnSet:BinningSnapshot.AsyncRangesRideTheSnapshot' \
  env VP_CHECK=1 ../build-tsan/tests/testBinning
# lockstep binnings of two rank threads, each step's batch scanning its
# axes through views on the rank's device (some moved from another)
# under <exec mode="threads">, with the checker on
gtest 'BinningSharedRange.CheckerCleanUnderExecThreads' \
  env VP_CHECK=1 ../build-tsan/tests/testBinning
# the lockstep batch under <exec mode="threads"> (each test selects it):
# 4 rank threads meet in deferred AllreduceCompacts while the device
# workers still run their readbacks, a render reads its binning
# mid-step, and a Finalize or delete runs the queue, with the checker on
gtest 'BinningBatch.*' env VP_CHECK=1 ../build-tsan/tests/testBinning
# async and lockstep binnings reusing their resident records across
# steps under <exec mode="threads">: consumer threads and the caller
# take turns on each record, with the checker on
gtest 'BinningResident.CheckerCleanUnderExecThreads' \
  env VP_CHECK=1 ../build-tsan/tests/testBinning
# rank threads passing packed blocks around the ring and repartitioning
# under the bridge's resident derived columns, and under
# <exec mode="threads"> the staged uploads and force kernels on worker
# queues, with the checker on for the threaded ring case; then a host
# view moved out of a deep copy still in flight on another device, two
# threads synchronizing one shared copy on its transfer's event, deep
# copies left in flight behind a pending kernel, and a packed copy's
# ranges dropped before their readback ran
gtest 'NewtonRing.*:NewtonBridge.*' ../build-tsan/tests/testNewton
gtest 'NewtonRing.CheckerCleanUnderExecThreads' \
  env VP_CHECK=1 ../build-tsan/tests/testNewton
gtest 'HamrMoveOrdering.*:HamrSyncEvent.*:HamrDeepCopy.*:HamrPackedCopy.*' \
  env VP_CHECK=1 ../build-tsan/tests/testHamrAccess
# up to 16 rank threads meeting in the sparse allreduce: the last
# arrival's merge reads every rank's compact record
gtest 'RankCounts/CompactRanks.*:CompactAllreduce.*' \
  ../build-tsan/tests/testMinimpi
# 4 rank threads running Initialize at once against the one-time knob
# rows (each test is its own process, so the first use races for real)
ctest --test-dir ../build-tsan -L config --output-on-failure

if command -v gnuplot >/dev/null 2>&1; then
  gnuplot ../scripts/plot_fig2_fig3.gp
  echo "wrote results/fig2.png, results/fig3.png"
fi

echo "done; outputs in ./results"
if [ -n "$failed" ]; then
  echo "FAILED benches:$failed"
  exit 1
fi
