#!/usr/bin/env bash
# One-command verification gate for PRs:
#   1. tier-1: Release configure + build + full ctest run (the ROADMAP gate);
#   2. sanitize: RelWithDebInfo + ASan/UBSan build + full ctest run;
#   3. tsan: ThreadSanitizer build + the concurrency tests (names matching
#      "Parallel|Scc|Memo|Trace|Batch|Simd|Fleet|Checkpoint|Artifact|Carry|
#      Pool|DeepBatch": the parallel experiment runner — whose episodes each
#      run the serial, memoized expansion engine of DESIGN.md §8/§11, and
#      the engine suites that run one engine per thread the same way — the
#      topology-aware SCC solver's level/chunk threading, the batched
#      decision engine + fleet driver of §13, the persistent work pool +
#      deep-batch pipeline of §16, the bound-artifact round trip under
#      threaded evaluation, and concurrent Eq. 7 backups on their
#      thread-local workspaces, §17), which exercise every cross-thread code
#      path in the repo.
#
#   4. robustness: ASan/UBSan run of the guard/mismatch/fleet-guard/
#      checkpoint/bound-artifact test binaries (the checkpoint and artifact
#      corruption matrices and the ArtifactFuzzTest/CheckpointFuzzTest
#      mutation corpora under ASan are the buffer-overread soak for the one
#      framed-file reader, util::FramedFileReader, its mmap and the zero-copy
#      CSR borrow included) plus a mini chaos soak (robustness_campaign at
#      --faults=50) that must finish with zero crashes or livelocks.
#
#   5. scaling: a smoke run of the RA-Bound scaling campaign (10^5 states,
#      legacy-vs-SCC parity, bitwise determinism across --solver-jobs, and
#      the bound-artifact save/mmap-load round trip at every size), plus an
#      emn_recovery warm-start smoke: --bounds-out then --bounds-in must
#      replay the identical episode; exits nonzero if any check fails.
#
#   6. trace: emn_recovery with --trace-out/--provenance-out, folded through
#      tools/trace2summary.py — a smoke test that the span trace is valid
#      Chrome-trace JSON and the provenance JSONL parses.
#
#   7. throughput: a smoke run of the batched-decision fleet campaign (small
#      widths, Batch-vs-Loop bitwise parity; the binary exits nonzero on any
#      parity mismatch), plus a forced --simd=avx512 emn_recovery smoke: on
#      AVX-512F hosts the episode must run on the widest kernels and match
#      the --simd=scalar episode line-for-line; elsewhere the forced flag
#      must fail fast with the actionable error instead of crashing.
#
#   8. eq7: paper outputs against golden files, and Eq. 7 backup tier
#      parity (DESIGN.md §17). fig5a, fig5b and ablation_bootstrap run under
#      --simd=scalar, avx2 and auto (each tier the host supports) and their
#      stdout must be byte-identical; so must Table 1's, with only the
#      AlgTime column masked. The scalar outputs must also equal
#      tests/golden/, so a change that moves every tier alike fails too.
#
#   9. bench: builds perfbench/ into .bench_build and runs its bench_smoke
#      test (every benchmark workload at tiny sizes, all checks). Then it
#      runs every workload for one second at seed 2006 and compares its
#      output digest with tests/golden/perfbench_digests.txt; any
#      difference, or any failed check of the run, fails the step.
#
#  10. resilience: a smoke run of the fault-tolerant fleet campaign
#      (DESIGN.md §14: guard ladder under every chaos axis, overload
#      shedding, checkpoint round trip + corruption matrix; the binary exits
#      nonzero when any survival/parity/crash-safety gate fails).
#
# Usage: tools/check.sh            # all passes
#        SKIP_SANITIZE=1 tools/check.sh   # skip the ASan/UBSan pass
#        SKIP_TSAN=1 tools/check.sh       # skip the ThreadSanitizer pass
#        SKIP_ROBUSTNESS=1 tools/check.sh # skip the chaos soak
#        SKIP_SCALING=1 tools/check.sh    # skip the scaling smoke
#        SKIP_TRACE=1 tools/check.sh      # skip the trace smoke
#        SKIP_THROUGHPUT=1 tools/check.sh # skip the throughput smoke
#        SKIP_EQ7=1 tools/check.sh        # skip the Eq. 7 tier parity
#        SKIP_BENCH=1 tools/check.sh      # skip the perfbench smoke
#        SKIP_RESILIENCE=1 tools/check.sh # skip the resilience smoke
#        JOBS=8 tools/check.sh     # override parallelism
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

echo "== tier-1: Release build + ctest =="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "${SKIP_SANITIZE:-0}" != "1" ]]; then
  echo "== sanitize: ASan/UBSan build + ctest (CMakePresets.json 'sanitize') =="
  cmake -B build-sanitize -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -fno-sanitize-recover=all"
  cmake --build build-sanitize -j "$JOBS"
  ctest --test-dir build-sanitize --output-on-failure -j "$JOBS"
fi

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "== tsan: ThreadSanitizer build + concurrency tests (CMakePresets.json 'tsan') =="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -fno-sanitize-recover=all"
  # Building only the test binaries that contain the threaded paths keeps
  # the pass fast; gtest_discover_tests registers their cases at build time.
  cmake --build build-tsan -j "$JOBS" \
    --target sim_parallel_experiment_test pomdp_expansion_parity_test \
             pomdp_memo_test pomdp_memo_carry_test linalg_scc_test \
             linalg_parallel_solve_test obs_trace_test trace_parity_test \
             util_simd_test pomdp_batch_parity_test sim_fleet_test \
             sim_fleet_guard_test sim_checkpoint_test bounds_artifact_test \
             util_pool_test pomdp_deep_batch_test bounds_backup_parity_test
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R "Parallel|Scc|Memo|Trace|Batch|Simd|Fleet|Checkpoint|Artifact|Carry|Pool|DeepBatch"
fi

if [[ "${SKIP_ROBUSTNESS:-0}" != "1" ]]; then
  echo "== robustness: sanitized guard/mismatch tests + chaos mini soak =="
  # Reuses the build-sanitize tree (configured above unless the sanitize
  # pass was skipped) so the soak runs under ASan/UBSan.
  cmake -B build-sanitize -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -fno-sanitize-recover=all"
  cmake --build build-sanitize -j "$JOBS" \
    --target controller_guard_test sim_mismatch_test sim_fault_injector_test \
             sim_fleet_guard_test sim_checkpoint_test bounds_artifact_test \
             robustness_campaign
  ctest --test-dir build-sanitize --output-on-failure -j "$JOBS" \
    -R "Guard|Mismatch|FaultInjector|Checkpoint|Artifact"
  ./build-sanitize/bench/robustness_campaign --faults=50 --max-steps=200
fi

if [[ "${SKIP_SCALING:-0}" != "1" ]]; then
  echo "== scaling: RA-Bound campaign smoke (10^5 states, parity + determinism) =="
  # Release tree from pass 1; --smoke caps the sweep at 10^5 states and the
  # binary exits nonzero when legacy/SCC parity or the bitwise
  # across-jobs check fails.
  cmake --build build -j "$JOBS" --target scaling_campaign
  ./build/bench/scaling_campaign --smoke --out=/tmp/recoverd_scaling_smoke.json

  echo "== scaling: bound-artifact warm-start smoke (cold and warm runs must match) =="
  # The warm run mmaps the artifact the cold run saved; a lossless restore
  # means the two episodes are step-for-step identical.
  cmake --build build -j "$JOBS" --target emn_recovery
  ./build/examples/emn_recovery --fault=DB \
    --bounds-out=/tmp/recoverd_warmstart_smoke.rdb > /tmp/recoverd_cold_smoke.txt
  ./build/examples/emn_recovery --fault=DB \
    --bounds-in=/tmp/recoverd_warmstart_smoke.rdb > /tmp/recoverd_warm_smoke.txt
  # Drop the bound-provenance banner lines (cold: "Bootstrapped lower
  # bound... / bound artifact written...", warm: "Warm-started bound
  # set...") and require everything else equal.
  diff <(grep -Ev "bound|^$" /tmp/recoverd_cold_smoke.txt) \
       <(grep -Ev "bound|^$" /tmp/recoverd_warm_smoke.txt)
fi

if [[ "${SKIP_TRACE:-0}" != "1" ]]; then
  echo "== trace: span trace + provenance smoke (emn_recovery → trace2summary) =="
  cmake --build build -j "$JOBS" --target emn_recovery
  ./build/examples/emn_recovery --trace-out=/tmp/recoverd_trace_smoke.json \
    --trace-level=full --provenance-out=/tmp/recoverd_provenance_smoke.jsonl \
    > /dev/null
  # trace2summary exits nonzero when the file is not valid trace JSON; the
  # grep asserts the decide() phase actually got instrumented.
  python3 tools/trace2summary.py /tmp/recoverd_trace_smoke.json \
    | grep -q "controller.decide"
  [[ -s /tmp/recoverd_provenance_smoke.jsonl ]]
fi

if [[ "${SKIP_THROUGHPUT:-0}" != "1" ]]; then
  echo "== throughput: batched fleet campaign smoke (Batch-vs-Loop bitwise parity) =="
  # Small widths, no speedup gate; the binary exits nonzero when a Batch
  # fleet and a Loop fleet from the same seed diverge by a single bit.
  cmake --build build -j "$JOBS" --target throughput_campaign
  ./build/bench/throughput_campaign --smoke --out=/tmp/recoverd_throughput_smoke.json

  echo "== throughput: forced --simd=avx512 smoke =="
  cmake --build build -j "$JOBS" --target emn_recovery
  if grep -q avx512f /proc/cpuinfo; then
    # AVX-512F host: the forced run must succeed AND be bitwise-identical
    # (line-for-line on stdout) to the scalar reference episode.
    ./build/examples/emn_recovery --fault=DB --simd=avx512 \
      > /tmp/recoverd_avx512_smoke.txt
    ./build/examples/emn_recovery --fault=DB --simd=scalar \
      > /tmp/recoverd_scalar_smoke.txt
    diff /tmp/recoverd_avx512_smoke.txt /tmp/recoverd_scalar_smoke.txt
  else
    # No AVX-512F: forcing the tier must fail fast with the actionable
    # message, not crash or silently fall back.
    if ./build/examples/emn_recovery --fault=DB --simd=avx512 \
        > /dev/null 2> /tmp/recoverd_avx512_err.txt; then
      echo "forced --simd=avx512 unexpectedly succeeded on a non-AVX-512 host" >&2
      exit 1
    fi
    grep -q -- "--simd=auto" /tmp/recoverd_avx512_err.txt
  fi
fi

if [[ "${SKIP_EQ7:-0}" != "1" ]]; then
  echo "== eq7: golden paper outputs + Eq. 7 tier parity (fig5a/5b, ablation_bootstrap, Table 1) =="
  cmake --build build -j "$JOBS" --target fig5a_bounds_improvement fig5b_bound_vectors \
    ablation_bootstrap table1_fault_injection
  tiers=(scalar)
  if grep -q avx2 /proc/cpuinfo; then tiers+=(avx2); fi
  tiers+=(auto)
  # Table 1's AlgTime column is wall-clock time: blank it by character
  # position (field splitting would misread the two-word "Most Likely").
  mask_algtime() {
    awk '/AlgTime\(ms\)/ { start = index($0, "AlgTime(ms)"); stop = index($0, "Actions") }
         /^$/ { start = 0 }
         start && length($0) >= stop {
           pad = ""; for (i = start; i < stop; ++i) pad = pad "#"
           $0 = substr($0, 1, start - 1) pad substr($0, stop)
         }
         { print }'
  }
  for tier in "${tiers[@]}"; do
    ./build/bench/fig5a_bounds_improvement --simd="$tier" > "/tmp/recoverd_eq7_fig5a_$tier.txt"
    ./build/bench/fig5b_bound_vectors --simd="$tier" > "/tmp/recoverd_eq7_fig5b_$tier.txt"
    ./build/bench/ablation_bootstrap --faults=100 --simd="$tier" \
      > "/tmp/recoverd_eq7_ablation_$tier.txt"
    ./build/bench/table1_fault_injection --faults=200 --faults-d2=20 --faults-d3=5 \
      --simd="$tier" 2> /dev/null | mask_algtime > "/tmp/recoverd_eq7_table1_$tier.txt"
  done
  # Recorded from the scalar tier; regenerate them only for a change that
  # is meant to move the paper's numbers, and say so in CHANGES.md.
  diff tests/golden/fig5a.txt /tmp/recoverd_eq7_fig5a_scalar.txt
  diff tests/golden/fig5b.txt /tmp/recoverd_eq7_fig5b_scalar.txt
  diff tests/golden/ablation_bootstrap.txt /tmp/recoverd_eq7_ablation_scalar.txt
  diff tests/golden/table1.txt /tmp/recoverd_eq7_table1_scalar.txt
  for tier in "${tiers[@]:1}"; do
    for out in fig5a fig5b ablation table1; do
      diff "/tmp/recoverd_eq7_${out}_scalar.txt" "/tmp/recoverd_eq7_${out}_$tier.txt"
    done
  done
fi

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
  echo "== bench: perfbench build + bench_smoke (every workload, tiny sizes) =="
  # Configured the way perfbench/run.py configures it, so either can reuse
  # the other's tree.
  if [[ ! -f .bench_build/CMakeCache.txt ]]; then
    generator=()
    if command -v ninja > /dev/null; then generator=(-G Ninja); fi
    cmake -S perfbench -B .bench_build "${generator[@]}" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build .bench_build -j "$JOBS"
  ctest --test-dir .bench_build --output-on-failure
  echo "== bench: perfbench output digests against tests/golden/perfbench_digests.txt =="
  # A digest covers what a workload computed (beliefs, actions, costs,
  # bounds), so a change meant to be output-neutral keeps all four.
  mkdir -p /tmp/recoverd_digests
  while read -r workload want; do
    # recoverd_bench exits nonzero when any of the run's checks fails.
    if ! out=$(./.bench_build/recoverd_bench --workload="$workload" --seed=2006 \
                 --seconds=1 --trace=0 --scratch=/tmp/recoverd_digests); then
      echo "$out"
      echo "digests: $workload failed a check" >&2
      exit 1
    fi
    got=$(awk -v w="$workload" '$1 == w && $2 == "digest" { print $3 }' <<< "$out")
    if [[ "$got" != "$want" ]]; then
      echo "digests: $workload digest $got, recorded $want" >&2
      exit 1
    fi
  done < tests/golden/perfbench_digests.txt
fi

if [[ "${SKIP_RESILIENCE:-0}" != "1" ]]; then
  echo "== resilience: fault-tolerant fleet campaign smoke (guards, chaos, checkpoints) =="
  # Small guarded fleets through every chaos axis plus the checkpoint
  # corruption matrix; the binary exits nonzero when any cell aborts, the
  # quota is exceeded, parity breaks, or a corrupted checkpoint is accepted.
  cmake --build build -j "$JOBS" --target resilience_campaign
  ./build/bench/resilience_campaign --smoke --out=/tmp/recoverd_resilience_smoke.json
fi

echo "All checks passed."
