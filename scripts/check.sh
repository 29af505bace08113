#!/usr/bin/env bash
# pargpu correctness matrix: one command that builds and tests the tree
# under every supported analysis configuration and fails loudly on the
# first problem.
#
#    1. Release + contracts (-DPARGPU_CHECKS=ON) + -Werror, full ctest
#       (the build compiles every header on its own; ctest runs
#       pargpu_lint and the selftest that proves its rules)
#    2. AddressSanitizer build, full ctest
#    3. UndefinedBehaviorSanitizer build (no-recover), full ctest
#       (stages 1-3 run ctest twice: PARGPU_THREADS=1 and =nproc)
#    4. ThreadSanitizer build, threading-focused ctest subset (with
#       the scene and texture tests: their row bands write one texel
#       vector from several threads; and the trace collector test,
#       whose lock several threads take): once as-is, then the
#       tile-stream subset (golden digests and the session and serve
#       jobs included) at PARGPU_THREADS=2, 3 and =nproc, where
#       idle pool threads join every frame's tile streams. This is the
#       one check of the lock and serial-memory-phase discipline
#    5. -DPARGPU_TRACING=OFF build (macros compiled out), tracing subset
#       plus the golden digests
#    6. SIMD bit-identity: the one kernel source is built at three ISA
#       levels (scalar, SSE, AVX2); with each runnable tier forced via
#       PARGPU_SIMD, the determinism, kernel and SSIM tests pass and the
#       harness metrics export is diffed field-by-field against the
#       forced-scalar one (only the dispatch-reporting fields may
#       differ)
#    7. filter-mode matrix: a harness metrics export under every filter
#       mode of scenarioRegistry() (the --run-scenario list of --help),
#       diffed across modes — selecting a mode may change values but
#       never the exported key set, and each export must report its own
#       mode (docs/FILTERING.md); determinism_test and golden_test cover
#       every mode's results in stage 1
#    8. serve round-trip + amortization gate: pargpu_report.py boots the
#       ASan and UBSan pargpu_serve binaries and drives a real sweep
#       through the framed protocol (docs/SERVE.md), then perf_serve's
#       BENCH_serve.json is gated — a persistent session must beat a
#       fresh boot per sweep by >= 3x, bit-identically
#
# Each stage is timed; a PASS/FAIL summary table is printed at the end
# (or at the first failure).
#
# Usage: scripts/check.sh [-j N]
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
NPROC="$(nproc 2>/dev/null || echo 4)"
JOBS="$NPROC"
while getopts "j:" opt; do
    case "$opt" in
    j) JOBS="$OPTARG" ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
    esac
done

cd "$ROOT"

# --- stage runner ---------------------------------------------------------
# Stage bodies are functions. run_stage executes one in a subshell with
# errexit live (so any failing command aborts the stage), records
# PASS/FAIL plus wall time, and stops the matrix at the first failure.
SUMMARY=()

summary() {
    echo
    echo "==== check.sh summary ===="
    printf '%-7s %-52s %s\n' "status" "stage" "time"
    local row st nm tm
    for row in "${SUMMARY[@]}"; do
        IFS='|' read -r st nm tm <<<"$row"
        printf '%-7s %-52s %4ss\n' "$st" "$nm" "$tm"
    done
}

run_stage() {
    local name="$1" fn="$2" rc=0 t0 t1
    echo
    echo "==== check.sh: $name ===="
    t0=$(date +%s)
    set +e
    ( set -euo pipefail; "$fn" )
    rc=$?
    set -e
    t1=$(date +%s)
    if [ "$rc" -eq 0 ]; then
        SUMMARY+=("PASS|$name|$((t1 - t0))")
    else
        SUMMARY+=("FAIL|$name|$((t1 - t0))")
        summary
        echo "check.sh: stage '$name' failed (exit $rc)" >&2
        exit 1
    fi
}

configure_build_test() {
    local dir="$1"
    shift
    local ctest_args=("--output-on-failure" "-j" "$JOBS")
    cmake -B "$dir" -S . "$@" >"$dir.configure.log" 2>&1 || {
        cat "$dir.configure.log" >&2
        return 1
    }
    cmake --build "$dir" -j "$JOBS"
    # Single-threaded and fully threaded pools: a test that only passes
    # (or only terminates) at one pool size fails here.
    local threads
    for threads in 1 "$NPROC"; do
        echo "--- ctest with PARGPU_THREADS=$threads ---"
        PARGPU_THREADS="$threads" ctest --test-dir "$dir" "${ctest_args[@]}"
    done
}

# --- stages ---------------------------------------------------------------

stage_release() {
    configure_build_test build-check \
        -DCMAKE_BUILD_TYPE=Release -DPARGPU_CHECKS=ON -DPARGPU_WERROR=ON
}

stage_asan() {
    configure_build_test build-asan \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPARGPU_ASAN=ON -DPARGPU_CHECKS=ON
}

stage_ubsan() {
    configure_build_test build-ubsan \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPARGPU_UBSAN=ON -DPARGPU_CHECKS=ON
}

stage_tsan() {
    cmake -B build-tsan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPARGPU_TSAN=ON \
        >build-tsan.configure.log 2>&1 \
        || { cat build-tsan.configure.log >&2; return 1; }
    cmake --build build-tsan -j "$JOBS"
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
        -R "threadpool_test|determinism_test|pipeline_test|integration_test|session_test|serve_test|arena_test|ssim_test|scenes_test|procedural_test|mipmap_test|tracing_test"
    # Idle pool threads join every renderFrame()'s tile streams, so TSAN
    # sees helpers logging tiles into the shared framebuffer planes and
    # into slots from the shared free list, the per-cluster L1 replay
    # drains and the commit drain overlapping one another, slots
    # recycled across threads, and helpers leaving for queued tasks.
    # pipeline_test renders a lone frame that must get helpers, and the
    # session and serve tests add frames side by side whose threads,
    # once out of frames, join the streams of those still rendering.
    # Two threads, three (fewer than the 8 clusters some tests use and
    # not a divisor of 8, so the cluster drains interleave unevenly) and
    # every core.
    local threads
    for threads in 2 3 "$NPROC"; do
        echo "--- tile streams with PARGPU_THREADS=$threads ---"
        PARGPU_THREADS="$threads" \
            ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
            -R "threadpool_test|determinism_test|pipeline_test|integration_test|arena_test|golden_test|session_test|serve_test"
    done
}

stage_notrace() {
    cmake -B build-notrace -S . \
        -DCMAKE_BUILD_TYPE=Release -DPARGPU_TRACING=OFF \
        >build-notrace.configure.log 2>&1 \
        || { cat build-notrace.configure.log >&2; return 1; }
    cmake --build build-notrace -j "$JOBS" \
        --target tracing_test determinism_test golden_test pargpu_harness
    ctest --test-dir build-notrace --output-on-failure -j "$JOBS" \
        -R "tracing_test|determinism_test|golden_test"
}

# Plain Release (contracts off): the forced-tier runs of stage 6 and the
# perf_serve binary of stage 8 share it, and each stage configures it
# so that either runs on its own.
configure_release() {
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
        >build-release.configure.log 2>&1 \
        || { cat build-release.configure.log >&2; return 1; }
}

stage_simd_identity() {
    # Every runnable tier must render the same frames and register the
    # same metrics as forced scalar; only the dispatch-reporting fields
    # (run.simd_dispatch, registry simd.dispatch / texunit.simd_width)
    # may differ.
    configure_release
    cmake --build build-release -j "$JOBS" \
        --target determinism_test simd_kernel_test ssim_test pargpu_harness
    local tiers="scalar sse"
    if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
        tiers="$tiers avx2"
    fi
    local tier
    for tier in $tiers; do
        PARGPU_SIMD="$tier" ctest --test-dir build-release \
            --output-on-failure -j "$JOBS" \
            -R "^(determinism_test|simd_kernel_test|ssim_test)$"
    done
    local simd_diff="$ROOT/build-release/simd-diff"
    mkdir -p "$simd_diff"
    # Shared field-by-field diff: --allow names the exact keys that may
    # differ.
    cat >"$simd_diff/diff.py" <<'EOF'
import argparse, json, sys

p = argparse.ArgumentParser()
p.add_argument("a")
p.add_argument("b")
p.add_argument("--label", default="exports")
p.add_argument("--allow", action="append", default=[])
args = p.parse_args()

def flatten(node, prefix, out):
    if isinstance(node, dict):
        for k, v in node.items():
            flatten(v, f"{prefix}/{k}" if prefix else k, out)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = node
    return out

a = flatten(json.load(open(args.a)), "", {})
b = flatten(json.load(open(args.b)), "", {})
bad = [k for k in a.keys() | b.keys()
       if k not in args.allow and a.get(k) != b.get(k)]
if bad:
    for k in sorted(bad):
        print(f"{args.label} mismatch {k}: {a.get(k)} vs {b.get(k)}",
              file=sys.stderr)
    sys.exit(1)
print(f"{args.label} identical ({len(a)} fields)")
EOF
    # The only fields the dispatch tier may change.
    local dispatch_allow=(--allow run/simd_dispatch
        --allow registry/scalars/simd.dispatch
        --allow registry/scalars/texunit.simd_width)
    # Forced-tier matrix: every runnable tier must export the scalar
    # run's numbers (dispatch fields aside).
    for tier in $tiers; do
        PARGPU_SIMD="$tier" "$ROOT/build-release/src/harness/pargpu_harness" \
            --run-game wolf --run-scenario patu \
            --run-width 160 --run-height 120 --run-frames 2 --quiet \
            --metrics-json "$simd_diff/tier-$tier.json"
    done
    for tier in $tiers; do
        [ "$tier" = scalar ] && continue
        python3 "$simd_diff/diff.py" \
            "$simd_diff/tier-scalar.json" "$simd_diff/tier-$tier.json" \
            --label "tier scalar/$tier" "${dispatch_allow[@]}"
    done
}

stage_mode_matrix() {
    # build-check (stage 1) carries the binary. The harness builds its
    # --run-scenario list from scenarioRegistry(), so the modes come
    # from the registry, not from a list kept here.
    cmake --build build-check -j "$JOBS" --target pargpu_harness
    local harness="$ROOT/build-check/src/harness/pargpu_harness"
    local pdir="$ROOT/build-check/mode-matrix"
    mkdir -p "$pdir"
    local modes
    modes="$("$harness" --help | sed -n 's/^  --run-scenario //p' |
        tr '|' ' ')"
    if [ -z "$modes" ]; then
        echo "no --run-scenario list in pargpu_harness --help" >&2
        return 1
    fi
    local mode docs=()
    for mode in $modes; do
        echo "--- mode: $mode ---"
        "$harness" --run-game nfs --run-scenario "$mode" \
            --run-width 160 --run-height 120 --run-frames 2 --quiet \
            --metrics-json "$pdir/$mode.json"
        docs+=("$pdir/$mode.json")
    done
    python3 - "${docs[@]}" <<'EOF'
import json, os, sys

def flatten(node, prefix, out):
    if isinstance(node, dict):
        for k, v in node.items():
            flatten(v, f"{prefix}/{k}" if prefix else k, out)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = node
    return out

docs = [(p, flatten(json.load(open(p)), "", {})) for p in sys.argv[1:]]
ref_path, ref = docs[0]
ok = True
for path, doc in docs:
    mode = os.path.basename(path)[:-len(".json")]
    if doc.get("run/scenario") != mode:
        print(f"{path}: run.scenario is {doc.get('run/scenario')!r}, "
              f"not {mode!r} — the mode did not take effect",
              file=sys.stderr)
        ok = False
    missing = ref.keys() - doc.keys()
    extra = doc.keys() - ref.keys()
    for k in sorted(missing):
        print(f"key-set drift: {k} in {ref_path} but not {path}",
              file=sys.stderr)
    for k in sorted(extra):
        print(f"key-set drift: {k} in {path} but not {ref_path}",
              file=sys.stderr)
    ok = ok and not missing and not extra
if not ok:
    sys.exit(1)
print(f"mode exports schema-identical across {len(docs)} modes "
      f"({len(ref)} fields each)")
EOF
}

stage_serve() {
    # The round trip under the sanitizer matrix: the report client boots
    # the actual pargpu_serve binaries from the ASan and UBSan builds
    # (stages 2 and 3) and drives a real sweep through the framed
    # protocol end to end.
    local build
    for build in build-asan build-ubsan; do
        cmake --build "$build" -j "$JOBS" --target pargpu_serve
        python3 tools/pargpu_report.py \
            --serve "$ROOT/$build/src/harness/pargpu_serve" \
            --serve-sweep wolf:96x72x2:baseline,patu \
            --serve-out "$ROOT/$build/serve-out"
        # The streamed documents are standard metrics JSONs: a
        # self-comparison through the regular diff must gate cleanly.
        python3 tools/pargpu_report.py \
            "$ROOT/$build/serve-out/serve_wolf_patu.json" \
            "$ROOT/$build/serve-out/serve_wolf_patu.json" \
            --fail-on-regress 0.01
    done
    # Amortization gate on the build-release binaries: the
    # persistent session must beat a fresh boot per sweep by >= 3x on
    # the repeated 16-config sweep, with byte-identical responses.
    configure_release
    cmake --build build-release -j "$JOBS" --target perf_serve
    ( cd build-release && ./bench/perf_serve )
    python3 tools/pargpu_report.py --serve-bench build-release/BENCH_serve.json
}

# --- matrix ---------------------------------------------------------------

run_stage "1/8 Release + contracts + -Werror" stage_release
run_stage "2/8 AddressSanitizer" stage_asan
run_stage "3/8 UndefinedBehaviorSanitizer" stage_ubsan
run_stage "4/8 ThreadSanitizer (threading subset)" stage_tsan
run_stage "5/8 tracing compiled out (-DPARGPU_TRACING=OFF)" stage_notrace
run_stage "6/8 SIMD bit-identity (forced tiers)" stage_simd_identity
run_stage "7/8 filter-mode matrix (schema)" stage_mode_matrix
run_stage "8/8 serve round-trip (sanitizers) + amortization gate" stage_serve

summary
echo
echo "==== check.sh: all stages passed ===="
