#!/usr/bin/env python3
"""Selftest for the project's static checker.

Proves tools/pargpu_lint.py by construction against the fixtures in
tests/fixtures/analysis/ and against small trees written on the fly:

  1. over fixtures/analysis/bad/ every rule fires exactly once on each
     of its fixture files (metrics-doc on a registration call and on a
     counter-table row), and no rule over- or cross-fires;
  2. over fixtures/analysis/clean/ the checker is silent;
  3. over fixtures/analysis/suppressed/ an inline
     "pargpu-lint: allow(...)" grant silences a real violation;
  4. a stale file-level allowlist entry is fatal (the anti-rot
     contract);
  5. the getenv rule fires on a getenv() call in a library file and
     stays silent on the environment parser and on a getenv mentioned
     only in a comment;
  6. the policy-doc rule fires on a filter mode of the
     scenarioRegistry() table (src/core/patu.cc) whose `name` is
     missing from docs/FILTERING.md, even when the bare name appears in
     prose, and stays silent on a documented one;
  7. the run-field-doc rule fires on a row of the runConfigFields()
     table (src/harness/runner.cc) whose `name` is missing from
     docs/API.md or docs/SERVE.md, once per document, and stays silent
     on a row both document;
  8. the intrinsics rule fires on an x86 intrinsic in the one kernel
     source (src/simd/kernels.cc) and stays silent on the batched
     filter (src/simd/filter.cc), the one file that may hold them;
  9. the metrics-doc rule fires on a stat whose name is only a prefix
     of a documented one, and stays silent on a documented absolute
     name and on a relative name documented after a prefix.

Run as a CTest (target lint_selftest):

    python3 tests/lint_selftest.py --root <repo-root>
"""

import argparse
import importlib.util
import os
import re
import subprocess
import sys
import tempfile

# (rule, file under fixtures/analysis/bad/) for every finding there. A
# rule may fire in more than one file, once in each.
EXPECTED = [
    ("rand", "src/sim/rand.cc"),
    ("raw-new", "src/sim/raw_new.cc"),
    ("float-eq", "src/sim/float_eq.cc"),
    ("include-cc", "src/sim/include_cc.cc"),
    ("cout", "src/sim/cout.cc"),
    ("file-doc", "src/sim/file_doc.hh"),
    ("metrics-doc", "src/sim/metrics_doc.cc"),
    ("metrics-doc", "src/harness/metrics.cc"),
    ("internal-include", "examples/internal_include.cc"),
    ("intrinsics", "src/sim/intrinsics.cc"),
    ("policy-doc", "src/core/patu.cc"),
    ("getenv", "src/sim/getenv.cc"),
    ("run-field-doc", "src/harness/runner.cc"),
    ("unordered-iter", "src/sim/unordered_iter.cc"),
    ("wall-clock", "src/sim/wall_clock.cc"),
    ("random-device", "src/sim/random_device.cc"),
    ("thread-id", "src/sim/thread_id.cc"),
    ("addr-hash", "src/sim/addr_hash.cc"),
    ("fp-unsafe", "src/sim/fp_unsafe.cc"),
    ("global-state", "src/sim/global_state.cc"),
    ("cluster-escape", "src/sim/cluster_escape.cc"),
]

RE_FINDING = re.compile(r"^(\S+?):(\d+): \[([a-z-]+)\]")

failures = []


def check(cond, what):
    status = "ok" if cond else "FAIL"
    print(f"selftest: {status}: {what}")
    if not cond:
        failures.append(what)


def run_lint(root, tree, extra=()):
    """Lint tree; returns the process and its (file, line, rule)
    findings."""
    cmd = [sys.executable, os.path.join(root, "tools", "pargpu_lint.py"),
           "--root", tree, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    findings = [(m.group(1), m.group(2), m.group(3))
                for m in map(RE_FINDING.match, proc.stdout.splitlines())
                if m]
    return proc, findings


def lint_sources(root, sources):
    """Write sources ({repo-relative path: text}) into a fresh tree and
    lint it."""
    with tempfile.TemporaryDirectory() as tree:
        for rel, text in sources.items():
            os.makedirs(os.path.join(tree, os.path.dirname(rel)),
                        exist_ok=True)
            with open(os.path.join(tree, rel), "w") as f:
                f.write(text)
        return run_lint(root, tree)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tests/)")
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    fixtures = os.path.join(root, "tests", "fixtures", "analysis")

    spec = importlib.util.spec_from_file_location(
        "pargpu_lint", os.path.join(root, "tools", "pargpu_lint.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    check({rule for rule, _ in EXPECTED} == set(mod.RULES),
          "fixture table covers exactly the checker's RULES")

    # 1. Every rule fires exactly once per fixture file, nothing else.
    proc, findings = run_lint(root, os.path.join(fixtures, "bad"))
    check(proc.returncode == 1, "bad fixtures: exit status 1")
    want = {(fname, rule) for rule, fname in EXPECTED}
    got = {(fname, rule) for fname, _line, rule in findings}
    for miss in sorted(want - got):
        print(f"selftest:   missing: {miss}")
    for extra in sorted(got - want):
        print(f"selftest:   unexpected: {extra}")
    check(got == want and len(findings) == len(want),
          "bad fixtures: each rule fires exactly once per fixture file")

    # 2. Silence on clean code.
    proc, findings = run_lint(root, os.path.join(fixtures, "clean"))
    check(proc.returncode == 0 and not findings,
          "clean fixtures: checker is silent")

    # 3. Inline suppression is honored.
    proc, findings = run_lint(root, os.path.join(fixtures, "suppressed"))
    check(proc.returncode == 0 and not findings,
          "suppressed fixture: inline allow() silences the finding")

    # 4. A stale allowlist entry is fatal.
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
        f.write("wall-clock src/sim/clean.cc\n")
        stale = f.name
    try:
        proc, _ = run_lint(root, os.path.join(fixtures, "clean"),
                           extra=("--allowlist", stale))
        check(proc.returncode == 1 and
              "unused allowlist entry" in proc.stdout,
              "stale allowlist entry is fatal")
    finally:
        os.unlink(stale)

    # 5. The getenv rule: only the environment parser reads getenv.
    reader = ('#include <cstdlib>\n'
              'const char *knob() { return std::getenv("X"); }\n')
    proc, findings = lint_sources(root, {
        "src/sim/reader.cc": reader,
        "src/sim/prose.cc":
            "// Values never come from getenv(): see environment.cc.\n",
        "src/harness/environment.cc": reader,
    })
    check(proc.returncode == 1 and
          findings == [("src/sim/reader.cc", "2", "getenv")],
          "getenv fires outside the environment parser only")

    # 6. The policy-doc rule: every registered filter mode is documented.
    proc, findings = lint_sources(root, {
        "src/core/patu.cc":
            "const ScenarioDesc kScenarios[] = {\n"
            '    {DesignScenario::Patu, "patu", "PATU"},\n'
            '    {DesignScenario::AfSsimN, "n", "AF-SSIM(N)"},\n'
            "};\n",
        "docs/FILTERING.md":
            "| `patu` | the paper's flow |\n"
            "The n samples of a pixel are averaged.\n",
    })
    check(proc.returncode == 1 and
          findings == [("src/core/patu.cc", "3", "policy-doc")],
          "policy-doc fires on an undocumented filter mode only")

    # 7. The run-field-doc rule: every run-condition row is documented
    # in both documents of the run condition.
    proc, findings = lint_sources(root, {
        "src/harness/runner.cc":
            "static constexpr RunConfigField kFields[] = {\n"
            '    {"threshold", &RunConfig::threshold, 0, 1,\n'
            "     ConfigError::BadThreshold, \"AF-SSIM threshold\"},\n"
            '    {"clusters", &RunConfig::clusters, 0, 64,\n'
            "     ConfigError::BadClusters, \"shader clusters\"},\n"
            "};\n",
        "docs/API.md": "`threshold` and `clusters` are fields.\n",
        "docs/SERVE.md": "`threshold` is a member; so is clusters.\n",
    })
    check(proc.returncode == 1 and
          findings == [("src/harness/runner.cc", "4", "run-field-doc")]
          and "docs/SERVE.md" in proc.stdout,
          "run-field-doc fires on a field SERVE.md misses only")

    # 8. The intrinsics rule: only the batched filter calls intrinsics.
    body = ("#include <emmintrin.h>\n"
            "__m128 twice(__m128 v) { return _mm_add_ps(v, v); }\n")
    proc, findings = lint_sources(root, {
        "src/simd/kernels.cc": body, "src/simd/filter.cc": body})
    check(proc.returncode == 1 and
          findings == [("src/simd/kernels.cc", "2", "intrinsics")],
          "intrinsics fires outside src/simd/filter.cc only")

    # 9. The metrics-doc rule: a documented name matches only whole,
    # between backquotes; a relative name may follow a prefix.
    proc, findings = lint_sources(root, {
        "src/sim/stats.cc":
            'void count(Registry &r, const std::string &p) {\n'
            '    r.inc("sim.frames");\n'
            '    r.inc("sim.frames_total");\n'
            '    r.inc(p + ".llc.hits");\n'
            '}\n',
        "docs/METRICS.md":
            "| `sim.frames_total` | frames rendered |\n"
            "| `mem.llc.hits` | LLC hits |\n",
    })
    check(proc.returncode == 1 and
          findings == [("src/sim/stats.cc", "2", "metrics-doc")],
          "metrics-doc fires on a prefix of a documented name only")

    if failures:
        print(f"selftest: {len(failures)} check(s) failed")
        return 1
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
