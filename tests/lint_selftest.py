#!/usr/bin/env python3
"""Selftest for the project's static-analysis tooling.

Proves tools/pargpu_analyze.py by construction against the fixtures in
tests/fixtures/analysis/:

  1. over fixtures/analysis/bad/ every rule fires exactly once, on its
     own fixture file, and no rule over- or cross-fires;
  2. over fixtures/analysis/clean/ the analyzer is silent;
  3. over fixtures/analysis/suppressed/ an inline
     "pargpu-analyze: allow(...)" grant silences a real violation;
  4. a stale file-level allowlist entry is fatal — for the analyzer and
     for tools/pargpu_lint.py alike (the anti-rot contract);
  5. tools/pargpu_lint.py's getenv rule fires on a getenv() call in a
     library file and stays silent on the environment parser and on a
     getenv mentioned only in a comment;
  6. tools/pargpu_lint.py's policy-doc rule fires on a filter mode of
     the scenarioRegistry() table (src/core/patu.cc) whose `name` is
     missing from docs/FILTERING.md, even when the bare name appears in
     prose, and stays silent on a documented one;
  7. its run-field-doc rule fires on a row of the runConfigFields()
     table (src/harness/runner.cc) whose `name` is missing from
     docs/API.md or docs/SERVE.md, once per document, and stays silent
     on a row both document;
  8. its intrinsics rule fires on an x86 intrinsic in the one kernel
     source (src/simd/kernels.cc) and stays silent on the batched
     filter (src/simd/filter.cc), the one file that may hold them.

Run as a CTest (target lint_selftest) and by scripts/check.sh:

    python3 tests/lint_selftest.py --root <repo-root>
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

# Rule -> the fixture file (under bad/src/sim/) that must trigger it.
EXPECTED = {
    "unordered-iter": "unordered_iter.cc",
    "wall-clock": "wall_clock.cc",
    "random-device": "random_device.cc",
    "thread-id": "thread_id.cc",
    "addr-hash": "addr_hash.cc",
    "fp-unsafe": "fp_unsafe.cc",
    "global-state": "global_state.cc",
    "cluster-escape": "cluster_escape.cc",
}

RE_FINDING = re.compile(r"^(\S+?):(\d+): \[([a-z-]+)\]")

failures = []


def check(cond, what):
    status = "ok" if cond else "FAIL"
    print(f"selftest: {status}: {what}")
    if not cond:
        failures.append(what)


def run_analyze(root, fixture_root, extra=()):
    cmd = [sys.executable, os.path.join(root, "tools", "pargpu_analyze.py"),
           "--root", fixture_root, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    findings = []
    for line in proc.stdout.splitlines():
        m = RE_FINDING.match(line)
        if m:
            findings.append((m.group(1).replace(os.sep, "/"), m.group(3)))
    return proc, findings


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tests/)")
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    fixtures = os.path.join(root, "tests", "fixtures", "analysis")

    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "pargpu_analyze", os.path.join(root, "tools", "pargpu_analyze.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    check(set(EXPECTED) == set(mod.RULES),
          "fixture table covers exactly the analyzer's RULES")

    # 1. Every rule fires exactly once, on its own file, nothing else.
    proc, findings = run_analyze(root, os.path.join(fixtures, "bad"))
    check(proc.returncode == 1, "bad fixtures: exit status 1")
    want = {(f"src/sim/{fname}", rule) for rule, fname in EXPECTED.items()}
    got = set(findings)
    for miss in sorted(want - got):
        print(f"selftest:   missing: {miss}")
    for extra in sorted(got - want):
        print(f"selftest:   unexpected: {extra}")
    check(got == want and len(findings) == len(want),
          "bad fixtures: each rule fires exactly once on its own file")

    # 2. Silence on clean code.
    proc, findings = run_analyze(root, os.path.join(fixtures, "clean"))
    check(proc.returncode == 0 and not findings,
          "clean fixtures: analyzer is silent")

    # 3. Inline suppression is honored.
    proc, findings = run_analyze(root, os.path.join(fixtures, "suppressed"))
    check(proc.returncode == 0 and not findings,
          "suppressed fixture: inline allow() silences the finding")

    # 4a. A stale analyzer allowlist entry is fatal.
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
        f.write("wall-clock src/sim/clean.cc\n")
        stale = f.name
    try:
        proc, _ = run_analyze(root, os.path.join(fixtures, "clean"),
                              extra=("--allowlist", stale))
        check(proc.returncode == 1 and
              "unused allowlist entry" in proc.stdout,
              "analyzer: stale allowlist entry is fatal")
    finally:
        os.unlink(stale)

    # 4b. Same contract in pargpu_lint.py, against the real tree (the
    # rand rule is enforced everywhere, so this entry cannot be in use).
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
        f.write("rand src/sim/pipeline.cc\n")
        stale = f.name
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "tools", "pargpu_lint.py"),
             "--root", root, "--allowlist", stale, "--no-spot-builds"],
            capture_output=True, text=True)
        check(proc.returncode == 1 and
              "unused allowlist entry" in proc.stdout,
              "lint: stale allowlist entry is fatal")
    finally:
        os.unlink(stale)

    # 5. The getenv rule: only the environment parser reads getenv.
    with tempfile.TemporaryDirectory() as tree:
        sources = {
            "src/sim/reader.cc":
                '#include <cstdlib>\n'
                'const char *knob() { return std::getenv("X"); }\n',
            "src/sim/prose.cc":
                "// Values never come from getenv(): see environment.cc.\n",
            "src/harness/environment.cc":
                '#include <cstdlib>\n'
                'const char *knob() { return std::getenv("X"); }\n',
        }
        for rel, text in sources.items():
            os.makedirs(os.path.join(tree, os.path.dirname(rel)),
                        exist_ok=True)
            with open(os.path.join(tree, rel), "w") as f:
                f.write(text)
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "tools", "pargpu_lint.py"),
             "--root", tree, "--no-spot-builds",
             "--allowlist", os.path.join(tree, "no_allowlist.txt")],
            capture_output=True, text=True)
        findings = [(m.group(1), m.group(3))
                    for m in map(RE_FINDING.match, proc.stdout.splitlines())
                    if m]
        check(proc.returncode == 1 and
              findings == [("src/sim/reader.cc", "getenv")],
              "lint: getenv fires outside the environment parser only")

    # 6. The policy-doc rule: every registered filter mode is documented.
    with tempfile.TemporaryDirectory() as tree:
        sources = {
            "src/core/patu.cc":
                "const ScenarioDesc kScenarios[] = {\n"
                '    {DesignScenario::Patu, "patu", "PATU"},\n'
                '    {DesignScenario::AfSsimN, "n", "AF-SSIM(N)"},\n'
                "};\n",
            "docs/FILTERING.md":
                "| `patu` | the paper's flow |\n"
                "The n samples of a pixel are averaged.\n",
        }
        for rel, text in sources.items():
            os.makedirs(os.path.join(tree, os.path.dirname(rel)),
                        exist_ok=True)
            with open(os.path.join(tree, rel), "w") as f:
                f.write(text)
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "tools", "pargpu_lint.py"),
             "--root", tree, "--no-spot-builds",
             "--allowlist", os.path.join(tree, "no_allowlist.txt")],
            capture_output=True, text=True)
        findings = [(m.group(1), m.group(2), m.group(3))
                    for m in map(RE_FINDING.match, proc.stdout.splitlines())
                    if m]
        check(proc.returncode == 1 and
              findings == [("src/core/patu.cc", "3", "policy-doc")],
              "lint: policy-doc fires on an undocumented filter mode only")

    # 7. The run-field-doc rule: every run-condition row is documented
    # in both documents of the run condition.
    with tempfile.TemporaryDirectory() as tree:
        sources = {
            "src/harness/runner.cc":
                "static constexpr RunConfigField kFields[] = {\n"
                '    {"threshold", &RunConfig::threshold, 0, 1,\n'
                "     ConfigError::BadThreshold, \"AF-SSIM threshold\"},\n"
                '    {"clusters", &RunConfig::clusters, 0, 64,\n'
                "     ConfigError::BadClusters, \"shader clusters\"},\n"
                "};\n",
            "docs/API.md": "`threshold` and `clusters` are fields.\n",
            "docs/SERVE.md": "`threshold` is a member; so is clusters.\n",
        }
        for rel, text in sources.items():
            os.makedirs(os.path.join(tree, os.path.dirname(rel)),
                        exist_ok=True)
            with open(os.path.join(tree, rel), "w") as f:
                f.write(text)
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "tools", "pargpu_lint.py"),
             "--root", tree, "--no-spot-builds",
             "--allowlist", os.path.join(tree, "no_allowlist.txt")],
            capture_output=True, text=True)
        findings = [(m.group(1), m.group(2), m.group(3))
                    for m in map(RE_FINDING.match, proc.stdout.splitlines())
                    if m]
        check(proc.returncode == 1 and
              findings == [("src/harness/runner.cc", "4", "run-field-doc")]
              and "docs/SERVE.md" in proc.stdout,
              "lint: run-field-doc fires on a field SERVE.md misses only")

    # 8. The intrinsics rule: only the batched filter calls intrinsics.
    with tempfile.TemporaryDirectory() as tree:
        body = ("#include <emmintrin.h>\n"
                "__m128 twice(__m128 v) { return _mm_add_ps(v, v); }\n")
        sources = {"src/simd/kernels.cc": body, "src/simd/filter.cc": body}
        for rel, text in sources.items():
            os.makedirs(os.path.join(tree, os.path.dirname(rel)),
                        exist_ok=True)
            with open(os.path.join(tree, rel), "w") as f:
                f.write(text)
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "tools", "pargpu_lint.py"),
             "--root", tree, "--no-spot-builds",
             "--allowlist", os.path.join(tree, "no_allowlist.txt")],
            capture_output=True, text=True)
        findings = [(m.group(1), m.group(3))
                    for m in map(RE_FINDING.match, proc.stdout.splitlines())
                    if m]
        check(proc.returncode == 1 and
              findings == [("src/simd/kernels.cc", "intrinsics")],
              "lint: intrinsics fires outside src/simd/filter.cc only")

    if failures:
        print(f"selftest: {len(failures)} check(s) failed")
        return 1
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
