#!/usr/bin/env python3
"""pargpu concurrency & determinism static analyzer.

Complements tools/pargpu_lint.py (style/layering rules) with checks for
the two properties the simulator's tests can only probe, not prove:
cross-run determinism and the cluster-ownership discipline of the
tile-parallel execution mode. Rules:

  unordered-iter   iterating a std::unordered_{map,set} — iteration
                   order is hash-seed/layout dependent, so any loop over
                   one that reaches output, stats or memory ordering is
                   a nondeterminism source. Iterate a sorted copy or use
                   an ordered container.
  wall-clock       reading host clocks (steady_clock::now, gettimeofday,
                   clock_gettime) in simulation code (src/ outside
                   src/common/). Simulated time is Cycle counters; host
                   time belongs to the tracing/bench layers only.
  random-device    std::random_device anywhere — simulations seed the
                   deterministic pargpu RNG (common/rng.hh) explicitly.
  thread-id        using std::thread::id values (get_id, thread::id
                   keys) in simulation code. Their values and ordering
                   differ per run; derive dense worker indices instead.
  addr-hash        hashing or ordering pointer values
                   (reinterpret_cast to uintptr_t, std::hash<T*>).
                   Addresses vary across runs (ASLR, allocation order),
                   so any address-derived value that reaches simulated
                   state is nondeterministic.
  fp-unsafe        floating-point determinism hazards outside src/simd/:
                   fma()/FMA intrinsics, fast-math or FP_CONTRACT
                   pragmas, std::reduce and std::execution policies.
                   Only the SIMD kernel layer may re-associate FP math,
                   and it must prove bit-identity in its tests.
  global-state     mutable namespace-scope variables outside
                   src/common/. Hidden global state breaks the
                   per-cluster sharding that makes tile-parallel mode
                   deterministic; state must live in objects owned by
                   the simulator (or in the audited common/ layer).
  cluster-escape   a cluster-private object (TextureUnit,
                   ClusterMemFront) captured by reference/pointer into a
                   ThreadPool task lambda. Workers must look their shard
                   up by cluster index inside the task; capturing one
                   cluster's unit shares it across workers.

The rules are lexical heuristics over comment/string-stripped source.

Suppressions (same UX as pargpu_lint.py):
  - inline: "pargpu-analyze: allow(<rule>)" in a comment on the
    offending line or the line directly above it
  - file-level: "<rule> <repo-relative-path>" in
    tools/analyze_allowlist.txt ('#' comments allowed)

An allowlist entry that no longer suppresses anything is itself an
error, so the list cannot rot. Exit status is non-zero when any
violation or stale entry remains, so the CTest entry and
scripts/check.sh stage 8 can gate on it.
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from pargpu_lint import strip_comments_and_strings  # noqa: E402

RULES = ("unordered-iter", "wall-clock", "random-device", "thread-id",
         "addr-hash", "fp-unsafe", "global-state", "cluster-escape")

SOURCE_EXTS = (".cc", ".hh", ".h", ".cpp")

# Cluster-private types: one instance per shader cluster; sharing one
# across ThreadPool workers breaks the tile-parallel ownership model.
CLUSTER_TYPES = ("TextureUnit", "ClusterMemFront")

RE_ALLOW = re.compile(
    r"pargpu-analyze:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

RE_UNORDERED_DECL = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s*&?\s*"
    r"([A-Za-z_]\w*)\s*[;({=]")
RE_RANGE_FOR = re.compile(r"\bfor\s*\(\s*[^;)]*?:\s*&?\s*([A-Za-z_]\w*)\s*\)")
RE_UNORDERED_INLINE = re.compile(
    r"\bfor\s*\([^;)]*:\s*[^)]*\bunordered_(?:map|set|multimap|multiset)\b")
RE_BEGIN_ITER = re.compile(r"=\s*([A-Za-z_]\w*)\s*\.\s*c?begin\s*\(")

RE_WALL_CLOCK = re.compile(
    r"\b(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(")
RE_RANDOM_DEVICE = re.compile(r"\brandom_device\b")
RE_THREAD_ID = re.compile(
    r"\bthis_thread\s*::\s*get_id\s*\(|\bthread\s*::\s*id\b")
RE_ADDR_HASH = re.compile(
    r"reinterpret_cast\s*<\s*(?:std\s*::\s*)?u?intptr_t\s*>"
    r"|\bhash\s*<[^<>]*\*\s*>")
RE_FP_UNSAFE = re.compile(
    r"\bfmaf?\s*\(|__builtin_fmaf?\b|\b_mm\d*_fn?madd\w*"
    r"|\bstd\s*::\s*reduce\b|\bstd\s*::\s*execution\s*::"
    r"|#\s*pragma\s+(?:STDC\s+FP_CONTRACT\s+ON|float_control"
    r"|GCC\s+optimize\s*\([^)]*fast-math)")
# Namespace-scope declaration: unindented "Type name = ..." / "Type
# name;" / "Type name{...}". Function definitions and declarations have
# a '(' before the terminator and are skipped.
RE_GLOBAL_DECL = re.compile(
    r"^[A-Za-z_][\w:]*(?:\s*<[^;]*?>)?(?:\s*[*&])?\s+[*&]?"
    r"([A-Za-z_]\w*)\s*(?:=|\{|;)")
GLOBAL_SKIP = re.compile(
    r"^\s*(?:static\s+|inline\s+)*(?:const\b|constexpr\b|class\b|struct\b"
    r"|enum\b|union\b|using\b|typedef\b|template\b|namespace\b|extern\b"
    r"|friend\b|return\b|if\b|else\b|for\b|while\b|switch\b|case\b"
    r"|public\b|private\b|protected\b|operator\b|#)")
RE_CLUSTER_DECL = re.compile(
    r"\b(" + "|".join(CLUSTER_TYPES) + r")\s*[&*]?\s+[*&]?([A-Za-z_]\w*)"
    r"\s*[;=({]")
RE_DISPATCH = re.compile(r"\bThreadPool\s*::\s*run\s*\(|\bparallelFor\s*\(")
RE_LAMBDA_CAPTURE = re.compile(r"\[([^\[\]]*)\]\s*\(")


def in_sim_code(rel):
    """Simulation code: src/ minus the audited host-side common/ layer."""
    p = rel.replace(os.sep, "/")
    return p.startswith("src/") and not p.startswith("src/common/")


def load_allowlist(path):
    allow = set()  # (rule, repo-relative path)
    if not os.path.exists(path):
        return allow
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 or parts[0] not in RULES:
                print(f"analyze: malformed allowlist entry: {raw.rstrip()}",
                      file=sys.stderr)
                sys.exit(2)
            allow.add((parts[0], parts[1]))
    return allow


def inline_allows(raw_line):
    m = RE_ALLOW.search(raw_line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


# --------------------------------------------------------------------------
# Rules: lexical heuristics over stripped source.
# --------------------------------------------------------------------------

def text_check_file(root, rel, violations):
    path = os.path.join(root, rel)
    with open(path, encoding="utf-8") as f:
        raw_text = f.read()
    raw_lines = raw_text.splitlines()
    code_lines = strip_comments_and_strings(raw_text).splitlines()
    code = "\n".join(code_lines)
    sim = in_sim_code(rel)
    in_simd = rel.replace(os.sep, "/").startswith("src/simd/")

    unordered_vars = {m.group(1) for m in RE_UNORDERED_DECL.finditer(code)}
    cluster_vars = {m.group(2): m.group(1)
                    for m in RE_CLUSTER_DECL.finditer(code)}

    def report(lineno, rule, msg):
        allowed = inline_allows(raw_lines[lineno - 1])
        if lineno >= 2:
            allowed |= inline_allows(raw_lines[lineno - 2])
        if rule not in allowed:
            violations.append((rel, lineno, rule, msg))

    for lineno, line in enumerate(code_lines, 1):
        # unordered-iter: range-for (or .begin() walk) over an unordered
        # container, declared earlier or spelled inline.
        hit = RE_UNORDERED_INLINE.search(line)
        if not hit:
            m = RE_RANGE_FOR.search(line)
            if m and m.group(1) in unordered_vars:
                hit = m
            if not hit:
                m = RE_BEGIN_ITER.search(line)
                if m and m.group(1) in unordered_vars:
                    hit = m
        if hit:
            report(lineno, "unordered-iter",
                   "iteration order of unordered containers is "
                   "nondeterministic; iterate a sorted copy or use an "
                   "ordered container")

        if sim and RE_WALL_CLOCK.search(line):
            report(lineno, "wall-clock",
                   "host clocks are nondeterministic; simulation code "
                   "must use Cycle counters (tracing/bench own host time)")

        if RE_RANDOM_DEVICE.search(line):
            report(lineno, "random-device",
                   "std::random_device is nondeterministic; seed the "
                   "pargpu RNG (common/rng.hh) explicitly")

        if sim and RE_THREAD_ID.search(line):
            report(lineno, "thread-id",
                   "std::thread::id values and their ordering differ per "
                   "run; use dense worker/cluster indices instead")

        if RE_ADDR_HASH.search(line):
            report(lineno, "addr-hash",
                   "pointer values vary across runs (ASLR/allocation "
                   "order); hashing or ordering by address is "
                   "nondeterministic")

        if not in_simd and RE_FP_UNSAFE.search(line):
            report(lineno, "fp-unsafe",
                   "FP contraction/reassociation outside src/simd/ breaks "
                   "the bit-identity contract; only the kernel layer may "
                   "reorder FP math")

        # global-state: unindented mutable declaration at namespace
        # scope (function bodies and members are indented in this tree).
        if sim and line and not line[0].isspace() \
                and not GLOBAL_SKIP.match(line):
            m = RE_GLOBAL_DECL.match(line)
            if m and "(" not in line.split(m.group(0)[-1], 1)[0]:
                report(lineno, "global-state",
                       f"mutable namespace-scope state '{m.group(1)}' "
                       "outside src/common/; move it into an object owned "
                       "by the simulator")

        # cluster-escape: a ThreadPool dispatch whose task lambda
        # explicitly captures a cluster-private variable by reference.
        if RE_DISPATCH.search(line):
            window = "\n".join(code_lines[lineno - 1:lineno + 3])
            cap = RE_LAMBDA_CAPTURE.search(window)
            if cap:
                for tok in cap.group(1).split(","):
                    tok = tok.strip()
                    name = tok[1:].strip() if tok.startswith("&") else tok
                    if tok.startswith("&") and name in cluster_vars:
                        report(lineno, "cluster-escape",
                               f"cluster-private {cluster_vars[name]} "
                               f"'{name}' captured by reference into a "
                               "ThreadPool task; pass the cluster index "
                               "and look the shard up inside the worker")


def run_text(root, files):
    violations = []
    for rel in files:
        text_check_file(root, rel, violations)
    return violations


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

def collect_files(root):
    """Every source and header file under src/."""
    files = []
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in names:
            if name.endswith(SOURCE_EXTS):
                files.append(
                    os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(files)


def main():
    ap = argparse.ArgumentParser(
        description="pargpu concurrency & determinism static analyzer")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--allowlist", default=None,
                    help="file-level allowlist "
                         "(default: <root>/tools/analyze_allowlist.txt)")
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    allow_path = args.allowlist or os.path.join(root, "tools",
                                                "analyze_allowlist.txt")
    allow = load_allowlist(allow_path)

    files = collect_files(root)
    violations = run_text(root, files)

    # File-level allowlist: filtered after the fact so entries that no
    # longer suppress anything are detected (and fatal), same contract
    # as pargpu_lint.py.
    used = set()
    kept = []
    for rel, lineno, rule, msg in sorted(violations):
        if (rule, rel) in allow:
            used.add((rule, rel))
        else:
            kept.append((rel, lineno, rule, msg))
    unused = allow - used

    for rel, lineno, rule, msg in kept:
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    for rule, rel in sorted(unused):
        print(f"analyze: unused allowlist entry: {rule} {rel} "
              "(rule no longer fires; prune it)")
    if kept or unused:
        print(f"analyze: {len(kept)} violation(s), {len(unused)} stale "
              f"allowlist entr(ies) in {len(files)} files")
        return 1
    print(f"analyze: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
