#!/usr/bin/env python3
"""pargpu concurrency & determinism static analyzer.

Complements tools/pargpu_lint.py (style/layering rules) with AST-level
checks for the two properties the simulator's tests can only probe, not
prove: cross-run determinism and the cluster-ownership discipline of the
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

Front-ends (--frontend auto|libclang|text):

  libclang  parses each TU via clang.cindex against the compilation
            database (CMAKE_EXPORT_COMPILE_COMMANDS) and walks the AST.
  text      builtin fallback with no dependencies: the same rules as
            lexical heuristics over comment/string-stripped source.
  auto      libclang when the python bindings import, else text (with a
            note). CI images without clang still get full coverage.

Suppressions (same UX as pargpu_lint.py):
  - inline: "pargpu-analyze: allow(<rule>)" in a comment on the
    offending line or the line directly above it
  - file-level: "<rule> <repo-relative-path>" in
    tools/analyze_allowlist.txt ('#' comments allowed)

An allowlist entry that no longer suppresses anything is itself an
error, so the list cannot rot. Exit status is non-zero when any
violation or stale entry remains, so the CTest entry and
scripts/check.sh stage 9 can gate on it.
"""

import argparse
import json
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
# Text front-end: lexical heuristics over stripped source.
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
# libclang front-end: the same rules over the real AST.
# --------------------------------------------------------------------------

def run_libclang(root, files, build_dir):
    from clang import cindex  # noqa: imported only when selected

    K = cindex.CursorKind
    db = cindex.CompilationDatabase.fromDirectory(build_dir)
    index = cindex.Index.create()
    violations = []
    file_set = {os.path.normpath(os.path.join(root, f)) for f in files}

    def rel_of(loc):
        if loc.file is None:
            return None
        p = os.path.normpath(loc.file.name)
        if p not in file_set:
            return None
        return os.path.relpath(p, root)

    def report(cursor, rule, msg):
        rel = rel_of(cursor.location)
        if rel is None:
            return
        lineno = cursor.location.line
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
        allowed = inline_allows(raw_lines[lineno - 1]) if raw_lines else set()
        if lineno >= 2:
            allowed |= inline_allows(raw_lines[lineno - 2])
        if rule not in allowed:
            violations.append((rel, lineno, rule, msg))

    def dispatch_callee(cursor):
        ref = cursor.referenced
        return ref is not None and ref.spelling in ("run", "parallelFor")

    def walk(cursor, rel, in_dispatch):
        kind = cursor.kind
        type_spelling = cursor.type.spelling if cursor.type else ""

        if kind == K.CXX_FOR_RANGE_STMT:
            children = list(cursor.get_children())
            if len(children) >= 2 and \
                    "unordered_" in children[-2].type.spelling:
                report(cursor, "unordered-iter",
                       "iteration order of unordered containers is "
                       "nondeterministic; iterate a sorted copy or use "
                       "an ordered container")

        if kind == K.CALL_EXPR and cursor.referenced is not None:
            callee = cursor.referenced.spelling
            parent = cursor.referenced.semantic_parent
            parent_name = parent.spelling if parent else ""
            if in_sim_code(rel) and callee == "now" and \
                    parent_name.endswith("_clock"):
                report(cursor, "wall-clock",
                       "host clocks are nondeterministic; simulation "
                       "code must use Cycle counters")
            if in_sim_code(rel) and callee == "get_id":
                report(cursor, "thread-id",
                       "std::thread::id values differ per run; use dense "
                       "worker/cluster indices instead")
            if callee in ("fma", "fmaf", "reduce") and \
                    not rel.startswith("src/simd/"):
                report(cursor, "fp-unsafe",
                       "FP contraction/reassociation outside src/simd/ "
                       "breaks the bit-identity contract")

        if kind == K.VAR_DECL:
            if "random_device" in type_spelling:
                report(cursor, "random-device",
                       "std::random_device is nondeterministic; seed the "
                       "pargpu RNG (common/rng.hh) explicitly")
            parent = cursor.semantic_parent
            if in_sim_code(rel) and parent is not None and \
                    parent.kind in (K.NAMESPACE, K.TRANSLATION_UNIT) and \
                    not cursor.type.is_const_qualified():
                report(cursor, "global-state",
                       f"mutable namespace-scope state "
                       f"'{cursor.spelling}' outside src/common/")

        if kind == K.CXX_REINTERPRET_CAST_EXPR and \
                "intptr_t" in type_spelling:
            report(cursor, "addr-hash",
                   "pointer values vary across runs; hashing or ordering "
                   "by address is nondeterministic")

        if kind == K.LAMBDA_EXPR and in_dispatch:
            for child in cursor.get_children():
                if child.kind == K.DECL_REF_EXPR and child.referenced and \
                        any(t in child.referenced.type.spelling
                            for t in CLUSTER_TYPES):
                    report(cursor, "cluster-escape",
                           f"cluster-private '{child.spelling}' captured "
                           "into a ThreadPool task; pass the cluster "
                           "index and look the shard up inside the worker")
                    break

        child_dispatch = in_dispatch or \
            (kind == K.CALL_EXPR and dispatch_callee(cursor))
        for child in cursor.get_children():
            walk(child, rel, child_dispatch)

    for rel in files:
        if not rel.endswith((".cc", ".cpp")):
            continue  # headers are covered through their including TUs
        path = os.path.join(root, rel)
        cmds = db.getCompileCommands(path)
        args = []
        if cmds:
            args = [a for a in list(cmds[0].arguments)[1:]
                    if a not in ("-c", "-o", path)]
        tu = index.parse(path, args=args)
        walk(tu.cursor, rel, False)
    return violations


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

def collect_files(root, build_dir):
    """File list from the compilation database, plus headers; falls back
    to walking src/ when no compile_commands.json exists."""
    files = set()
    cc_path = os.path.join(build_dir, "compile_commands.json")
    have_db = os.path.exists(cc_path)
    if have_db:
        with open(cc_path, encoding="utf-8") as f:
            for entry in json.load(f):
                p = os.path.normpath(
                    os.path.join(entry["directory"], entry["file"]))
                rel = os.path.relpath(p, root)
                if rel.replace(os.sep, "/").startswith("src/") and \
                        rel.endswith(SOURCE_EXTS):
                    files.add(rel)
    else:
        print(f"analyze: note: no compile_commands.json under {build_dir}; "
              "walking src/ instead", file=sys.stderr)
        for dirpath, _, names in os.walk(os.path.join(root, "src")):
            for name in names:
                if name.endswith(SOURCE_EXTS):
                    files.add(os.path.relpath(
                        os.path.join(dirpath, name), root))
    # Headers never appear in the database; walk them in either mode.
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in names:
            if name.endswith((".hh", ".h")):
                files.add(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(files), have_db


def main():
    ap = argparse.ArgumentParser(
        description="pargpu concurrency & determinism static analyzer")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--build-dir", default=None,
                    help="build tree holding compile_commands.json "
                         "(default: <root>/build)")
    ap.add_argument("--frontend", choices=("auto", "libclang", "text"),
                    default="auto")
    ap.add_argument("--allowlist", default=None,
                    help="file-level allowlist "
                         "(default: <root>/tools/analyze_allowlist.txt)")
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    build_dir = args.build_dir or os.path.join(root, "build")
    allow_path = args.allowlist or os.path.join(root, "tools",
                                                "analyze_allowlist.txt")
    allow = load_allowlist(allow_path)

    files, have_db = collect_files(root, build_dir)

    frontend = args.frontend
    if frontend == "auto":
        try:
            from clang import cindex  # noqa: F401
            frontend = "libclang" if have_db else "text"
            if not have_db:
                print("analyze: note: libclang available but no "
                      "compilation database; using text front-end",
                      file=sys.stderr)
        except ImportError:
            frontend = "text"
            print("analyze: note: clang.cindex not importable; using "
                  "builtin text front-end", file=sys.stderr)

    if frontend == "libclang":
        violations = run_libclang(root, files, build_dir)
    else:
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
              f"allowlist entr(ies) in {len(files)} files "
              f"(frontend={frontend})")
        return 1
    print(f"analyze: OK ({len(files)} files clean, frontend={frontend})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
