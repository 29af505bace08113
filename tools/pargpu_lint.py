#!/usr/bin/env python3
"""pargpu static checker.

Enforces project rules over src/ and include/ that the compiler's
warnings do not cover: style and layering, and the determinism and
cluster-ownership discipline that the simulator's bit identity rests on.
The rules are lexical heuristics over comment/string-stripped source.
Generic C++ checks (the bugprone, performance and modernize sets) run
nowhere in this repository. That every header compiles on its own is
checked by the build (tests/header_self.cmake), not here.

Style and layering:

  rand         no rand()/srand()/std::rand — simulations must use the
               deterministic pargpu RNG (common/rng.hh)
  raw-new      no raw new/delete — ownership goes through containers or
               smart pointers ("= delete" declarations are fine)
  float-eq     no ==/!= against floating-point literals — quantize or
               compare with an explicit tolerance
  include-cc   no #include of a .cc file
  cout         no std::cout outside src/harness (libraries report through
               common/logging.hh; stdout belongs to the CLI layer)
  file-doc     every header must open with an @file doc comment
               (Doxygen's per-file brief)
  metrics-doc  every stat name registered in code (a dotted "a.b.c"
               string literal passed to .inc()/.set()/.observe(), or
               the second literal of a counter-table row, {"column",
               "a.b.c", ...}) must be documented, as `a.b.c`, in
               docs/METRICS.md; a name
               relative to a runtime prefix (".llc.hits") as `llc.hits`
               or after a prefix (`mem.llc.hits`)
  intrinsics   no x86 SIMD intrinsics (_mm_* / _mm256_*) outside
               src/simd/filter.cc — the kernels are plain C++ that
               src/simd/kernels.cc's per-tier builds auto-vectorize, and
               everything else must stay portable scalar C++
  policy-doc   every filter mode in the scenarioRegistry() table
               (src/core/patu.cc) must have its name documented, in
               backquotes, in docs/FILTERING.md
  getenv       no getenv()/secure_getenv() outside
               src/harness/environment.cc — the library reads no
               environment; entry points pass the PARGPU_* values to
               parseEnvironment(), the one parser
  run-field-doc  every row of the runConfigFields() table
               (src/harness/runner.cc) must have its name documented,
               in backquotes, in docs/API.md and docs/SERVE.md

Determinism and cluster ownership ("simulation code" is src/ outside
the audited host-side src/common/ layer):

  unordered-iter   iterating a std::unordered_{map,set} — iteration
                   order is hash-seed/layout dependent, so any loop over
                   one that reaches output, stats or memory ordering is
                   a nondeterminism source. Iterate a sorted copy or use
                   an ordered container.
  wall-clock       reading host clocks (steady_clock::now, gettimeofday,
                   clock_gettime) in simulation code. Simulated time is
                   Cycle counters; host time belongs to the tracing/bench
                   layers only.
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
  global-state     mutable namespace-scope variables in simulation code.
                   Hidden global state breaks the per-cluster sharding
                   that makes tile-parallel mode deterministic; state
                   must live in objects owned by the simulator.
  cluster-escape   a cluster-private object (TextureUnit,
                   ClusterMemFront) captured by reference/pointer into a
                   ThreadPool task lambda. Workers must look their shard
                   up by cluster index inside the task; capturing one
                   cluster's unit shares it across workers.

Over examples/ and bench/, the API consumers, only intrinsics and one
more rule run:

  internal-include  those trees are API consumers: they may include only
               the public facade ("pargpu/..."; bench_util.hh within
               bench/) — never a src-internal header like "sim/..."

Suppressions:
  - inline: "pargpu-lint: allow(<rule>)" in a comment on the offending
    line or the line directly above it
  - file-level: an entry "<rule> <repo-relative-path>" in the allowlist
    file (tools/lint_allowlist.txt), '#' comments allowed

An allowlist entry that no longer suppresses anything is itself an
error, so the list cannot rot (entries must be pruned when the code
they excused is fixed).

Exit status is non-zero when any violation remains, so the CTest entry
can gate on it.
"""

import argparse
import os
import re
import sys

RULES = ("rand", "raw-new", "float-eq", "include-cc", "cout", "file-doc",
         "metrics-doc", "internal-include", "intrinsics", "policy-doc",
         "getenv", "run-field-doc",
         "unordered-iter", "wall-clock", "random-device", "thread-id",
         "addr-hash", "fp-unsafe", "global-state", "cluster-escape")

FLOAT_LIT = r"(?:\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)f?"

RE_RAND = re.compile(r"(?:std\s*::\s*)?\b(?:rand|srand)\s*\(")
RE_NEW = re.compile(r"\bnew\b\s*(?:\(|[A-Za-z_:<]|\[)")
RE_DELETE = re.compile(r"\bdelete\b\s*(?:\[\s*\])?\s*[A-Za-z_(*]")
RE_DELETED_FN = re.compile(r"=\s*delete\b")
RE_FLOAT_EQ = re.compile(
    r"[=!]=\s*[-+]?" + FLOAT_LIT + r"|" + FLOAT_LIT + r"\s*[=!]=")
RE_INCLUDE_CC = re.compile(r'#\s*include\s*["<][^">]*\.cc[">]')
RE_COUT = re.compile(r"\bstd\s*::\s*cout\b")
RE_ALLOW = re.compile(r"pargpu-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
RE_STAT_CALL = re.compile(r"\.\s*(?:inc|set|observe)\s*\(")
# Dotted stat-name literals: absolute ("mem.dram.reads") or relative to a
# runtime prefix (".tex_l1.hits", as in prefix + ".tex_l1.hits").
RE_STAT_NAME = re.compile(r'"(\.?[a-z0-9_]+(?:\.[a-z0-9_]+)+)"')
# A counter-table row naming its registry counter second:
# {"geometry_cycles", "geometry.cycles", &FrameStats::geometry_cycles}.
RE_COUNTER_ROW = re.compile(
    r'\{\s*"[a-z0-9_]+"\s*,\s*"\.?[a-z0-9_]+(?:\.[a-z0-9_]+)+"')
RE_QUOTED_INCLUDE = re.compile(r'#\s*include\s*"([^"]+)"')
# x86 vector intrinsics: _mm_add_ps, _mm256_fmadd_ps, _mm512_...
RE_INTRIN = re.compile(r"\b_mm\d*_[A-Za-z0-9_]+")
# The one file that may call x86 intrinsics: the batched filter's
# base-ISA coordinate path. The kernels are plain C++ (kernels.cc).
INTRIN_FILE = "src/simd/filter.cc"
RE_GETENV = re.compile(r"\b(?:secure_)?getenv\s*\(")
# The one file that may read the process environment.
ENV_PARSER = "src/harness/environment.cc"
# A filter-mode registry entry: {DesignScenario::Patu, "patu", ...}.
RE_POLICY_ENTRY = re.compile(r'DesignScenario::\w+\s*,\s*"([a-z_]+)"')
# A run-condition table row: {"threshold", &RunConfig::threshold, ...}.
RE_RUN_FIELD = re.compile(r'\{\s*"([a-z_]+)"\s*,\s*&RunConfig::')

# Cluster-private types: one instance per shader cluster; sharing one
# across ThreadPool workers breaks the tile-parallel ownership model.
CLUSTER_TYPES = ("TextureUnit", "ClusterMemFront")

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

SOURCE_EXTS = (".cc", ".hh", ".h", ".cpp")


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure so reported line numbers stay valid."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


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
                print(f"lint: malformed allowlist entry: {raw.rstrip()}",
                      file=sys.stderr)
                sys.exit(2)
            allow.add((parts[0], parts[1]))
    return allow


def inline_allows(raw_line):
    m = RE_ALLOW.search(raw_line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


def allowed_at(raw_lines, lineno):
    """Rules granted inline on line lineno (1-based) or the line above."""
    allowed = inline_allows(raw_lines[lineno - 1])
    if lineno >= 2:
        allowed |= inline_allows(raw_lines[lineno - 2])
    return allowed


def stat_documented(name, doc):
    """An absolute stat name must appear as `name`; a relative one
    (".llc.hits") bare or after a prefix: `llc.hits`, `mem.llc.hits`."""
    if name.startswith("."):
        return re.search(r"`(?:[\w.]*\.)?" + re.escape(name[1:]) + "`",
                         doc) is not None
    return f"`{name}`" in doc


def check_file(root, rel, violations, metrics_doc):
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        raw_text = f.read()
    raw_lines = raw_text.splitlines()
    code_lines = strip_comments_and_strings(raw_text).splitlines()
    sim = rel.startswith("src/") and not rel.startswith("src/common/")

    def report(lineno, rule, msg):
        if rule not in allowed_at(raw_lines, lineno):
            violations.append((rel, lineno, rule, msg))

    if rel.endswith((".hh", ".h")):
        head = "\n".join(raw_lines[:20])
        if "@file" not in head and "file-doc" not in inline_allows(head):
            violations.append(
                (rel, 1, "file-doc",
                 "header lacks an @file doc comment in its first 20 lines"))

    # Most rules match against comment/string-stripped code so prose and
    # literals can't trip them; include-cc must see the raw line because
    # the include path *is* a string.
    line_rules = [
        ("rand", RE_RAND, False,
         "use the deterministic RNG in common/rng.hh"),
        ("raw-new", RE_NEW, False, "raw new; use containers or make_unique"),
        ("raw-new", RE_DELETE, False,
         "raw delete; use containers or make_unique"),
        ("float-eq", RE_FLOAT_EQ, False,
         "float literal ==/!=; compare with a tolerance"),
        ("include-cc", RE_INCLUDE_CC, True, "#include of a .cc file"),
        ("random-device", RE_RANDOM_DEVICE, False,
         "std::random_device is nondeterministic; seed the pargpu RNG "
         "(common/rng.hh) explicitly"),
        ("addr-hash", RE_ADDR_HASH, False,
         "pointer values vary across runs (ASLR/allocation order); "
         "hashing or ordering by address is nondeterministic"),
    ]
    if not rel.startswith("src/harness/"):
        line_rules.append(
            ("cout", RE_COUT, False, "std::cout outside harness/CLI layers"))
    if rel != ENV_PARSER:
        line_rules.append(
            ("getenv", RE_GETENV, False,
             f"getenv outside {ENV_PARSER}; take the value as a "
             "parameter and let parseEnvironment() read it"))
    if rel != INTRIN_FILE:
        line_rules.append(
            ("intrinsics", RE_INTRIN, False,
             f"x86 intrinsic outside {INTRIN_FILE}; write plain C++ in "
             "src/simd/kernels.cc and let its per-tier builds vectorize"))
    if not rel.startswith("src/simd/"):
        line_rules.append(
            ("fp-unsafe", RE_FP_UNSAFE, False,
             "FP contraction/reassociation outside src/simd/ breaks the "
             "bit-identity contract; only the kernel layer may reorder "
             "FP math"))
    if sim:
        line_rules += [
            ("wall-clock", RE_WALL_CLOCK, False,
             "host clocks are nondeterministic; simulation code must use "
             "Cycle counters (tracing/bench own host time)"),
            ("thread-id", RE_THREAD_ID, False,
             "std::thread::id values and their ordering differ per run; "
             "use dense worker/cluster indices instead"),
        ]

    code = "\n".join(code_lines)
    unordered_vars = {m.group(1) for m in RE_UNORDERED_DECL.finditer(code)}
    cluster_vars = {m.group(2): m.group(1)
                    for m in RE_CLUSTER_DECL.finditer(code)}

    for lineno, line in enumerate(code_lines, start=1):
        raw = raw_lines[lineno - 1]
        for rule, regex, use_raw, msg in line_rules:
            if not regex.search(raw if use_raw else line):
                continue
            if regex is RE_DELETE and RE_DELETED_FN.search(line):
                continue
            report(lineno, rule, msg)

        # metrics-doc: a stat registration (".inc(" / ".set(" / ".observe("
        # or a counter-table row) with a dotted string literal must have
        # that name documented in docs/METRICS.md. The literal may sit on
        # the call line or, for wrapped calls, on the following line. A
        # leading '.' marks a name relative to a runtime prefix
        # (prefix + ".llc.hits").
        if RE_STAT_CALL.search(line) or RE_COUNTER_ROW.search(raw):
            search = raw
            if not RE_STAT_NAME.search(raw) and lineno < len(raw_lines):
                search += "\n" + raw_lines[lineno]
            for name in RE_STAT_NAME.findall(search):
                if metrics_doc is None:
                    report(lineno, "metrics-doc",
                           f'stat "{name}" registered but docs/METRICS.md '
                           "does not exist")
                elif not stat_documented(name, metrics_doc):
                    report(lineno, "metrics-doc",
                           f'stat "{name}" not documented in '
                           "docs/METRICS.md")

        # unordered-iter: range-for (or .begin() walk) over an unordered
        # container, declared earlier or spelled inline.
        hit = RE_UNORDERED_INLINE.search(line)
        for walk in (RE_RANGE_FOR, RE_BEGIN_ITER):
            m = walk.search(line)
            hit = hit or (m and m.group(1) in unordered_vars)
        if hit:
            report(lineno, "unordered-iter",
                   "iteration order of unordered containers is "
                   "nondeterministic; iterate a sorted copy or use an "
                   "ordered container")

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
                    name = tok[1:].strip()
                    if tok.startswith("&") and name in cluster_vars:
                        report(lineno, "cluster-escape",
                               f"cluster-private {cluster_vars[name]} "
                               f"'{name}' captured by reference into a "
                               "ThreadPool task; pass the cluster index "
                               "and look the shard up inside the worker")


def check_table_docs(root, violations, rule, rel, entry_re, what, docs):
    """Every name that a row of rel (matched by entry_re) registers must
    appear, as `name`, in each of docs (repo-relative paths). Backquotes,
    because a bare name such as "n" matches any prose."""
    path = os.path.join(root, rel)
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as f:
        text = f.read()
    doc_texts = {}
    for doc_rel in docs:
        doc_path = os.path.join(root, doc_rel)
        if os.path.exists(doc_path):
            with open(doc_path, encoding="utf-8") as f:
                doc_texts[doc_rel] = f.read()
    raw_lines = text.splitlines()
    for m in entry_re.finditer(text):
        lineno = text.count("\n", 0, m.start()) + 1
        if rule in allowed_at(raw_lines, lineno):
            continue
        name = m.group(1)
        for doc_rel in docs:
            doc = doc_texts.get(doc_rel)
            if doc is None:
                violations.append(
                    (rel, lineno, rule,
                     f'{what} "{name}" registered but {doc_rel} '
                     "does not exist"))
            elif f"`{name}`" not in doc:
                violations.append(
                    (rel, lineno, rule,
                     f'{what} "{name}" not documented in {doc_rel}'))


def check_internal_include(root, rel, violations):
    """examples/ and bench/ build against the facade only: every quoted
    include must be a "pargpu/..." header (or bench's own bench_util.hh);
    system headers use angle brackets and pass freely."""
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        raw_lines = f.read().splitlines()
    for lineno, raw in enumerate(raw_lines, start=1):
        allowed_here = allowed_at(raw_lines, lineno)
        if "intrinsics" not in allowed_here and RE_INTRIN.search(raw):
            violations.append(
                (rel, lineno, "intrinsics",
                 f"x86 intrinsic outside {INTRIN_FILE}; use the kernel "
                 "layer"))
        if "internal-include" in allowed_here:
            continue
        m = RE_QUOTED_INCLUDE.search(raw)
        if not m:
            continue
        inc = m.group(1)
        if inc.startswith("pargpu/"):
            continue
        if rel.startswith("bench/") and inc == "bench_util.hh":
            continue
        violations.append(
            (rel, lineno, "internal-include",
             f'"{inc}" is src-internal; include the facade '
             '("pargpu/...") instead'))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    ap.add_argument("--allowlist", default=None,
                    help="allowlist file (default: tools/lint_allowlist.txt)")
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    allowlist_path = args.allowlist or os.path.join(
        root, "tools", "lint_allowlist.txt")
    allow = load_allowlist(allowlist_path)

    def walk_sources(top):
        found = []
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, top)):
            for name in filenames:
                if name.endswith(SOURCE_EXTS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    found.append(rel.replace(os.sep, "/"))
        return sorted(found)

    sources = walk_sources("src") + walk_sources("include")
    if not sources:
        print("lint: no sources found under src/", file=sys.stderr)
        return 2
    # API consumers: only internal-include and intrinsics apply.
    consumers = walk_sources("examples") + walk_sources("bench")

    metrics_doc = None
    metrics_path = os.path.join(root, "docs", "METRICS.md")
    if os.path.exists(metrics_path):
        with open(metrics_path, encoding="utf-8") as f:
            metrics_doc = f.read()

    violations = []
    for rel in sources:
        check_file(root, rel, violations, metrics_doc)
    for rel in consumers:
        check_internal_include(root, rel, violations)
    # The filter modes and the run-condition fields: every row of the
    # table is documented where users look it up.
    check_table_docs(root, violations, "policy-doc", "src/core/patu.cc",
                     RE_POLICY_ENTRY, "filter mode", ["docs/FILTERING.md"])
    check_table_docs(root, violations, "run-field-doc",
                     "src/harness/runner.cc", RE_RUN_FIELD,
                     "run-condition field", ["docs/API.md", "docs/SERVE.md"])

    # File-level allowlist: filter after the fact so entries that no
    # longer suppress anything are detectable (and fatal) instead of
    # silently rotting in the list.
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
        print(f"lint: unused allowlist entry: {rule} {rel} "
              "(rule no longer fires; prune it)")
    checked = len(sources) + len(consumers)
    if kept or unused:
        print(f"lint: {len(kept)} violation(s), {len(unused)} stale "
              f"allowlist entr(ies) in {checked} files")
        return 1
    print(f"lint: OK ({checked} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
