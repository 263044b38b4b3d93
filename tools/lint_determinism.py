#!/usr/bin/env python3
"""Determinism linter: a repo-specific static pass over src/.

Every execution backend of this repo (serial, threaded, process, tcp) must
produce byte-identical result files.  That contract is enforced dynamically
by byte-diff smokes and tests; this linter enforces the *static* side by
failing on source patterns that are known to break bit-identity:

  rng        std::rand / srand / std::random_device — unseeded or global RNG
             state.  All randomness must flow through common/rng.hpp's
             per-job seeded streams.
  unordered  std::unordered_{map,set,multimap,multiset} — hash-order
             iteration feeds results or aggregation order that varies by
             libstdc++ version, seed and insertion history.  Use std::map /
             std::set / sorted vectors.
  wallclock  steady_clock / system_clock / high_resolution_clock /
             clock_gettime / gettimeofday / time() — wall-clock reads may
             drive progress display or socket deadlines, never result bytes.
             Every use needs an allowlist entry saying why it cannot.
  omp        #pragma omp — parallelism must go through ParallelExecutor,
             whose contract (per-index bodies, per-job Rng streams) keeps
             1-thread and N-thread runs bit-identical.
  par-stl    std::reduce / std::transform_reduce / std::execution — the
             parallel STL reassociates floating-point reductions; reduction
             order must stay explicit.
  setenv     setenv / unsetenv — the environment is process-global mutable
             state.  Every knob is resolved once (exp::handle_grid_flags)
             and passed on explicitly; a spawned worker gets its values as
             Subprocess env overrides.  Also enforced over bench/ (run with
             --rules setenv there).
  global     mutable non-const globals (the repo's g_ naming convention, or
             file-scope `static` definitions) outside registered
             construct-on-first-use singletons — cross-run mutable state is
             where order dependence hides.  Heuristic: function-local
             `static X instance;` singletons and thread_local scratch are
             not flagged.

Exceptions live in an annotated allowlist file (default
tools/determinism_allowlist.txt) so every one of them is visible in review:

    rule-id|path-relative-to-root|line-substring|reason

A violation is suppressed when an entry's rule and path match and its
substring occurs in the *raw* offending line (so a trailing
`// determinism: <tag>` comment works as a stable key).  Stale entries that
suppress nothing fail the lint: the allowlist describes the code as it is.

Exit codes: 0 clean, 1 violations or stale entries (or self-test failure),
2 usage error.

`--self-test` runs the linter against generated fixture sources — one
violation per rule plus an allowlisted twin — and asserts the exact rule IDs
fire; it is wired as the `lint_determinism_selftest` ctest entry.
"""

import argparse
import os
import re
import sys
import tempfile

SOURCE_SUFFIXES = (".cpp", ".hpp", ".h", ".cc", ".cxx")

# (rule id, compiled pattern matched against comment-stripped code text).
PATTERN_RULES = [
    ("rng", re.compile(r"std::rand\b|(?<![\w])srand\s*\(|random_device")),
    ("unordered", re.compile(r"std::unordered_(?:map|set|multimap|multiset)\b")),
    (
        "wallclock",
        re.compile(
            r"system_clock|steady_clock|high_resolution_clock"
            r"|clock_gettime|gettimeofday|(?<![\w])time\s*\("
        ),
    ),
    ("omp", re.compile(r"#\s*pragma\s+omp\b")),
    ("setenv", re.compile(r"(?<![\w])(?:un)?setenv\s*\(")),
    (
        "par-stl",
        re.compile(r"std::reduce\b|std::transform_reduce\b|std::execution\b"),
    ),
]

RULE_IDS = [rule for rule, _ in PATTERN_RULES] + ["global"]

# Mutable-global heuristic: a declaration-looking line introducing a
# g_-prefixed identifier, or a file-scope (indent-0) `static` object
# definition.  const/constexpr declarations and thread_local scratch are
# exempt; function-local `static X instance;` singletons are indented and a
# different pattern, so the blessed construct-on-first-use idiom never fires.
GLOBAL_G_DECL = re.compile(
    r"^\s*(?:inline\s+|static\s+)*[\w:]+(?:<[^;]*>)?[\s\*&]+g_\w+\s*(?:=|\{|;)"
)
GLOBAL_STATIC_DECL = re.compile(r"^static\s+[^;()]*[=;{]")
GLOBAL_EXEMPT = re.compile(r"\b(?:const|constexpr|thread_local)\b")


def check_global(code):
    if GLOBAL_EXEMPT.search(code):
        return False
    return bool(GLOBAL_G_DECL.match(code) or GLOBAL_STATIC_DECL.match(code))


class CommentStripper:
    """Per-file line-wise stripping of // and /* */ comment text."""

    def __init__(self):
        self.in_block = False

    def strip(self, line):
        out = []
        i = 0
        n = len(line)
        while i < n:
            if self.in_block:
                end = line.find("*/", i)
                if end < 0:
                    return "".join(out)
                self.in_block = False
                i = end + 2
                continue
            if line.startswith("//", i):
                return "".join(out)
            if line.startswith("/*", i):
                self.in_block = True
                i += 2
                continue
            out.append(line[i])
            i += 1
        return "".join(out)


class AllowEntry:
    def __init__(self, rule, path, substring, reason, where):
        self.rule = rule
        self.path = path
        self.substring = substring
        self.reason = reason
        self.where = where
        self.used = False


def load_allowlist(path):
    entries = []
    if path is None or not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [part.strip() for part in line.split("|")]
            if len(parts) != 4 or not all(parts):
                raise SystemExit(
                    f"{path}:{number}: allowlist entries are "
                    "'rule|path|line-substring|reason' (4 non-empty fields)"
                )
            rule, rel, substring, reason = parts
            if rule not in RULE_IDS:
                raise SystemExit(
                    f"{path}:{number}: unknown rule '{rule}' "
                    f"(known: {', '.join(RULE_IDS)})"
                )
            entries.append(AllowEntry(rule, rel, substring, reason, f"{path}:{number}"))
    return entries


def allowed(entries, rule, rel_path, raw_line):
    for entry in entries:
        if entry.rule == rule and entry.path == rel_path and entry.substring in raw_line:
            entry.used = True
            return True
    return False


def iter_source_files(root):
    for directory, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(SOURCE_SUFFIXES):
                yield os.path.join(directory, name)


def lint(root, entries, rules=None):
    """Returns a list of (rel_path, line_number, rule, raw_line) violations,
    checking only `rules` when given."""
    enabled = set(RULE_IDS if rules is None else rules)
    pattern_rules = [(rule, pattern) for rule, pattern in PATTERN_RULES if rule in enabled]
    violations = []
    for path in iter_source_files(root):
        rel = os.path.relpath(path, root)
        stripper = CommentStripper()
        with open(path, encoding="utf-8", errors="replace") as handle:
            for number, raw in enumerate(handle, start=1):
                raw = raw.rstrip("\n")
                code = stripper.strip(raw)
                if not code.strip():
                    continue
                for rule, pattern in pattern_rules:
                    if pattern.search(code) and not allowed(entries, rule, rel, raw):
                        violations.append((rel, number, rule, raw.strip()))
                if (
                    "global" in enabled
                    and check_global(code)
                    and not allowed(entries, "global", rel, raw)
                ):
                    violations.append((rel, number, "global", raw.strip()))
    return violations


def run(root, allowlist_path, rules=None):
    entries = load_allowlist(allowlist_path)
    violations = lint(root, entries, rules)
    for rel, number, rule, text in violations:
        print(f"{os.path.join(root, rel)}:{number}: [{rule}] {text}")
    stale = [entry for entry in entries if not entry.used]
    for entry in stale:
        print(
            f"{entry.where}: stale allowlist entry "
            f"[{entry.rule}|{entry.path}|{entry.substring}] suppresses nothing"
        )
    if violations or stale:
        print(
            f"lint_determinism: {len(violations)} violation(s), "
            f"{len(stale)} stale allowlist entr(y/ies) in {root}"
        )
        return 1
    print(f"lint_determinism: clean ({root})")
    return 0


# ------------------------------------------------------------- self-test --

# One fixture per rule: line 1 violates, line 2 is an allowlisted twin keyed
# on a trailing annotation comment (the real allowlist works the same way).
FIXTURES = {
    "rng": (
        "int bad() { return std::rand(); }\n"
        "int ok() { return std::rand(); }  // determinism: twin-rng\n"
    ),
    "unordered": (
        "std::unordered_map<int, int> bad_table;\n"
        "std::unordered_map<int, int> ok_table;  // determinism: twin-unordered\n"
    ),
    "wallclock": (
        "auto bad_now = std::chrono::steady_clock::now();\n"
        "auto ok_now = std::chrono::steady_clock::now();  // determinism: twin-wallclock\n"
    ),
    "omp": (
        "#pragma omp parallel for\n"
        "#pragma omp simd  // determinism: twin-omp\n"
    ),
    "par-stl": (
        "double bad_sum = std::reduce(v.begin(), v.end());\n"
        "double ok_sum = std::reduce(v.begin(), v.end());  // determinism: twin-par-stl\n"
    ),
    "setenv": (
        "void bad() { ::setenv(\"FEDHISYN_QUIET\", \"1\", 1); unsetenv(\"X\"); }\n"
        "void ok() { setenv(\"X\", \"1\", 1); }  // determinism: twin-setenv\n"
    ),
    "global": (
        "static int g_bad_counter = 0;\n"
        "static int g_ok_counter = 0;  // determinism: twin-global\n"
    ),
}

# Patterns that must stay clean: comments, singletons, thread_local scratch,
# constants, and identifiers merely *containing* rule words.
CLEAN_FIXTURE = (
    "// std::rand() in a comment is fine; so is steady_clock here.\n"
    "/* block comment: srand(7); #pragma omp parallel */\n"
    "constexpr int g_answer = 42;\n"
    "thread_local int tl_scratch = 0;\n"
    "Registry& registry() {\n"
    "  static Registry instance;  // construct-on-first-use singleton\n"
    "  return instance;\n"
    "}\n"
    "void strftime_like(int runtime_t) { (void)runtime_t; }\n"
    "std::vector<std::string> spawn_env = {\"FEDHISYN_QUIET=1\"};\n"
)


def self_test():
    failures = []
    with tempfile.TemporaryDirectory(prefix="lint_determinism_") as root:
        allow_lines = ["# generated by --self-test"]
        for rule, body in FIXTURES.items():
            name = f"fixture_{rule}.cpp"
            with open(os.path.join(root, name), "w", encoding="utf-8") as handle:
                handle.write(body)
            allow_lines.append(f"{rule}|{name}|determinism: twin-{rule}|self-test twin")
        with open(os.path.join(root, "fixture_clean.cpp"), "w", encoding="utf-8") as handle:
            handle.write(CLEAN_FIXTURE)
        allow_path = os.path.join(root, "allowlist.txt")
        with open(allow_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(allow_lines) + "\n")

        entries = load_allowlist(allow_path)
        got = {(rel, number, rule) for rel, number, rule, _ in lint(root, entries)}
        expected = {(f"fixture_{rule}.cpp", 1, rule) for rule in FIXTURES}
        for item in sorted(expected - got):
            failures.append(f"expected violation did not fire: {item}")
        for item in sorted(got - expected):
            failures.append(f"unexpected violation: {item}")
        for entry in entries:
            if not entry.used:
                failures.append(f"allowlisted twin was not suppressed: {entry.rule}")

        # The allowlist only excuses the matching rule+path+substring: a twin
        # annotation for another rule must not leak across rules.
        if allowed(entries, "rng", "fixture_omp.cpp", "std::rand()"):
            failures.append("allowlist leaked across rule/path boundaries")

        # --rules narrows the pass: only the named rule fires.
        got = {(rel, rule) for rel, _, rule, _ in lint(root, [], rules=["setenv"])}
        if got != {("fixture_setenv.cpp", "setenv")}:
            failures.append(f"--rules setenv fired {sorted(got)}")

    if failures:
        for failure in failures:
            print(f"self-test FAIL: {failure}")
        return 1
    print(f"self-test OK: all {len(FIXTURES)} rules fire and allowlisted twins are suppressed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", help="source tree to lint (e.g. src/)")
    parser.add_argument(
        "--allowlist",
        help="annotated exception file (rule|path|line-substring|reason)",
    )
    parser.add_argument(
        "--rules",
        help=f"comma-separated rule IDs to check (default: all of {','.join(RULE_IDS)})",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the fixture-based self-test and exit",
    )
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.root:
        parser.error("--root is required (or use --self-test)")
    if not os.path.isdir(args.root):
        parser.error(f"--root {args.root} is not a directory")
    rules = None
    if args.rules:
        rules = args.rules.split(",")
        unknown = sorted(set(rules) - set(RULE_IDS))
        if unknown:
            parser.error(f"unknown rule(s) {', '.join(unknown)} (known: {', '.join(RULE_IDS)})")
    return run(args.root, args.allowlist, rules)


if __name__ == "__main__":
    sys.exit(main())
