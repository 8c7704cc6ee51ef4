#!/usr/bin/env python3
"""Repo-specific linter for uavcov (see docs/STATIC_ANALYSIS.md).

Rules
-----
nondeterminism   Solver code under src/ must be bit-reproducible: no
                 iteration-order-unstable containers (std::unordered_map,
                 std::unordered_set), no std::rand, no wall-clock reads
                 (time(nullptr), std::chrono::*::now()).  Timing reads are
                 allowed only in src/obs/ and src/common/stopwatch.hpp,
                 where they feed observability histograms that are excluded
                 from fingerprints.
naked-new        No naked `new` / `malloc`-family allocation in src/; use
                 containers or std::make_unique.
metric-names     Every complete string-literal metric name passed to
                 obs::counter/gauge/histogram in src/ must appear in the
                 docs/OBSERVABILITY.md table, and every concrete name in the
                 table must appear in src/.  Table names may use {a,b} brace
                 alternation; rows with <placeholder> segments are wildcard
                 patterns (dynamic names) and are only checked src -> docs.
include-hygiene  Headers under src/ must use `#pragma once`, must not
                 include <iostream>, and must be self-contained (each header
                 compiles on its own; requires g++, skipped if absent or
                 with --no-compile).
concurrency-discipline
                 All locking goes through the capability-annotated wrappers
                 in src/common/sync.hpp so Clang's Thread Safety Analysis
                 sees every lock: raw std::mutex / std::lock_guard /
                 std::unique_lock / std::scoped_lock /
                 std::condition_variable / std::thread are forbidden outside
                 src/common/{sync,thread_pool}.{hpp,cpp}.  Lock-free shared
                 state must be reviewable: every std::atomic declaration
                 needs an adjacent `// atomic-invariant:` comment (same line
                 or the comment block directly above) stating why it is safe
                 without a lock.
no-unbounded-wait
                 The mission service must never block forever: every
                 blocking wait call site (`.wait(` / `->wait(` /
                 `.wait_idle(` / `->wait_idle(`) in src/service/ needs an
                 adjacent `// deadline:` comment (same line or the comment
                 block directly above) naming the bound that guarantees the
                 wait terminates (a deadline, a finite attempt ladder, a
                 shutdown path).  Other directories are out of scope — the
                 service layer is the one that owns job deadlines.
unused-header    Every header under src/ must be included by some file under
                 src/, bench/, examples/ or perfbench/src/ other than its
                 own .cpp; a header only its tests reach is dead code.
                 Test-only oracle headers opt out on their `#pragma once`
                 line.
single-codec     The checksummed section container and the record reader
                 exist once, in the io codec (src/io/codec.{hpp,cpp}): the
                 little-endian put/get helpers, the payload checksum, the
                 section-table writer and parser with their layout
                 constants, slurp, open_checked and next_record may not be
                 defined anywhere else under src/.

Suppression: append `// lint:allow <rule> -- <reason>` on the offending
line, or place it alone on the line directly above.  A reason is mandatory.

Exit status: 0 when clean, 1 when findings were reported, 2 on usage error.
"""

from __future__ import annotations

import argparse
import itertools
import re
import shutil
import subprocess
import sys
from pathlib import Path

RULES = ("nondeterminism", "naked-new", "metric-names", "include-hygiene",
         "concurrency-discipline", "no-unbounded-wait", "unused-header",
         "single-codec")

ALLOW_RE = re.compile(r"//\s*lint:allow\s+([a-z-]+)\s+--\s+\S")

# Paths (relative to the lint root, using '/' separators) where wall-clock
# reads are legitimate: the stopwatch abstraction and the observability
# layer that consumes it.
NONDET_TIME_ALLOWED = ("src/obs/", "src/common/stopwatch.hpp")

# The only files allowed to touch the raw std synchronization primitives:
# the annotated wrapper layer itself and the thread pool (which still owns
# std::thread workers; its locking already goes through sync::).
CONCURRENCY_ALLOWED = (
    "src/common/sync.hpp",
    "src/common/sync.cpp",
    "src/common/thread_pool.hpp",
    "src/common/thread_pool.cpp",
)

ATOMIC_DECL_RE = re.compile(r"\bstd::atomic\b")
ATOMIC_INVARIANT_RE = re.compile(r"//\s*atomic-invariant:\s*\S")

# Blocking-wait call sites in the service layer (member calls only, so
# declarations and definitions of methods *named* wait don't trip it).
WAIT_CALL_RE = re.compile(r"(?:\.|->)\s*wait(?:_idle)?\s*\(")
DEADLINE_COMMENT_RE = re.compile(r"//\s*deadline:\s*\S")

# Trees whose includes keep a src/ header alive (tests/ deliberately not).
HEADER_USER_DIRS = ("src", "bench", "examples", "perfbench/src")
QUOTED_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)

# The io codec and what only it may define: function definitions (a
# return type, then the name and its parameter list) and the container's
# layout constants.
CODEC_FILES = ("src/io/codec.hpp", "src/io/codec.cpp")
CODEC_FUNCTIONS = ("put_u32", "put_u64", "get_u32", "get_u64",
                   "payload_checksum", "write_document", "parse_document",
                   "slurp", "open_checked", "next_record")
CODEC_CONSTANTS = ("kHeaderBytes", "kEntryBytes")
CODEC_DEF_RE = re.compile(
    r"^\s*(?:(?:static|inline)\s+)*"
    r"(?!(?:return|else|throw|case|co_return|using)\b)"
    r"[A-Za-z_][\w:]*(?:<[^()]*>)?[\s*&]+(?:\w+::)*"
    r"(" + "|".join(CODEC_FUNCTIONS) + r")\s*\(")
CODEC_CONST_RE = re.compile(
    r"\bconstexpr\b[^=;]*\b(" + "|".join(CODEC_CONSTANTS) + r")\s*=")

METRIC_CALL_RE = re.compile(
    r'obs::(?:counter|gauge|histogram)\s*\(\s*"([^"]+)"\s*\)')


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line count."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def suppressed_lines(text: str, rule: str) -> set[int]:
    """1-based line numbers where `rule` findings are suppressed."""
    lines = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = ALLOW_RE.search(line)
        if m and m.group(1) == rule:
            lines.add(lineno)
            lines.add(lineno + 1)  # allow-line above the offending line
    return lines


def iter_src_files(root: Path) -> list[Path]:
    src = root / "src"
    if not src.is_dir():
        return []
    return sorted(p for p in src.rglob("*")
                  if p.suffix in (".hpp", ".cpp") and p.is_file())


def rel(root: Path, path: Path) -> str:
    return path.relative_to(root).as_posix()


def scan_pattern_rule(root: Path, rule: str,
                      patterns: list[tuple[re.Pattern, str]],
                      path_filter=None) -> list[Finding]:
    findings = []
    for path in iter_src_files(root):
        relpath = rel(root, path)
        text = path.read_text()
        code = strip_comments_and_strings(text)
        allowed = suppressed_lines(text, rule)
        for lineno, line in enumerate(code.splitlines(), start=1):
            if lineno in allowed:
                continue
            for pat, message in patterns:
                if pat.search(line):
                    if path_filter and path_filter(relpath, pat):
                        continue
                    findings.append(Finding(path, lineno, rule, message))
    return findings


def check_nondeterminism(root: Path) -> list[Finding]:
    patterns = [
        (re.compile(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)"),
         "wall-clock read (time()) in solver code"),
        (re.compile(r"\b(?:steady_clock|system_clock|high_resolution_clock)"
                    r"\s*::\s*now\s*\("),
         "std::chrono clock read outside common/stopwatch and obs/"),
        (re.compile(r"\bstd::unordered_map\b"),
         "std::unordered_map has unspecified iteration order; "
         "use std::map or a sorted vector"),
        (re.compile(r"\bstd::unordered_set\b"),
         "std::unordered_set has unspecified iteration order; "
         "use std::set or a sorted vector"),
        (re.compile(r"\bstd::rand\b|\brand\s*\(\s*\)"),
         "std::rand is not seedable per-run; use common/rng"),
    ]

    def exempt(relpath: str, _pat) -> bool:
        return any(relpath == p or relpath.startswith(p)
                   for p in NONDET_TIME_ALLOWED)

    return scan_pattern_rule(root, "nondeterminism", patterns,
                             path_filter=exempt)


def check_naked_new(root: Path) -> list[Finding]:
    patterns = [
        (re.compile(r"\bnew\b(?!\s*\()"),
         "naked new; use std::make_unique or a container"),
        (re.compile(r"\b(?:malloc|calloc|realloc)\s*\("),
         "C allocation; use containers or std::make_unique"),
    ]
    return scan_pattern_rule(root, "naked-new", patterns)


def parse_metric_table(doc_path: Path):
    """Return (concrete_names, wildcard_regexes) from the metric table."""
    concrete: dict[str, int] = {}
    wildcards: list[tuple[re.Pattern, int]] = []
    if not doc_path.is_file():
        return concrete, wildcards
    for lineno, line in enumerate(doc_path.read_text().splitlines(), 1):
        m = re.match(r"\|\s*`([^`]+)`\s*\|", line)
        if not m:
            continue
        name = m.group(1)
        for expanded in expand_braces(name):
            if "<" in expanded:
                regex = re.escape(expanded)
                regex = re.sub(r"<[a-z_]+>", r"[A-Za-z0-9_]+", regex)
                wildcards.append((re.compile(f"^{regex}$"), lineno))
            else:
                concrete[expanded] = lineno
    return concrete, wildcards


def expand_braces(name: str) -> list[str]:
    m = re.search(r"\{([^{}]+)\}", name)
    if not m:
        return [name]
    head, tail = name[:m.start()], name[m.end():]
    return list(itertools.chain.from_iterable(
        expand_braces(head + alt + tail)
        for alt in m.group(1).split(",")))


def check_metric_names(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    doc_path = root / "docs" / "OBSERVABILITY.md"
    concrete, wildcards = parse_metric_table(doc_path)
    used: set[str] = set()
    for path in iter_src_files(root):
        text = path.read_text()
        allowed = suppressed_lines(text, "metric-names")
        for lineno, line in enumerate(text.splitlines(), start=1):
            for m in METRIC_CALL_RE.finditer(line):
                name = m.group(1)
                used.add(name)
                if lineno in allowed:
                    continue
                if name in concrete:
                    continue
                if any(pat.match(name) for pat, _ in wildcards):
                    continue
                findings.append(Finding(
                    path, lineno, "metric-names",
                    f'metric "{name}" is not documented in '
                    f"docs/OBSERVABILITY.md"))
    for name, lineno in sorted(concrete.items()):
        if name not in used:
            findings.append(Finding(
                doc_path, lineno, "metric-names",
                f'documented metric "{name}" is never registered in src/'))
    return findings


def check_concurrency_discipline(root: Path) -> list[Finding]:
    """Raw sync primitives only in the annotated layer; atomics documented."""
    raw_primitives = [
        (re.compile(r"\bstd::(?:recursive_|timed_|recursive_timed_|shared_)?"
                    r"mutex\b"),
         "raw std mutex; use sync::Mutex (common/sync.hpp) so Clang's "
         "thread-safety analysis sees the lock"),
        (re.compile(r"\bstd::(?:lock_guard|unique_lock|scoped_lock)\b"),
         "raw std lock scope; use sync::LockGuard or sync::UniqueLock"),
        (re.compile(r"\bstd::condition_variable(?:_any)?\b"),
         "raw condition variable; use sync::CondVar"),
        (re.compile(r"\bstd::j?thread\b"),
         "raw std::thread; run work through common/thread_pool"),
    ]
    findings: list[Finding] = []
    for path in iter_src_files(root):
        relpath = rel(root, path)
        text = path.read_text()
        original_lines = text.splitlines()
        code_lines = strip_comments_and_strings(text).splitlines()
        allowed = suppressed_lines(text, "concurrency-discipline")
        exempt_primitives = relpath in CONCURRENCY_ALLOWED
        for lineno, line in enumerate(code_lines, start=1):
            if lineno in allowed:
                continue
            if not exempt_primitives:
                for pat, message in raw_primitives:
                    if pat.search(line):
                        findings.append(Finding(
                            path, lineno, "concurrency-discipline", message))
            if ATOMIC_DECL_RE.search(line):
                if not has_adjacent_atomic_invariant(original_lines, lineno):
                    findings.append(Finding(
                        path, lineno, "concurrency-discipline",
                        "std::atomic without an adjacent "
                        "`// atomic-invariant:` comment stating why "
                        "lock-free access is safe"))
    return findings


def has_adjacent_atomic_invariant(lines: list[str], lineno: int) -> bool:
    """True if `// atomic-invariant:` sits on the declaration line or in
    the contiguous comment block directly above it."""
    return has_adjacent_comment(lines, lineno, ATOMIC_INVARIANT_RE)


def has_adjacent_comment(lines: list[str], lineno: int,
                         pattern: re.Pattern) -> bool:
    """True if `pattern` matches on line `lineno` (1-based) or in the
    contiguous comment block directly above it."""
    if pattern.search(lines[lineno - 1]):
        return True
    i = lineno - 2  # 0-based index of the line above
    while i >= 0 and lines[i].lstrip().startswith("//"):
        if pattern.search(lines[i]):
            return True
        i -= 1
    return False


def check_no_unbounded_wait(root: Path) -> list[Finding]:
    """Every blocking wait in src/service/ names its termination bound."""
    findings: list[Finding] = []
    for path in iter_src_files(root):
        if not rel(root, path).startswith("src/service/"):
            continue
        text = path.read_text()
        original_lines = text.splitlines()
        code_lines = strip_comments_and_strings(text).splitlines()
        allowed = suppressed_lines(text, "no-unbounded-wait")
        for lineno, line in enumerate(code_lines, start=1):
            if lineno in allowed:
                continue
            if WAIT_CALL_RE.search(line):
                if not has_adjacent_comment(original_lines, lineno,
                                            DEADLINE_COMMENT_RE):
                    findings.append(Finding(
                        path, lineno, "no-unbounded-wait",
                        "blocking wait without an adjacent `// deadline:` "
                        "comment naming the bound that guarantees it "
                        "terminates"))
    return findings


def check_include_hygiene(root: Path, compile_headers: bool) -> list[Finding]:
    findings: list[Finding] = []
    headers = [p for p in iter_src_files(root) if p.suffix == ".hpp"]
    for path in headers:
        text = path.read_text()
        allowed = suppressed_lines(text, "include-hygiene")
        code = strip_comments_and_strings(text)
        if "#pragma once" not in text and 1 not in allowed:
            findings.append(Finding(path, 1, "include-hygiene",
                                    "header is missing #pragma once"))
        for lineno, line in enumerate(code.splitlines(), start=1):
            if lineno in allowed:
                continue
            if re.search(r"#\s*include\s*<iostream>", line):
                findings.append(Finding(
                    path, lineno, "include-hygiene",
                    "<iostream> in a header injects static iostream "
                    "initializers into every TU; include it in .cpp files"))
    if compile_headers and shutil.which("g++"):
        for path in headers:
            proc = subprocess.run(
                ["g++", "-std=c++20", "-fsyntax-only", "-x", "c++",
                 "-I", str(root / "src"), str(path)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                allowed = suppressed_lines(path.read_text(),
                                           "include-hygiene")
                if 1 in allowed:
                    continue
                first_error = next(
                    (ln for ln in proc.stderr.splitlines() if "error" in ln),
                    proc.stderr.strip().splitlines()[-1]
                    if proc.stderr.strip() else "compile failed")
                findings.append(Finding(
                    path, 1, "include-hygiene",
                    f"header is not self-contained: {first_error}"))
    return findings


def check_unused_header(root: Path) -> list[Finding]:
    """Every src/ header has an includer besides its own .cpp."""
    src = root / "src"
    included_by: dict[str, set[str]] = {}
    for top in HEADER_USER_DIRS:
        tree = root / top
        if not tree.is_dir():
            continue
        for path in sorted(tree.rglob("*")):
            if path.suffix not in (".hpp", ".cpp") or not path.is_file():
                continue
            for inc in QUOTED_INCLUDE_RE.findall(path.read_text()):
                # Quoted includes resolve against the including file's
                # directory first, then against src/ (the include root).
                for base in (path.parent, src):
                    target = (base / inc).resolve()
                    included_by.setdefault(target.as_posix(), set()).add(
                        path.resolve().as_posix())
    findings: list[Finding] = []
    for header in (p for p in iter_src_files(root) if p.suffix == ".hpp"):
        own_cpp = header.with_suffix(".cpp").resolve().as_posix()
        users = included_by.get(header.resolve().as_posix(), set()) - {own_cpp}
        if users:
            continue
        text = header.read_text()
        lines = text.splitlines()
        lineno = next((i for i, line in enumerate(lines, start=1)
                       if line.strip().startswith("#pragma once")), 1)
        if lineno in suppressed_lines(text, "unused-header"):
            continue
        findings.append(Finding(
            header, lineno, "unused-header",
            "no file under " + ", ".join(f"{d}/" for d in HEADER_USER_DIRS)
            + " includes this header (its own .cpp and tests/ do not "
            "count); delete it or mark a test oracle with "
            "`// lint:allow unused-header -- test oracle`"))
    return findings


def check_single_codec(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    for path in iter_src_files(root):
        if rel(root, path) in CODEC_FILES:
            continue
        text = path.read_text()
        code = strip_comments_and_strings(text)
        allowed = suppressed_lines(text, "single-codec")
        for lineno, line in enumerate(code.splitlines(), start=1):
            if lineno in allowed:
                continue
            m = CODEC_DEF_RE.search(line) or CODEC_CONST_RE.search(line)
            if m:
                findings.append(Finding(
                    path, lineno, "single-codec",
                    f"`{m.group(1)}` belongs to the io codec "
                    "(src/io/codec.{hpp,cpp}); call the codec instead of "
                    "copying it"))
    return findings


def run_rules(root: Path, rules, compile_headers: bool) -> list[Finding]:
    findings: list[Finding] = []
    if "nondeterminism" in rules:
        findings += check_nondeterminism(root)
    if "naked-new" in rules:
        findings += check_naked_new(root)
    if "metric-names" in rules:
        findings += check_metric_names(root)
    if "include-hygiene" in rules:
        findings += check_include_hygiene(root, compile_headers)
    if "concurrency-discipline" in rules:
        findings += check_concurrency_discipline(root)
    if "no-unbounded-wait" in rules:
        findings += check_no_unbounded_wait(root)
    if "unused-header" in rules:
        findings += check_unused_header(root)
    if "single-codec" in rules:
        findings += check_single_codec(root)
    return findings


def self_test(fixtures_dir: Path, compile_headers: bool) -> int:
    failures = 0
    for rule in RULES:
        for kind in ("violating", "clean"):
            fixture_root = fixtures_dir / rule / kind
            if not fixture_root.is_dir():
                print(f"self-test: MISSING fixture {fixture_root}")
                failures += 1
                continue
            findings = [f for f in run_rules(fixture_root, [rule],
                                             compile_headers)
                        if f.rule == rule]
            if kind == "violating" and not findings:
                print(f"self-test: FAIL {rule}/{kind}: expected >=1 "
                      f"finding, got 0")
                failures += 1
            elif kind == "clean" and findings:
                print(f"self-test: FAIL {rule}/{kind}: expected 0 findings:")
                for f in findings:
                    print(f"  {f}")
                failures += 1
            else:
                print(f"self-test: ok {rule}/{kind} "
                      f"({len(findings)} finding(s))")
    if failures:
        print(f"self-test: {failures} fixture check(s) failed")
        return 1
    print("self-test: all fixtures behave as expected")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repo root to lint (default: this repo)")
    parser.add_argument("--rule", action="append", choices=RULES,
                        help="run only this rule (repeatable)")
    parser.add_argument("--no-compile", action="store_true",
                        help="skip the header self-containment compile pass")
    parser.add_argument("--self-test", action="store_true",
                        help="run each rule against its fixtures and exit")
    args = parser.parse_args(argv)

    compile_headers = not args.no_compile
    if args.self_test:
        fixtures = Path(__file__).resolve().parent / "lint_fixtures"
        return self_test(fixtures, compile_headers)

    rules = args.rule or list(RULES)
    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"error: no src/ directory under {root}", file=sys.stderr)
        return 2
    findings = run_rules(root, rules, compile_headers)
    for f in sorted(findings, key=lambda f: (str(f.path), f.line)):
        print(f)
    if findings:
        print(f"lint_uavcov: {len(findings)} finding(s)")
        return 1
    print(f"lint_uavcov: clean ({', '.join(rules)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
