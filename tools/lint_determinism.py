#!/usr/bin/env python3
"""Project-specific determinism lint for the genclus library sources.

The library's headline guarantee is bitwise thread-count invariance:
training (EM sweep, strength Newton) and serving (batch planner, server
tier) must produce identical bytes for any pool size. The ctest
invariance suites gate that dynamically (bitwise equality across pool
sizes); this lint enforces the source-level invariants that
make the guarantee hold BY CONSTRUCTION, so a violation is caught in
review rather than by a flaky drift gate:

  R1  No unordered-container use in src/core, src/linalg or src/hin, and
      no range-for iteration over a variable declared as an unordered
      container anywhere in src/. Hash-order iteration feeding a
      floating-point accumulation silently reorders sums; in src/hin the
      row order that NetworkBuilder::Build and GrowDataset produce is the
      SpMM accumulation order.
  R2  No nondeterministic sources — rand()/srand(), std::random_device,
      wall-clock reads (std::chrono::system_clock, time(NULL),
      gettimeofday, clock()) — outside src/common/random.* and
      src/common/timer.h. All randomness flows through the seeded
      genclus::Rng; steady_clock is allowed (monotonic timing only).
  R3  No raw std::thread outside the two sanctioned owners,
      src/common/thread_pool.* and src/core/server.*. Ad-hoc threads
      bypass the pool's deterministic block scheduling and the TSan
      lane's coverage. (std::thread::hardware_concurrency is allowed.)
  R4  No naked std synchronization primitives (std::mutex,
      std::lock_guard, std::unique_lock, std::scoped_lock,
      std::condition_variable*, <mutex>/<condition_variable> includes)
      outside src/common/mutex.h. Everything else must use the annotated
      genclus::Mutex/MutexLock/CondVar wrappers so Clang's
      -Wthread-safety analysis can see every lock.
  R5  No GENCLUS_FAILPOINT sites in src/core or src/linalg outside the
      sanctioned robustness surfaces (src/core/server.cc,
      src/core/model_io.cc). A failpoint inside the numeric hot path
      (EM sweep, SpMM, planner) would be a branch whose firing perturbs
      timing and — if it mutates state — the bitwise pipeline; fault
      injection belongs at the serving/IO boundaries.
  R6  No std::lgamma, lgamma(), lgammaf() or lgammal() outside
      src/prob/special_functions.cc. They store the sign of Gamma(x) to
      the process-global signgam on every call, a write the strength
      learner's pool workers would all share; call genclus::LogGamma,
      which uses lgamma_r with a local sign and returns the same bits.

Scope: src/**/*.{h,cc}. Tests, benches and examples are exempt by
design — benches time with wall clocks and tests spawn raw threads to
provoke races.

Escape hatch: a finding whose line (or the line above it) contains
    NOLINT(determinism: <justification>)
is suppressed, but only when the justification is non-empty; bare
NOLINTs are themselves findings. Suppressions are printed so reviews
see them.

Exit status: 0 = clean, 1 = findings, 2 = usage/IO error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

NOLINT_RE = re.compile(r"NOLINT\(determinism:\s*(?P<why>[^)]*)\)")
# Any determinism-NOLINT mention; pairs with NOLINT_RE to reject ones
# whose justification is missing or empty.
ANY_NOLINT_RE = re.compile(r"NOLINT\(determinism")

UNORDERED_TYPE_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\b")
UNORDERED_INCLUDE_RE = re.compile(
    r'#\s*include\s*<unordered_(?:map|set)>')
# `std::unordered_map<...> name` / `auto name : unordered-typed expr` is
# undecidable textually; we track declared variable names per file and
# flag range-fors over them.
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;=]*>\s*&?\s*"
    r"(?P<name>[A-Za-z_]\w*)\s*[;={(]")
RANGE_FOR_RE = re.compile(
    r"for\s*\([^;)]*:\s*\*?(?P<name>[A-Za-z_]\w*)(?:\s*\))")

NONDET_SOURCES = [
    (re.compile(r"(?<![\w.:])rand\s*\("), "rand()"),
    (re.compile(r"(?<![\w.:])srand\s*\("), "srand()"),
    (re.compile(r"std::random_device\b"), "std::random_device"),
    (re.compile(r"std::chrono::system_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"(?<![\w.:])gettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w.:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time(NULL)"),
    (re.compile(r"(?<![\w.:])clock\s*\(\s*\)"), "clock()"),
]

THREAD_RE = re.compile(r"std::thread\b(?!::hardware_concurrency)")

NAKED_SYNC = [
    (re.compile(r"std::(?:recursive_|timed_|shared_)?mutex\b"), "std mutex"),
    (re.compile(r"std::lock_guard\b"), "std::lock_guard"),
    (re.compile(r"std::unique_lock\b"), "std::unique_lock"),
    (re.compile(r"std::scoped_lock\b"), "std::scoped_lock"),
    (re.compile(r"std::condition_variable(?:_any)?\b"),
     "std::condition_variable"),
    (re.compile(r'#\s*include\s*<mutex>'), "#include <mutex>"),
    (re.compile(r'#\s*include\s*<condition_variable>'),
     "#include <condition_variable>"),
]

# Allowlists (paths relative to the repo root, forward slashes).
RANDOM_OK = {"src/common/random.h", "src/common/random.cc",
             "src/common/timer.h"}
THREAD_OK = {"src/common/thread_pool.h", "src/common/thread_pool.cc",
             "src/core/server.h", "src/core/server.cc"}
SYNC_OK = {"src/common/mutex.h"}
# Directories where failpoint sites are banned (R5), and the files in them
# allowed to host some: the serving tier and model IO — robustness
# boundaries, not hot loops.
FAILPOINT_DIRS = ("src/core/", "src/linalg/")
FAILPOINT_OK = {"src/core/server.cc", "src/core/model_io.cc"}
FAILPOINT_RE = re.compile(r"\bGENCLUS_FAILPOINT\s*\(")
# The one file allowed to call the C library's log-gamma (R6), and the
# calls that store to the global signgam.
LGAMMA_OK = {"src/prob/special_functions.cc"}
LGAMMA_RE = re.compile(r"std::lgamma\b|(?<![\w.])lgamma[fl]?\s*\(")
# Accumulation-order-sensitive directories for the unordered-container
# include/type ban (R1's strict form).
STRICT_UNORDERED_DIRS = ("src/core/", "src/linalg/", "src/hin/")


class Finding:
    def __init__(self, path: str, line_no: int, rule: str, message: str):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line: str) -> str:
    """Best-effort removal of // comments and string literals so tokens
    mentioned in prose or messages don't trip the lint. (Block comments
    are handled by the caller's in_block state.)"""
    out = []
    i, n = 0, len(line)
    in_string = False
    while i < n:
        ch = line[i]
        if in_string:
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                in_string = False
            i += 1
            continue
        if ch == '"':
            in_string = True
            i += 1
            continue
        if ch == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(ch)
        i += 1
    return "".join(out)


def scan_file(root: Path, rel: str, findings: list[Finding],
              suppressions: list[str]) -> None:
    text = (root / rel).read_text(encoding="utf-8")
    lines = text.splitlines()
    unordered_vars: set[str] = set()
    in_block_comment = False

    def suppressed(idx: int, line: str) -> bool:
        for candidate_idx in (idx, idx - 1):
            if 0 <= candidate_idx < len(lines):
                candidate = lines[candidate_idx]
                match = NOLINT_RE.search(candidate)
                if match and match.group("why").strip():
                    suppressions.append(
                        f"{rel}:{idx + 1}: suppressed "
                        f"({match.group('why').strip()})")
                    return True
        del line
        return False

    def add(idx: int, line: str, rule: str, message: str) -> None:
        if not suppressed(idx, line):
            findings.append(Finding(rel, idx + 1, rule, message))

    for idx, raw in enumerate(lines):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        # Strip any complete /* ... */ spans, then detect an opener.
        line = re.sub(r"/\*.*?\*/", " ", line)
        start = line.find("/*")
        if start >= 0:
            line = line[:start]
            in_block_comment = True
        # A NOLINT without a non-empty justification is itself a finding,
        # whether or not it sits on a line with code: every suppression
        # must say why.
        if ANY_NOLINT_RE.search(raw):
            justified = NOLINT_RE.search(raw)
            if not justified or not justified.group("why").strip():
                findings.append(Finding(
                    rel, idx + 1, "NOLINT",
                    "NOLINT(determinism: ...) without a justification"))
        code = strip_comments_and_strings(line)
        if not code.strip():
            continue

        strict_unordered = rel.startswith(STRICT_UNORDERED_DIRS)
        if strict_unordered and UNORDERED_INCLUDE_RE.search(code):
            add(idx, raw, "R1",
                "unordered-container include in an accumulation-order-"
                "sensitive directory; use sorted/vector containers")
        if strict_unordered and UNORDERED_TYPE_RE.search(code):
            add(idx, raw, "R1",
                "unordered container in an accumulation-order-sensitive "
                "directory; hash-order iteration reorders reductions")
        decl = UNORDERED_DECL_RE.search(code)
        if decl:
            unordered_vars.add(decl.group("name"))
        range_for = RANGE_FOR_RE.search(code)
        if range_for and range_for.group("name") in unordered_vars:
            add(idx, raw, "R1",
                f"range-for over unordered container "
                f"'{range_for.group('name')}': iteration order is "
                f"hash-seed dependent")

        if rel not in RANDOM_OK:
            for pattern, label in NONDET_SOURCES:
                if pattern.search(code):
                    add(idx, raw, "R2",
                        f"{label}: nondeterministic source outside "
                        f"src/common/random.*; thread the seeded "
                        f"genclus::Rng (or WallTimer for timing) instead")

        if rel not in THREAD_OK and THREAD_RE.search(code):
            add(idx, raw, "R3",
                "raw std::thread outside ThreadPool/Server; use the "
                "pool's deterministic block scheduling")

        if rel not in SYNC_OK:
            for pattern, label in NAKED_SYNC:
                if pattern.search(code):
                    add(idx, raw, "R4",
                        f"{label}: naked std synchronization primitive; "
                        f"use the annotated genclus::Mutex/MutexLock/"
                        f"CondVar (common/mutex.h) so -Wthread-safety "
                        f"sees the lock")

        if (rel.startswith(FAILPOINT_DIRS)
                and rel not in FAILPOINT_OK
                and FAILPOINT_RE.search(code)):
            add(idx, raw, "R5",
                "GENCLUS_FAILPOINT site in the numeric hot path; fault "
                "injection is confined to the serving/IO boundaries "
                "(src/core/server.cc, src/core/model_io.cc)")

        if rel not in LGAMMA_OK and LGAMMA_RE.search(code):
            add(idx, raw, "R6",
                "C library log-gamma writes the process-global signgam "
                "on every call; use genclus::LogGamma "
                "(prob/special_functions.h)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=None,
        help="repository root (default: parent of this script's directory)")
    args = parser.parse_args()

    root = (Path(args.root).resolve() if args.root
            else Path(__file__).resolve().parent.parent)
    src = root / "src"
    if not src.is_dir():
        print(f"lint_determinism: no src/ under {root}", file=sys.stderr)
        return 2

    files = sorted(
        str(p.relative_to(root)).replace("\\", "/")
        for ext in ("*.h", "*.cc")
        for p in src.rglob(ext))
    findings: list[Finding] = []
    suppressions: list[str] = []
    for rel in files:
        scan_file(root, rel, findings, suppressions)

    for line in suppressions:
        print(f"note: {line}")
    for finding in findings:
        print(finding)
    print(f"lint_determinism: {len(files)} files, {len(findings)} "
          f"finding(s), {len(suppressions)} justified suppression(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
