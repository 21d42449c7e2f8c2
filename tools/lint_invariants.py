#!/usr/bin/env python3
"""Repo invariant linter: determinism and lock-discipline contracts.

The stack's two implicit contracts -- bitwise seed-split determinism and
annotated lock discipline -- are cheap to break with one innocent line
(`std::random_device` in a router, a wall-clock timestamp in a result
path, a bare `std::mutex` invisible to -Wthread-safety). This linter
turns those into CI failures. Rules (see docs/ARCHITECTURE.md
"Concurrency & determinism contract" for the rationale of each):

  nondeterminism   Bans nondeterminism escapes in src/: std::random_device,
                   rand()/srand(), time()/clock(), std::chrono::system_clock
                   (wall clock; steady_clock is fine), and <random> itself
                   (#include <random>, mt19937 engines, std::*_distribution):
                   its algorithms are implementation-defined, so a libc++
                   build would draw other streams from the same seed. All
                   randomness must flow through qs::Rng / split_seed so
                   results are a pure function of (inputs, seed).

  unordered-iter   Flags iteration over std::unordered_map/set in files
                   that define fingerprint() digests (and any file listed
                   in FINGERPRINT_FILES). Unordered iteration order is
                   implementation-defined, so a digest fed from it would
                   differ across stdlibs/runs and silently poison every
                   cache key derived from it.

  raw-sync         Bans std::mutex / std::condition_variable / std::lock_*
                   in src/ outside common/thread_annotations.h: locks must
                   use the annotated qs::Mutex family so clang's
                   -Wthread-safety analysis sees every acquisition.

  clock            Bans std::chrono::steady_clock / high_resolution_clock
                   in src/ outside obs/clock.h: time must flow through an
                   injected obs::Clock (SteadyClock in production,
                   ManualClock in tests) so deadlines, TTLs, and traces
                   are drivable in virtual time and two traced runs can
                   be bitwise identical.

  value-fingerprint  In cache-key code paths (CACHE_KEY_FILES), bans
                   value-sensitive fingerprint(<circuit>) -- cache keys
                   must use structural_fingerprint so a parametric sweep's
                   bindings all hash to one artifact. A value-sensitive
                   key silently degrades every sweep point to a miss
                   (recompiles per binding), undoing the bind fast path
                   without failing any correctness test.

  amplitude-loop   In src/qudit/ and src/exec/ (outside the kernel layer
                   homes: qudit/kernels.*, qudit/block_plan.*), flags raw
                   amplitude-indexing loops -- BlockPlan offsets-table
                   indexing and `base + a * stride` address arithmetic.
                   Every matvec inner loop must live in kernels.h/.cpp so
                   the SIMD dispatch tiers, the bitwise determinism
                   contract, and the dispatch-count telemetry cover it; a
                   raw loop elsewhere silently forks the arithmetic.

  job-state        In src/serve/, bans direct writes to a JobRecord's
                   `status` field outside JobRecord::transition_locked
                   (src/serve/job.h), and calls of transition_locked
                   outside src/serve/service.cpp. The transition helper
                   is the one place the job state machine moves AND the
                   flight recorder (obs/journal.h) observes the edge; a
                   direct write elsewhere would mutate state invisibly
                   to the journal, silently breaking the replay contract
                   (bitwise-identical journals for any worker count).
                   Its one caller, ServiceCore::transition, also commits
                   the edge's balance-law counters and spans before it
                   wakes waiters; a call from the queue (or anywhere
                   else in src/serve/) would take lifecycle work back
                   out of that one emission point.

Suppression: append `// lint:allow(<rule>): <why>` to the offending line,
or put it on its own line directly above (for lines with no room under
the 80-column format limit). The reason is mandatory; a bare allow is
itself a finding.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

# Files whose whole job is to wrap the raw primitives.
RAW_SYNC_HOME = "src/common/thread_annotations.h"
CLOCK_HOME = "src/obs/clock.h"

# Files holding order-sensitive digest/serialization code, in addition to
# any file that *defines* a fingerprint() function (detected below).
FINGERPRINT_FILES = {
    "src/common/fingerprint.h",
}

# Files that derive cache keys from circuits. Keys here must hash the
# circuit's *structure* (structural_fingerprint), never its bound
# parameter values, or parametric sweeps stop sharing artifacts.
CACHE_KEY_FILES = {
    "src/exec/plan.cpp",
    "src/compiler/transpile_cache.cpp",
    "src/serve/service.cpp",
}

# The kernel layer itself: the only place amplitude-indexing loops belong.
AMPLITUDE_LOOP_HOMES = {
    "src/qudit/kernels.h",
    "src/qudit/kernels.cpp",
    "src/qudit/block_plan.h",
    "src/qudit/block_plan.cpp",
}
# Directories the amplitude-loop rule polices.
AMPLITUDE_LOOP_SCOPE = ("src/qudit/", "src/exec/")

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)(:\s*\S.*)?")

NONDETERMINISM_PATTERNS = [
    (re.compile(r"\bstd::random_device\b|\brandom_device\b"),
     "std::random_device draws entropy from the OS; derive seeds via "
     "split_seed instead"),
    (re.compile(r"\bstd::rand\b|\brand\s*\(|\bsrand\s*\("),
     "C rand()/srand() is hidden global state; use qs::Rng"),
    (re.compile(r"\btime\s*\(|\bstd::time\b|\bgettimeofday\b|\blocaltime\b"),
     "wall-clock reads make results depend on when they ran"),
    (re.compile(r"\bclock\s*\("),
     "processor-clock reads are nondeterministic; use Stopwatch for "
     "telemetry, never in result paths"),
    (re.compile(r"\bsystem_clock\b"),
     "std::chrono::system_clock is the wall clock; time must flow "
     "through obs::Clock (src/obs/clock.h)"),
    # The standard leaves the distributions' algorithms to each library,
    # so the same seed draws other streams under libc++; qs::Rng defines
    # its own (common/rng.h).
    (re.compile(r"#\s*include\s*<random>|\bmt19937\w*|"
                r"\bstd::\w+_distribution\b"),
     "<random> engines and distributions are implementation-defined; "
     "draw through qs::Rng"),
]

RAW_CLOCK_RE = re.compile(r"\b(steady_clock|high_resolution_clock)\b")

RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")

# A line that *defines* a fingerprint digest function (not a call site):
# a uint64 return type directly followed by a fingerprint name.
FINGERPRINT_DEF_RE = re.compile(
    r"(?:std::)?uint64_t\s+[\w:]*fingerprint\s*\(")

# A value-sensitive circuit digest call: fingerprint( -- not preceded by
# structural_ -- whose argument names a circuit (circuit/circ/logical/
# physical, possibly behind a member or pointer access).
VALUE_FP_RE = re.compile(
    r"(?<!structural_)\bfingerprint\s*\(\s*[\w.>&*-]*"
    r"(?:circuit|circ\b|logical|physical)")

AMPLITUDE_LOOP_PATTERNS = [
    (re.compile(r"\.offsets\s*\["),
     "raw BlockPlan offsets-table indexing; route this loop through the "
     "kernels:: apply/accumulate entry points (src/qudit/kernels.h)"),
    (re.compile(r"\+\s*\w+\s*\*\s*(?:site_stride|stride)\b"),
     "raw strided amplitude address arithmetic; route this loop through "
     "the kernels:: entry points (src/qudit/kernels.h)"),
]

# Directory whose job-state machine the journal must observe completely.
JOB_STATE_SCOPE = "src/serve/"

# A write to a job record's `status` member: member access (r->status =,
# record.status =) or the bare field inside JobRecord's own methods
# (status = to). Comparisons (==, !=, <=, >=) do not match; neither do
# declarations like `JobStatus status = ...` (the field name there is
# preceded by its type, not by `.`/`->`/line start).
JOB_STATE_RE = re.compile(r"(?:\.|->|^\s*)status\s*=(?![=])")

# The one file allowed to call JobRecord::transition_locked.
JOB_TRANSITION_HOME = "src/serve/service.cpp"
# A call of transition_locked; its definition (`void transition_locked(`)
# does not match.
JOB_TRANSITION_CALL_RE = re.compile(
    r"^(?!.*\bvoid\s+transition_locked\b).*\btransition_locked\s*\(")

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;(){]*>\s+(\w+)\s*[;{=]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(")


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    structure, so rule regexes never fire on prose or log messages."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            out.append(" " * 0)
            out.extend(ch if ch == "\n" else " " for ch in text[i:j + 2])
            i = j + 2
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                i += 2 if text[i] == "\\" else 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Finding:
    def __init__(self, path: pathlib.Path, line: int, rule: str, msg: str):
        self.path, self.line, self.rule, self.msg = path, line, rule, msg

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO_ROOT)
        return f"{rel}:{self.line}: [{self.rule}] {self.msg}"


def collect_allows(raw_lines: list[str], findings: list[Finding],
                   path: pathlib.Path) -> dict[int, set[str]]:
    """Maps line number -> rules suppressed there. A standalone allow
    comment (nothing but the comment on its line) suppresses the next
    line instead of its own. Reason-less allows are findings themselves
    (the narrow-suppression contract)."""
    allows: dict[int, set[str]] = {}
    for lineno, line in enumerate(raw_lines, 1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        if m.group(2) is None:
            findings.append(Finding(
                path, lineno, "allow-without-reason",
                "lint:allow needs a ': <why>' justification"))
            continue
        target = lineno + 1 if line.lstrip().startswith("//") else lineno
        allows.setdefault(target, set()).add(m.group(1))
    return allows


def lint_file(path: pathlib.Path, findings: list[Finding]) -> None:
    raw = path.read_text()
    raw_lines = raw.splitlines()
    allows = collect_allows(raw_lines, findings, path)
    clean_lines = strip_comments_and_strings(raw).splitlines()
    rel = str(path.relative_to(REPO_ROOT))

    def report(lineno: int, rule: str, msg: str) -> None:
        if rule not in allows.get(lineno, set()):
            findings.append(Finding(path, lineno, rule, msg))

    # -- nondeterminism ----------------------------------------------------
    for lineno, line in enumerate(clean_lines, 1):
        for pattern, msg in NONDETERMINISM_PATTERNS:
            if pattern.search(line):
                report(lineno, "nondeterminism", msg)

    # -- unordered-iter ----------------------------------------------------
    clean = "\n".join(clean_lines)
    if rel in FINGERPRINT_FILES or FINGERPRINT_DEF_RE.search(clean):
        unordered_names = set(UNORDERED_DECL_RE.findall(clean))
        for lineno, line in enumerate(clean_lines, 1):
            if not RANGE_FOR_RE.search(line):
                continue
            if "unordered_" in line:
                report(lineno, "unordered-iter",
                       "iterating an unordered container in a fingerprint "
                       "file; order is implementation-defined")
                continue
            for name in unordered_names:
                if re.search(rf":\s*(?:\w+(?:\.|->))*{name}\s*\)", line):
                    report(lineno, "unordered-iter",
                           f"range-for over unordered container '{name}' "
                           "in a fingerprint file")

    # -- value-fingerprint -------------------------------------------------
    if rel in CACHE_KEY_FILES:
        for lineno, line in enumerate(clean_lines, 1):
            if VALUE_FP_RE.search(line):
                report(lineno, "value-fingerprint",
                       "value-sensitive fingerprint() of a circuit in a "
                       "cache-key path; use structural_fingerprint so "
                       "parametric bindings share one cached artifact")

    # -- amplitude-loop ----------------------------------------------------
    if (rel.startswith(AMPLITUDE_LOOP_SCOPE)
            and rel not in AMPLITUDE_LOOP_HOMES):
        for lineno, line in enumerate(clean_lines, 1):
            for pattern, msg in AMPLITUDE_LOOP_PATTERNS:
                if pattern.search(line):
                    report(lineno, "amplitude-loop", msg)

    # -- job-state ---------------------------------------------------------
    if rel.startswith(JOB_STATE_SCOPE):
        for lineno, line in enumerate(clean_lines, 1):
            if JOB_STATE_RE.search(line):
                report(lineno, "job-state",
                       "direct JobStatus write; every transition must go "
                       "through JobRecord::transition_locked so the "
                       "flight-recorder journal observes the edge "
                       "(src/serve/job.h)")
            if (rel != JOB_TRANSITION_HOME
                    and JOB_TRANSITION_CALL_RE.search(line)):
                report(lineno, "job-state",
                       "transition_locked called outside "
                       "ServiceCore::transition; every lifecycle edge "
                       "must go through it so counters commit and spans "
                       "record before waiters wake "
                       "(src/serve/service.cpp)")

    # -- raw-sync ----------------------------------------------------------
    if rel != RAW_SYNC_HOME:
        for lineno, line in enumerate(clean_lines, 1):
            m = RAW_SYNC_RE.search(line)
            if m:
                report(lineno, "raw-sync",
                       f"std::{m.group(1)} bypasses the annotated "
                       "qs::Mutex/CondVar/MutexLock wrappers "
                       "(common/thread_annotations.h)")
    else:
        # Even the wrapper home allowlists each raw use individually.
        for lineno, line in enumerate(clean_lines, 1):
            m = RAW_SYNC_RE.search(line)
            if m:
                report(lineno, "raw-sync",
                       f"unannotated std::{m.group(1)} in the wrapper "
                       "header itself")

    # -- clock -------------------------------------------------------------
    # Mirrors raw-sync: the wrapper home itself allowlists each raw
    # clock mention per line.
    for lineno, line in enumerate(clean_lines, 1):
        m = RAW_CLOCK_RE.search(line)
        if not m:
            continue
        if rel != CLOCK_HOME:
            report(lineno, "clock",
                   f"std::chrono::{m.group(1)} bypasses the injectable "
                   "obs::Clock (src/obs/clock.h); take a Clock& or use "
                   "obs::TimeBase/TimePoint aliases")
        else:
            report(lineno, "clock",
                   f"raw {m.group(1)} in the clock wrapper itself")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=pathlib.Path,
                        help="files to lint (default: all of src/)")
    args = parser.parse_args()

    if args.paths:
        files = [p.resolve() for p in args.paths]
    else:
        files = sorted(p for ext in ("*.h", "*.cpp")
                       for p in SRC.rglob(ext))
    findings: list[Finding] = []
    for path in files:
        lint_file(path, findings)

    for f in findings:
        print(f)
    if findings:
        print(f"lint_invariants: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"lint_invariants: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
