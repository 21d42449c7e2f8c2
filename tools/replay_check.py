#!/usr/bin/env python3
"""Byte-exact journal replay checker.

A flight-recorder journal embeds the complete WorkloadSpec that produced
it in its ``H spec=...`` header. This tool re-runs scenario_runner from
that header and byte-diffs the fresh journal against the original: any
divergence -- a single flipped result-digest bit, one missing event, a
reordered export -- fails loudly with the first differing lines.

The re-run deliberately picks its OWN worker count (``--workers``,
default 2): the replay contract says the journal bytes are independent
of it, so replaying a journal recorded at 8 workers with 2 workers is
not a weaker check but a stronger one.

Before the byte diff, the two journals' ``H rng=`` headers (the RNG
stream version, qs::kRngStreamVersion) must agree: a journal recorded
under another stream cannot replay, and the check says so by name
instead of reporting a first differing line. A journal without the
header predates it and reads as version 1.

Usage:
    tools/replay_check.py journal.qsj [--runner build/scenario_runner]
                                      [--workers N]

Exit codes: 0 = byte-identical, 1 = divergence or error.
"""

from __future__ import annotations

import argparse
import pathlib
import subprocess
import sys
import tempfile

HEADER_PREFIX = "H "
MAGIC = "QSJ1"


def read_headers(journal_path: pathlib.Path) -> dict[str, str]:
    """The journal's ``H key=value`` header fields."""
    headers: dict[str, str] = {}
    with journal_path.open("r", encoding="utf-8") as handle:
        first = handle.readline().rstrip("\n")
        if first != MAGIC:
            raise SystemExit(f"{journal_path}: not a journal (missing {MAGIC})")
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("E ") or line.startswith("F "):
                break
            if line.startswith(HEADER_PREFIX):
                key, _, value = line[len(HEADER_PREFIX):].partition("=")
                headers.setdefault(key, value)
    return headers


def rng_version(headers: dict[str, str]) -> str:
    """The RNG stream a journal was drawn from; 1 before the header."""
    return headers.get("rng", "1")


def first_divergence(original: bytes, replay: bytes) -> str:
    """Human-readable description of the first differing line."""
    a_lines = original.decode("utf-8", "replace").splitlines()
    b_lines = replay.decode("utf-8", "replace").splitlines()
    for i, (a, b) in enumerate(zip(a_lines, b_lines), start=1):
        if a != b:
            return f"line {i}:\n  original: {a}\n  replay:   {b}"
    if len(a_lines) != len(b_lines):
        return (f"line count: original {len(a_lines)} lines, "
                f"replay {len(b_lines)} lines")
    return "byte-level difference inside identical lines (encoding?)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("journal", type=pathlib.Path,
                        help="journal file written by scenario_runner")
    parser.add_argument("--runner", type=pathlib.Path,
                        default=pathlib.Path("build/scenario_runner"),
                        help="scenario_runner binary (default: "
                             "build/scenario_runner)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker count for the re-run (default 2; any "
                             "value must reproduce the same bytes)")
    args = parser.parse_args()

    if not args.journal.is_file():
        print(f"replay_check: no such journal: {args.journal}",
              file=sys.stderr)
        return 1
    if not args.runner.is_file():
        print(f"replay_check: no such runner: {args.runner}", file=sys.stderr)
        return 1

    headers = read_headers(args.journal)
    if "spec" not in headers:
        raise SystemExit(f"{args.journal}: no 'H spec=' header -- "
                         "was it produced by scenario_runner?")
    spec = headers["spec"]
    original = args.journal.read_bytes()

    with tempfile.TemporaryDirectory() as tmp:
        replay_path = pathlib.Path(tmp) / "replay.qsj"
        cmd = [str(args.runner), "--spec", spec, "--workers",
               str(args.workers), "--out", str(replay_path), "--check"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print("replay_check: re-run failed "
                  f"(exit {proc.returncode}):\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        replay = replay_path.read_bytes()
        replay_rng = rng_version(read_headers(replay_path))

    recorded_rng = rng_version(headers)
    if recorded_rng != replay_rng:
        print("replay_check: FAIL -- RNG stream mismatch: the journal was "
              f"recorded with rng stream version {recorded_rng}, this runner "
              f"draws version {replay_rng}; every sampled value differs, so "
              "no replay can reproduce it", file=sys.stderr)
        return 1

    if replay == original:
        events = sum(1 for line in original.splitlines()
                     if line.startswith(b"E "))
        print(f"replay_check: PASS -- {len(original)} bytes, "
              f"{events} events reproduced exactly "
              f"(workers={args.workers})")
        return 0

    print("replay_check: FAIL -- replay diverged from the recorded "
          "journal", file=sys.stderr)
    print(first_divergence(original, replay), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
