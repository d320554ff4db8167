#!/usr/bin/env python3
"""Paired A/B of one perfbench workload: a base revision against this checkout.

    python3 tools/perf_ab/perf_ab.py --base HEAD~1 --workload static-converge --pairs 10 --seed 1 2

Run from anywhere inside the repository.  The base revision is checked out
with `git worktree add` into a scratch directory (removed at exit); the
change side is this checkout's working tree.  Each side builds its own
.bench_build through perfbench/run.py, once, before the first pair.  Then N
pairs run back to back, alternating which side goes first, and any run that
is not `correct` or has failed operations stops the tool with exit code 1.
Given several seeds, the N pairs run on each seed in turn and a table is
printed per seed: a claim made on one seed is checked on one held out.

Per end-to-end metric of BENCHMARK.json it prints each side's median and
inter-quartile range, the median of the per-pair change/base ratios, the
pairs the change wins (ties count for neither side) and the exact two-sided
sign-test p of those wins.  An A/A run (--base HEAD on a clean tree) should
read p > 0.05 on every metric.

The tool starts only its own child processes (git, perfbench/run.py and the
program it builds) and changes no system setting.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def git_root() -> Path:
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                         text=True, check=True)
    return Path(out.stdout.strip())


def run_bench(side: Path, workload: str, seed: int | None, build_only: bool = False) -> dict:
    """One perfbench run on one side; returns its final JSON line.  A timed run
    keeps perfbench/run.py's own size and run length; `build_only` makes a
    1 s tiny run whose purpose is the side's build."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"]
    if build_only:
        cmd += ["--size", "tiny", "--seconds", "1"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=side, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{side}: perfbench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{side}: run not correct ({result['failed']} of "
                           f"{result['attempted']} operations failed)")
    return result


def iqr(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p for `wins` against `losses` (ties dropped)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2.0**n)


def summarise(spec: list[dict], base: list[dict], change: list[dict]) -> list[dict]:
    rows = []
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        losses = sum((y > x) if lower else (y < x) for x, y in zip(b, c))
        ratios = [y / x for x, y in zip(b, c) if x != 0]
        rows.append({
            "metric": name, "unit": m["unit"], "better": m["better"],
            "base_median": statistics.median(b), "base_iqr": iqr(b),
            "change_median": statistics.median(c), "change_iqr": iqr(c),
            "ratio": statistics.median(ratios) if ratios else float("nan"),
            "wins": wins, "pairs": len(b), "p": sign_test_p(wins, losses),
        })
    return rows


def print_table(rows: list[dict]) -> None:
    head = ("metric", "base median", "base IQR", "change median", "change IQR",
            "ratio", "wins", "sign p")
    body = [(f"{r['metric']} ({r['unit']}, {r['better']})", f"{r['base_median']:.6g}",
             f"{r['base_iqr']:.3g}", f"{r['change_median']:.6g}", f"{r['change_iqr']:.3g}",
             f"{r['ratio']:.4f}", f"{r['wins']}/{r['pairs']}", f"{r['p']:.3g}")
            for r in rows]
    widths = [max(len(row[i]) for row in [head, *body]) for i in range(len(head))]
    for row in [head, *body]:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def label(seed: int | None) -> str:
    return str(seed) if seed is not None else "default"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="base revision (any git rev)")
    ap.add_argument("--workload", required=True,
                    help="a perfbench workload (perfbench/run.py rejects an unknown one)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, nargs="+", default=[None],
                    help="benchmark seeds, one pair set and table each "
                         "(default: the workload's default seed)")
    ap.add_argument("--scratch", type=Path, default=None,
                    help="directory for the base worktree (default: a new temporary one)")
    a = ap.parse_args(argv)
    if a.pairs < 1:
        ap.error("--pairs must be at least 1")

    root = git_root()
    spec = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    if a.scratch is not None:
        a.scratch.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="perf_ab-", dir=a.scratch))
    worktree = scratch / "base"
    # A SIGTERM unwinds through the finally below like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        subprocess.run(["git", "-C", str(root), "worktree", "add", "--detach", "--quiet",
                        str(worktree), a.base], check=True)
        sides = {"base": worktree, "change": root}
        for name, path in sides.items():  # build each side, outside the timed pairs
            print(f"perf_ab: building {name} ({path})", file=sys.stderr, flush=True)
            run_bench(path, a.workload, None, build_only=True)
        sets = []
        for seed in a.seed:
            runs = {"base": [], "change": []}
            for i in range(a.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for name in order:
                    runs[name].append(run_bench(sides[name], a.workload, seed))
                b, c = runs["base"][-1]["metrics"], runs["change"][-1]["metrics"]
                print(f"perf_ab: seed {label(seed)}, pair {i + 1}/{a.pairs} "
                      f"({order[0]} first): " +
                      ", ".join(f"{m['name']} {b[m['name']]['value']:.6g} -> "
                                f"{c[m['name']]['value']:.6g}" for m in spec),
                      file=sys.stderr, flush=True)
            sets.append((seed, runs))
    except (RuntimeError, subprocess.CalledProcessError) as e:
        print(f"perf_ab: {e}", file=sys.stderr)
        return 1
    finally:
        subprocess.run(["git", "-C", str(root), "worktree", "remove", "--force", str(worktree)],
                       stderr=subprocess.DEVNULL)
        subprocess.run(["git", "-C", str(root), "worktree", "prune"])
        shutil.rmtree(scratch, ignore_errors=True)

    for k, (seed, runs) in enumerate(sets):
        if k > 0:
            print()
        print(f"perf_ab: {a.workload}, seed {label(seed)}, {a.pairs} pairs, "
              f"base {a.base} vs working tree")
        print_table(summarise(spec, runs["base"], runs["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
