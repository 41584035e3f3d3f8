"""Paired A/B of perfbench: a parent revision against this checkout.

Run from the root of a checkout:

    python3 tools/ab_bench.py --rev HEAD~1 --workload halo-bound --seed 1 \\
        --seconds 14 --pairs 10

It checks ``--rev`` out into a temporary ``git worktree`` (removed on
exit) and runs ``perfbench/run.py --workload W --seed S --seconds X
--trace 0`` there and in this checkout's working tree, ``--pairs`` times
each.  The side that runs first alternates from pair to pair, so drift of
the host favours neither.  Per end-to-end metric it prints the parent and
change medians, the spread of the parent's runs (q3 - q1), the median
change/parent ratio with its distribution-free sign-test interval (at
least 95% coverage; none below 6 pairs), the change's wins out of the
pairs (the direction is each metric's ``better`` in ``BENCHMARK.json``)
and an exact two-sided sign-test p, ties left out (Kalibera & Jones,
ISMM'13, for paired runs).
Around each run it reads the ``steal`` field of the ``cpu`` line of
``/proc/stat``, the time the hypervisor gave this guest's vCPUs to others,
in ticks of 1/100 s.  Each pair's progress line gives both sides' ticks
and the report each side's median, "-" where ``/proc/stat`` cannot be
read, so drift within a run can be told from stolen time.
A pair in which either side is not correct, reports failed operations or
gives no result is counted and listed, and left out of every statistic.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _tail(n: int, k: int) -> float:
    """P(Bin(n, 1/2) <= k)."""
    return sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p of ``wins`` against ``losses``."""
    n = wins + losses
    if n == 0:
        return 1.0
    return min(1.0, 2 * _tail(n, min(wins, losses)))


def median_interval(values):
    """(lo, hi, coverage) of the sign-test interval on the median of
    ``values``: [v(k), v(n-k+1)] of the sorted values for the largest k
    whose coverage 1 - 2 P(Bin(n, 1/2) <= k - 1) is at least 0.95, or
    None when even k = 1 falls short (fewer than 6 values)."""
    v, best = sorted(values), None
    for k in range(1, len(v) // 2 + 1):
        coverage = 1 - 2 * _tail(len(v), k - 1)
        if coverage < 0.95:
            break
        best = (v[k - 1], v[-k], coverage)
    return best


def steal_ticks(stat: str) -> int | None:
    """The ``steal`` field (the eighth number) of the aggregate ``cpu``
    line of a ``/proc/stat`` text, or None when there is none."""
    for line in stat.splitlines():
        fields = line.split()
        if fields[:1] == ["cpu"]:
            ok = len(fields) > 8 and fields[8].isdigit()
            return int(fields[8]) if ok else None
    return None


def read_steal(path: str = "/proc/stat") -> int | None:
    try:
        with open(path, encoding="ascii") as fh:
            return steal_ticks(fh.read())
    except (OSError, ValueError):
        return None


def _ticks(values) -> str:
    """The median of the known ``values``, or "-" when none is known."""
    known = [v for v in values if v is not None]
    return f"{statistics.median(known):g}" if known else "-"


def _fault(result: dict | None) -> str | None:
    """Why a run's result cannot be compared, or None if it can."""
    if result is None:
        return "no result"
    if not result.get("correct"):
        return "not correct"
    if result.get("failed"):
        return f"{result['failed']} failed"
    return None


def fold(pairs, better: dict) -> dict:
    """Fold (parent, change) run results into per-metric statistics.

    Each result is the JSON object ``perfbench/run.py`` prints last, or
    None for a run that gave none; ``better`` maps each metric to
    ``"higher"`` or ``"lower"``.  Bad pairs are listed under ``"bad"`` as
    (index, side, reason) and left out of every metric.
    """
    good, bad = [], []
    for k, (parent, change) in enumerate(pairs):
        faults = [(k, side, why) for side, res in (("parent", parent),
                                                  ("change", change))
                  if (why := _fault(res)) is not None]
        bad += faults
        if not faults:
            good.append((parent["metrics"], change["metrics"]))
    metrics = {}
    for name, direction in better.items():
        seen = [(p[name]["value"], c[name]["value"]) for p, c in good
                if name in p and name in c]
        if not seen:
            continue
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in seen)
        losses = sum(sign * (c - p) < 0 for p, c in seen)
        ratios = [c / p for p, c in seen if p]
        base = [p for p, _ in seen]
        q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (
            base * 3)
        metrics[name] = {
            "n": len(seen),
            "parent": statistics.median(base), "parent_iqr": q3 - q1,
            "change": statistics.median(c for _, c in seen),
            "ratio": statistics.median(ratios) if ratios else None,
            "interval": median_interval(ratios),
            "wins": wins, "losses": losses,
            "ties": len(seen) - wins - losses,
            "p": sign_test(wins, losses),
        }
    return {"pairs": len(pairs), "bad": bad, "metrics": metrics}


def report(folded: dict) -> str:
    lines = [f"{'metric':<24} {'parent':>10} {'iqr':>9} {'change':>10} "
             f"{'ratio':>7} {'interval':>22} {'wins':>7} {'p':>7}"]
    for name, m in folded["metrics"].items():
        ratio = "-" if m["ratio"] is None else f"{m['ratio']:.3f}"
        ci = ("-" if m["interval"] is None else
              "[{:.3f}, {:.3f}] {:.1%}".format(*m["interval"]))
        lines.append(f"{name:<24} {m['parent']:>10.4g} "
                     f"{m['parent_iqr']:>9.3g} {m['change']:>10.4g} {ratio:>7} "
                     f"{ci:>22} {m['wins']:>3}/{m['n']:<3} {m['p']:>7.3g}")
    bad = folded["bad"]
    lines.append(f"bad pairs: {len(bad)} of {folded['pairs']}"
                 + "".join(f"\n  pair {k + 1} {side}: {why}"
                           for k, side, why in bad))
    return "\n".join(lines)


def run(tree: Path, args) -> tuple[dict | None, int | None]:
    """One untraced perfbench run in ``tree``: its result, or None, and the
    steal ticks it saw, or None."""
    before = read_steal()
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    after = read_steal()
    steal = None if None in (before, after) else after - before
    lines = proc.stdout.strip().splitlines()
    try:
        return (json.loads(lines[-1]) if proc.returncode == 0 else None), steal
    except (IndexError, json.JSONDecodeError):
        return None, steal


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", required=True, help="parent revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        parent = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(parent), args.rev)
        sides = {"parent": parent, "change": ROOT}
        steal = {"parent": [], "change": []}
        try:
            pairs = []
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change",
                                                                 "parent")
                res = {}
                for side in order:
                    res[side], ticks = run(sides[side], args)
                    steal[side].append(ticks)
                pairs.append((res["parent"], res["change"]))
                print(f"pair {k + 1}/{args.pairs}: {order[0]} first, "
                      + ", ".join(f"{s} {_fault(res[s]) or 'ok'} (steal "
                                  f"{_ticks(steal[s][-1:])})" for s in order),
                      file=sys.stderr)
        finally:
            git("worktree", "remove", "--force", str(parent))
    print(f"{args.workload} seed {args.seed}, {args.seconds:g} s, "
          f"{args.rev} -> working tree")
    print(report(fold(pairs, better)))
    print("steal ticks, median per run: "
          + ", ".join(f"{s} {_ticks(v)}" for s, v in steal.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
