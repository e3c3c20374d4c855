#!/usr/bin/env python3
"""Before/after benchmark pairs: a base revision against the working tree.

    python3 tools/bench_pair.py --base HEAD --out BENCH_<n>.json \\
        --workload suites:10 --workload cube-large:5 --workload sequences:5

It compares the working tree it sits in, uncommitted edits included, with
one of its revisions, which is checked out into a temporary `git worktree`
and removed again at the end.  For each workload the tool runs

    python3 perfbench/run.py --workload W --seed 0 --seconds S --trace 0

in both, as PAIRS alternating pairs (10 unless given): the base runs first
in even pairs, the working tree in odd ones.  Seed 0 is perfbench's
default, the one whose full-scale outputs run.py checks against
reference.json.  run.py exits 0 whatever it found, so every run's last
stdout line, its JSON result, must read "correct": true; otherwise the
tool exits 1 and writes nothing.

The output file holds, for each workload and each end-to-end metric that
BENCHMARK.json declares: each side's median, quartiles and IQR
(statistics.quantiles, inclusive), every pair's two values, the number of
pairs in which the working tree was better, and the median gain (positive
when the working tree is better).  It also keeps every raw result line and
the machine stamp of the run records (.perfbench/ in each checkout).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
PAIRS = 10  # the fewest pairs that can carry a claim: 9 wins of 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def run_once(checkout: Path, workload: str, seconds: float,
             scale: str) -> Tuple[Dict, Dict]:
    """(result line, machine stamp) of one perfbench run in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0",
           "--scale", scale]
    proc = subprocess.run(cmd, cwd=checkout, text=True, capture_output=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) \
            or result.get("correct") is not True:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: {workload} in {checkout} exited "
                         f"{proc.returncode} and did not read \"correct\": "
                         f"true; nothing written")
    record = checkout / ".perfbench" / (
        f"{workload}-seed{SEED}-trace0-{scale}.json")
    return result, json.loads(record.read_text())["machine"]


def spread(vals: List[float]) -> Dict[str, float]:
    q1, _, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                 if len(vals) > 1 else vals * 3)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def summarize(runs: List[Dict], metrics: List[Dict]) -> Dict:
    """Per metric: both sides' spread, the pairs and the change's wins."""
    out = {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        pairs = [[r["result"]["metrics"][name]["value"] for r in (b, c)]
                 for b, c in zip(runs[0::2], runs[1::2])]
        base = spread([b for b, _ in pairs])
        change = spread([c for _, c in pairs])
        out[name] = {
            "unit": m["unit"], "better": m["better"],
            "base": base, "change": change, "pairs": pairs,
            "change_better_in":
                f"{sum(sign * (b - c) > 0 for b, c in pairs)}/{len(pairs)}",
            "median_gain": sign * (base["median"] - change["median"]),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="the revision to compare")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--workload", action="append", required=True,
                    metavar="NAME[:PAIRS]",
                    help=f"repeatable; {PAIRS} pairs without :PAIRS")
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    plan = [(w, int(n or PAIRS)) for w, _, n in
            (spec.partition(":") for spec in args.workload)]
    if any(n < 1 for _, n in plan):
        ap.error("every workload needs at least one pair")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base_rev = git("rev-parse", "--verify", args.base + "^{commit}")
    change = {"head": git("rev-parse", "HEAD"),
              "dirty": bool(git("status", "--porcelain"))}
    tmp = Path(tempfile.mkdtemp(prefix="bench_pair-"))
    base_dir = tmp / "base"
    git("worktree", "add", "--detach", str(base_dir), base_rev)
    stamps, report = [], {}
    try:
        for workload, pairs in plan:
            runs = []
            for i in range(pairs):
                sides = [("base", base_dir), ("change", ROOT)]
                ran = {}
                for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                    result, stamp = run_once(checkout, workload, args.seconds,
                                             args.scale)
                    ran[side] = {"pair": i, "side": side,
                                 "first": not ran, "result": result}
                    stamps.append(stamp)
                    print(f"{workload} pair {i} {side}: wall_s "
                          f"{result['metrics']['wall_s']['value']:.4f}",
                          file=sys.stderr)
                runs += [ran["base"], ran["change"]]
            report[workload] = {"pairs": pairs,
                                "metrics": summarize(runs, metrics),
                                "runs": runs}
    finally:
        git("worktree", "remove", "--force", str(base_dir))
        shutil.rmtree(tmp, ignore_errors=True)
    doc = {
        "base": base_rev,
        "change": change,
        "command": (f"python3 perfbench/run.py --workload W --seed {SEED} "
                    f"--seconds {args.seconds:g} --trace 0 --scale "
                    f"{args.scale}"),
        "method": "tools/bench_pair.py: alternating pairs, base first in "
                  "even pairs; quartiles are statistics.quantiles(n=4, "
                  "method='inclusive'), median_gain is positive when the "
                  "change is better",
        "machine": [s for i, s in enumerate(stamps) if s not in stamps[:i]],
        "workloads": report,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for workload, rep in report.items():
        for name, m in rep["metrics"].items():
            print(f"{workload} {name}: base {m['base']['median']:.4g} "
                  f"change {m['change']['median']:.4g} {m['unit']}, change "
                  f"better in {m['change_better_in']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
