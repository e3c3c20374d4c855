#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks that
  * every run prints, as its last line, a result with every metric that
    BENCHMARK.json names for that mode, each with its declared unit, and
    no failed op;
  * each module records non-zero work on the workload that exercises it;
  * every op's stdout is byte-identical with the tracer installed and not,
    and uninstalling the tracer restores every original function;
  * without the program's sources the benchmark exits non-zero and prints
    no result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# module -> (workload that exercises it, a count that must be non-zero)
EXERCISED = {
    "cli": ("sequences", "cli.out_bytes"),
    "generators": ("sequences", "generators.parse_calls"),
    "seq_core": ("sequences", "seq_core.eval_points"),
    "nilmanifold": ("sequences", "nilmanifold.orbit_points"),
    "uniformity": ("cube-large", "uniformity.cube_points"),
    "duality": ("sequences", "duality.dict_elems"),
    "ergodic_weights": ("sequences", "ergodic_weights.average_points"),
    "uniformity suites": ("suites", "uniformity.trials"),
}


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke FAILED: {what}")


def bench_run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_results(spec) -> None:
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    layers = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = bench_run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{where} exited {proc.returncode}: "
                  f"{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{where}: {proc.stdout}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == declared[trace],
                  f"{where}: metrics differ from BENCHMARK.json: "
                  f"{set(got) ^ set(declared[trace])}")
            if trace:
                layers[workload] = {k: v["value"]
                                    for k, v in result["metrics"].items()}
    for module, (workload, count) in EXERCISED.items():
        check(layers[workload][count] > 0,
              f"{module}: {count} is 0 on {workload}")
    print("smoke: metrics, units and layer counts ok")


def check_trace_transparent() -> None:
    cli = run.load_cli()
    import unif_lab.uniformity as uniformity
    original = uniformity.box_norm
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, 3, tiny=True):
            outs = []
            for traced in (False, True):
                tracer = tracing.Tracer()
                if traced:
                    tracer.install()
                buf = io.StringIO()
                try:
                    with contextlib.redirect_stdout(buf), \
                            contextlib.redirect_stderr(io.StringIO()):
                        rc = cli.dispatch(list(op.argv))
                finally:
                    tracer.uninstall()
                check(rc == 0, f"{op.label} exited {rc}")
                outs.append(buf.getvalue())
                if traced:
                    check(len(tracer.spans) > 0, f"{op.label}: no spans")
            check(outs[0] == outs[1],
                  f"{op.label}: stdout differs with the tracer installed")
    check(uniformity.box_norm is original, "uninstall left a wrapper behind")
    print("smoke: stdout identical with trace on and off")


def check_bare_directory() -> None:
    bare = run.RECORD_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_run(bare, "suites", 0)
        check(proc.returncode != 0, "ran without the program's sources")
        check(not proc.stdout.strip(), "printed output without the sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: fails cleanly without the program's sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_results(spec)
    check_trace_transparent()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
