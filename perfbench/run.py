#!/usr/bin/env python3
"""unif-lab benchmark: whole-workload wall time, set-up time and peak memory.

    python3 perfbench/run.py --workload cube-large --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
A run warms up with one checked pass over the workload's command list
(`workloads.py`), then repeats the pass for about `--seconds` of pass time.
Every op goes through `unif_lab.cli.dispatch` in this process, with its
stdout captured and checked (`checks.py`).

--trace 0 reports the end-to-end metrics:
  wall_s       median, over the timed passes, of the time one pass takes
               at the host-speed probe's nominal speed (`speed.py`): each
               op's wall time is rescaled by the probes run next to it
  setup_s      median, over fresh interpreters, of `import unif_lab.cli`
               plus `build_parser()` -- what every invocation pays --
               rescaled by the median probe of the pass before it
  peak_rss_mb  peak resident set of this process (ru_maxrss)
--trace 1 alternates untraced passes with passes that have every public
function of the seven modules wrapped in a span (`tracing.py`), and reports
the per-layer metrics: self times (median over traced passes), work counts
of one pass (which must repeat exactly), and `trace.overhead_s`, the median
traced-minus-untraced difference of adjacent rescaled pass times.

`attempted` counts op executions and `failed` those that exited non-zero,
printed bad output, or printed output that differs from the warm-up pass.
The last stdout line is the JSON result; a fuller record (machine stamp,
host load, every raw and rescaled pass time, probe times, per-op medians)
goes to .perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import checks
import machine
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORD_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

MIN_PASSES = 3
SETUP_STARTS = 20  # fresh-interpreter starts per run, spread over its passes
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.perf_counter(); import unif_lab.cli as cli; "
              "cli.build_parser(); print(repr(time.perf_counter() - t))")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_cli():
    """Import unif_lab.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "unif_lab" / "cli.py").is_file():
        raise SystemExit(f"error: no unif_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import unif_lab.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "unif_lab":
        raise SystemExit(f"error: imported unif_lab from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def setup_once() -> float:
    """Seconds to import the CLI and build its parser, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(proc.stdout)


def setup_timed(probe_s: float) -> Tuple[float, float]:
    """Raw and rescaled seconds of one fresh-interpreter start.

    `probe_s` is the median probe of the pass just before.  A probe taken
    right after the child exits reads slow, so starts are not bracketed.
    """
    raw = setup_once()
    return raw, speed.scaled(raw, probe_s)


@dataclass
class PassResult:
    wall: float
    op_seconds: List[float]
    failed: List[str]
    out_bytes: int
    texts: Dict[str, str] = field(default_factory=dict)
    probes: List[float] = field(default_factory=list)  # before op i is [i]
    scaled: float = 0.0  # pass time at the probe's nominal speed


class Bench:
    def __init__(self, cli, workload: str, ops: List[workloads.Op]):
        self.cli = cli
        self.workload = workload
        self.ops = ops
        self.expected: Dict[str, str] = {}   # label -> stdout digest
        self.invalid: Dict[str, str] = {}    # label -> why the output is bad
        self.attempted = 0
        self.failed = 0
        self.fail_log: List[str] = []

    def _run_op(self, op: workloads.Op):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.dispatch(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an op that raises is a failed op, not a crash
            rc = None
            err.write(traceback.format_exc())
        return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()

    def run_pass(self, keep_text: bool = False, tracer=None,
                 probe: bool = False) -> PassResult:
        gc.collect()
        times, failed, texts, nbytes = [], [], {}, 0
        probes = [speed.probe()] if probe else []
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            dt, rc, text, err = self._run_op(op)
            if probe:
                probes.append(speed.probe())
            times.append(dt)
            nbytes += len(text.encode())
            digest = hashlib.sha256(text.encode()).hexdigest()
            why = None
            if rc != 0:
                why = f"exit {rc}: {err.strip()[-500:]}"
            elif op.label in self.invalid:
                why = self.invalid[op.label]
            elif self.expected.setdefault(op.label, digest) != digest:
                why = "stdout differs from the warm-up pass"
            if why:
                failed.append(op.label)
                self.fail_log.append(f"{op.label}: {why}")
            if keep_text:
                texts[op.label] = text
        self.attempted += len(self.ops)
        self.failed += len(failed)
        scaled = sum(speed.scaled(t, (probes[i] + probes[i + 1]) / 2)
                     for i, t in enumerate(times)) if probe else 0.0
        return PassResult(sum(times), times, failed, nbytes, texts, probes,
                          scaled)

    def warm_up(self, seed: int, tiny: bool) -> Dict[str, Dict]:
        """One pass whose outputs are fully parsed and checked."""
        res = self.run_pass(keep_text=True)
        summaries = {}
        for op in self.ops:
            if op.label in res.failed:
                continue
            try:
                summaries[op.label] = checks.summarize(op, res.texts[op.label])
            except checks.OutputError as exc:
                self.invalid[op.label] = str(exc)
        pairs = workloads.PATH_PAIRS.get(self.workload, [])
        for label in checks.check_pairs(pairs, summaries):
            self.invalid[label] = "paths disagree beyond 1e-9"
        if seed == workloads.DEFAULT_SEED and not tiny:
            ref = load_reference().get(self.workload, {})
            for label, summary in summaries.items():
                diff = (checks.compare(ref[label], summary) if label in ref
                        else "no reference value")
                if diff:
                    self.invalid[label] = f"reference: {diff}"
        for label, why in self.invalid.items():
            self.fail_log.append(f"{label}: {why}")
        self.failed += sum(1 for op in self.ops
                           if op.label in self.invalid
                           and op.label not in res.failed)
        return summaries


def repeat(seconds: float, step: Callable[[], float]) -> None:
    """Call `step` (which returns the pass time it spent) for about `seconds`.

    No step starts that would be expected to end more than half a step past
    the budget.  Time a step spends outside its passes is not counted.
    """
    spent: List[float] = []
    while len(spent) < MIN_PASSES or \
            sum(spent) + 0.5 * statistics.median(spent) < seconds:
        spent.append(step())


def load_reference() -> Dict:
    return json.loads(REFERENCE.read_text())


def quartiles(vals: List[float]) -> Dict:
    q = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q[0], "q3": q[2],
            "n": len(vals)}


def op_medians(ops, results: List[PassResult]) -> Dict[str, float]:
    return {op.label: statistics.median(r.op_seconds[i] for r in results)
            for i, op in enumerate(ops)}


def run(args) -> Tuple[Dict, Dict]:
    """Run the benchmark; returns the result line and the run record."""
    cli = load_cli()
    tiny = args.scale == "tiny"
    ops = workloads.build(args.workload, args.seed, tiny=tiny)
    host_start = machine.host_sample()
    bench = Bench(cli, args.workload, ops)
    summaries = bench.warm_up(args.seed, tiny)
    record: Dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "scale": args.scale, "argv": {o.label: " ".join(o.argv)
                                                  for o in ops}}
    metrics: Dict[str, float] = {}
    if args.trace:
        # untraced and traced passes alternate, so the overhead is measured
        # as paired differences that one stretch of host load affects alike
        tracer = tracing.Tracer()
        commands = {i: op.command for i, op in enumerate(ops)}
        plain: List[PassResult] = []
        traced: List[PassResult] = []
        layers: List[Dict] = []

        def pair() -> float:
            plain.append(bench.run_pass(probe=True))
            tracer.spans = []
            tracer.install()
            try:
                traced.append(bench.run_pass(tracer=tracer, probe=True))
            finally:
                tracer.uninstall()
            per_pass = tracing.pass_layers(tracer.spans, commands)
            per_pass["cli.out_bytes"] = traced[-1].out_bytes
            layers.append(per_pass)
            return plain[-1].wall + traced[-1].wall

        repeat(args.seconds, pair)
        layer, unsteady = tracing.summarize_passes(layers)
        for name in unsteady:
            bench.fail_log.append(f"count {name} differs between passes")
        layer["trace.overhead_s"] = statistics.median(
            t.scaled - p.scaled for p, t in zip(plain, traced))
        for name in tracing.per_layer_names():
            metrics[name] = layer[name]
        record["untraced_wall_s"] = quartiles([r.scaled for r in plain])
        record["traced_wall_s"] = quartiles([r.scaled for r in traced])
        record["op_seconds_traced"] = op_medians(ops, traced)
        counts_steady = not unsteady
    else:
        # set-up is sampled between the timed passes, so it sees the same
        # stretch of host load as they do; the first start byte-compiles
        setup_once()
        setup_starts = 2 if tiny else SETUP_STARTS
        setup: List[Tuple[float, float]] = []
        results: List[PassResult] = []

        def one() -> float:
            results.append(bench.run_pass(probe=True))
            done = sum(r.wall for r in results) / args.seconds
            probe_s = statistics.median(results[-1].probes)
            while len(setup) < setup_starts * min(1.0, done):
                setup.append(setup_timed(probe_s))
            return results[-1].wall

        repeat(args.seconds, one)
        while len(setup) < setup_starts:
            setup.append(setup_timed(statistics.median(results[-1].probes)))
        scaled = [r.scaled for r in results]
        walls = [r.wall for r in results]
        metrics["wall_s"] = statistics.median(scaled)
        metrics["setup_s"] = statistics.median(s for _, s in setup)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        record["wall_s"] = quartiles(scaled)
        record["wall_s"]["passes"] = scaled
        record["raw_wall_s"] = quartiles(walls)
        record["raw_wall_s"]["passes"] = walls
        record["setup_s"] = quartiles([s for _, s in setup])
        record["raw_setup_s"] = quartiles([r for r, _ in setup])
        record["probe_s"] = quartiles([x for r in results for x in r.probes])
        record["op_seconds"] = op_medians(ops, results)
        record["op_passes"] = [r.op_seconds for r in results]
        counts_steady = True
    record["machine"] = machine.stamp()
    record["host"] = machine.host_load(host_start, machine.host_sample())
    record["failures"] = bench.fail_log
    if args.update_reference:
        write_reference(args, summaries, bench)
    units = tracing.unit if args.trace else END_TO_END.__getitem__
    result = {
        "correct": bench.failed == 0 and counts_steady,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": val, "unit": units(name)}
                    for name, val in metrics.items()},
    }
    record["result"] = result
    RECORD_DIR.mkdir(exist_ok=True)
    path = RECORD_DIR / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                         f"-{args.scale}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def write_reference(args, summaries, bench) -> None:
    if args.seed != workloads.DEFAULT_SEED or args.scale != "full":
        raise SystemExit("--update-reference needs the default seed and "
                         "full scale")
    if bench.fail_log and any("reference" not in f for f in bench.fail_log):
        raise SystemExit("refusing to store a reference from a failing run")
    ref = load_reference()
    ref[args.workload] = summaries
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def print_summary(result: Dict, record: Dict) -> None:
    for key in ("wall_s", "raw_wall_s", "setup_s", "raw_setup_s", "probe_s",
                "untraced_wall_s", "traced_wall_s"):
        if key in record:
            q = record[key]
            print(f"{key}: median {q['median']:.4f} s  q1 {q['q1']:.4f}  "
                  f"q3 {q['q3']:.4f}  n={q['n']}")
    m = record["machine"]
    print(f"machine: {m['nproc']} x {m['cpu_model']}, L2 {m['l2']}, "
          f"L3 {m['l3']}, python {m['python']}, numpy {m['numpy']}; "
          f"host {record['host']}")
    print(f"ops: {result['attempted']}  ops_failed: {result['failed']}")
    for line, count in Counter(record["failures"]).most_common(20):
        print(f"FAILED x{count} {line}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every size (smoke test)")
    ap.add_argument("--update-reference", dest="update_reference",
                    action="store_true",
                    help="store this run's outputs in reference.json")
    args = ap.parse_args(argv)
    result, record = run(args)
    print_summary(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
