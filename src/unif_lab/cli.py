"""Batch command-line front end.

Every subcommand is a pure function of its flags: fixed flags and seed give
byte-identical output.  verify and bench draw from --seed alone (default
0).  Every command runs single-threaded; verify alone takes --threads, and
ignores it.  Timing lines (bench) go to stderr so stdout stays
reproducible.  A subcommand takes --json or --csv only where the flag picks
or names the format it prints (gen and dual pick, heis names its mode's),
and never both; the other format's flag is a usage error.  A CSV cell is
the bytes of repr of its value, from csvtext's vectorised Schubfach
(shortest round-trip digits), whose power-of-ten table the first CSV call
builds; import and build_parser leave it unbuilt.  A flag the
subcommand does not take is refused by that subcommand's parser, whose
usage and error lines name it; a flag placed before the subcommand's name,
by the top-level parser.

Exit codes: 0 success, 2 usage error (also a box average or dual function
estimated past uniformity._MAX_COST element operations, and a `verify` seed
below 0), 3 numeric-contract violation (e.g. a box average below
-1e-9*M, M = max|a|^(2^k) over the samples it read, which at H < N
legitimate input can give, or a non-finite CSV value), 4 a
`verify` suite found a violated inequality.  Every suite derives its trials
from the seed in uniformity._run_trials, so on exit 4 one stderr line gives
the call that reruns the worst trial alone, from SuiteReport.replay.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import math
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from . import (csvtext, duality, ergodic_weights, generators, nilmanifold,
               uniformity)
from .errors import (GeneratorSpecError, NegativityViolation,
                     SupBoundViolation, UnifLabError)
from .generators import _parse_int, _parse_list, _parse_number
from .seq_core import (INTERVAL, DomainMode, IntervalSpec, _require_finite,
                       cyclic)
from .uniformity import BoxParams, NormReport

USAGE_EXIT = 2
CONTRACT_EXIT = 3
VERIFY_EXIT = 4
# a larger --trials or --grid step count would run for days (or forever)
_MAX_COUNT = 10 ** 6
# CSV rows formatted per write: keeps the text and the formatter's arrays
# held at once small without paying a write call per row, or numpy's
# per-call cost on short arrays
_CSV_BLOCK = 2048


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------

def _parse_range(text: str) -> IntervalSpec:
    """'lo:hi' -> IntervalSpec(lo, hi - lo)."""
    ends = text.split(":")
    if len(ends) != 2:
        raise GeneratorSpecError(f"bad range {text!r}, expected lo:hi")
    lo, hi = (_parse_int(end, "range end") for end in ends)
    if hi <= lo:
        raise GeneratorSpecError(f"empty range {text!r}")
    return IntervalSpec(lo, hi - lo)


def _parse_grid(text: str) -> List[float]:
    """'lo:hi:steps' -> evenly spaced floats; or 'a,b,c' explicit."""
    if ":" not in text:
        return _parse_list(text, "--grid value")
    fields = text.split(":")
    if len(fields) != 3:
        raise GeneratorSpecError(f"bad grid {text!r}, expected lo:hi:steps")
    lo, hi = (_parse_number(end, "--grid end") for end in fields[:2])
    n = _parse_int(fields[2], "--grid steps")
    if not 1 <= n <= _MAX_COUNT:
        raise GeneratorSpecError(
            f"--grid steps must be between 1 and {_MAX_COUNT}, got {n}")
    grid = [lo + (hi - lo) * i / max(n - 1, 1) for i in range(n)]
    if not all(map(math.isfinite, grid)):
        raise GeneratorSpecError(f"--grid values must be finite, got {text!r}")
    return grid


def _mode_from_args(args) -> DomainMode:
    if args.mode == "cyclic":
        if args.N is None:
            raise GeneratorSpecError("cyclic mode needs --N")
        return cyclic(args.N)
    return INTERVAL


def _box_params(args) -> BoxParams:
    mode = _mode_from_args(args)
    if mode.is_cyclic:
        n = mode.modulus
        lo = args.lo if args.lo is not None else 0
        length = args.len if args.len is not None else n
        h = args.H if args.H is not None else n
        return BoxParams(args.k, h, IntervalSpec(lo, length), mode)
    if args.len is None:
        raise GeneratorSpecError("interval mode needs --len")
    if args.H is None:
        raise GeneratorSpecError("interval mode needs --H")
    if args.N is not None:
        raise GeneratorSpecError("interval mode does not take --N")
    return BoxParams(args.k, args.H, IntervalSpec(args.lo or 0, args.len),
                     INTERVAL)


def _norm_json(op: str, params: Dict, rep: NormReport) -> Dict:
    mode = rep.params.mode
    return {
        "op": op,
        "params": params,
        "value": rep.value,
        "powered": rep.powered,
        "diagnostics": {
            "h_tail": rep.h_tail,
            "path": rep.path,
            "mode": mode.describe(),
            "N": mode.modulus,
            "H": rep.params.H,
        },
    }


def _emit(args, chunks: Iterable[str]) -> None:
    """Write the text chunks, each as it is made, to --out or stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_json(args, obj) -> None:
    try:
        text = json.dumps(obj, allow_nan=False)
    except ValueError:  # a NaN or infinity: name it, exit 3
        json.loads(json.dumps(obj), parse_constant=lambda tok:
                   _require_finite("output value", np.array([float(tok)])))
        raise
    _emit(args, [text + "\n"])


def _emit_csv(args, header: Sequence[str], *columns: np.ndarray) -> None:
    """Equal-length int64 or float64 columns as CSV rows, each cell its repr.

    Every column is checked finite before anything is written, so a
    contract violation leaves the output empty.  Rows are then formatted
    and written _CSV_BLOCK at a time by csvtext.rows, whose float cells are
    repr's shortest round-trip digits from a vectorised Schubfach; its
    power-of-ten table is built on the first CSV call, not at import.
    """
    _require_finite("output value", *columns)
    _emit(args, itertools.chain([",".join(header) + "\n"],
                                csvtext.rows(columns, _CSV_BLOCK)))


def _require_format(args, printed: str, what: str) -> None:
    """Refuse --json or --csv when `what` prints the other format."""
    other = "csv" if printed == "json" else "json"
    if getattr(args, other):
        raise GeneratorSpecError(
            f"{what} prints {printed.upper()}, not {other.upper()}")


def _emit_samples(args, ns: np.ndarray, vals: np.ndarray) -> None:
    """The n,re,im table of complex samples vals at indices ns."""
    _emit_csv(args, ("n", "re", "im"), ns, vals.real, vals.imag)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_norm(args) -> int:
    a = generators.parse_generator(args.gen)
    p = _box_params(args)
    rep = uniformity.box_norm(a, p, path=args.path)
    params = {"gen": args.gen, "k": p.k, "H": p.H, "lo": p.interval.lo,
              "len": p.interval.length, "path": args.path}
    _emit_json(args, _norm_json("norm", params, rep))
    return 0


def _cmd_unorm(args) -> int:
    a = generators.parse_generator(args.gen)
    rng = _parse_range(args.range)
    if args.H is not None and args.per_window == "cyclic":
        raise GeneratorSpecError(
            "unorm --H needs --per-window interval; the cyclic proxy uses "
            "H = --window")
    rep = uniformity.uniformity_norm_proxy(
        a, rng, args.window, args.stride, args.k,
        args.H if args.H is not None else args.window,
        per_window=args.per_window)
    params = {"gen": args.gen, "range": args.range, "window": args.window,
              "stride": args.stride, "k": args.k,
              "per_window": args.per_window,
              "argmax_lo": rep.params.interval.lo}
    _emit_json(args, _norm_json("unorm", params, rep))
    return 0


def _cmd_gen(args) -> int:
    a = generators.parse_generator(args.gen)
    rng = _parse_range(args.range)
    vals = a.sample(rng.lo, rng.hi)
    if args.json:
        obj = {"op": "gen", "params": {"gen": args.gen, "range": args.range},
               "values": np.column_stack((vals.real, vals.imag)).tolist()}
        _emit_json(args, obj)
    else:
        _emit_samples(args, rng.indices(), vals)
    return 0


def _cmd_dual(args) -> int:
    if args.trig:
        _require_format(args, "json", "dual --trig")
        for flag in ("gen", "N"):
            if getattr(args, flag) is not None:
                raise GeneratorSpecError(f"dual --trig does not take --{flag}")
        poly = generators.parse_trig_terms(args.trig)
        obj = {"op": "dual", "params": {"trig": args.trig},
               "hk2": duality.hk_norm_k2(poly),
               "dual2": duality.dual_norm_k2(poly)}
        _emit_json(args, obj)
        return 0
    if not args.gen or args.N is None:
        raise GeneratorSpecError("dual needs --trig or (--gen and --N)")
    a = generators.parse_generator(args.gen)
    rep = duality.dft_coefficients(a, args.N)
    if args.csv:
        c = rep.coefs  # |c| by np.hypot: abs(complex)'s bits, not np.abs's
        _emit_csv(args, ("bin", "re", "im", "magnitude"), np.arange(c.size),
                  c.real, c.imag, np.hypot(c.real, c.imag))
    else:
        obj = {"op": "dual", "params": {"gen": args.gen, "N": args.N},
               "hk2": rep.hk2, "dual2": rep.dual2}
        _emit_json(args, obj)
    return 0


def _cmd_dualfn(args) -> int:
    a = generators.parse_generator(args.gen)
    p = _box_params(args)
    d = duality.dual_function(a, p)
    vals = d.sample(p.interval.lo, p.interval.hi)
    _emit_samples(args, p.interval.indices(), vals)
    return 0


def _cmd_search(args) -> int:
    if args.dict == "fourier" and args.grid:
        raise GeneratorSpecError("search --dict fourier does not take --grid")
    a = generators.parse_generator(args.gen)
    grid = _parse_grid(args.grid) if args.grid else None
    hits = duality.inverse_search(a, args.N, kind=args.dict, grid=grid,
                                  top=args.top)
    obj = {"op": "search",
           "params": {"gen": args.gen, "N": args.N, "dict": args.dict,
                      "grid": args.grid or "", "top": args.top},
           "hits": [{"spec": spec, "corr": corr} for spec, corr in hits]}
    _emit_json(args, obj)
    return 0


def _parse_system(text: str) -> ergodic_weights.DynSystem:
    kind, _, rest = text.partition(":")
    if kind == "rot":
        return ergodic_weights.rotation(_parse_number(rest, "rot angle"))
    if kind == "skew":
        return ergodic_weights.skew(_parse_number(rest, "skew angle"))
    if kind == "heis":
        tau = _parse_list(rest, "heis system tau", count=3)
        return ergodic_weights.heis_system(nilmanifold.HeisElem(*tau))
    raise GeneratorSpecError(f"unknown system {text!r}")


def _heis_x0(text: Optional[str]) -> nilmanifold.HeisPoint:
    if not text:
        return nilmanifold.IDENTITY_POINT
    return generators._parse_point(text, "--x0")


def _parse_x0(sys_: ergodic_weights.DynSystem, text: Optional[str]):
    if sys_.kind == "rotation":
        return _parse_number(text, "--x0") if text else 0.0
    if sys_.kind == "skew":
        return tuple(_parse_list(text, "--x0", count=2)) if text else (0.0, 0.0)
    return _heis_x0(text)


def _cmd_weighted(args) -> int:
    if args.grid and args.N is not None:
        raise GeneratorSpecError("weighted takes --N or --grid, not both")
    if not args.grid and args.threshold is not None:
        raise GeneratorSpecError("weighted --threshold needs --grid")
    w = generators.parse_generator(args.w)
    sys_ = _parse_system(args.system)
    fs = _parse_list(args.obs, "--obs", lambda name, _:
                     ergodic_weights.named_observable(sys_, name))
    x0 = _parse_x0(sys_, args.x0)
    params = {"w": args.w, "system": args.system, "obs": args.obs,
              "x0": args.x0 or ""}
    if args.grid:
        ns = _parse_list(args.grid, "--grid value", _parse_int)
        kw = {} if args.threshold is None else {
            "threshold": _parse_number(args.threshold, "--threshold")}
        rep = ergodic_weights.cauchy_scan(w, sys_, fs, x0, ns, **kw)
        obj = {"op": "weighted", "params": {**params, "grid": args.grid},
               "values": [[v.real, v.imag] for v in rep.values],
               "deltas": list(rep.deltas),
               "converged": rep.converged,
               "threshold": rep.threshold}
        _emit_json(args, obj)
        return 0
    if args.N is None:
        raise GeneratorSpecError("weighted needs --N or --grid")
    val = ergodic_weights.weighted_multiple_average(w, sys_, fs, x0, args.N)
    obj = {"op": "weighted", "params": {**params, "N": args.N},
           "value": [val.real, val.imag], "abs": abs(val)}
    _emit_json(args, obj)
    return 0


def _cmd_ww(args) -> int:
    phi = generators.parse_generator(args.gen)
    freqs, mags = ergodic_weights.wiener_wintner_scan(phi, args.N)
    _emit_csv(args, ("t_bin", "magnitude"), freqs, mags)
    return 0


def _cmd_heis(args) -> int:
    tau = nilmanifold.HeisElem(*_parse_list(args.tau, "--tau", count=3))
    x0 = _heis_x0(args.x0)
    f = generators.named_character(args.f)
    rng = _parse_range(args.range)
    if args.check_closed_form:
        _require_format(args, "json", "heis --check-closed-form")
    else:
        _require_format(args, "csv", "heis")
    seq = nilmanifold.nilsequence(tau, x0, f, rng)
    ns = np.arange(rng.lo, rng.hi, dtype=np.int64)
    vals = seq.eval(ns)
    if args.check_closed_form:
        if not (tau.y == 1.0 and tau.z == 0.0 and x0 == nilmanifold.IDENTITY_POINT
                and args.f == "ez"):
            raise GeneratorSpecError(
                "--check-closed-form needs tau=(alpha,1,0), identity x0, f=ez")
        # e(-alpha n(n+1)/2), each power of n reduced mod 1 exactly
        ref = generators.poly_phase_seq([0.0, -tau.x / 2, -tau.x / 2]).eval(ns)
        dev = float(np.max(np.abs(vals - ref)))
        obj = {"op": "heis-check",
               "params": {"tau": args.tau, "f": args.f, "range": args.range},
               "max_abs_dev": dev, "ok": dev <= 1e-6}
        _emit_json(args, obj)
        return 0
    _emit_samples(args, ns, vals)
    return 0


# --- verify ---------------------------------------------------------------

_SUITES: Dict[str, Callable[..., uniformity.SuiteReport]] = {
    "vdc": uniformity.run_vdc_suite,
    "csg": uniformity.run_csg_suite,
    "subadd": uniformity.run_subadditivity_suite,
    "mono": uniformity.run_monotonicity_suite,
    "recur": uniformity.run_recursion_suite,
    "pairing": duality.run_pairing_suite,
    "direct": duality.run_direct_bound_suite,
}


def _replay_line(suite: str, kwargs: Dict,
                 rep: uniformity.SuiteReport) -> str:
    """The stderr line that replays rep's worst trial as a one-trial run:
    its seed (and ks) from rep.replay, the suite's other parameters from
    kwargs."""
    fn = _SUITES[suite]
    call = ["1"] + [f"{name}={value!r}"
                    for name, value in rep.replay + tuple(kwargs.items())]
    return (f"verify {suite}: worst trial {rep.worst_trial}; replay: "
            f"{fn.__module__}.{fn.__name__}({', '.join(call)})\n")


def _suite_kwargs(args) -> Dict:
    """Every suite parameter a verify flag can set: the flag's value, else
    the suite's own default.  A flag the suite does not take is refused."""
    params = inspect.signature(_SUITES[args.suite]).parameters
    kw: Dict = {}
    for flag, name in (("len", "length"), ("N", "n"), ("H", "h"), ("k", "k")):
        value = getattr(args, flag)
        if name in params:
            kw[name] = params[name].default if value is None else value
        elif value is not None:
            raise GeneratorSpecError(
                f"verify {args.suite} does not take --{flag}")
    return kw


def _cmd_verify(args) -> int:
    if args.trials > _MAX_COUNT:
        raise GeneratorSpecError(
            f"--trials must be at most {_MAX_COUNT}, got {args.trials}")
    kwargs = _suite_kwargs(args)
    rep = _SUITES[args.suite](args.trials, seed=args.seed, **kwargs)
    obj = {"op": "verify", "params": {"suite": args.suite,
                                      "trials": args.trials,
                                      "seed": args.seed, **kwargs},
           "violations": rep.violations, "worst_slack": rep.worst_slack,
           "ok": rep.ok}
    _emit_json(args, obj)
    if rep.ok:
        return 0
    sys.stderr.write(_replay_line(args.suite, kwargs, rep))
    return VERIFY_EXIT


# --- bench ----------------------------------------------------------------

def run_bench(n: int, h: int, seed: int = 0) -> Dict:
    """Direct vs fast box-norm timing at k = 2, cyclic.

    Returns values, their difference, and wall times; timings land on stderr
    in the CLI so stdout stays byte-reproducible.
    """
    a = generators.rademacher_seq(seed)
    p = BoxParams(2, h, IntervalSpec(0, n), cyclic(n))
    t0 = time.perf_counter()
    direct = uniformity.box_norm(a, p, path="direct")
    t1 = time.perf_counter()
    fast = uniformity.box_norm(a, p, path="fast")
    t2 = time.perf_counter()
    diff = abs(direct.value - fast.value)
    return {
        "N": n, "H": h, "k": 2, "seed": seed,
        "direct_value": direct.value, "fast_value": fast.value,
        "max_abs_diff": diff, "agree_1e9": diff <= 1e-9,
        "direct_seconds": t1 - t0, "fast_seconds": t2 - t1,
        "speedup": (t1 - t0) / max(t2 - t1, 1e-12),
    }


def _cmd_bench(args) -> int:
    res = run_bench(args.N, args.H, args.seed)
    sys.stderr.write(
        f"direct: {res['direct_seconds']:.3f}s  fast: {res['fast_seconds']:.3f}s"
        f"  speedup: {res['speedup']:.1f}x\n")
    obj = {"op": "bench",
           "params": {"N": res["N"], "H": res["H"], "k": res["k"],
                      "seed": res["seed"]},
           "direct_value": res["direct_value"],
           "fast_value": res["fast_value"],
           "max_abs_diff": res["max_abs_diff"],
           "agree_1e9": res["agree_1e9"]}
    _emit_json(args, obj)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sp, *names) -> None:
    """The flags shared by several subcommands; --json and --csv only where
    `names` lists them, as alternatives."""
    if "gen" in names:
        sp.add_argument("--gen", required=True, help="generator spec string")
    if "box" in names:
        sp.add_argument("--k", type=int, default=2)
        sp.add_argument("--H", type=int, default=None)
        sp.add_argument("--N", type=int, default=None)
        sp.add_argument("--mode", choices=("interval", "cyclic"),
                        default="cyclic")
        sp.add_argument("--lo", type=int, default=None)
        sp.add_argument("--len", type=int, default=None)
    sp.add_argument("--out", default=None, help="write output to a file")
    formats = sp.add_mutually_exclusive_group()
    for fmt in ("json", "csv"):
        if fmt in names:
            formats.add_argument(f"--{fmt}", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="unif-lab",
        description="Finite-truncation uniformity norms on bounded sequences")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("norm", help="box norm of a generated sequence")
    _add_common(sp, "gen", "box", "json")
    sp.add_argument("--path", default="auto",
                    choices=("auto", "fast", "direct", "fft", "spectral"),
                    help="computation path; fft is another name for fast")
    sp.set_defaults(fn=_cmd_norm)

    sp = sub.add_parser("unorm", help="sliding-window uniformity-norm proxy")
    _add_common(sp, "gen", "json")
    sp.add_argument("--range", required=True, help="search range lo:hi")
    sp.add_argument("--window", type=int, required=True)
    sp.add_argument("--stride", type=int, required=True)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--H", type=int, default=None)
    sp.add_argument("--per-window", dest="per_window",
                    choices=("cyclic", "interval"), default="cyclic")
    sp.set_defaults(fn=_cmd_unorm)

    sp = sub.add_parser("gen", help="dump sequence samples")
    _add_common(sp, "gen", "json", "csv")
    sp.add_argument("--range", required=True, help="lo:hi")
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("dual", help="k=2 spectrum / dual-norm calculus")
    _add_common(sp, "json", "csv")
    sp.add_argument("--gen", default=None)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--trig", default=None,
                    help="closed-form norms of a trig polynomial")
    sp.set_defaults(fn=_cmd_dual)

    sp = sub.add_parser("dualfn", help="dual function samples as CSV")
    _add_common(sp, "gen", "box", "csv")
    sp.set_defaults(fn=_cmd_dualfn)

    sp = sub.add_parser("search", help="empirical correlation search")
    _add_common(sp, "gen", "json")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--dict", choices=("fourier", "quad", "heis"),
                    default="fourier")
    sp.add_argument("--grid", default=None, help="lo:hi:steps or a,b,c")
    sp.add_argument("--top", type=int, default=10)
    sp.set_defaults(fn=_cmd_search)

    sp = sub.add_parser("weighted", help="weighted multiple ergodic average")
    _add_common(sp, "json")
    sp.add_argument("--w", required=True, help="weight generator spec")
    sp.add_argument("--system", required=True, help="rot:a | skew:a | heis:a,b,c")
    sp.add_argument("--obs", required=True, help="comma list, e.g. ex,ex")
    sp.add_argument("--x0", default=None)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--grid", default=None, help="comma list of N values")
    sp.add_argument("--threshold", default=None)
    sp.set_defaults(fn=_cmd_weighted)

    sp = sub.add_parser("ww", help="Wiener-Wintner frequency scan (CSV)")
    _add_common(sp, "gen", "csv")
    sp.add_argument("--N", type=int, required=True)
    sp.set_defaults(fn=_cmd_ww)

    sp = sub.add_parser("heis", help="Heisenberg nilsequence tools")
    _add_common(sp, "json", "csv")
    sp.add_argument("--tau", required=True, help="a,b,c")
    sp.add_argument("--x0", default=None, help="x,y,z")
    sp.add_argument("--f", default="ez")
    sp.add_argument("--range", required=True, help="lo:hi")
    sp.add_argument("--check-closed-form", dest="check_closed_form",
                    action="store_true")
    sp.set_defaults(fn=_cmd_heis)

    sp = sub.add_parser("verify", help="seeded inequality suites (exit 4 on violation)")
    sp.add_argument("suite", choices=sorted(_SUITES))
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--len", type=int, default=None)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--H", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=1,
                    help="accepted and ignored")
    _add_common(sp, "json")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("bench", help="direct vs fast timing (timings on stderr)")
    _add_common(sp, "json")
    sp.add_argument("--N", type=int, default=1 << 16)
    sp.add_argument("--H", type=int, default=256)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_bench)

    for sp in sub.choices.values():  # the parser that refuses unknown flags
        sp.set_defaults(parser=sp)
    return ap


# flags whose values may begin with '-' (ranges, coordinates); merged to
# --flag=value so argparse does not mistake the value for an option
_DASH_VALUE_FLAGS = {"--range", "--tau", "--x0", "--lo", "--grid"}


def _normalize_argv(argv: Sequence[str]) -> List[str]:
    out: List[str] = []
    for tok in argv:
        if out and out[-1] in _DASH_VALUE_FLAGS:  # a flag still bare
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _normalize_argv(list(argv))
    ap = build_parser()
    args, unknown = ap.parse_known_args(argv)
    if argv[0] != args.command:
        # the top level registers only -h, so every token before the
        # subcommand's name is one it left over
        before = argv[:argv.index(args.command)]
        ap.error(f"unrecognized arguments: {' '.join(before)}")
    del ap  # cyclic garbage from here, not held live through the command
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.fn(args)
    except (NegativityViolation, SupBoundViolation) as exc:
        sys.stderr.write(f"numeric contract violation: {exc}\n")
        return CONTRACT_EXIT
    except (UnifLabError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    except MemoryError as exc:  # numpy's message names the array's size
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return USAGE_EXIT


def main(argv: Optional[Sequence[str]] = None) -> int:
    return dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
