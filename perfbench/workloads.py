"""The benchmark's workloads: fixed `unif-lab` command lists built from a seed.

Each workload is one list of CLI invocations (an `Op` each) that a pass runs
in order.  The seed only picks the inputs -- `rad:` seeds, `quad:`/`heis`
coefficients and `verify --seed` -- never the shape of the work, so every
seed runs the same number of points, trials and output rows.

`tiny` shrinks every size for the smoke test; it keeps every command, so
every layer still runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

DEFAULT_SEED = 0

WHY = {
    "cube-large": "a few 2^14-2^16-point box-norm and dual-function calls: "
                  "the cube kernel and its h_tail recompute do most of the work",
    "sequences": "generators, Heisenberg orbits, dictionary search and "
                 "10^5-row CSV output, with little cube-kernel work",
    "suites": "the seeded verify suites at n=1024, H=32: thousands of small "
              "cube-kernel calls, the suite loop and the --threads 2 pool",
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Op:
    label: str               # stable name, used in records and reference.json
    argv: Tuple[str, ...]
    kind: str                # "json", "csv" or "verify"
    rows: int = 0            # data rows a CSV op must print

    @property
    def command(self) -> str:
        return self.argv[0]


# Cross-path agreement: these op pairs compute one norm on one input by
# different paths, so their listed JSON fields must agree to 1e-9.
PATH_PAIRS = {
    "cube-large": [("norm-auto", "norm-fft",
                    ("value", "powered", "diagnostics.h_tail"))],
}

_FULL: Dict[str, object] = dict(
    cube_n=1 << 16, cube_h=256, k3_len=1 << 14, k3_h=32, dualfn_h=128,
    gen_points=100_000, search_n=4096, grid_steps=201,
    cauchy_grid="4096,16384,65536,262144", ww_n=1 << 17, dual_n=16384,
    unorm_range=1 << 16, window=4096, stride=1024,
    suite_flags=(), vdc_flags=(), direct_flags=(),
    csg_trials=4, subadd_trials=26, recur_trials=4,
    pairing_trials=20, direct_trials=20, vdc_trials=20,
)

_TINY: Dict[str, object] = dict(
    cube_n=1024, cube_h=16, k3_len=256, k3_h=4, dualfn_h=8,
    gen_points=500, search_n=256, grid_steps=5,
    cauchy_grid="64,128,256", ww_n=1024, dual_n=256,
    unorm_range=2048, window=256, stride=256,
    suite_flags=("--N", "64", "--H", "8"), vdc_flags=("--len", "512", "--H", "8"),
    direct_flags=("--N", "256",),
    csg_trials=2, subadd_trials=26, recur_trials=2,
    pairing_trials=2, direct_trials=2, vdc_trials=2,
)


def _inputs(seed: int) -> Dict[str, str]:
    """Every seed-dependent input of every workload, as CLI text."""
    rng = random.Random(seed)
    rad = [str(rng.randrange(1, 10 ** 6)) for _ in range(5)]
    alpha = rng.uniform(0.1, 0.9)
    beta = rng.uniform(0.1, 0.9)
    return {
        "rad0": rad[0], "rad1": rad[1], "rad2": rad[2], "rad3": rad[3],
        "rad4": rad[4],
        "alpha": f"{alpha:.8f}",
        "alpha_grid": f"{alpha - 0.005:.8f}:{alpha + 0.005:.8f}",
        "beta": f"{beta:.8f}",
        "beta_grid": f"{beta - 0.005:.8f}:{beta + 0.005:.8f}",
        "genpoly": f"{rng.uniform(0.1, 0.9):.6f}",
        "heis": ",".join(f"{rng.uniform(0.1, 0.9):.8f}" for _ in range(3)),
        "verify": str(rng.randrange(10 ** 6)),
    }


def build(name: str, seed: int, tiny: bool = False) -> List[Op]:
    """The ordered command list of workload `name` for `seed`."""
    z = _TINY if tiny else _FULL
    s = _inputs(seed)

    def op(label, kind, text, *extra, rows=0):
        return Op(label, tuple(text.split()) + tuple(extra), kind, rows)

    if name == "cube-large":
        n, h = z["cube_n"], z["cube_h"]
        cyc = f"--k 2 --mode cyclic --N {n}"
        return [
            op("norm-auto", "json", f"norm --gen rad:{s['rad0']} {cyc} --H {h}"),
            op("norm-fft", "json",
               f"norm --gen rad:{s['rad0']} {cyc} --H {h} --path fft"),
            op("norm-k3-quad", "json",
               f"norm --gen quad:{s['alpha']} --k 3 --mode interval "
               f"--len {z['k3_len']} --H {z['k3_h']}"),
            op("dualfn", "csv",
               f"dualfn --gen rad:{s['rad1']} {cyc} --H {z['dualfn_h']}",
               rows=n),
        ]
    if name == "sequences":
        pts, sn, g = z["gen_points"], z["search_n"], z["grid_steps"]
        return [
            op("gen-quad", "csv", f"gen --gen quad:{s['alpha']} --range 0:{pts}",
               rows=pts),
            op("gen-genpoly", "csv",
               f"gen --gen genpoly:e({s['genpoly']}*n*floor(sqrt2*n)) "
               f"--range 0:{pts}", rows=pts),
            op("search-quad", "json",
               f"search --gen quad:{s['alpha']} --N {sn} --dict quad "
               f"--grid {s['alpha_grid']}:{g}"),
            op("search-heis", "json",
               f"search --gen heis:tau=({s['beta']},1,0) --N {sn} --dict heis "
               f"--grid {s['beta_grid']}:{g}"),
            op("weighted-heis", "json",
               f"weighted --w rad:{s['rad2']} --system heis:{s['heis']} "
               f"--obs ez,e2z --grid {z['cauchy_grid']}"),
            op("ww", "csv", f"ww --gen rad:{s['rad3']} --N {z['ww_n']} --csv",
               rows=z["ww_n"]),
            op("dual", "json", f"dual --gen rad:{s['rad4']} --N {z['dual_n']}"),
            op("unorm", "json",
               f"unorm --gen rad:{s['rad4']} --range 0:{z['unorm_range']} "
               f"--window {z['window']} --stride {z['stride']} --k 2"),
        ]
    if name == "suites":
        # No `verify mono`: k-monotonicity of the box norm at finite H fails
        # for some inputs (e.g. `verify mono --trials 12 --seed 553174`), so
        # that op would fail on a few percent of workload seeds.
        v = s["verify"]
        flags = z["suite_flags"]

        def suite(label, suite_name, trials, *extra):
            return op(label, "verify",
                      f"verify {suite_name} --trials {trials} --seed {v}", *extra)

        return [
            suite("csg", "csg", z["csg_trials"], *flags),
            suite("subadd-t1", "subadd", z["subadd_trials"], "--threads", "1",
                  *flags),
            suite("subadd-t2", "subadd", z["subadd_trials"], "--threads", "2",
                  *flags),
            suite("recur", "recur", z["recur_trials"], *flags),
            suite("pairing", "pairing", z["pairing_trials"], *flags),
            suite("direct", "direct", z["direct_trials"], *z["direct_flags"]),
            suite("vdc", "vdc", z["vdc_trials"], *z["vdc_flags"]),
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
