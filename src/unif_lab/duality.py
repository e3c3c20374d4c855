"""Dual-norm calculus: DFT analysis, the explicit k = 2 norms, dual
functions, and the correlation-bound harness.

For a trigonometric polynomial b_n = sum_m lambda_m e(n t_m):

  hk_norm_k2(b)   = (sum_m |lambda_m|^4)^(1/4)      -- the k = 2 box norm
  dual_norm_k2(b) = (sum_m |lambda_m|^(4/3))^(3/4)  -- its dual norm

and the correlation bound |avg_n a_n b_n| <= ||a||_2 * ||b||_2* is an exact
Hoelder chain on Z/NZ when every t_m sits on the N-point grid.

The dual function averages the cube products missing the base vertex:

  (D_k a)(n) = (1/H^k) sum_{h in [0,H)^k} prod_{eps != 0} C^{|eps|} a_{n+eps.h}

so that pairing it against a regroups exactly into the powered box norm:
avg_n a_n (D_k a)(n) = S_H.  It is the box-norm cube sum with the constant 1
at the base vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import FrequencyGridMismatch
from .generators import TrigPoly, quad_phase_seq, trig_poly_seq
from .nilmanifold import HeisElem, IDENTITY_POINT, character_ez, nilsequence
from .seq_core import ComplexSeq, from_samples, sample_mode
from .uniformity import (BoxParams, SuiteReport, _cube_sum, _cyclic_box,
                         _operand_array, _run_trials, _suite_seq, box_norm)

GRID_TOL = 1e-12


@dataclass(frozen=True)
class SpectrumReport:
    coefficients: TrigPoly  # frequencies j/N in bin order
    hk2: float
    dual2: float


def dft_coefficients(a: ComplexSeq, n: int) -> SpectrumReport:
    """lambda_j = (1/N) sum_{m<N} a_m e(-mj/N) for every bin j."""
    samples = a.sample(0, n)
    coefs = np.fft.fft(samples) / n
    poly = TrigPoly(tuple((j / n, complex(coefs[j])) for j in range(n)))
    return SpectrumReport(poly, hk_norm_k2(poly), dual_norm_k2(poly))


def spectrum_probe(a: ComplexSeq, n: int,
                   freqs: Sequence[float]) -> np.ndarray:
    """(1/N) sum_{m<N} a_m e(-m t) at arbitrary frequencies t (off-grid ok)."""
    samples = a.sample(0, n)
    ms = np.arange(n, dtype=np.float64)
    out = np.empty(len(freqs), dtype=np.complex128)
    for i, t in enumerate(freqs):
        out[i] = np.mean(samples * np.exp(-2j * np.pi * ((ms * t) % 1.0)))
    return out


# a finite |lambda| above ~1e77 overflows the fourth power to inf; the
# callers' finiteness checks reject it, so numpy stays quiet

def hk_norm_k2(p: TrigPoly) -> float:
    """(sum |lambda|^4)^(1/4)."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(p.coefs) ** 4) ** 0.25)


def dual_norm_k2(p: TrigPoly) -> float:
    """(sum |lambda|^(4/3))^(3/4)."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(p.coefs) ** (4.0 / 3.0)) ** 0.75)


# ---------------------------------------------------------------------------
# Dual functions
# ---------------------------------------------------------------------------

def dual_function(a: ComplexSeq, p: BoxParams) -> ComplexSeq:
    """The dual function D_k a on p.interval.

    In interval mode the evaluation reads k*(H-1) points past the interval,
    so the output's valid range is the interval itself (shrunk by the
    margin relative to the input).  In cyclic mode the result is the
    N-periodic dual function of the wrapped sequence.
    """
    x = _operand_array(a, p)
    out_len = p.interval.length
    d = np.zeros(out_len, dtype=np.complex128)
    _cube_sum([np.ones_like(x)] + [x] * ((1 << p.k) - 1), p.k, p.H, out_len, d)
    d /= p.H ** p.k
    label = f"dual[k={p.k},H={p.H}]({a.label})"
    return from_samples(d, lo=p.interval.lo, label=label)


def dual_pairing(a: ComplexSeq, p: BoxParams) -> complex:
    """avg_{n in I} a_n * (D_k a)(n); its real part is the powered box norm."""
    d = dual_function(a, p)
    base = sample_mode(a, p.interval.lo, p.interval.hi, p.mode)
    vals = d.sample(p.interval.lo, p.interval.hi)
    return complex(np.mean(base * vals))


# ---------------------------------------------------------------------------
# Direct correlation bound (k = 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectBoundReport:
    corr: float
    bound: float
    box_value: float
    dual_value: float

    @property
    def holds(self) -> bool:
        return self.corr <= self.bound + 1e-9


def _require_on_grid(p: TrigPoly, n: int) -> None:
    for t, _ in p.terms:
        j = round(t * n)
        if abs(t - (j % n) / n) > GRID_TOL:
            raise FrequencyGridMismatch(
                f"frequency {t} is not a multiple of 1/{n}")


def direct_bound_check(a: ComplexSeq, b: TrigPoly,
                       n: int) -> DirectBoundReport:
    """corr = |avg_{m<N} a_m b_m| against bound = ||a||_2,cyclic * ||b||_2*.

    Exact Hoelder on Z/NZ: requires every frequency of b on the N-grid.
    """
    _require_on_grid(b, n)
    a_vals = a.sample(0, n)
    b_vals = trig_poly_seq(b).sample(0, n)
    corr = abs(complex(np.mean(a_vals * b_vals)))
    box = box_norm(from_samples(a_vals), _cyclic_box(2, n, n))
    dual = dual_norm_k2(b)
    return DirectBoundReport(corr, box.value * dual, box.value, dual)


# ---------------------------------------------------------------------------
# Empirical correlation search (no optimality guarantee)
# ---------------------------------------------------------------------------

def inverse_search(a: ComplexSeq, n: int, kind: str = "fourier",
                   grid: Optional[Sequence[float]] = None,
                   top: int = 10) -> List[Tuple[str, float]]:
    """Rank dictionary elements b by |avg_{m<N} a_m conj(b_m)|, descending.

    Dictionaries: "fourier" (all N grid exponentials), "quad" (quadratic
    phases e(alpha m^2) over `grid`), "heis" (nilsequences tau=(alpha,1,0),
    f = e(z) over `grid`).  Purely empirical: reports the best correlators
    found in the finite dictionary, nothing more.  Raises ValueError for
    top < 1.
    """
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    samples = a.sample(0, n)
    hits: List[Tuple[str, float]] = []
    if kind == "fourier":
        coefs = np.fft.fft(samples) / n  # bin j <-> |avg a_m conj(e(mj/N))|
        for j in range(n):
            hits.append((f"exp:{j / n!r}", float(abs(coefs[j]))))
    elif kind in ("quad", "heis"):
        if grid is None:
            raise ValueError(f"{kind} dictionary needs a grid of coefficients")
        for alpha in map(float, grid):
            if kind == "quad":
                spec, b = f"quad:{alpha!r}", quad_phase_seq(alpha)
            else:
                spec = f"heis:tau=({alpha!r},1,0);f=ez"
                b = nilsequence(HeisElem(alpha, 1.0, 0.0), IDENTITY_POINT,
                                character_ez(1))
            corr = abs(complex(np.mean(samples * np.conj(b.sample(0, n)))))
            hits.append((spec, corr))
    else:
        raise ValueError(f"unknown dictionary {kind!r}")
    hits.sort(key=lambda item: (-item[1], item[0]))
    return hits[:top]


# ---------------------------------------------------------------------------
# Seeded suites
# ---------------------------------------------------------------------------

def run_direct_bound_suite(trials: int, n: int = 4096,
                           seed: int = 0) -> SuiteReport:
    rng_master = np.random.default_rng(seed)

    def slack(t: int) -> float:
        a = _suite_seq(seed + t, n)
        rng = np.random.default_rng(rng_master.integers(1 << 62))
        bins = rng.choice(n, size=5, replace=False)
        coefs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        b = TrigPoly(tuple((int(j) / n, complex(c))
                           for j, c in zip(bins, coefs)))
        rep = direct_bound_check(a, b, n)
        return rep.corr - rep.bound - 1e-9

    return _run_trials("direct-bound", trials, slack)


def run_pairing_suite(trials: int, n: int = 1024, h: int = 32, k: int = 2,
                      seed: int = 0) -> SuiteReport:
    p = _cyclic_box(k, h, n)

    def slack(t: int) -> float:
        a = _suite_seq(seed + t, n)
        pairing = dual_pairing(a, p).real
        powered = box_norm(a, p, with_tail=False).powered
        return abs(pairing - powered) - 1e-9

    return _run_trials("dual-pairing", trials, slack)
