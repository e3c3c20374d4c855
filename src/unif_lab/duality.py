"""Dual-norm calculus: DFT analysis, the explicit k = 2 norms, dual
functions, and the correlation-bound harness.

One layer computes every correlation c_b = avg_{m<N} a_m conj(b_m), from
checked samples (seq_core._samples: N >= 1, all finite): one FFT for the
grid b = e(mj/N) (seq_core._fourier), one pass per atom for any other
dictionary.  Printed |c_b| is np.hypot.

For a trigonometric polynomial b_n = sum_m lambda_m e(n t_m):

  hk_norm_k2(b)   = (sum_m |lambda_m|^4)^(1/4)      -- the k = 2 box norm
  dual_norm_k2(b) = (sum_m |lambda_m|^(4/3))^(3/4)  -- its dual norm

and the correlation bound |avg_n a_n b_n| <= ||a||_2 * ||b||_2* is an exact
Hoelder chain on Z/NZ when every t_m sits on the N-point grid.

The dual function averages the cube products missing the base vertex:

  (D_k a)(n) = (1/H^k) sum_{h in [0,H)^k} prod_{eps != 0} C^{|eps|} a_{n+eps.h}

so that pairing it against a regroups exactly into the powered box norm:
avg_n a_n (D_k a)(n) = S_H.  It is the box-norm cube sum with the constant 1
at the base vertex, which the kernel takes as None: the base vertex's merge
is the shifted conjugate itself, with no product and no array of ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import FrequencyGridMismatch
from .generators import TrigPoly, exp_seq, quad_phase_seq, trig_poly_seq
from .nilmanifold import HeisElem, IDENTITY_POINT, character_ez, nilsequence
from .seq_core import (ComplexSeq, _fourier, _require_finite, _samples,
                       from_samples)
from .uniformity import (BoxParams, SuiteReport, _call_cost, _cube_average,
                         _cyclic_box, _operand_array, _run_trials, _suite_seq,
                         box_norm)

GRID_TOL = 1e-12


# ---------------------------------------------------------------------------
# The correlation layer, spectra and the empirical dictionary search
# ---------------------------------------------------------------------------

def _correlate(samples: np.ndarray, atoms: Iterable[ComplexSeq]) -> np.ndarray:
    """c_b for each atom b; one atom is sampled at a time, never a matrix."""
    return np.array([np.mean(samples * np.conj(b.sample(0, samples.size)))
                     for b in atoms], dtype=np.complex128)


def _rank(corrs: np.ndarray, spec: Callable[[int], str],
          top: int) -> List[Tuple[str, float]]:
    """sorted((spec(i), |corrs[i]|), key=(-|c|, spec))[:top], formatting
    and sorting only the entries at or above the top-th largest |c|."""
    mags = np.hypot(corrs.real, corrs.imag)
    _require_finite("correlation", mags)
    cut = np.partition(mags, -top)[-top] if top < mags.size else -np.inf
    keep = np.flatnonzero(mags >= cut)
    hits = sorted(zip(map(spec, keep.tolist()), mags[keep].tolist()),
                  key=lambda item: (-item[1], item[0]))
    return hits[:top]


def _k2_norms(coefs: np.ndarray) -> Tuple[float, float]:
    """((sum |lambda|^4)^(1/4), (sum |lambda|^(4/3))^(3/4)).  A finite
    |lambda| above ~1e77 overflows to inf quietly; the callers reject it."""
    mags = np.abs(coefs)
    with np.errstate(over="ignore"):
        return (float(np.sum(mags ** 4) ** 0.25),
                float(np.sum(mags ** (4.0 / 3.0)) ** 0.75))


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    coefs: np.ndarray  # lambda_j at frequency j/N, in bin order
    hk2: float
    dual2: float

    @property
    def coefficients(self) -> TrigPoly:
        """The spectrum as an N-term TrigPoly, built only when asked."""
        n = self.coefs.size
        return TrigPoly(tuple(
            (j / n, c) for j, c in enumerate(self.coefs.tolist())))


def dft_coefficients(a: ComplexSeq, n: int) -> SpectrumReport:
    """lambda_j = (1/N) sum_{m<N} a_m e(-mj/N) for every bin j."""
    coefs = _fourier(_samples(a, n))
    return SpectrumReport(coefs, *_k2_norms(coefs))


def spectrum_probe(a: ComplexSeq, n: int,
                   freqs: Sequence[float]) -> np.ndarray:
    """(1/N) sum_{m<N} a_m e(-m t) at arbitrary frequencies t (off-grid ok)."""
    return _correlate(_samples(a, n), map(exp_seq, freqs))


def hk_norm_k2(p: TrigPoly) -> float:
    """(sum |lambda|^4)^(1/4)."""
    return _k2_norms(p.coefs)[0]


def dual_norm_k2(p: TrigPoly) -> float:
    """(sum |lambda|^(4/3))^(3/4)."""
    return _k2_norms(p.coefs)[1]


def inverse_search(a: ComplexSeq, n: int, kind: str = "fourier",
                   grid: Optional[Sequence[float]] = None,
                   top: int = 10) -> List[Tuple[str, float]]:
    """Rank dictionary elements b by |avg_{m<N} a_m conj(b_m)|, descending.

    Dictionaries: "fourier" (all N grid exponentials), "quad" (quadratic
    phases e(alpha m^2) over `grid`), "heis" (nilsequences tau=(alpha,1,0),
    f = e(z) over `grid`).  Purely empirical: reports the best correlators
    found in the finite dictionary, nothing more.  Raises ValueError for
    top < 1 or N < 1.
    """
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    samples = _samples(a, n)
    if kind == "fourier":  # bin j <-> e(mj/N)
        return _rank(_fourier(samples), lambda j: f"exp:{j / n!r}", top)
    if kind not in ("quad", "heis"):
        raise ValueError(f"unknown dictionary {kind!r}")
    if grid is None:
        raise ValueError(f"{kind} dictionary needs a grid of coefficients")
    alphas = [float(g) for g in grid]
    if kind == "quad":
        atoms, spec = map(quad_phase_seq, alphas), "quad:{!r}"
    else:
        atoms = (nilsequence(HeisElem(alpha, 1.0, 0.0), IDENTITY_POINT,
                             character_ez(1)) for alpha in alphas)
        spec = "heis:tau=({!r},1,0);f=ez"
    return _rank(_correlate(samples, atoms),
                 lambda i: spec.format(alphas[i]), top)


# ---------------------------------------------------------------------------
# Dual functions
# ---------------------------------------------------------------------------

def _dual_values(x: np.ndarray, p: BoxParams) -> np.ndarray:
    """D_k a on p.interval from the operand samples x = _operand_array(a, p):
    the per-n cube average with None, the constant 1, at vertex 0."""
    return _cube_average([None] + [x] * ((1 << p.k) - 1), p.k, p.H,
                         p.interval.length, per_n=True)


def dual_function(a: ComplexSeq, p: BoxParams) -> ComplexSeq:
    """The dual function D_k a on p.interval.

    In interval mode the evaluation reads k*(H-1) points past the interval,
    so the output's valid range is the interval itself (shrunk by the
    margin relative to the input).  In cyclic mode the result is the
    N-periodic dual function of the wrapped sequence.  The cube sum runs
    over the interval in chunks of at most uniformity._BLOCK points, with
    an O(_BLOCK) workspace; past that length the values move in their
    last bits against one unblocked pass (within 1e-12 relative).  A call
    whose cost estimate passes uniformity._MAX_COST raises ValueError
    before sampling.
    """
    return from_samples(_dual_values(_operand_array(a, p), p),
                        lo=p.interval.lo)


def dual_pairing(a: ComplexSeq, p: BoxParams) -> complex:
    """avg_{n in I} a_n * (D_k a)(n); its real part is the powered box norm.
    a is sampled once: the base a_n is the head x[:|I|] of the operand the
    dual function reads."""
    x = _operand_array(a, p)
    return complex(np.mean(x[:p.interval.length] * _dual_values(x, p)))


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
# Seeded suites
# ---------------------------------------------------------------------------

def run_direct_bound_suite(trials: int, n: int = 4096,
                           seed: int = 0) -> SuiteReport:
    """Trial seed s draws a = _suite_seq(s, N) and, from its own stream
    default_rng([s, 1]), the 5 distinct grid bins and complex coefficients
    of b."""
    if n < 5:  # each trial draws 5 distinct bins of the N-point grid
        raise ValueError(f"direct-bound suite needs N >= 5, got {n}")

    def slack(s: int) -> float:
        rng = np.random.default_rng([s, 1])
        bins = rng.choice(n, size=5, replace=False)
        coefs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        b = TrigPoly(tuple((int(j) / n, complex(c))
                           for j, c in zip(bins, coefs)))
        rep = direct_bound_check(_suite_seq(s, n), b, n)
        return rep.corr - rep.bound - 1e-9

    def cost() -> int:
        return _call_cost(_cyclic_box(2, n, n))

    return _run_trials("direct-bound", trials, slack, cost, seed)


def run_pairing_suite(trials: int, n: int = 1024, h: int = 32, k: int = 2,
                      seed: int = 0) -> SuiteReport:
    p = _cyclic_box(k, h, n)

    def slack(s: int) -> float:
        a = _suite_seq(s, n)
        pairing = dual_pairing(a, p).real
        powered = box_norm(a, p).powered
        return abs(pairing - powered) - 1e-9

    def cost() -> int:  # the dual function, then the box norm
        return _call_cost(p, "fast") + _call_cost(p)

    return _run_trials("dual-pairing", trials, slack, cost, seed)
