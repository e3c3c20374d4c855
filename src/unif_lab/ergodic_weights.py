"""Desk-scale weighted ergodic averages over concrete uniquely ergodic systems.

Three systems, each with a closed-form orbit so S^{in} x0 is computed
directly at any index (no iterated drift):

  rotation(alpha):  x -> x + alpha on the circle
  skew(alpha):      (x, y) -> (x + alpha, y + 2x + alpha) on the 2-torus,
                    whose second coordinate carries the quadratic phase
                    y + 2nx + n^2 alpha
  heis(tau):        left translation on the Heisenberg nilmanifold

Pointwise sampling along one orbit stands in for mean convergence: for
uniquely ergodic systems and Riemann integrable observables the orbit
averages converge for every starting point, so a single tracked orbit is an
honest finite witness.  The Cauchy reports state what was observed (partial
averages and their successive gaps); the `converged` flag is advisory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import GeneratorSpecError
from .generators import named_character
from .nilmanifold import HeisElem, HeisPoint, orbit_points
from .seq_core import ComplexSeq, _e, _exact_term_frac, _frac, _samples

RotationPoint = float
SkewPoint = Tuple[float, float]
SystemPoint = Union[RotationPoint, SkewPoint, HeisPoint]


@dataclass(frozen=True)
class DynSystem:
    kind: str  # "rotation" | "skew" | "heis"
    alpha: float = 0.0
    tau: Optional[HeisElem] = None

    def __post_init__(self) -> None:
        if self.kind not in ("rotation", "skew", "heis"):
            raise ValueError(f"unknown system kind {self.kind!r}")
        if self.kind == "heis" and self.tau is None:
            raise ValueError("heis system needs tau")

    def orbit_coords(self, x0: SystemPoint, ms: np.ndarray):
        """Coordinates of S^m x0 for an array of iterates m, by the closed
        formulas.  The skew terms m*alpha, 2mx and m^2*alpha are each
        reduced mod 1 exactly, as poly: phases are, so the quadratic phase
        keeps full precision at any m.  2mx is taken mod 1 from x mod 1,
        which leaves its fraction unchanged and 2x finite."""
        ms = np.asarray(ms, dtype=np.int64)
        if self.kind == "rotation":
            return (_frac(float(x0) + ms.astype(np.float64) * self.alpha),)
        if self.kind == "skew":
            x, y = x0
            xs = _frac(x + _exact_term_frac(self.alpha, ms, 1))
            ys = _frac(y + _exact_term_frac(2.0 * (x % 1.0), ms, 1)
                       + _exact_term_frac(self.alpha, ms, 2))
            return xs, ys
        return orbit_points(self.tau, x0, ms)


def rotation(alpha: float) -> DynSystem:
    return DynSystem("rotation", alpha=float(alpha))


def skew(alpha: float) -> DynSystem:
    return DynSystem("skew", alpha=float(alpha))


def heis_system(tau: HeisElem) -> DynSystem:
    return DynSystem("heis", tau=tau)


Observable = Callable[..., np.ndarray]


def named_observable(sys: DynSystem, name: str) -> Observable:
    """e(x)/e(y)/e(z) characters appropriate to the system's space."""
    if sys.kind == "rotation":
        if name == "ex":
            return _e
        raise GeneratorSpecError(f"rotation has no observable {name!r}")
    if sys.kind == "skew":
        if name == "ex":
            return lambda xs, ys: _e(xs)
        if name == "ey":
            return lambda xs, ys: _e(ys)
        raise GeneratorSpecError(f"skew has no observable {name!r}")
    return named_character(name)


def weighted_multiple_average(w: ComplexSeq, sys: DynSystem,
                              fs: Sequence[Observable], x0: SystemPoint,
                              n: int) -> complex:
    """(1/N) sum_{m<N} w_m * prod_{i=1..k} f_i(S^{i m} x0)."""
    total = _samples(w, n).copy()
    ms = np.arange(n, dtype=np.int64)
    for i, f in enumerate(fs, start=1):
        coords = sys.orbit_coords(x0, i * ms)
        total *= np.asarray(f(*coords), dtype=np.complex128)
    return complex(total.mean())


@dataclass(frozen=True)
class CauchyReport:
    ns: Tuple[int, ...]
    values: Tuple[complex, ...]
    deltas: Tuple[float, ...]
    converged: bool
    threshold: float


def cauchy_scan(w: ComplexSeq, sys: DynSystem, fs: Sequence[Observable],
                x0: SystemPoint, n_grid: Sequence[int],
                threshold: float = 0.01) -> CauchyReport:
    """Partial averages on an increasing N grid with their successive gaps."""
    ns = tuple(int(n) for n in n_grid)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("N grid must be increasing")
    values = tuple(weighted_multiple_average(w, sys, fs, x0, n) for n in ns)
    deltas = tuple(abs(b - a) for a, b in zip(values, values[1:]))
    converged = bool(deltas and deltas[-1] < threshold)
    return CauchyReport(ns, values, deltas, converged, threshold)


def wiener_wintner_scan(phi_orbit: ComplexSeq,
                        n: int) -> Tuple[np.ndarray, np.ndarray]:
    """|(1/N) sum_{m<N} phi_m e(-m t)| for all grid frequencies t = j/N.

    One FFT serves every frequency at once; the magnitude at bin j is the
    correlation of the orbit sequence with the exponential e(m j/N), so a
    pure phi = e(m alpha) with alpha on the grid peaks at the bin of alpha.
    """
    samples = _samples(phi_orbit, n)
    # |fft|/N, not _fourier's |fft/N|: they differ in some last bits
    mags = np.abs(np.fft.fft(samples)) / n
    freqs = np.arange(n, dtype=np.float64) / n
    return freqs, mags
