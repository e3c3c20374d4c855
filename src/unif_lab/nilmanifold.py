"""Concrete 2-step nilsystem on the Heisenberg group.

Group elements are upper unitriangular 3x3 matrices [[1,x,z],[0,1,y],[0,0,1]],
stored as coordinate triples with the law

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + x*y').

The integer lattice acts on the right; reduction to the fundamental domain
[0,1)^3 is performed in the fixed order y, then x, then z, so the x-step
(whose lattice element has q = 0) cannot perturb z.  Orbit sequences
f(tau^n . x0) are evaluated through the closed form for tau^n, never by
iterated multiplication, to keep rounding at the 1e-6 scale for |n| <= 1e4
and coordinates O(1).  The vectorized reduction takes each coordinate mod 1
with seq_core._frac, v - floor(v): the bits of np.remainder(v, 1.0) at
about a tenth of its cost.

This module is the group arithmetic alone, built on seq_core; the heis:
spec grammar and the character names live in generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .seq_core import (TWO_PI_I, ComplexSeq, IntervalSpec, _cube_vertices,
                       _e, _frac)


@dataclass(frozen=True)
class HeisElem:
    """Free-coordinate group element."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class HeisPoint:
    """Canonical fundamental-domain representative of a coset, in [0,1)^3."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for c in (self.x, self.y, self.z):
            if not (0.0 <= c < 1.0):
                raise ValueError(f"point coordinate {c} outside [0,1)")

    def lift(self) -> HeisElem:
        return HeisElem(self.x, self.y, self.z)


IDENTITY_POINT = HeisPoint(0.0, 0.0, 0.0)


def heis_mul(g: HeisElem, h: HeisElem) -> HeisElem:
    return HeisElem(g.x + h.x, g.y + h.y, g.z + h.z + g.x * h.y)


def heis_inv(g: HeisElem) -> HeisElem:
    return HeisElem(-g.x, -g.y, g.x * g.y - g.z)


def heis_pow(tau: HeisElem, n: int) -> HeisElem:
    """tau^n = (n x, n y, n z + C(n,2) x y), valid for every integer n."""
    n = int(n)
    binom = n * (n - 1) // 2
    return HeisElem(n * tau.x, n * tau.y, n * tau.z + binom * tau.x * tau.y)


def heis_reduce(g: HeisElem) -> Tuple[HeisPoint, Tuple[int, int, int]]:
    """Reduce to [0,1)^3 by right multiplication with a lattice element.

    Order fixed as q = -floor(y) (updates z by x*q and y), then p = -floor(x),
    then r = -floor(z).  Returns the point and the (p, q, r) used, so that
    g * (p, q, r) is the canonical representative.  Where y + q rounds up
    to 1.0 (y = -1e-20), q - 1 is used and y is 0.0, so that z moves with
    the step y takes: x and z fold from 1.0 to 0.0 freely, y does not.
    ValueError where z + x*q is past float range.
    """
    q = -int(np.floor(g.y))
    y = g.y + q
    if y == 1.0:
        q, y = q - 1, 0.0
    z = g.z + g.x * q
    if not np.isfinite(z):
        raise ValueError(f"cannot reduce {g}: z + x*q = {z} overflows")
    p = -int(np.floor(g.x))
    x = g.x + p
    r = -int(np.floor(z))
    z = z + r
    # floor can land exactly on 1.0 after rounding; fold it back
    x, z = x % 1.0, z % 1.0
    return HeisPoint(x, y, z), (p, q, r)


def _reduce_arrays(x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """Vectorized heis_reduce, y-then-x-then-z order."""
    q = -np.floor(y)
    z = z + x * q
    # x - floor(x) can round up to exactly 1.0 (x = -1e-20); the second
    # _frac folds that back to 0.0, as heis_reduce's final % 1.0 does
    y = _frac(y + q)
    x = _frac(_frac(x))
    z = _frac(_frac(z))
    return x, y, z


# ---------------------------------------------------------------------------
# Nilsequences
# ---------------------------------------------------------------------------

PointFunction = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def character_ez(j: int = 1) -> PointFunction:
    # not _e(j * z): rounding j * z first changes the last bits from j = 3
    def f(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.exp(TWO_PI_I * j * z)
    return f


def character_ex(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    return _e(x)


def character_ey(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    return _e(y)


def nilsequence(tau: HeisElem, x0: HeisPoint, f: PointFunction,
                rng: Optional[IntervalSpec] = None) -> ComplexSeq:
    """a_n = f(canonical representative of tau^n * lift(x0)).

    Uses the closed form for tau^n: the z coordinate is n*tau.z plus
    C(n,2)*tau.x*tau.y in float64, whose rounding grows like n^2.  Against
    exact rationals its error measured up to 1.2e-8 at |n| <= 1e4, 1.7e-6
    at 1e5, 1.6e-4 at 1e6 and 1.2e-2 at 1e7.
    """
    def _eval(ns: np.ndarray) -> np.ndarray:
        return np.asarray(f(*orbit_points(tau, x0, ns)), dtype=np.complex128)

    valid = None if rng is None else (rng.lo, rng.hi)
    return ComplexSeq(_eval, valid)


def orbit_points(tau: HeisElem, x0: HeisPoint, ns: np.ndarray):
    """Canonical representatives of tau^n * lift(x0) for an index array.

    The coordinates are built in place, three arrays and a temporary at a
    time: a 2^18-point orbit peaks at 18 MB (tracemalloc) where one array
    per intermediate held 28 MB.  Each value takes the same roundings, in
    the same order, as (n tau.x + x0.x, n tau.y + x0.y,
    ((C(n,2) (tau.x tau.y) + n tau.z) + x0.z) + (n tau.x) x0.y).
    """
    nf = np.asarray(ns, dtype=np.int64).astype(np.float64)
    # finite but huge coordinates can overflow to inf and give NaN points;
    # the callers' finiteness checks reject them, so numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        # C(n,2) rounded once, with the bits of int64 n*(n-1)//2 up to
        # n = 3,037,000,500, past which that product wraps negative
        pz = (nf - 1.0) * nf * 0.5 * (tau.x * tau.y) + nf * tau.z
        pz += x0.z
        px = nf * tau.x
        pz += px * x0.y
        px += x0.x
        nf *= tau.y  # nf is py from here
        nf += x0.y
        return _reduce_arrays(px, nf, pz)


def cube_orbit(x: HeisPoint, tau: HeisElem, h: Tuple[int, ...],
               k: int) -> Tuple[HeisPoint, ...]:
    """The 2^k points T^{eps . h} x, entry m at vertex m of
    seq_core._cube_vertices (eps_{i+1} = bit i of m)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(h) != k:
        raise ValueError(f"h must have {k} entries")
    offsets = np.array([off for off, _ in _cube_vertices(h)], dtype=np.int64)
    xs, ys, zs = orbit_points(tau, x, offsets)
    return tuple(HeisPoint(float(a), float(b), float(c))
                 for a, b, c in zip(xs, ys, zs))
