"""Concrete 2-step nilsystem on the Heisenberg group.

Group elements are upper unitriangular 3x3 matrices [[1,x,z],[0,1,y],[0,0,1]],
stored as coordinate triples with the law

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + x*y').

Each computation has one array rule here, and the one-point functions are
its cases:

  the lift     -- _lift builds tau^n * lift(x0) from the closed form for
                  tau^n, never by iterated multiplication, so rounding stays
                  at the 1e-6 scale for |n| <= 1e4 and coordinates O(1);
                  heis_pow is the lift at one index from the identity;
  the reduction -- _reduce_arrays moves a point to the fundamental domain
                  [0,1)^3 by the integer lattice acting on the right, in the
                  fixed order y, then x, then z, so the x-step (whose lattice
                  element has q = 0) cannot perturb z; heis_reduce is the
                  reduction at one point.

orbit_points, and through it nilsequence and cube_orbit, is the reduction of
the lift.  The seam: q = -floor(y) can take y to exactly 1.0 (y = -1e-20),
and then floor(y + q) takes 1 off q and y to 0.0 before z takes x*q, so
every point stays in its coset.  x and z fold from 1.0 to 0.0 freely.  Each
coordinate is taken mod 1 with seq_core._frac, v - floor(v): the bits of
np.remainder(v, 1.0) at about a tenth of its cost.

This module is the group arithmetic alone, built on seq_core; the heis:
spec grammar and the character names live in generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .seq_core import TWO_PI_I, ComplexSeq, _cube_vertices, _e, _frac


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


def _lift(tau: HeisElem, x0: HeisPoint, ns: np.ndarray):
    """tau^n * lift(x0) for an index array, before reduction.

    The coordinates are built in place, three arrays and a temporary at a
    time.  Each value takes the same roundings, in the same order, as
    (n tau.x + x0.x, n tau.y + x0.y,
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
    return px, nf, pz


def _reduce_arrays(x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """The coset reduction, y-then-x-then-z order, into new arrays.

    The floor of y + q folds the seam: it is 1.0 only where y + q rounds up
    to 1.0 (y = -1e-20), and then takes y to 0.0 and 1 off q before z takes
    x*q.  x - floor(x) can also round up to 1.0; the second _frac folds
    that back to 0.0, which moves no other coordinate.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = -np.floor(y)
        y = y + q
        # floored twice, not held: one array fewer at the peak
        q -= np.floor(y)
        y -= np.floor(y)
        q = q * x + z  # q is z + x*q from here
        return _frac(_frac(x)), y, _frac(_frac(q))


def heis_pow(tau: HeisElem, n: int) -> HeisElem:
    """tau^n = (n x, n y, n z + C(n,2) x y): the lift at the one index n
    from the identity, with its roundings.  n is any int64; ValueError
    outside that range."""
    if not -2 ** 63 <= n < 2 ** 63:
        raise ValueError(f"power {n} is outside int64")
    return HeisElem(*map(float, _lift(tau, IDENTITY_POINT, n)))


def heis_reduce(g: HeisElem) -> Tuple[HeisPoint, Tuple[int, int, int]]:
    """Reduce to [0,1)^3 by right multiplication with a lattice element.

    This is _reduce_arrays at one point: it shares that function's order
    (q from y, then p from x, then r from z) and its seam.  Returns the
    point and the (p, q, r) it took, read back from the point, so that
    g * (p, q, r) is the point up to rounding.  ValueError where z + x*q is
    past float range.
    """
    x, y, z = map(float, _reduce_arrays(*map(np.float64, (g.x, g.y, g.z))))
    # each step is an integer; y - g.y rounds to q exactly, as x - g.x
    # does to p and z - zq to r
    q = round(y - g.y)
    zq = heis_mul(g, HeisElem(0.0, q, 0.0)).z
    if not np.isfinite(zq):
        raise ValueError(f"cannot reduce {g}: z + x*q = {zq} overflows")
    return HeisPoint(x, y, z), (round(x - g.x), q, round(z - zq))


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


def nilsequence(tau: HeisElem, x0: HeisPoint, f: PointFunction) -> ComplexSeq:
    """a_n = f(canonical representative of tau^n * lift(x0)).

    Uses the closed form for tau^n: the z coordinate is n*tau.z plus
    C(n,2)*tau.x*tau.y in float64, whose rounding grows like n^2.  Against
    exact rationals its error measured up to 1.2e-8 at |n| <= 1e4, 1.7e-6
    at 1e5, 1.6e-4 at 1e6 and 1.2e-2 at 1e7.
    """
    def _eval(ns: np.ndarray) -> np.ndarray:
        return np.asarray(f(*orbit_points(tau, x0, ns)), dtype=np.complex128)

    return ComplexSeq(_eval, None)


def orbit_points(tau: HeisElem, x0: HeisPoint, ns: np.ndarray):
    """Canonical representatives of tau^n * lift(x0) for an index array:
    the reduction of the lift.  A 2^18-point orbit peaks at 16 MB
    (tracemalloc), the lift's three arrays and the reduction's five."""
    return _reduce_arrays(*_lift(tau, x0, ns))


def cube_orbit(x: HeisPoint, tau: HeisElem, h: Tuple[int, ...],
               k: int) -> Tuple[HeisPoint, ...]:
    """The 2^k points T^{eps . h} x, entry m at vertex m of
    seq_core._cube_vertices (eps_{i+1} = bit i of m)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(h) != k:
        raise ValueError(f"h must have {k} entries")
    offsets = np.array([off for off, _ in _cube_vertices(h)], dtype=np.int64)
    return tuple(HeisPoint(*map(float, point))
                 for point in zip(*orbit_points(tau, x, offsets)))
