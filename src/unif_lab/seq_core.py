"""Bounded two-sided sequences and the averaging primitives built on them.

A sequence is an evaluator n -> complex and the integer range it is valid
on (unbounded for closed-form generators), nothing more: it declares no
bound on |a_n|.  An operation that needs one (vdc_bound's |a_n| <= 1)
measures it on the samples it reads.  Two averaging modes are supported
everywhere downstream:

  interval  -- plain finite truncation: sums run over an interval [lo, lo+len),
               reading past its edges only up to a declared margin;
  cyclic(N) -- every index is reduced mod N before evaluation, which makes
               the finite box-norm identities exact and is the testing
               backbone of the whole package.

Summation is deterministic: numpy's pairwise reduction over a fixed memory
layout, indices enumerated left to right, h-grids lexicographically.  Results
are therefore bit-stable from run to run and independent of worker counts.

The primitives every later module shares live here once: the phase e(t),
t mod 1 and the exact frac(c n^j), the checked samples a_0 .. a_{N-1} and
their Fourier grid, and the vertex table of the cube {0,1}^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (IncompatibleRangeError, NegativityViolation,
                     SequenceRangeError)

Range = Optional[Tuple[int, int]]  # half-open [lo, hi); None = unbounded

TWO_PI_I = 2j * np.pi  # e(t) = exp(TWO_PI_I * t)


@dataclass(frozen=True)
class IntervalSpec:
    """Integer interval [lo, lo + length)."""

    lo: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"interval length must be >= 1, got {self.length}")

    @property
    def hi(self) -> int:
        return self.lo + self.length

    def indices(self) -> np.ndarray:
        return np.arange(self.lo, self.hi, dtype=np.int64)


@dataclass(frozen=True)
class DomainMode:
    """Averaging domain: plain interval or wraparound on Z/NZ."""

    kind: str  # "interval" or "cyclic"
    modulus: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("interval", "cyclic"):
            raise ValueError(f"unknown domain mode {self.kind!r}")
        if self.kind == "cyclic" and (self.modulus is None or self.modulus < 1):
            raise ValueError("cyclic mode needs a modulus N >= 1")

    @property
    def is_cyclic(self) -> bool:
        return self.kind == "cyclic"

    def describe(self) -> str:
        return "interval" if not self.is_cyclic else f"cyclic({self.modulus})"


INTERVAL = DomainMode("interval")


def cyclic(n: int) -> DomainMode:
    return DomainMode("cyclic", n)


@dataclass(frozen=True)
class ComplexSeq:
    """A sequence a: Z -> C given by a vectorized evaluator and the range
    it is valid on.

    ``eval_fn`` maps an int64 numpy array of indices to a complex128 array
    and must be pure: the same index always yields the bit-identical value.
    ``valid_range`` is the half-open [lo, hi) it may be read on, None for
    all of Z.
    """

    eval_fn: Callable[[np.ndarray], np.ndarray]
    valid_range: Range

    def eval(self, ns: np.ndarray) -> np.ndarray:
        return np.asarray(self.eval_fn(np.asarray(ns, dtype=np.int64)),
                          dtype=np.complex128)

    def at(self, n: int) -> complex:
        return complex(self.eval(np.array([n], dtype=np.int64))[0])

    def require_range(self, lo: int, hi: int, what: str = "operation") -> None:
        """SequenceRangeError, naming `what`, unless [lo, hi) lies inside
        the valid range."""
        rng = self.valid_range
        if rng is not None and not (rng[0] <= lo and hi <= rng[1]):
            raise SequenceRangeError(
                f"{what} needs indices [{lo}, {hi}) but valid range is "
                f"{self.valid_range}")

    def sample(self, lo: int, hi: int) -> np.ndarray:
        """Values on [lo, hi) after a range check."""
        self.require_range(lo, hi, "sample")
        return self.eval(np.arange(lo, hi, dtype=np.int64))


def _frac(v: np.ndarray) -> np.ndarray:
    """v mod 1 for a float64 array, with the bits of np.remainder(v, 1.0).

    v - floor(v) rounds the exact fraction once, as np.remainder does, and
    gives the same special values: +0.0 for -0.0 and for integers, NaN for
    NaN and +-inf (with the same invalid-value warning), and exactly 1.0
    for a tiny negative v.  It costs about a tenth as much.  The result is
    a new array; a 0-d or scalar v gives a numpy scalar, as % 1.0 does.
    """
    f = np.floor(v)
    if isinstance(f, np.ndarray):
        return np.subtract(v, f, out=f)
    return v - f


def _exact_term_frac(c: float, ns: np.ndarray, j: int) -> np.ndarray:
    """frac(c * n^j) with no rounding in the product.

    Writes c = m * 2^-d exactly (53-bit integer m), so that
    frac(c * n^j) = ((m * n^j) mod 2^d) / 2^d in exact integer arithmetic.
    A plain Horner evaluation loses ~ulp(c * n^j) before the mod, which for
    n^2 phases at n ~ 6e4 already exceeds 1e-12; the box-correlation
    telescoping identities are only testable at that precision with the
    exact reduction.

    For d <= 64 the residue is computed in uint64 wraparound arithmetic:
    2^d divides 2^64, so the product mod 2^64 (negative n and m by two's
    complement) keeps the low d bits exact.  The one rounding is the
    correctly rounded residue -> float64 conversion, and dividing by the
    power of two 2^d is exact, so the result is bit-identical to Python's
    int / int.  Larger d, that is 0 < |c| < 2^-12, is out of uint64's reach
    and falls back to a per-index big-int loop.
    """
    mant, exp = math.frexp(c)
    m2 = int(mant * (1 << 53))
    d = 53 - exp
    if d <= 0 or m2 == 0:
        return np.zeros(ns.shape, dtype=np.float64)  # c * n^j is an integer
    if d > 64:
        mod = 1 << d
        return np.array([((m2 * (int(n) ** j)) % mod) / mod
                         for n in np.ravel(ns)],
                        dtype=np.float64).reshape(np.shape(ns))
    un = np.asarray(ns, dtype=np.int64).view(np.uint64)
    acc = np.full(un.shape, m2 % (1 << 64), dtype=np.uint64)
    for _ in range(j):
        acc *= un
    acc &= np.uint64((1 << d) - 1)
    return acc.astype(np.float64) / float(1 << d)


def _e(phase: np.ndarray) -> np.ndarray:
    """e(x) = exp(2*pi*i*x), vectorized; a 0-d or scalar phase gives a
    numpy scalar."""
    z = TWO_PI_I * np.asarray(phase, dtype=np.float64)
    if isinstance(z, np.ndarray):
        return np.exp(z, out=z)
    return np.exp(z)


def _require_finite(what: str, *arrays: np.ndarray) -> None:
    """A non-finite value breaks the numeric contract (exit 3 in the CLI)."""
    for arr in arrays:
        bad = arr[~np.isfinite(arr)]
        if bad.size:
            raise NegativityViolation(f"{what} {bad[0]} is not finite")


def _samples(a: ComplexSeq, n: int) -> np.ndarray:
    """a_0 .. a_{N-1}; raises for N < 1 and on a non-finite sample."""
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    vals = a.sample(0, n)
    _require_finite("sample value", vals)
    return vals


def _fourier(samples: np.ndarray) -> np.ndarray:
    """c_j = avg_m a_m conj(e(mj/N)) at every grid bin j, by one FFT."""
    return np.fft.fft(samples) / samples.size


def _cube_vertices(h: Sequence[int]) -> List[Tuple[int, bool]]:
    """(eps . h, whether |eps| is odd) for each vertex m of {0,1}^k, k = len(h).

    Vertex m holds eps with eps_{i+1} = bit i of m, so for k = 2 the order
    is eps = 00, 10, 01, 11 with offsets 0, h1, h2, h1+h2.  A vertex of odd
    |eps| is the one a cube product conjugates.
    """
    return [(sum(hi for i, hi in enumerate(h) if m >> i & 1),
             bin(m).count("1") % 2 == 1) for m in range(1 << len(h))]


def from_samples(values: np.ndarray, lo: int = 0) -> ComplexSeq:
    """Wrap an array as a sequence valid on [lo, lo + len(values)).

    The values are neither scanned nor checked here: the operations that
    read them check what they need (finiteness, vdc_bound's |a_n| <= 1) on
    the samples they take.
    """
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.complex128))

    def _eval(ns: np.ndarray) -> np.ndarray:
        return arr[ns - lo]

    return ComplexSeq(_eval, (lo, lo + arr.size))


def constant_seq(c: complex) -> ComplexSeq:
    cval = complex(c)

    def _eval(ns: np.ndarray) -> np.ndarray:
        return np.full(ns.shape, cval, dtype=np.complex128)

    return ComplexSeq(_eval, None)


def wrap_cyclic(a: ComplexSeq, n: int) -> ComplexSeq:
    """The N-periodic extension n -> a(n mod N), valid everywhere.

    Shifts and products of wrapped sequences compose the way cyclic mode
    expects: shift(wrap_cyclic(a, N), h) evaluates a((n + h) mod N).
    """
    a.require_range(0, n, "cyclic wrap")

    def _eval(ns: np.ndarray) -> np.ndarray:
        return a.eval(ns % n)

    return ComplexSeq(_eval, None)


def sample_mode(a: ComplexSeq, lo: int, hi: int, mode: DomainMode) -> np.ndarray:
    """Values on [lo, hi): in cyclic(N) mode those of wrap_cyclic(a, N), so
    a must be valid on [0, N); in interval mode a's own, range-checked.

    Cyclic mode reduces its one index array mod N in place and hands it to
    a itself, with no wrapping sequence between them: one span-long int64
    array, not two, and each point evaluated once.
    """
    if not mode.is_cyclic:
        return a.sample(lo, hi)
    a.require_range(0, mode.modulus, "cyclic wrap")
    ns = np.arange(lo, hi, dtype=np.int64)
    return a.eval(np.remainder(ns, mode.modulus, out=ns))


# ---------------------------------------------------------------------------
# Averaging primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AvgReport:
    value: complex
    count: int
    mode: DomainMode


def interval_average(a: ComplexSeq, interval: IntervalSpec,
                     mode: DomainMode = INTERVAL) -> AvgReport:
    """(1/|I|) sum_{n in I} a_n, summed left to right over n."""
    vals = sample_mode(a, interval.lo, interval.hi, mode)
    return AvgReport(complex(vals.mean()), interval.length, mode)


def _centred_prefix(x: np.ndarray, scratch: Optional[np.ndarray] = None
                    ) -> Tuple[np.ndarray, complex]:
    """(p, mu): mu = mean(x) and p[i] = sum_{t<=i} (x[t] - mu).

    Centering by the mean keeps the prefix bounded, so rounding does not
    grow with the array even for constant input.  p is written into
    `scratch` (complex, len(x)) when given, else allocated here.
    """
    # ufunc reductions called directly: the ndarray.sum and np.cumsum wrappers
    # cost ~2 us a call, a tenth of a k = 1 base call at 10^3 points
    mu = np.add.reduce(x) / len(x)  # the same bits as x.mean()
    prefix = np.subtract(x, mu, out=scratch)
    np.add.accumulate(prefix, out=prefix)
    return prefix, mu


def _sliding_sums(x: np.ndarray, width: int, out_len: int,
                  out: Optional[np.ndarray] = None,
                  scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """W[n] = sum_{h<width} x[n+h] for n < out_len, from _centred_prefix
    (exact for constant input).

    W is written into `out` (complex, out_len) and the prefix into `scratch`
    (complex, len(x)) when given, so a caller that slides many windows of
    one shape can reuse both; otherwise they are allocated here.
    """
    prefix, mu = _centred_prefix(x, scratch)
    if out is None:
        out = np.empty(out_len, dtype=np.complex128)
    # prefix[i] sums the first i + 1 centred terms: W[0] = prefix[width-1],
    # W[n] = prefix[n+width-1] - prefix[n-1] for n >= 1
    out[0] = prefix[width - 1]
    np.subtract(prefix[width:width - 1 + out_len], prefix[:out_len - 1],
                out=out[1:])
    out += width * mu
    return out


def sup_window_average(a: ComplexSeq, search_range: IntervalSpec,
                       n: int) -> float:
    """max over starts M in search_range of |(1/n) sum_{m=M}^{M+n-1} a_m|.

    Uses the mean-centered prefix sums of _sliding_sums, so the scan is
    O(range) with bounded rounding.
    """
    if n < 1:
        raise ValueError("window length must be >= 1")
    vals = a.sample(search_range.lo, search_range.hi + n - 1)
    window_sums = _sliding_sums(vals, n, search_range.length)
    return float(np.max(np.abs(window_sums)) / n)


# ---------------------------------------------------------------------------
# Pointwise algebra
# ---------------------------------------------------------------------------

def _intersect(r1: Range, r2: Range) -> Range:
    if r1 is None:
        return r2
    if r2 is None:
        return r1
    lo, hi = max(r1[0], r2[0]), min(r1[1], r2[1])
    if lo >= hi:
        raise IncompatibleRangeError(f"ranges {r1} and {r2} do not overlap")
    return (lo, hi)


def shift(a: ComplexSeq, h: int) -> ComplexSeq:
    """(sigma^h a)(n) = a(n + h)."""
    rng = None if a.valid_range is None else (a.valid_range[0] - h,
                                              a.valid_range[1] - h)
    return ComplexSeq(lambda ns: a.eval(ns + h), rng)


def conjugate(a: ComplexSeq) -> ComplexSeq:
    return ComplexSeq(lambda ns: np.conj(a.eval(ns)), a.valid_range)


def product(a: ComplexSeq, b: ComplexSeq) -> ComplexSeq:
    rng = _intersect(a.valid_range, b.valid_range)
    return ComplexSeq(lambda ns: a.eval(ns) * b.eval(ns), rng)


def add(a: ComplexSeq, b: ComplexSeq) -> ComplexSeq:
    rng = _intersect(a.valid_range, b.valid_range)
    return ComplexSeq(lambda ns: a.eval(ns) + b.eval(ns), rng)


def scale(a: ComplexSeq, c: complex) -> ComplexSeq:
    cval = complex(c)
    return ComplexSeq(lambda ns: cval * a.eval(ns), a.valid_range)
