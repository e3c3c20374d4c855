"""Finite-truncation box norms and the inequality harnesses around them.

Definitions (finite stage; e(t) = exp(2*pi*i*t), C z = conj(z)):

  correlation   c_h = (1/|I|) sum_{n in I} prod_{eps in {0,1}^k}
                      C^{|eps|} a_{n + eps . h}
  powered value S_H = (1/H^k) sum_{h in [0,H)^k} c_h
  box norm      ||a||_{I,k;H} = (Re S_H)^(1/2^k), clamped at 0 when the
                finite average dips above -1e-9*M, M = max|a|^(2^k) over
                the samples read (the scale of every c_h); deeper
                negativity raises.

Two index domains: interval mode reads a margin of k*(H-1) points past I;
cyclic(N) mode wraps indices mod N, which is what makes the box-norm
identities (Cauchy-Schwarz-Gowers, the k -> k+1 recursion, spectral
formulas) hold exactly at the finite stage.

Computation paths, all agreeing to better than 1e-9:

  direct    the literal O(|I| * H^k * 2^k) sum over the h grid, lexicographic;
  fast      one cube recursion over 2^k per-vertex arrays (_cube_sum),
            entered only through _cube_average, that differences the last
            coordinate down to a mean-centered prefix-sum sliding window,
            which its k = 2 level runs in its own shift loop, with no call
            per window, in buffers made once per chunk.  Box averages need
            only the n-sum, which the base takes from two dot products on
            the centred prefix.  Every call conjugates its shifted operands
            once per chunk, so a merge is one product.  The dual function
            keeps the per-n window and passes None, the constant 1, at the
            base vertex, which merges as the shifted conjugate itself.  For
            symmetric operands (one array per |eps|: box norms, the dual
            function) c_h is invariant under permuting h, so it walks only
            sorted outer shifts, O(C(H+k-2, k-1) * |I|);
            only csg_check's 2^k mixed operands walk the full grid,
            O(H^(k-1) * |I|).  _cube_average tests the operands for
            symmetry once, then runs the n-range in near-equal chunks of at
            most _BLOCK = 2^13 points, each on views of its operands plus
            the k*(H-1) margin, so the workspace is O(2^13) per level and
            stays in cache.  Past 2^13 points each chunk's windows centre on
            the chunk's own mean, which moves results in their last bits
            (within 1e-12 relative of one unblocked pass).  "fft" is another
            name for it, so `--path fft` command lines still run;
  spectral  k <= 2 cyclic with H = N: the closed forms |mean|^2 and
            sum_j |hat a(j)|^4 in O(N log N).

Every path but spectral also returns, from the same pass, the average of
c_h over the outermost shell max(h) = H-1: the h_tail diagnostic that every
box norm reports, csg_check's included.  On the fast path the k = 2 loop
of a symmetric n-summed walk reads it off its last window, h_2 = H-1, plus,
by the same permutation symmetry, a share of that window's h_1 < H-1 part
when H-1 occurs once in its outer shifts, so only those take an extra dot
product (one at k = 2, H-1 at k = 3); it agrees with the full grid's shell
sum to a few parts in 1e15 (_cube_sum).  fast skips the shell where nobody
reads it: box_powered_signed, and cyclic H = N, where h_tail is 0.
Box averages, csg_check's mixed pairing and the dual function sample
through _operand_array alone, once per sequence: csg_check's norms and
dual_pairing's base read the arrays already sampled.  It first raises
ValueError, before anything is sampled, when the cost estimate
(_cube_cost, from the parameters alone) passes _MAX_COST = 1e12 element
operations; it then samples only what the path reads: one period for
spectral, [I.lo, I.hi + k*(H-1)) otherwise.

In cyclic mode with H = N the h average runs over the whole group and the
quantity is a sum of squared magnitudes, hence exactly nonnegative.  At
H < N the uniform h average is not a positive-definite kernel, so S_H can
be genuinely negative (exp:0.1, k = 1, H = 8: -0.140 on [0, 4096)) and
raise NegativityViolation.  The seeded suites below check the inequalities;
_run_trials derives every trial from the suite's seed, so each is
replayable alone.  It refuses, before the first trial, a suite whose
trials together are estimated past _MAX_COST, and scores the trials in
contiguous blocks, one per CPU in the affinity mask: block 0 in this
process, each other in a forked child that pipes its slacks back.  The
report is the serial loop's, and so is the exception: the lowest-index
raising trial's.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from dataclasses import dataclass, replace
from itertools import product as iproduct
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NegativityViolation, SupBoundViolation, UnifLabError
from .generators import rademacher_seq
from .seq_core import (INTERVAL, ComplexSeq, DomainMode, IntervalSpec,
                       _centred_prefix, _cube_vertices, _e, _fourier, _frac,
                       _sliding_sums, add, conjugate, cyclic, from_samples,
                       product, sample_mode, shift, wrap_cyclic)

NEGATIVITY_FLOOR = -1e-9  # times M = max|a|^(2^k) over the samples read
_MAX_K = 16  # the cube's vertex table then has 2^16 = 65,536 entries
# Output points per _cube_sum pass (one chunk of _cube_average).  Past ~2^15
# points a pass's arrays leave the L2 cache.  Of 2^11 .. 2^15, 2^13 was
# fastest, or within 2% of it, at k = 2, H = 256, N = 2^16 and k = 3, H = 16,
# N = 2^18 (Xeon, 2 MiB L2 per core).
_BLOCK = 1 << 13
# Element operations past which a box average or dual function is refused
# before sampling (_require_affordable): hours of kernel time at the
# measured 10-30 ns per base-call element.
_MAX_COST = 10 ** 12


@dataclass(frozen=True)
class BoxParams:
    """Truncation parameters for a box-norm computation."""

    k: int
    H: int
    interval: IntervalSpec
    mode: DomainMode = INTERVAL

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.k > _MAX_K:
            raise ValueError(f"k must be <= {_MAX_K}, got {self.k}")
        if self.H < 1:
            raise ValueError("H must be >= 1")
        if self.mode.is_cyclic and self.H > self.mode.modulus:
            raise ValueError("cyclic mode needs H <= N")


@dataclass(frozen=True)
class NormReport:
    value: float
    powered: float
    params: BoxParams
    h_tail: float
    path: str  # the path that ran: "fast", "spectral" or "direct"


# ---------------------------------------------------------------------------
# Operand sampling
# ---------------------------------------------------------------------------

def _cube_cost(p: BoxParams, path: str, symmetric: bool = True) -> int:
    """Element operations of one box average on `path`, from p alone.

    direct: 2^k H^k |I|.  fast: the windows the kernel walks, C(H+k-2, k-1)
    for symmetric operands (see _cube_sum; H^(k-1) at k <= 2) and H^(k-1)
    for mixed ones, times the |I| + k(H-1) operand points each reads, so
    that a huge H counts even at k = 1.  spectral: the N points of the
    period, all that it reads (_operand_array).
    """
    n, k, h = p.interval.length, p.k, p.H
    if path == "direct":
        return (2 * h) ** k * n
    if path == "spectral":
        return n  # I = [0, N)
    windows = math.comb(h + k - 2, k - 1) if symmetric else h ** (k - 1)
    return windows * (n + k * (h - 1))


def _approx(cost: int) -> str:
    """An element-operation count to three digits, or as a power of two
    past float range."""
    return (f"{float(cost):.2e}" if cost.bit_length() <= 1000
            else f"2^{cost.bit_length() - 1}")


def _require_affordable(p: BoxParams, path: str,
                        symmetric: bool = True) -> int:
    """_cube_cost; ValueError, naming the estimate, when it exceeds
    _MAX_COST."""
    cost = _cube_cost(p, path, symmetric)
    if cost > _MAX_COST:
        raise ValueError(
            f"the {path} path would take ~{_approx(cost)} element operations "
            f"(k={p.k}, H={p.H}, |I|={p.interval.length}), above the limit "
            f"of {_MAX_COST:.0e}")
    return cost


def _call_cost(p: BoxParams, path: str = "auto",
               symmetric: bool = True) -> int:
    """_require_affordable of one box average on p by `path` as
    _resolve_path resolves it: its cost, or the call's own refusal."""
    return _require_affordable(p, _resolve_path(path, p), symmetric)


def _operand_array(a: ComplexSeq, p: BoxParams, path: str = "fast",
                   symmetric: bool = True) -> np.ndarray:
    """The samples a box average on `path` reads, after the size preflight.

    _require_affordable runs first, so a refused call samples nothing.
    spectral reads I = [0, N), one period; every other path reads
    [I.lo, I.hi + k*(H-1)), wrapped mod N when cyclic, and in interval mode
    a must be valid on all of it.  `symmetric` is _cube_cost's.
    """
    _require_affordable(p, path, symmetric)
    margin = 0 if path == "spectral" else p.k * (p.H - 1)
    lo, hi = p.interval.lo, p.interval.hi + margin
    if not p.mode.is_cyclic:
        a.require_range(lo, hi,
                        f"k={p.k}, H={p.H} box average on {p.interval}")
    return sample_mode(a, lo, hi, p.mode)


# ---------------------------------------------------------------------------
# Powered-value computation paths (complex averages, before Re/clamp)
# ---------------------------------------------------------------------------

def _cube_sum(xs: List[Optional[np.ndarray]],
              cs: List[Optional[np.ndarray]], k: int, h: int, out_len: int,
              acc: Union[np.ndarray, list], shell: Optional[list], ws: dict,
              walk: Optional[Tuple[int, int, int, int]]) -> None:
    """acc[n] += sum_{h in [0,H)^k} prod_eps C^{|eps|} xs[m][n + eps.h]: the
    cube recursion, entered only through _cube_average.

    Vertex m holds eps with eps_{i+1} = bit i of m.  Recursion on the last
    cube coordinate: at shift h_k, vertex v and v + 2^(k-1) merge into
    xs[v] * conj(shift_{h_k} xs[v + 2^(k-1)]), a (k-1)-cube.  Pairs of the
    same two arrays (by identity) are multiplied once, so a single sequence
    costs one product per shift.  The k = 2 level, the last merge of every
    walk, runs the base (a sliding window of the merged pair) in its own
    shift loop; a k = 1 call is the base's one window.

    cs[m] is conj(xs[m]) or None; at k >= 2 every shifted vertex
    m >= 2^(k-1) has one, so a merge is the one product
    cs[v + 2^(k-1)][h_k:] * xs[v].  xs[0] may be None, the constant 1 (the
    dual function): its merge is the view cs[2^(k-1)][h_k:] itself, and at
    k = 1 the per-n base skips its multiply; the n-summed base needs an
    array there.  At k >= 3 a merge whose lower vertex v has cs[v] also
    gets its conjugate, xs[v + 2^(k-1)][h_k:] * cs[v], bit for bit (rounding
    commutes with negation): the cs of the level below.

    `acc` is either an out_len-point array, which gains every acc[n] (the
    dual function), or a one-element list, which gains only their n-sum
    (box averages).  The n-summed base never forms the window
    W[n] = sum_{t<H} x1[n+t]: from the centred prefix p of x1 (mean mu,
    _centred_prefix) it takes
      B = sum_n conj(W[n]) x0[n] = vdot(p[H-1:H-1+L], x0) - vdot(p[:L-1], x0[1:L])
                                   + conj(H mu) * sum_{n<L} x0[n],
    with L = out_len, and the last sum is p[L-1] + L mu when x0 is x1.

    For symmetric operands (one array per popcount |eps|) c_h is invariant
    under permuting h, so the walk visits only the sorted outer shifts
    h_k <= ... <= h_2, each weighted by its number of orderings,
    mult = (k-1)!/prod r_i! for runs of r_i equal values: C(H+k-2, k-1)
    windows, not H^(k-1) (the same at k <= 2).  `walk` carries (least
    next shift, shifts chosen, their multiplicity, length of the last run)
    from (0, 0, 1, 0) at the top to the k = 2 loop, which keeps each
    window's weight and run itself; it is None for mixed operands
    (csg_check), which walk the full grid.

    A one-element `shell` list also gains the n-sum of c_h over the shell
    max(h) = H-1 (None: not summed; acc gains the same bits either way).
    At k = 1 it is the edge term E = vdot(x1[H-1:H-1+L], x0).  At k >= 2
    the k = 2 loop's last window, h_2 = H-1, adds mult * B, and when H-1
    occurs once in its outer shifts also mult/(k-1) * (B - E): by the
    permutation symmetry, the h_1 = H-1 terms of the windows below the
    shell add up to the h_1 < H-1 part of the windows holding H-1 once.
    So only those windows, one at k = 2 and H-1 at k = 3, take E.

    The merged products, their conjugates, the prefix and (per-n) the
    window go into buffers of `ws`, keyed by level (the base's by 1), made
    once per chunk (of at most _BLOCK points): the same arithmetic, in the
    same order, as fresh arrays.
    """
    lo, chosen, mult, run = walk or (0, 0, 1, 0)
    conj, multiply, vdot = np.conj, np.multiply, np.vdot
    if k == 1:  # a top-level call: one window, on the operands themselves
        shifts, merges, below = (0,), [], xs
    else:
        half, shifts = 1 << (k - 1), range(lo, h)
        m = out_len + (k - 1) * (h - 1)
        pairs: dict = {}  # (id, id) of a vertex pair -> its first vertex
        rep = [pairs.setdefault((id(xs[v]), id(xs[v + half])), v)
               for v in range(half)]
        if k not in ws:  # per distinct vertex pair: the merge, its conjugate
            ws[k] = ({v: np.empty(m, dtype=np.complex128)
                      for v in pairs.values() if xs[v] is not None},
                     {v: np.empty(m, dtype=np.complex128)
                      for v in pairs.values() if k > 2 and cs[v] is not None})
        merged, conj_merged = ws[k]
        below, below_cs = ([d.get(r) for r in rep] for d in ws[k])
        # (buffer, shifted, lower) of each product: merges, then conjugates
        merges = ([(buf, cs[v + half], xs[v][:m]) for v, buf in merged.items()]
                  + [(buf, xs[v + half], cs[v][:m])
                     for v, buf in conj_merged.items()])
    x1, per_n = below[1], isinstance(acc, np.ndarray)
    view = k > 1 and xs[0] is None  # the constant 1 merges as a view
    if k <= 2 and 1 not in ws:  # [prefix scratch, window (per-n)]
        ws[1] = [np.empty(len(x1), dtype=np.complex128),
                 np.empty(out_len, dtype=np.complex128) if per_n else None]
    scratch, w = ws.get(1, (None, None))
    same = below[0] is x1
    x0 = None if below[0] is None else below[0][:out_len]
    for hh in shifts:
        r = run + 1 if hh == lo else 1  # hh's run in the sorted outer tuple
        weight = mult * (chosen + 1) // r
        for buf, shifted, lower in merges:
            multiply(shifted[hh:hh + m], lower, out=buf)
        if view:  # the constant 1 times the shifted conjugate
            below[0] = cs[half][hh:hh + m]
            x0 = below[0][:out_len]
        if k > 2:
            _cube_sum(below, below_cs, k - 1, h, out_len, acc, shell, ws,
                      walk and (hh, chosen + 1, weight, r))
        elif per_n:  # the window itself
            _sliding_sums(x1, h, out_len, out=w, scratch=scratch)
            conj(w, out=w)
            if x0 is not None:  # None is the constant 1
                w *= x0
            if weight != 1:
                w *= weight
            acc += w
        else:  # its n-sum, from the centred prefix
            p, mu = _centred_prefix(x1, scratch)
            s0 = p[out_len - 1] + out_len * mu if same else np.add.reduce(x0)
            base = (vdot(p[h - 1:h - 1 + out_len], x0)
                    - vdot(p[:out_len - 1], x0[1:]) + conj(h * mu) * s0)
            total = base if weight == 1 else weight * base
            acc[0] += total
    if shell is None or k > 2:
        return
    if k == 1:  # the edge term alone
        shell[0] += vdot(x1[h - 1:h - 1 + out_len], x0)
        return
    shell[0] += total  # the last window, h_2 = H-1
    if r == 1 and h > 1:  # H-1 once: the share of the edges below
        share = weight // (chosen + 1)
        rest = base - vdot(x1[h - 1:h - 1 + out_len], x0)
        shell[0] += rest if share == 1 else share * rest


def _fsum(zs: List[complex]) -> complex:
    """The exact sum of complex numbers, rounded once per part."""
    return complex(math.fsum(z.real for z in zs), math.fsum(z.imag for z in zs))


def _cube_average(xs: List[Optional[np.ndarray]], k: int, h: int, out_len: int,
                  *, per_n: bool = False, tail: bool = True
                  ) -> Union[Tuple[complex, complex], np.ndarray]:
    """(1/H^k) sum_h c_h with vertex m reading xs[m], and the average of c_h
    over the shell max(h) = H-1 (0 for mixed operands, or without tail);
    with per_n, the out_len-point array of the per-n sums over H^k (the
    dual function) instead.  The one entry into the cube kernel (_cube_sum).

    The operand list is tested for symmetry (one array per popcount, by
    identity) once per call; symmetric lists take the sorted walk, and an
    n-summed one also reads the shell off it, the only walk that has one,
    unless tail is False, which leaves S_H's bits as they are.
    The n-range then runs in near-equal chunks of at most _BLOCK points, so
    each pass's workspace stays in cache: acc[n] reads only
    xs[m][n : n + k*(H-1) + 1], so a chunk runs the recursion on views
    covering itself plus that margin, one per distinct operand (by
    identity), with a fresh workspace, adding into its slice of the per-n
    array (or, n-summed, into a sum and a shell of its own).  Each chunk
    also conjugates each distinct operand at a vertex m >= 2 (those some
    level shifts) into a buffer made once per call: _cube_sum's cs.
    xs[0] may be None, the constant 1, in a per-n call (the dual
    function); it has no view.  Operands hold exactly out_len + k*(H-1)
    points, so at out_len <= _BLOCK the one chunk's views are the whole
    arrays; past it, each chunk's windows centre on the chunk's own mean,
    which moves the last bits.  The n-summed total and the shell are the
    exact sums (math.fsum) of the chunks' own sums.
    """
    by_weight: dict = {}  # popcount -> the first array seen with it
    walk = ((0, 0, 1, 0) if all(by_weight.setdefault(m.bit_count(), x) is x
                                for m, x in enumerate(xs)) else None)
    chunks = -(-out_len // _BLOCK)
    ends = [out_len * c // chunks for c in range(chunks + 1)]
    margin = k * (h - 1)
    distinct = {id(x): x for x in xs if x is not None}
    # one conjugate buffer per distinct operand at a vertex m >= 2, as long
    # as the longest chunk's views
    width = -(-out_len // chunks) + margin
    conj_bufs = {id(x): np.empty(width, dtype=np.complex128) for x in xs[2:]}
    acc = np.zeros(out_len, dtype=np.complex128) if per_n else None
    sums, shells = [], []  # each chunk's own n-sum and shell sum
    for lo, hi in zip(ends, ends[1:]):
        views = {i: x[lo:hi + margin] for i, x in distinct.items()}
        conjs = {i: np.conj(views[i], out=buf[:hi - lo + margin])
                 for i, buf in conj_bufs.items()}
        part = acc[lo:hi] if per_n else [0j]
        shell = None if per_n or walk is None or not tail else [0j]
        _cube_sum([views.get(id(x)) for x in xs],
                  [conjs.get(id(x)) for x in xs], k, h, hi - lo, part, shell,
                  {}, walk)
        if not per_n:
            sums.append(part[0])
        shells += shell or []
    if per_n:
        acc /= h ** k
        return acc
    # the chunk sums are near-equal: one running total over every window of
    # every chunk was 3.5e-14 off e(alpha n^3)'s closed form at 2^20
    # points, this 1.3e-15; for the shell average, 2.5e-14 off
    # e(alpha n^4)'s at k = 4, H = 8, this 2.8e-15.  The 0j start keeps the
    # printed signed zeros.
    total = 0j + _fsum(sums)
    return (total / out_len / h ** k,
            _fsum(shells) / (out_len * (h ** k - (h - 1) ** k)))


def _powered_direct(x: np.ndarray, k: int, h: int,
                    out_len: int) -> Tuple[complex, complex]:
    """Literal h-grid sum.  Returns (grid average, outermost-shell average)."""
    total = 0.0 + 0.0j
    shell = 0.0 + 0.0j
    for hs in iproduct(range(h), repeat=k):
        term = np.ones(out_len, dtype=np.complex128)
        for off, odd in _cube_vertices(hs):
            seg = x[off:off + out_len]
            term = term * (np.conj(seg) if odd else seg)
        c_h = complex(term.mean())
        total += c_h
        if max(hs) == h - 1:
            shell += c_h
    return total / h ** k, shell / (h ** k - (h - 1) ** k)


def _powered_spectral(x: np.ndarray, k: int) -> complex:
    """Full-group cyclic closed forms: k=1 -> |mean|^2, k=2 -> sum |hat a|^4."""
    if k == 1:
        m = x.mean()
        return complex(m * np.conj(m))
    coef = _fourier(x)
    mags2 = coef.real ** 2 + coef.imag ** 2
    return complex(np.sum(mags2 * mags2))


def _resolve_path(path: str, p: BoxParams) -> str:
    """The path that runs: "auto" is "spectral" where its closed forms hold,
    else "fast"; "fft" is "fast".  An unknown name, or "spectral" where its
    closed forms do not hold, raises ValueError."""
    full_group = (p.mode.is_cyclic and p.k <= 2 and p.H == p.mode.modulus
                  and p.interval.lo == 0
                  and p.interval.length == p.mode.modulus)
    if path == "auto":
        return "spectral" if full_group else "fast"
    if path == "fft":
        return "fast"
    if path not in ("fast", "direct", "spectral"):
        raise ValueError(f"unknown computation path {path!r}")
    if path == "spectral" and not full_group:
        raise ValueError("spectral path needs cyclic mode, k <= 2, "
                         "H = N, I = [0, N)")
    return path


def _powered_array(x: np.ndarray, p: BoxParams, path: str,
                   tail: bool = True) -> Tuple[complex, complex]:
    """(S_H, outermost-shell average; 0 on spectral, or on fast without
    tail) in one pass over operand samples x, on a path that _resolve_path
    returned.  x starts at I.lo and covers what the path reads; spectral
    reads the period x[:N]."""
    out_len = p.interval.length
    if path == "spectral":
        return _powered_spectral(x[:out_len], p.k), 0j
    if path == "fast":
        return _cube_average([x] * (1 << p.k), p.k, p.H, out_len, tail=tail)
    return _powered_direct(x, p.k, p.H, out_len)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def box_correlation(a: ComplexSeq, h: Sequence[int], p: BoxParams) -> complex:
    """c_h for a single shift tuple h (entries may be any integers)."""
    if len(h) != p.k:
        raise ValueError(f"h must have {p.k} entries")
    term = np.ones(p.interval.length, dtype=np.complex128)
    for off, odd in _cube_vertices(h):
        vals = sample_mode(a, p.interval.lo + off, p.interval.hi + off, p.mode)
        term = term * (np.conj(vals) if odd else vals)
    return complex(term.mean())


def _require_floor(raw: float, x: np.ndarray, k: int, what: str) -> None:
    """NegativityViolation, naming `what`, unless raw, a negative or
    non-finite average of 2^k-fold products of the samples x, is finite and
    at least NEGATIVITY_FLOOR * M with M = max|x|^(2^k), the scale of every
    product: the floor is relative, as rounding is.

    Callers skip the call for a finite raw >= 0, so only an average that
    dips below 0 finds M.  With |raw| = mr 2^er and max|x| = mt 2^et
    (frexp) the test compares
      log2(|raw| / M) = log2(mr) - 2^k log2(mt) + (er - 2^k et)
    with log2(1e-9), and a NaN or infinite raw fails it: M neither
    overflows nor underflows at k <= 16, and scaling x by 2^j, which scales
    raw by exactly 2^(j 2^k), leaves every term as it was.
    """
    top = float(np.max(np.abs(x)))
    (mr, er), (mt, et) = math.frexp(abs(raw)), math.frexp(top)
    if (math.log2(mr) - math.log2(mt) * (1 << k) + (er - (et << k))
            <= math.log2(-NEGATIVITY_FLOOR)):
        return
    raise NegativityViolation(
        f"{what} is not finite or is below the noise floor "
        f"{NEGATIVITY_FLOOR}*M, M = max|a|^{1 << k} = {top!r}^{1 << k}")


def _norm_report(x: np.ndarray, p: BoxParams, path: str) -> NormReport:
    """The box norm of operand samples x (_powered_array's) and its h_tail,
    |average of c_h over the shell max(h) = H-1|.  h_tail is 0 at H = N in
    cyclic mode, where the average runs over the whole group and there is
    no truncation remainder, so fast skips its shell there.  A negative
    S_H is clamped to 0 unless _require_floor refuses it."""
    full_group = p.mode.is_cyclic and p.H == p.mode.modulus
    s_h, shell = _powered_array(x, p, path, tail=not full_group)
    raw = s_h.real
    if not 0.0 <= raw < math.inf:
        _require_floor(raw, x, p.k, f"box average {raw} (k={p.k}, H={p.H}, "
                                    f"{p.mode.describe()})")
    powered = max(raw, 0.0)
    return NormReport(powered ** (1.0 / (1 << p.k)), powered, p,
                      0.0 if full_group else abs(shell), path)


def box_norm(a: ComplexSeq, p: BoxParams, path: str = "auto") -> NormReport:
    """Finite-stage box norm with the outermost-shell diagnostic.

    h_tail (_norm_report) comes from the same kernel pass as S_H: how much
    the truncation is still moving.  The report's path is the one that
    ran, with "auto" and "fft" resolved.  Past _MAX_COST element
    operations (_cube_cost) it raises ValueError before sampling.
    """
    path = _resolve_path(path, p)
    return _norm_report(_operand_array(a, p, path), p, path)


def box_powered_signed(a: ComplexSeq, p: BoxParams, path: str = "auto") -> float:
    """Re S_H without the nonnegativity contract.

    The k -> k+1 recursion identity averages these signed values: at finite
    H a structured factor (a pure exponential, say) can push a single k-level
    average well below zero while the k+1 aggregate stays nonnegative, so
    identity checks need the signed quantity that box_norm refuses to expose.
    It sums no shell; S_H keeps its bits.
    """
    path = _resolve_path(path, p)
    return _powered_array(_operand_array(a, p, path), p, path,
                          tail=False)[0].real


def u1_norm(a: ComplexSeq, interval: IntervalSpec, h: int,
            mode: DomainMode = INTERVAL) -> float:
    """((1/H) sum_{h'<H} Re c_{h'})^(1/2) from the k = 1 correlation formula.

    Kept as an independent direct loop; equality with box_norm at k = 1 is a
    cross-check, not a shared code path.  Its floor is box_norm's, scaled
    by M = max|a|^2 over the points read, which a negative or non-finite
    average alone samples again; a non-finite one is refused, as box_norm
    refuses it.
    """
    base = sample_mode(a, interval.lo, interval.hi, mode)
    acc = 0.0
    for hh in range(h):
        shifted = sample_mode(a, interval.lo + hh, interval.hi + hh, mode)
        acc += float(np.mean(base * np.conj(shifted)).real)
    powered = acc / h
    if not 0.0 <= powered < math.inf:
        read = sample_mode(a, interval.lo, interval.hi + h - 1, mode)
        _require_floor(powered, read, 1, f"k=1 average {powered}")
    return max(powered, 0.0) ** 0.5


def uniformity_norm_proxy(a: ComplexSeq, search_range: IntervalSpec,
                          window_len: int, stride: int, k: int, h: int,
                          per_window: str = "cyclic") -> NormReport:
    """Sliding-window maximum of box norms: a lower-bound proxy for the
    uniformity seminorm (never an estimate of it; the true seminorm takes a
    supremum over uncountably many interval schemes).

    per_window "cyclic": each window is wrapped onto Z/(window_len)Z and the
    norm uses the full difference grid (H = window_len), where the spectral
    identities are exact; the h argument is ignored in this mode.
    per_window "interval": plain truncation on [M, M+window_len) with the
    given H, reading the margin from the ambient sequence.  Either way a
    must be valid on the whole search range, and interval windows read
    k(H-1) past their own ends too: a must be valid up to the last start
    plus window_len + k(H-1).  Past _MAX_COST element operations for all
    windows together (one window's _cube_cost times their number) it
    raises ValueError.  Each refusal comes before the first window.
    """
    if per_window not in ("cyclic", "interval"):
        raise ValueError("per_window must be 'cyclic' or 'interval'")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    starts = range(search_range.lo, search_range.hi - window_len + 1, stride)
    if len(starts) == 0:
        raise ValueError("search range shorter than the window")
    a.require_range(search_range.lo, search_range.hi, "search range")
    if per_window == "interval":  # the last window reads k(H-1) past it
        end = starts[-1] + window_len + k * (h - 1)
        a.require_range(search_range.lo, end, f"windows' span at k={k}, H={h}")
    first = (BoxParams(k, h, IntervalSpec(search_range.lo, window_len))
             if per_window == "interval"
             else _cyclic_box(k, window_len, window_len))
    path = _resolve_path("auto", first)
    each = _require_affordable(first, path)  # one window, as box_norm would
    if each * len(starts) > _MAX_COST:
        raise ValueError(
            f"the proxy's {len(starts)} windows would take "
            f"~{_approx(each * len(starts))} element operations "
            f"(~{_approx(each)} each), above the limit of {_MAX_COST:.0e}")

    def window(m: int) -> NormReport:
        # params carry the window itself, so the report says where the
        # maximum was attained
        if per_window == "interval":
            return box_norm(a, BoxParams(k, h, IntervalSpec(m, window_len),
                                         INTERVAL))
        rep = box_norm(shift(a, m), _cyclic_box(k, window_len, window_len))
        here = replace(rep.params, interval=IntervalSpec(m, window_len))
        return replace(rep, params=here)

    # max() keeps the first window that attains the maximum
    return max(map(window, starts), key=lambda rep: rep.value)


@dataclass(frozen=True)
class VdcReport:
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 1e-12


def vdc_bound(a: ComplexSeq, interval: IntervalSpec, h: int) -> VdcReport:
    """Finite van der Corput inequality with the exact constant 4H/|I|:

      |avg_I a|^2 <= 4H/|I| + | sum_{|h'|<=H} (H-|h'|)/H^2 * avg_I a_{n+h'} conj(a_n) |

    Each shift's average is one dot product, vdot(a on I, a on I + h') /
    |I|: no conjugate copy, product or temporaries per shift.  On +-1
    input at a power-of-two |I| (run_vdc_suite's) every partial sum is an
    integer and 1/|I| is exact, so the bits are those of the mean of the
    product.

    The hypothesis |a_n| <= 1 is checked on the samples read, a on
    [I.lo - H, I.hi + H): SupBoundViolation unless their largest modulus is
    at most 1 + 1e-12, so a NaN sample is refused too.
    """
    if h < 1:
        raise ValueError(f"van der Corput needs H >= 1, got {h}")
    length = interval.length
    samples = a.sample(interval.lo - h, interval.hi + h)
    top = float(np.max(np.abs(samples)))
    if not top <= 1.0 + 1e-12:
        raise SupBoundViolation(
            f"van der Corput needs |a_n| <= 1, max |a_n| {top} on "
            f"[{interval.lo - h}, {interval.hi + h})")
    base = samples[h:h + length]
    lhs = abs(complex(base.mean())) ** 2
    acc = 0.0 + 0.0j
    for hh in range(-h, h + 1):
        w = (h - abs(hh)) / (h * h)
        seg = samples[h + hh:h + hh + length]
        acc += w * (complex(np.vdot(base, seg)) / length)
    rhs = 4.0 * h / length + abs(acc)
    return VdcReport(lhs, rhs)


@dataclass(frozen=True)
class CsgReport:
    lhs: float
    rhs: float
    norms: Tuple[float, ...]
    exact_mode: bool  # cyclic: the bound is an exact finite identity regime
    warning: Optional[str] = None

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 1e-9


def csg_check(seqs: Sequence[ComplexSeq], p: BoxParams) -> CsgReport:
    """Cauchy-Schwarz-Gowers: |mixed box pairing| <= product of box norms.

    seqs[m] sits at cube vertex eps with eps_{i+1} = bit i of m and is
    conjugated when |eps| is odd.  Each sequence is sampled once: its box
    norm (box_norm's "auto" path, through _norm_report) reads the same
    array as the mixed pairing.  In interval mode edge effects can break
    the bound; that is reported as a warning, not asserted.
    """
    if len(seqs) != (1 << p.k):
        raise ValueError(f"need {1 << p.k} sequences for k={p.k}")
    path = _resolve_path("auto", p)
    xs = [_operand_array(s, p, symmetric=False) for s in seqs]
    s_mixed = _cube_average(xs, p.k, p.H, p.interval.length)[0]
    norms = tuple(_norm_report(x, p, path).value for x in xs)
    rhs = float(np.prod(norms))
    warning = None
    if not p.mode.is_cyclic:
        warning = ("interval mode: edge effects may break exactness; "
                   "bound reported, not guaranteed")
    return CsgReport(abs(s_mixed), rhs, norms, p.mode.is_cyclic, warning)


# ---------------------------------------------------------------------------
# Seeded verification suites (CLI `verify`, acceptance harness)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteReport:
    """A seeded suite's verdict.  `replay` holds the keywords that rerun
    the worst trial alone, e.g. (("seed", 553174), ("ks", (1,))):
    run_*_suite(1, **dict(replay), **params), with the suite's other
    parameters as given, reproduces worst_slack exactly."""

    name: str
    trials: int
    violations: int
    worst_slack: float  # most positive (lhs - allowed rhs); negative is good
    worst_trial: int = 0  # the first trial t that gave worst_slack
    replay: Tuple[Tuple[str, object], ...] = ()

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _cpus() -> int:
    """How many processes _run_trials may score trials in: the CPUs this
    process may run on, or 1 where os.fork or os.sched_getaffinity is
    missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _score_child(slack: Callable[..., float], args: List[tuple], lo: int,
                 hi: int, r: int, w: int) -> None:
    """A forked worker's whole life: close the pipe's read end r, score
    trials lo .. hi-1 and pickle to its write end w their slacks, a list,
    or at the first trial t that raises, (t, the pickled exception; b""
    if it does not pickle).  It leaves by os._exit, never returning into
    the caller: it runs no atexit hook and flushes no stdio buffer
    inherited from the parent."""
    try:
        os.close(r)
        t, got = lo, []
        try:
            for t in range(lo, hi):
                got.append(slack(*args[t]))
        except Exception as exc:
            try:
                got = (t, pickle.dumps(exc))
            except Exception:
                got = (t, b"")
        with open(w, "wb") as out:
            pickle.dump(got, out)
    finally:
        os._exit(0)


def _scored(slack: Callable[..., float], args: List[tuple],
            workers: int) -> list:
    """[slack(*a) for a in args], raising what that loop raises, with the
    trials split into `workers` contiguous blocks (contiguous, so that
    every block cycles through a suite's ks alike).  The parent scores
    block 0; each other block runs in a child made by os.fork, which pipes
    its result back (_score_child).  Slacks come back in trial order.  The
    exception raised is the lowest-index trial's: block 0's at once, else
    the first child in block order that reports one.  An exception that
    cannot cross the pipe is raised by rerunning its trial here.  A child
    that ends without a result raises UnifLabError.  Every child is
    killed, if still running, and reaped on every path; where no process
    can be forked, the parent scores the blocks left itself."""
    ends = [len(args) * j // workers for j in range(workers + 1)]
    pids: List[Optional[int]] = []  # None once reaped
    pipes = []
    rest = len(args)  # where the blocks no child took begin
    try:
        for lo, hi in zip(ends[1:-1], ends[2:]):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                os.close(r)
                os.close(w)
                rest = lo
                break
            if pid == 0:
                _score_child(slack, args, lo, hi, r, w)
            os.close(w)
            pids.append(pid)
            pipes.append(open(r, "rb"))
        slacks = [slack(*a) for a in args[:ends[1]]]
        for j, (lo, hi) in enumerate(zip(ends[1:], ends[2:len(pids) + 2])):
            try:
                got = pickle.load(pipes[j])
            except Exception:
                got = None
            status = os.waitpid(pids[j], 0)[1]
            pids[j] = None
            if isinstance(got, list):
                slacks += got
                continue
            if got is None:
                code = os.waitstatus_to_exitcode(status)
                raise UnifLabError(
                    f"the worker scoring trials {lo}-{hi - 1} ended without "
                    "a result (" + (f"signal {-code}" if code < 0
                                    else f"exit status {code}") + ")")
            t, blob = got
            try:
                exc = pickle.loads(blob)
            except Exception:
                slack(*args[t])  # a trial is a function of its seed alone
                raise UnifLabError(f"trial {t} raised in its worker alone")
            raise exc
        return slacks + [slack(*a) for a in args[rest:]]
    finally:
        for pid, pipe in zip(pids, pipes):
            pipe.close()
            if pid is not None:
                os.kill(pid, 9)  # SIGKILL; a child that ended is a zombie
                os.waitpid(pid, 0)


def _run_trials(name: str, trials: int, slack: Callable[..., float],
                cost: Callable[..., int], seed: int, step: int = 1,
                ks: Optional[Sequence[int]] = None) -> SuiteReport:
    """Score trials t = 0, 1, ..., trials-1: the one rule that turns a
    suite's seed into its trials.

    Trial t draws from s = seed + step*t alone, by slack(s), or by
    slack(s, k) with k = ks[t % len(ks)] when the suite cycles through ks;
    step keeps the seeds of trials that draw several sequences apart.  A
    positive slack is a violation; the report keeps the worst one, the
    first trial that gave it and the (seed, ks) keywords that replay it
    as a one-trial run.  A seed below 0, or an empty ks, raises ValueError
    before any trial.  So does a suite whose trials together would pass
    _MAX_COST element operations, by cost() (or cost(k)), one trial's
    estimate, built from its calls' own preflights (_call_cost), which may
    raise first.

    The trials run in min(_cpus(), trials) processes (_scored): this one
    scores block 0, and what the forked children call leaves no trace here,
    so a tracer's spans and counts cover block 0 alone.  Where this process
    runs other threads, which a fork would not copy, every trial runs here.
    The report, and the exception raised, are those of the serial loop over
    t: the lowest-index raising trial's.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if ks is not None and len(ks) == 0:
        raise ValueError("ks must name at least one k")
    cycle = [()] if ks is None else [(k,) for k in ks[:trials]]
    each = [cost(*c) for c in cycle]
    total = sum(len(range(i, trials, len(cycle))) * c
                for i, c in enumerate(each))
    if total > _MAX_COST:
        raise ValueError(
            f"the {name} suite's {trials} trials would take "
            f"~{_approx(total)} element operations (~{_approx(max(each))} "
            f"for the costliest trial), above the limit of {_MAX_COST:.0e}")
    args = [(seed + step * t,) if ks is None
            else (seed + step * t, ks[t % len(ks)]) for t in range(trials)]
    workers = min(_cpus(), trials) if threading.active_count() == 1 else 1
    slacks = _scored(slack, args, workers)
    worst = max(range(trials), key=slacks.__getitem__)
    replay = (("seed", args[worst][0]),) + (() if ks is None
                                           else (("ks", args[worst][1:]),))
    return SuiteReport(name, trials, sum(1 for s in slacks if s > 0),
                       float(slacks[worst]), worst, replay)


def _cyclic_box(k: int, h: int, n: int) -> BoxParams:
    """BoxParams on I = [0, N) in cyclic(N) mode."""
    return BoxParams(k, h, IntervalSpec(0, n), cyclic(n))


def _suite_seq(seed: int, n: int) -> ComplexSeq:
    """Deterministic bounded complex test sequence on [0, n) for a suite case.

    Cycles through sign sequences, unimodular random phases, trig mixtures
    with a dominant constant term, and quadratic phases, so the suites see
    both rough and structured inputs.  All four families keep the finite
    k = 1 averages safely nonnegative (a pure off-grid exponential would
    not), which is what lets the suites call box_norm on every case.
    """
    kind = seed % 4
    rng = np.random.default_rng(seed)
    ns = np.arange(n)
    if kind == 0:
        vals = rademacher_seq(seed).sample(0, n)
    elif kind == 1:
        vals = _e(rng.random(n))
    elif kind == 2:
        vals = np.full(n, 0.6 + 0.0j)
        for w in (0.25, 0.15):
            t = rng.integers(0, n) / n
            vals += w * _e(_frac(ns * t))
    else:
        alpha = rng.random()
        vals = _e(_frac(alpha * ns.astype(np.float64) ** 2))
    return from_samples(vals)


def run_vdc_suite(trials: int, length: int = 8192, h: int = 64,
                  seed: int = 0) -> SuiteReport:
    interval = IntervalSpec(0, length)

    def slack(s: int) -> float:
        rep = vdc_bound(rademacher_seq(s), interval, h)
        return rep.lhs - rep.rhs - 1e-12

    def cost() -> int:  # one length-point dot product per shift
        return (2 * h + 1) * length

    return _run_trials("vdc", trials, slack, cost, seed)


def run_csg_suite(trials: int, n: int = 1024, h: int = 32,
                  ks: Sequence[int] = (2, 3), seed: int = 0) -> SuiteReport:
    params_by_k = {k: _cyclic_box(k, h, n) for k in ks}

    def slack(s: int, k: int) -> float:
        seqs = [_suite_seq(s + m, n) for m in range(1 << k)]
        rep = csg_check(seqs, params_by_k[k])
        return rep.lhs - rep.rhs - 1e-9

    def cost(k: int) -> int:  # the mixed pairing, then 2^k box norms
        p = params_by_k[k]
        return (_call_cost(p, "fast", symmetric=False)
                + (1 << k) * _call_cost(p))

    return _run_trials("csg", trials, slack, cost, seed, 1000, ks)


def run_subadditivity_suite(trials: int, n: int = 1024, h: int = 32,
                            ks: Sequence[int] = (1, 2, 3),
                            seed: int = 0) -> SuiteReport:
    def slack(s: int, k: int) -> float:
        p = _cyclic_box(k, h, n)
        a, b = _suite_seq(s, n), _suite_seq(s + 1, n)
        lhs = box_norm(add(a, b), p).value
        rhs = box_norm(a, p).value + box_norm(b, p).value
        return lhs - rhs - 1e-9

    def cost(k: int) -> int:
        return 3 * _call_cost(_cyclic_box(k, h, n))

    return _run_trials("subadditivity", trials, slack, cost, seed, 2, ks)


def run_monotonicity_suite(trials: int, n: int = 1024, h: int = 32,
                           ks: Sequence[int] = (1, 2),
                           seed: int = 0) -> SuiteReport:
    def slack(s: int, k: int) -> float:
        a = _suite_seq(s, n)
        lo = box_norm(a, _cyclic_box(k, h, n)).value
        hi = box_norm(a, _cyclic_box(k + 1, h, n)).value
        return lo - hi - 1e-9

    def cost(k: int) -> int:
        return (_call_cost(_cyclic_box(k, h, n))
                + _call_cost(_cyclic_box(k + 1, h, n)))

    return _run_trials("monotonicity", trials, slack, cost, seed, ks=ks)


def run_recursion_suite(trials: int, n: int = 1024, h: int = 32,
                        ks: Sequence[int] = (1, 2),
                        seed: int = 0) -> SuiteReport:
    """Matched-grid identity: avg_{h'<H} S_H(shift_{h'} a * conj(a); k)
    equals S_H(a; k+1) exactly in cyclic mode.

    Uses the signed powered values: at finite H individual k-level averages
    of the twisted factors may be legitimately negative even though their
    mean is the nonnegative k+1 quantity.
    """
    def slack(s: int, k: int) -> float:
        a = wrap_cyclic(_suite_seq(s, n), n)
        p_k = _cyclic_box(k, h, n)
        acc = 0.0
        for hh in range(h):
            twisted = product(shift(a, hh), conjugate(a))
            acc += box_powered_signed(twisted, p_k)
        lhs = acc / h
        rhs = box_powered_signed(a, _cyclic_box(k + 1, h, n))
        return abs(lhs - rhs) - 1e-9

    def cost(k: int) -> int:
        return (h * _call_cost(_cyclic_box(k, h, n))
                + _call_cost(_cyclic_box(k + 1, h, n)))

    return _run_trials("recursion", trials, slack, cost, seed, ks=ks)
