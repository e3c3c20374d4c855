"""Box norms: exact cases, path agreement, inequalities, proxy, and the
cube kernel against its allocating reference."""

import cmath
import gc
import itertools
import math
import os
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import unif_lab as ul
from unif_lab import duality, seq_core, uniformity
from unif_lab.errors import NegativityViolation, SequenceRangeError, SupBoundViolation
from unif_lab.uniformity import (box_powered_signed, run_csg_suite,
                                 run_monotonicity_suite, run_recursion_suite,
                                 run_subadditivity_suite, run_vdc_suite)


def brute_powered(values, k, h, n, cyclic, shell=False):
    """Pure-python oracle: literal sum over the h grid and the cube.

    values must cover [0, n + k*(h-1)) in interval mode, or be the length-n
    period in cyclic mode.  With shell=True the mean of c_h runs over the
    outermost shell max(h) = H-1 only.
    """
    import itertools
    grid = [hs for hs in itertools.product(range(h), repeat=k)
            if not shell or max(hs) == h - 1]
    total = 0.0 + 0.0j
    for hs in grid:
        c = 0.0 + 0.0j
        for idx in range(n):
            term = 1.0 + 0.0j
            for m in range(1 << k):
                eps = [(m >> i) & 1 for i in range(k)]
                off = sum(e * hi for e, hi in zip(eps, hs))
                v = values[(idx + off) % n] if cyclic else values[idx + off]
                term *= v.conjugate() if sum(eps) % 2 else v
            c += term
        total += c / n
    return total / len(grid)


def ref_sliding_sums(x, width, out_len):
    """Reference window: mean-centred prefix sums in fresh arrays."""
    mu = x.mean()
    prefix = np.concatenate(([0.0 + 0.0j], np.cumsum(x - mu)))
    return (prefix[width:width + out_len] - prefix[:out_len]) + width * mu


def ref_window_dot(x0, x1, width, out_len):
    """sum_{n<out_len} conj(W[n]) x0[n] for the window W of x1, from the
    mean-centred prefix in fresh arrays: two dot products and the mean's
    term, with sum x0[:out_len] read off the prefix when x0 is x1."""
    mu = x1.mean()
    prefix = np.cumsum(x1 - mu)
    head = x0[:out_len]
    s0 = (prefix[out_len - 1] + out_len * mu if x0 is x1 else head.sum())
    return (np.vdot(prefix[width - 1:width - 1 + out_len], head)
            - np.vdot(prefix[:out_len - 1], head[1:])
            + np.conj(width * mu) * s0)


def require_acc(acc):
    """True for an n-summed accumulator (a one-element list), False for a
    per-n array; anything else raises rather than being silently extended
    or broadcast into."""
    if isinstance(acc, np.ndarray):
        return False
    if type(acc) is list and len(acc) == 1:
        return True
    raise TypeError(f"unhandled accumulator {type(acc).__name__}")


def ref_cube_sum(xs, cs, k, h, out_len, acc, shell, ws, walk):
    """Reference cube kernel: the walk of uniformity._cube_sum with a fresh
    array for every merged product, every conjugate and every window.  It
    takes the kernel's arguments, ignores its workspace ws and tests the
    operands for symmetry itself in place of reading walk.  Symmetric
    operands (one array per popcount of the vertex index) visit only the
    sorted outer shifts h_k <= ... <= h_2, each window weighted by the
    number of orderings of its tuple; mixed operands walk the full grid.
    A merge is the one product cs[v + half][h_k:] * xs[v], from the
    shifted operand's conjugate; a None vertex (the constant 1) merges
    as that conjugate itself; at k >= 3 a merge whose lower vertex has a
    conjugate also forms its own, which the level below reads.  An
    n-summed acc (one-element list) takes ref_window_dot at the base, and
    a shell list gains the shell rule of _cube_sum: the edge term h_1 = H-1
    at k = 1; at k >= 2 the whole window when its largest outer shift is
    H-1, plus mult/(k-1) times its h_1 < H-1 part when H-1 occurs there
    once.  A per-n acc takes the window itself, times vertex 0 unless
    that is None, and has no shell.  The workspace kernel must match it
    bit for bit and never peak above it in memory."""
    require_acc(acc)
    first = {}
    symmetric = all(first.setdefault(bin(m).count("1"), x) is x
                    for m, x in enumerate(xs))
    _ref_walk(xs, cs, k, h, out_len, acc, shell, () if symmetric else None)


def _ref_walk(xs, cs, k, h, out_len, acc, shell, outer):
    """ref_cube_sum below the top; outer is the sorted tuple of shifts
    chosen so far, or None on the full grid."""
    if k == 1:
        mult = 1
        if outer is not None:
            mult = math.factorial(len(outer))
            for run in Counter(outer).values():
                mult //= math.factorial(run)
        if not require_acc(acc):
            if shell is not None:
                raise TypeError("a per-n accumulator has no shell")
            w = np.conj(ref_sliding_sums(xs[1], h, out_len))
            if xs[0] is not None:
                w *= xs[0][:out_len]
            if mult != 1:
                w *= mult
            acc += w
            return
        base = ref_window_dot(xs[0], xs[1], h, out_len)
        total = base if mult == 1 else mult * base
        acc[0] += total
        if shell is None:
            return
        if outer is None:
            raise TypeError("the shell needs symmetric operands")
        edge = np.vdot(xs[1][h - 1:h - 1 + out_len], xs[0][:out_len])
        if not outer:
            shell[0] += edge
        elif outer[-1] == h - 1:
            shell[0] += total
            if outer.count(h - 1) == 1 and h > 1:
                share = mult // len(outer)
                rest = base - edge
                shell[0] += rest if share == 1 else share * rest
        return
    half = 1 << (k - 1)
    m = out_len + (k - 1) * (h - 1)
    pairs = {}
    rep = [pairs.setdefault((id(xs[v]), id(xs[v + half])), v)
           for v in range(half)]
    lo = outer[-1] if outer else 0
    for hh in range(lo, h):
        merged, conj_merged = {}, {}
        for v in pairs.values():
            merged[v] = (cs[v + half][hh:hh + m] if xs[v] is None else
                         np.multiply(cs[v + half][hh:hh + m], xs[v][:m]))
            if k > 2 and cs[v] is not None:
                conj_merged[v] = np.multiply(xs[v + half][hh:hh + m],
                                             cs[v][:m])
        _ref_walk([merged[r] for r in rep], [conj_merged.get(r) for r in rep],
                  k - 1, h, out_len, acc, shell,
                  None if outer is None else outer + (hh,))


def ref_full_cube_sum(xs, k, h, out_len, acc, shell=None, on_shell=False):
    """Full-grid reference kernel: every outer shift tuple in [0,H)^(k-1),
    a fresh array for every merged product and every window, and the
    shell max(h) = H-1 tracked by an on_shell flag.  uniformity._cube_sum
    walks this grid, bit for bit, for operands that are not symmetric
    (csg_check's mixed pairing), and for symmetric ones at k <= 2, where
    the sorted walk is the same loop with every weight 1.  Per-n
    accumulator only; its shell is the independent oracle for the
    kernel's n-summed one."""
    if require_acc(acc):
        raise TypeError("ref_full_cube_sum takes a per-n accumulator")
    if k == 1:
        w = np.conj(ref_sliding_sums(xs[1], h, out_len))
        w *= xs[0][:out_len]
        acc += w
        if shell is not None:
            shell[0] += (w.sum() if on_shell else
                         np.vdot(xs[1][h - 1:h - 1 + out_len], xs[0][:out_len]))
        return
    half = 1 << (k - 1)
    m = out_len + (k - 1) * (h - 1)
    pairs = {}
    rep = [pairs.setdefault((id(xs[v]), id(xs[v + half])), v)
           for v in range(half)]
    for hh in range(h):
        merged = {}
        for v in pairs.values():
            prod = np.conj(xs[v + half][hh:hh + m])
            prod *= xs[v][:m]
            merged[v] = prod
        ref_full_cube_sum([merged[r] for r in rep], k - 1, h, out_len, acc,
                          shell, on_shell or hh == h - 1)


def full_grid(xs, k, h, out_len):
    """(per-n acc, shell sum) of ref_full_cube_sum, with a None vertex
    (the dual function's constant 1) as an array of ones."""
    acc, shell = np.zeros(out_len, dtype=complex), [0j]
    ref_full_cube_sum(summed_operands(xs), k, h, out_len, acc, shell)
    return acc, shell[0]


def shell_average(shell_sum, k, h, out_len):
    """A shell's n-summed c_h as the average _cube_average returns."""
    return shell_sum / (out_len * (h ** k - (h - 1) ** k))


def assert_close(got, want, case):
    assert abs(got - want) <= 1e-12 * abs(want), case


def ref_powered_fft_k2(x, h):
    """Spectral oracle for the k = 2 cyclic box average on I = [0, N).

    avg_{h2<H} (1/N) sum_n g(n) conj(g(n+h2)) = sum_j |hat g(j)|^2 kern(j)
    with kern = fft(indicator of [0,H)) / H and g = conj(shift_{h1} a) * a,
    one FFT per row h1.  The shell max(h) = H-1 is the row h1 = H-1 plus,
    in every other row, the h2 = H-1 term: |hat g|^2 against e(-j(H-1)/N).
    Returns (grid average, shell average)."""
    n = x.size
    indicator = np.zeros(n, dtype=np.float64)
    indicator[:h] = 1.0
    kern = np.fft.fft(indicator) / h
    last = np.exp(-2j * np.pi * ((np.arange(n) * (h - 1)) % n) / n)
    acc = shell = 0.0 + 0.0j
    for h1 in range(h):
        g = x * np.conj(np.roll(x, -h1))
        ghat = np.fft.fft(g) / n
        mags2 = ghat.real ** 2 + ghat.imag ** 2
        row = complex(np.sum(mags2 * kern))
        acc += row
        shell += h * row if h1 == h - 1 else complex(np.dot(mags2, last))
    return acc / h, shell / (2 * h - 1)


def reference_kernel(fn):
    """fn() with the cube kernel on ref_cube_sum.  Every caller reaches the
    kernel through uniformity._cube_average, which looks it up there."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uniformity, "_cube_sum", ref_cube_sum)
        return fn()


def unchunked(fn):
    """fn() with every _cube_average call one pass over the whole n-range."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uniformity, "_BLOCK", 1 << 62)
        return fn()


TAIL_CASES = [
    pytest.param(path, k, h, cyc, id=f"{path}-k{k}-H{h}-{mode}")
    for path in ("fast", "direct")
    for k in (1, 2, 3, 4)
    for cyc, mode in ((True, "cyclic"), (False, "interval"))
    for h in (1, 3)
]


class TestBoxCorrelation:
    def test_constant(self):
        p = ul.BoxParams(3, 4, ul.IntervalSpec(0, 64))
        assert ul.box_correlation(ul.constant_seq(1.0), (1, 2, 3), p) == 1.0

    def test_exponential_telescopes(self):
        p = ul.BoxParams(2, 8, ul.IntervalSpec(0, 256))
        for t in (0.1234, 0.777):
            for h in ((1, 5), (3, 3), (0, 7)):
                c = ul.box_correlation(ul.exp_seq(t), h, p)
                assert abs(c - 1.0) < 1e-12

    def test_negative_shifts_allowed(self):
        a = ul.exp_seq(0.3)
        p = ul.BoxParams(2, 4, ul.IntervalSpec(0, 64))
        assert abs(ul.box_correlation(a, (-3, 2), p) - 1.0) < 1e-12


class TestBoxNormExactCases:
    def test_constant_is_one(self):
        for k in (1, 2, 3):
            for h in (1, 4, 9):
                p = ul.BoxParams(k, h, ul.IntervalSpec(0, 128))
                assert ul.box_norm(ul.constant_seq(1.0), p).value == pytest.approx(1.0, abs=1e-12)

    def test_on_grid_exponential(self):
        n = 4096
        p = ul.BoxParams(2, n, ul.IntervalSpec(0, n), ul.cyclic(n))
        rep = ul.box_norm(ul.exp_seq(177 / n), p)
        assert rep.value == pytest.approx(1.0, abs=1e-9)

    def test_quad_phase_small_and_h_monotone(self):
        alpha = math.sqrt(2) / 2
        a = ul.quad_phase_seq(alpha)
        big = ul.box_norm(a, ul.BoxParams(2, 256,
                                          ul.IntervalSpec(0, 65536))).value
        small = ul.box_norm(a, ul.BoxParams(2, 16,
                                            ul.IntervalSpec(0, 65536))).value
        assert big <= 0.6
        assert big < small

    def test_homogeneity(self):
        a = ul.rademacher_seq(13)
        p = ul.BoxParams(2, 16, ul.IntervalSpec(0, 512), ul.cyclic(512))
        base = ul.box_norm(a, p).value
        for c in (2.0, -0.5j, 0.3 + 0.4j):
            scaled = ul.box_norm(ul.scale(a, c), p).value
            assert scaled == pytest.approx(abs(c) * base, abs=1e-12)

    def test_cyclic_shift_invariance(self):
        n = 512
        a = ul.wrap_cyclic(ul.from_samples(ul.rademacher_seq(6).sample(0, n)), n)
        p = ul.BoxParams(2, 32, ul.IntervalSpec(0, n), ul.cyclic(n))
        base = ul.box_norm(a, p).value
        for h in (1, 17, 311):
            assert ul.box_norm(ul.shift(a, h), p).value == \
                pytest.approx(base, abs=1e-12)

    def test_modulation_invariance_k2(self):
        n = 512
        a = ul.wrap_cyclic(ul.from_samples(ul.rademacher_seq(15).sample(0, n)), n)
        for h in (32, n):
            p = ul.BoxParams(2, h, ul.IntervalSpec(0, n), ul.cyclic(n))
            base = ul.box_norm(a, p).value
            for j in (1, 100, 333):
                mod = ul.product(a, ul.exp_seq(j / n))
                got = ul.box_norm(mod, p).value
                assert got == pytest.approx(base, abs=1e-9)


class TestPathAgreement:
    @pytest.mark.parametrize("k,h,n", [(1, 8, 128), (2, 8, 128), (3, 5, 96),
                                       (4, 3, 24)])
    def test_fast_equals_direct_and_brute(self, k, h, n):
        for cyc in (False, True):
            seed = 100 * k + h + (1000 if cyc else 0)
            a = ul.rademacher_seq(seed)
            mode = ul.cyclic(n) if cyc else ul.INTERVAL
            p = ul.BoxParams(k, h, ul.IntervalSpec(0, n), mode)
            fast = ul.box_norm(a, p, path="fast").powered
            direct = ul.box_norm(a, p, path="direct").powered
            if cyc:
                values = a.sample(0, n)
            else:
                values = a.sample(0, n + k * (h - 1))
            oracle = brute_powered(values, k, h, n, cyc).real
            assert fast == pytest.approx(direct, abs=1e-12)
            assert fast == pytest.approx(oracle, abs=1e-10)

    def test_fast_matches_fft_oracle(self):
        # k = 2 cyclic: the cube recursion against the per-row FFT form,
        # grid and shell averages both, Im parts included
        cases = [(256, (8, 64, 256)[seed % 3], seed + 50) for seed in range(100)]
        cases.append((8192, 16, 7))
        for n, h, seed in cases:
            a = ul.rademacher_seq(seed)
            p = ul.BoxParams(2, h, ul.IntervalSpec(0, n), ul.cyclic(n))
            x = uniformity._operand_array(a, p)
            got = uniformity._cube_average([x] * 4, 2, h, n)
            want = ref_powered_fft_k2(a.sample(0, n), h)
            assert abs(got[0] - want[0]) <= 1e-9, (n, h, seed)
            assert abs(got[1] - want[1]) <= 1e-9, (n, h, seed)

    def test_spectral_shortcut_matches(self):
        n = 256
        a = ul.rademacher_seq(3)
        p = ul.BoxParams(2, n, ul.IntervalSpec(0, n), ul.cyclic(n))
        spectral = ul.box_norm(a, p, path="spectral").powered
        direct = ul.box_norm(a, p, path="direct").powered
        coefs = np.fft.fft(a.sample(0, n)) / n
        assert spectral == pytest.approx(float(np.sum(np.abs(coefs) ** 4)), abs=1e-12)
        assert spectral == pytest.approx(direct, abs=1e-9)

    def test_spectral_path_guards(self):
        p = ul.BoxParams(2, 8, ul.IntervalSpec(0, 64), ul.cyclic(64))
        with pytest.raises(ValueError):
            ul.box_norm(ul.rademacher_seq(0), p, path="spectral")

    @pytest.mark.parametrize("fn", [ul.box_norm, ul.box_powered_signed])
    def test_path_names_resolved_and_vetted(self, fn):
        a = ul.rademacher_seq(4)
        p = ul.BoxParams(2, 8, ul.IntervalSpec(0, 64), ul.cyclic(64))
        with pytest.raises(ValueError, match=r"^spectral path needs cyclic "
                           r"mode, k <= 2, H = N, I = \[0, N\)$"):
            fn(a, p, path="spectral")
        with pytest.raises(ValueError,
                           match=r"^unknown computation path 'ffw'$"):
            fn(a, p, path="ffw")

        def value(rep):
            return rep if fn is ul.box_powered_signed else rep.powered
        assert value(fn(a, p, path="fft")) == value(fn(a, p, path="fast"))
        full = ul.BoxParams(2, 64, ul.IntervalSpec(0, 64), ul.cyclic(64))
        assert (value(fn(a, full, path="auto"))
                == value(fn(a, full, path="spectral")))


class TestNegativityContract:
    def test_deep_negativity_raises(self):
        # k = 1 with a short grid and an adversarial frequency: the finite
        # average is genuinely negative, which the norm refuses to hide
        a = ul.exp_seq(0.3)
        p = ul.BoxParams(1, 3, ul.IntervalSpec(0, 3000))
        expected = (1 + math.cos(2 * math.pi * 0.3 * 1)
                    + math.cos(2 * math.pi * 0.3 * 2)) / 3
        assert expected < -1e-3
        with pytest.raises(NegativityViolation):
            ul.box_norm(a, p)

    def test_signed_accessor_reports_it(self):
        a = ul.exp_seq(0.3)
        p = ul.BoxParams(1, 3, ul.IntervalSpec(0, 3000))
        signed = box_powered_signed(a, p)
        expected = (1 + math.cos(2 * math.pi * 0.3)
                    + math.cos(2 * math.pi * 0.6)) / 3
        assert signed == pytest.approx(expected, abs=1e-3)

    @pytest.mark.parametrize("path", ["fast", "direct"])
    def test_non_finite_average_raises(self, path):
        vals = np.ones(64, dtype=np.complex128)
        vals[5] = np.nan
        p = ul.BoxParams(2, 8, ul.IntervalSpec(0, 64), ul.cyclic(64))
        with pytest.raises(NegativityViolation, match="not finite"):
            ul.box_norm(ul.from_samples(vals), p, path=path)

    def test_u1_norm_refuses_a_non_finite_average(self):
        # NaN < 0.0 is false, so a NaN average once passed the floor test
        vals = np.ones(64, dtype=np.complex128)
        vals[5] = np.nan
        with pytest.raises(NegativityViolation, match="not finite"):
            ul.u1_norm(ul.from_samples(vals), ul.IntervalSpec(0, 32), 4)

    def test_floor_is_relative_to_the_samples(self):
        # exp:0.1's average at k = 1, H = 8 is -0.140; scaled by 1e-5 it is
        # -1.4e-11, which an absolute floor of -1e-9 clamped to 0.  Scaled
        # up, a rounding dip of a few 1e-17 * max|a|^2 stays clamped.
        p = ul.BoxParams(1, 8, ul.IntervalSpec(0, 4096))
        small = ul.scale(ul.exp_seq(0.1), 1e-5)
        with pytest.raises(NegativityViolation,
                           match=r"noise floor -1e-09\*M, M = max\|a\|\^2 = "
                                 r"(1\.0\d*e-05|9\.9999\d*e-06)\^2"):
            ul.box_norm(small, p)
        with pytest.raises(NegativityViolation, match=r"M = max\|a\|\^2"):
            ul.u1_norm(small, p.interval, p.H)
        big = ul.scale(ul.exp_seq(0.5), 1e5)
        p = ul.BoxParams(1, 2, ul.IntervalSpec(0, 1004))
        assert box_powered_signed(big, p) < -1e-9
        assert ul.box_norm(big, p).powered == 0.0

    @pytest.mark.parametrize("k", [11, 16])
    def test_floor_scale_neither_overflows_nor_underflows(self, k):
        # M = max|a|^(2^k) is 2^(+-2^k), past float range both ways from
        # k = 11: compared through log2
        uniformity._require_floor(-1e300, np.array([2.0]), k, "avg")
        with pytest.raises(NegativityViolation, match=r"M = max\|a\|"):
            uniformity._require_floor(-1e-300, np.array([0.5]), k, "avg")
        with pytest.raises(NegativityViolation, match="not finite"):
            uniformity._require_floor(math.nan, np.array([0.5]), k, "avg")

    def test_exact_zero_clamps(self):
        # alternating sequence, even H: the k=1 average is exactly zero
        rep_val = ul.u1_norm(ul.exp_seq(0.5), ul.IntervalSpec(0, 1000), 64)
        assert rep_val == 0.0


class TestU1Norm:
    def test_constant(self):
        assert ul.u1_norm(ul.constant_seq(1.0), ul.IntervalSpec(0, 100), 16) == \
            pytest.approx(1.0, abs=1e-12)

    def test_matches_box_norm_k1(self):
        for seed in range(6):
            a = ul.rademacher_seq(seed)
            interval = ul.IntervalSpec(0, 2048)
            u1 = ul.u1_norm(a, interval, 32)
            bx = ul.box_norm(a, ul.BoxParams(1, 32, interval)).value
            assert u1 == pytest.approx(bx, abs=1e-12)

    def test_rademacher_scale(self):
        v = ul.u1_norm(ul.rademacher_seq(3), ul.IntervalSpec(0, 1 << 16), 64)
        assert v <= 0.15


class TestVdc:
    def test_constant_weights_telescope(self):
        interval, h = ul.IntervalSpec(0, 500), 8
        rep = ul.vdc_bound(ul.constant_seq(1.0), interval, h)
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(4 * h / 500 + 1.0, abs=1e-12)
        assert rep.holds

    def test_exponential_grid(self):
        interval, h = ul.IntervalSpec(0, 1024), 16
        for t in np.linspace(0.01, 0.99, 23):
            rep = ul.vdc_bound(ul.exp_seq(float(t)), interval, h)
            # lhs is the squared Dirichlet-kernel magnitude
            dirichlet = abs(sum(cmath.exp(2j * cmath.pi * t * n)
                                for n in range(1024)) / 1024) ** 2
            assert rep.lhs == pytest.approx(dirichlet, abs=1e-9)
            assert rep.holds

    @pytest.mark.parametrize("h", [0, -3])
    def test_h_below_one_raises(self, h):
        # H = 0 divided by zero in the weights; H = -3 summed an empty range
        with pytest.raises(ValueError,
                           match=rf"^van der Corput needs H >= 1, got {h}$"):
            ul.vdc_bound(ul.constant_seq(1.0), ul.IntervalSpec(0, 100), h)

    def test_sup_bound_guard(self):
        big = ul.scale(ul.constant_seq(1.0), 2.0)
        with pytest.raises(SupBoundViolation):
            ul.vdc_bound(big, ul.IntervalSpec(0, 100), 4)

    def test_bound_is_read_off_the_samples(self):
        # a - a/2 is +-0.5 everywhere; a bound declared through the algebra
        # (1 + 0.5) used to refuse it
        a = ul.rademacher_seq(1)
        interval, h = ul.IntervalSpec(0, 512), 8
        rep = ul.vdc_bound(ul.add(a, ul.scale(a, -0.5)), interval, h)
        vals = 0.5 * a.sample(interval.lo - h, interval.hi + h)
        want = ul.vdc_bound(ul.from_samples(vals, lo=interval.lo - h),
                            interval, h)
        assert rep == want
        assert rep.holds

    @pytest.mark.parametrize("bad", [1.5, np.nan], ids=["1.5", "nan"])
    def test_any_sample_read_is_checked(self, bad):
        # index I.lo - H: read by the shifted averages, outside I itself
        interval, h = ul.IntervalSpec(20, 100), 8
        vals = np.ones(interval.length + 2 * h, dtype=np.complex128)
        vals[0] = bad
        a = ul.from_samples(vals, lo=interval.lo - h)
        with pytest.raises(SupBoundViolation,
                           match=rf"^van der Corput needs \|a_n\| <= 1, "
                                 rf"max \|a_n\| {bad} on \[12, 128\)$"):
            ul.vdc_bound(a, interval, h)

    def test_seeded_suite(self):
        rep = run_vdc_suite(100, length=2048, h=32, seed=5)
        assert rep.ok

    @staticmethod
    def mean_of_products(a, interval, h):
        """vdc_bound's (lhs, rhs) with each shift's average the mean of a
        conjugate copy times the shifted segment."""
        length = interval.length
        samples = a.sample(interval.lo - h, interval.hi + h)
        base = samples[h:h + length]
        acc = 0.0 + 0.0j
        for hh in range(-h, h + 1):
            w = (h - abs(hh)) / (h * h)
            seg = samples[h + hh:h + hh + length]
            acc += w * complex(np.mean(seg * np.conj(base)))
        return abs(complex(base.mean())) ** 2, 4.0 * h / length + abs(acc)

    def test_one_dot_product_per_shift(self):
        # unimodular phases: within 1e-15.  +-1 input at a power-of-two
        # |I|, as in run_vdc_suite: every partial sum is an integer and
        # numpy's mean multiplies by an exact 1/|I|, so the same bits
        rng = np.random.default_rng(3)
        interval = ul.IntervalSpec(70, 2048)
        for h in (1, 7, 64):
            phases = ul.from_samples(np.exp(2j * np.pi * rng.random(2200)))
            rep = ul.vdc_bound(phases, interval, h)
            lhs, rhs = self.mean_of_products(phases, interval, h)
            assert rep.lhs == lhs
            assert abs(rep.rhs - rhs) <= 1e-15, h
            for s in range(20):
                a = ul.rademacher_seq(s)
                rep = ul.vdc_bound(a, interval, h)
                assert (rep.lhs, rep.rhs) == self.mean_of_products(
                    a, interval, h), (h, s)


class TestCsg:
    def test_equality_when_all_equal(self):
        n, h = 256, 16
        a = ul.from_samples(ul.rademacher_seq(31).sample(0, n))
        p = ul.BoxParams(2, h, ul.IntervalSpec(0, n), ul.cyclic(n))
        rep = ul.csg_check([a, a, a, a], p)
        powered = ul.box_norm(a, p).powered
        assert rep.lhs == pytest.approx(powered, abs=1e-12)
        assert rep.rhs == pytest.approx(powered, abs=1e-9)
        assert rep.holds

    def test_zero_sequence_gives_zero_lhs(self):
        n, h = 128, 8
        p = ul.BoxParams(2, h, ul.IntervalSpec(0, n), ul.cyclic(n))
        seqs = [ul.rademacher_seq(i) for i in range(3)] + [ul.constant_seq(0.0)]
        rep = ul.csg_check(seqs, p)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_interval_mode_warns(self):
        n, h = 128, 8
        p = ul.BoxParams(2, h, ul.IntervalSpec(0, n))
        rep = ul.csg_check([ul.rademacher_seq(i) for i in range(4)], p)
        assert rep.warning is not None
        assert not rep.exact_mode

    def test_mixed_matches_brute(self):
        # independent oracle for the mixed pairing, tiny cases
        import itertools
        n, h = 32, 3
        for k in (2, 3):
            seqs = [ul.rademacher_seq(40 + i) for i in range(1 << k)]
            vals = [s.sample(0, n) for s in seqs]
            total = 0.0 + 0.0j
            for hs in itertools.product(range(h), repeat=k):
                for idx in range(n):
                    term = 1.0 + 0.0j
                    for m in range(1 << k):
                        eps = [(m >> i) & 1 for i in range(k)]
                        off = sum(e * hi for e, hi in zip(eps, hs))
                        v = vals[m][(idx + off) % n]
                        term *= v.conjugate() if sum(eps) % 2 else v
                    total += term / n
            oracle = abs(total / h ** k)
            p = ul.BoxParams(k, h, ul.IntervalSpec(0, n), ul.cyclic(n))
            rep = ul.csg_check(seqs, p)
            assert rep.lhs == pytest.approx(oracle, abs=1e-10)

    def test_seeded_suite(self):
        rep = run_csg_suite(40, n=512, h=16, seed=2)
        assert rep.ok


class TestSuiteInequalities:
    def test_subadditivity(self):
        assert run_subadditivity_suite(60, n=512, h=16, seed=7).ok

    def test_monotonicity(self):
        assert run_monotonicity_suite(60, n=512, h=16, seed=7).ok

    def test_recursion(self):
        rep = run_recursion_suite(20, n=512, h=16, seed=7)
        assert rep.ok
        assert rep.worst_slack < 0  # gaps well inside 1e-9

    @pytest.mark.parametrize("suite", [
        run_csg_suite, run_subadditivity_suite, run_monotonicity_suite,
        run_recursion_suite])
    def test_empty_ks_refused(self, suite, monkeypatch):
        # ks=() once divided by zero in the trial loop
        def drawn(seed, n):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(uniformity, "_suite_seq", drawn)
        with pytest.raises(ValueError, match=r"^ks must name at least one k$"):
            suite(2, n=32, h=4, ks=())


class TestProxy:
    def test_constant(self):
        rep = ul.uniformity_norm_proxy(ul.constant_seq(1.0),
                                       ul.IntervalSpec(0, 4096), 512, 256, 2, 64)
        assert rep.value == pytest.approx(1.0, abs=1e-9)

    def test_golden_rotation_k1(self):
        a = ul.exp_seq((math.sqrt(5) - 1) / 2)
        rep = ul.uniformity_norm_proxy(a, ul.IntervalSpec(0, 1 << 15),
                                       4096, 1024, 1, 64)
        assert rep.value <= 0.05

    def test_reports_argmax_window(self):
        # plant a constant block inside noise; the proxy should find it
        n = 8192
        vals = ul.rademacher_seq(1).sample(0, n).copy()
        vals[4096:4608] = 1.0
        a = ul.from_samples(vals)
        rep = ul.uniformity_norm_proxy(a, ul.IntervalSpec(0, n), 512, 256, 2, 64)
        assert rep.params.interval.lo == 4096
        assert rep.value > 0.9

    def test_interval_windows(self):
        a = ul.rademacher_seq(77)
        rep = ul.uniformity_norm_proxy(a, ul.IntervalSpec(0, 8192), 1024, 512,
                                       2, 16, per_window="interval")
        assert 0.0 <= rep.value <= 1.0
        assert rep.params.mode is ul.INTERVAL or not rep.params.mode.is_cyclic


    @pytest.mark.parametrize("per_window", ["cyclic", "interval"])
    def test_ties_keep_first_window(self, per_window):
        # every window of a constant ties; the first one is the argmax
        # (the CLI prints params.interval.lo as argmax_lo)
        rep = ul.uniformity_norm_proxy(ul.constant_seq(1.0),
                                       ul.IntervalSpec(100, 4096), 512, 256,
                                       2, 64, per_window=per_window)
        assert rep.value == pytest.approx(1.0, abs=1e-9)
        assert rep.params.interval.lo == 100

    @pytest.mark.parametrize("per_window", ["cyclic", "interval"])
    def test_report_is_the_winners_box_norm(self, monkeypatch, per_window):
        # one box_norm per window, and the winner's report is a fresh
        # box_norm on its window, h_tail included, bit for bit; the
        # interval windows read a margin of 3 * 15 points past the range
        vals = ul.rademacher_seq(5).sample(0, 4096 + 45).copy()
        vals[1536:2048] = ul.exp_seq(0.3).sample(0, 512)
        a = ul.from_samples(vals)
        calls = []
        box_norm = uniformity.box_norm

        def counted(*args, **kwargs):
            calls.append(1)
            return box_norm(*args, **kwargs)

        monkeypatch.setattr(uniformity, "box_norm", counted)
        rep = ul.uniformity_norm_proxy(a, ul.IntervalSpec(0, 4096), 512, 256,
                                       3, 16, per_window=per_window)
        assert len(calls) == len(range(0, 4096 - 512 + 1, 256))
        m = rep.params.interval.lo
        assert m == 1536
        if per_window == "interval":
            fresh = box_norm(a, ul.BoxParams(3, 16, ul.IntervalSpec(m, 512)))
            assert fresh.h_tail > 0.0
        else:
            fresh = box_norm(ul.shift(a, m), ul.BoxParams(
                3, 512, ul.IntervalSpec(0, 512), ul.cyclic(512)))
        assert (rep.value.hex(), rep.powered.hex(), rep.h_tail.hex()) == \
            (fresh.value.hex(), fresh.powered.hex(), fresh.h_tail.hex())

    def test_interval_span_refused_before_the_first_window(self, monkeypatch):
        # the last of 29 windows starts at 1792 and reads to
        # 1792 + 256 + 2 * 7 = 2062, past the samples' 2048
        a = ul.from_samples(ul.rademacher_seq(1).sample(0, 2048))
        calls = []
        monkeypatch.setattr(uniformity, "box_norm",
                            lambda *args, **kwargs: calls.append(1))
        with pytest.raises(SequenceRangeError,
                           match=r"windows' span at k=2, H=8 needs "
                                 r"indices \[0, 2062\)"):
            ul.uniformity_norm_proxy(a, ul.IntervalSpec(0, 2048), 256, 64,
                                     2, 8, per_window="interval")
        assert calls == []


class TestReports:
    def test_value_powers_consistent(self):
        a = ul.rademacher_seq(2)
        p = ul.BoxParams(2, 16, ul.IntervalSpec(0, 256), ul.cyclic(256))
        rep = ul.box_norm(a, p)
        assert rep.value == pytest.approx(rep.powered ** 0.25, abs=1e-14)
        assert rep.h_tail >= 0.0

    def test_tail_of_exponential_is_one(self):
        # on-grid frequency wraps seamlessly: every c_h = 1, so the
        # outermost shell averages to 1 as well
        p = ul.BoxParams(2, 16, ul.IntervalSpec(0, 256), ul.cyclic(256))
        rep = ul.box_norm(ul.exp_seq(77 / 256), p)
        assert rep.h_tail == pytest.approx(1.0, abs=1e-9)

    def test_tail_zero_at_full_grid(self):
        n = 128
        p = ul.BoxParams(2, n, ul.IntervalSpec(0, n), ul.cyclic(n))
        rep = ul.box_norm(ul.rademacher_seq(1), p)
        assert rep.h_tail == 0.0

    def test_tail_direct_matches_fast(self):
        a = ul.rademacher_seq(23)
        p = ul.BoxParams(2, 8, ul.IntervalSpec(0, 128), ul.cyclic(128))
        t_fast = ul.box_norm(a, p, path="fast").h_tail
        t_direct = ul.box_norm(a, p, path="direct").h_tail
        assert t_fast == pytest.approx(t_direct, abs=1e-10)

    @pytest.mark.parametrize("path, k, h, cyc", TAIL_CASES)
    def test_tail_matches_shell_oracle(self, path, k, h, cyc):
        # a constant plus small random phases keeps every average positive
        n = 12
        rng = np.random.default_rng(100 * k + h)
        values = 0.6 + 0.3 * np.exp(2j * np.pi * rng.random(n + k * (h - 1)))
        if cyc:
            values = values[:n]
            p = ul.BoxParams(k, h, ul.IntervalSpec(0, n), ul.cyclic(n))
        else:
            p = ul.BoxParams(k, h, ul.IntervalSpec(0, n))
        oracle = abs(brute_powered(values, k, h, n, cyc, shell=True))
        rep = ul.box_norm(ul.from_samples(values), p, path=path)
        assert rep.h_tail == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("path, k, h, cyc, lo, ran", [
        ("auto", 2, 16, True, 0, "spectral"),
        ("auto", 1, 16, True, 0, "spectral"),
        ("auto", 2, 8, True, 0, "fast"),
        ("auto", 3, 16, True, 0, "fast"),
        ("auto", 2, 16, True, 3, "fast"),
        ("auto", 2, 8, False, 0, "fast"),
        ("fast", 2, 16, True, 0, "fast"),
        ("fft", 2, 8, True, 0, "fast"),
        ("fft", 3, 4, False, 0, "fast"),
        ("direct", 2, 4, False, 0, "direct"),
        ("spectral", 2, 16, True, 0, "spectral"),
    ])
    def test_report_names_the_path_that_ran(self, path, k, h, cyc, lo, ran):
        n = 16
        mode = ul.cyclic(n) if cyc else ul.INTERVAL
        p = ul.BoxParams(k, h, ul.IntervalSpec(lo, n), mode)
        assert ul.box_norm(ul.rademacher_seq(6), p, path=path).path == ran

    def test_proxy_report_names_its_path(self):
        rep = ul.uniformity_norm_proxy(ul.rademacher_seq(3),
                                       ul.IntervalSpec(0, 256), 64, 64, 2, 8)
        assert rep.path == "spectral"

    def test_margin_contract_enforced(self):
        a = ul.from_samples(np.ones(100))
        with pytest.raises(SequenceRangeError, match=re.escape(
                "k=2, H=16 box average on IntervalSpec(lo=0, length=100) "
                "needs indices [0, 130)")):
            ul.box_norm(a, ul.BoxParams(2, 16, ul.IntervalSpec(0, 100)))


OPERAND_PATTERNS = ("single", "distinct", "dual")


def cube_operands(pattern, k, h, out_len, cyclic, seed=0):
    """2^k kernel operands covering out_len + k*(h-1) points.

    single: one array at every vertex (box_norm); distinct: 2^k arrays
    (csg_check); dual: None, the constant 1, at vertex 0 and one array
    elsewhere (dual_function).  Cyclic operands repeat a period of length
    out_len.
    """
    rng = np.random.default_rng(seed)
    span = out_len + k * (h - 1)

    def draw():
        period = out_len if cyclic else span
        vals = rng.standard_normal(period) + 1j * rng.standard_normal(period)
        return vals[np.arange(span) % period]

    if pattern == "distinct":
        return [draw() for _ in range(1 << k)]
    x = draw()
    if pattern == "dual":
        return [None] + [x] * ((1 << k) - 1)
    return [x] * (1 << k)


def summed_operands(xs):
    """xs for an n-summed call, whose base reads an array at every vertex:
    the dual pattern's None, the constant 1, as an array of ones."""
    return [np.ones_like(xs[-1]) if x is None else x for x in xs]


class TestCostEstimate:
    """uniformity._cube_cost from BoxParams alone; nothing is sampled."""

    def test_formulas(self):
        cyc = ul.BoxParams(3, 8, ul.IntervalSpec(0, 100), ul.cyclic(100))
        span = 100 + 3 * 7
        cost = uniformity._cube_cost
        assert cost(cyc, "fast") == math.comb(8 + 1, 2) * span
        assert cost(cyc, "fast", symmetric=False) == 8 ** 2 * span
        assert cost(cyc, "direct") == 2 ** 3 * 8 ** 3 * 100
        k2 = ul.BoxParams(2, 8, ul.IntervalSpec(0, 100))
        assert cost(k2, "fast") == 8 * (100 + 2 * 7)

    @pytest.mark.parametrize("k", [1, 2])
    def test_symmetric_low_k(self, k):
        # the sorted walk's C(H+k-2, k-1) windows are H^(k-1) at k <= 2
        for h in (1, 2, 8, 1000):
            p = ul.BoxParams(k, h, ul.IntervalSpec(0, 100))
            span = 100 + k * (h - 1)
            sym = uniformity._cube_cost(p, "fast")
            assert sym == math.comb(h + k - 2, k - 1) * span
            assert sym == h ** (k - 1) * span
            assert sym == uniformity._cube_cost(p, "fast", symmetric=False)

    def test_limit(self):
        limit = uniformity._MAX_COST
        # the acceptance run of the literal direct sum (criterion 14)
        direct = ul.BoxParams(2, 256, ul.IntervalSpec(0, 1 << 16),
                              ul.cyclic(1 << 16))
        assert uniformity._cube_cost(direct, "direct") == 4 * 256 ** 2 << 16
        assert uniformity._cube_cost(direct, "direct") <= limit
        big = ul.BoxParams(16, 64, ul.IntervalSpec(0, 64), ul.cyclic(64))
        assert uniformity._cube_cost(big, "fast") > limit
        # k = 1 costs nothing per window but still reads every margin point
        wide = ul.BoxParams(1, 10 ** 13, ul.IntervalSpec(0, 8))
        assert uniformity._cube_cost(wide, "fast") > limit
        # past float range the message gives a power of two
        vast = ul.BoxParams(2, 10 ** 400, ul.IntervalSpec(0, 8))
        with pytest.raises(ValueError, match=r"~2\^\d+ element operations"):
            uniformity._require_affordable(vast, "fast")

    def test_csg_refused_before_sampling(self, monkeypatch):
        def sampled(self, ns):
            raise AssertionError("sampled before the size preflight")

        p = ul.BoxParams(5, 512, ul.IntervalSpec(0, 4096), ul.cyclic(4096))
        monkeypatch.setattr(ul.ComplexSeq, "eval", sampled)
        with pytest.raises(ValueError, match="element operations"):
            ul.csg_check([ul.constant_seq(1.0)] * 32, p)

    @pytest.mark.parametrize("k", [1, 2])
    def test_spectral_counts_the_period(self, k):
        # the closed forms read a_0 .. a_{N-1} and nothing past them
        p = ul.BoxParams(k, 100, ul.IntervalSpec(0, 100), ul.cyclic(100))
        assert uniformity._cube_cost(p, "spectral") == 100


class TestOperandSampling:
    """_operand_array evaluates exactly the points its path reads."""

    @staticmethod
    def counted(n):
        """A sequence valid on [0, n) that records every index evaluated."""
        vals = ul.rademacher_seq(3).sample(0, n)
        seen = []

        def fn(ns):
            seen.append(ns.copy())
            return vals[ns]

        return ul.ComplexSeq(fn, (0, n)), vals, seen

    @pytest.mark.parametrize("k", [1, 2])
    def test_spectral_evaluates_one_period(self, k):
        n = 64
        a, vals, seen = self.counted(n)
        rep = ul.box_norm(a, ul.BoxParams(k, n, ul.IntervalSpec(0, n),
                                          ul.cyclic(n)))
        assert rep.path == "spectral"
        np.testing.assert_array_equal(np.concatenate(seen), np.arange(n))
        ref = ul.box_norm(ul.from_samples(vals), rep.params, path="fast")
        assert rep.value == pytest.approx(ref.value, abs=1e-12)

    @pytest.mark.parametrize("cyc", [True, False], ids=["cyclic", "interval"])
    def test_fast_evaluates_the_margin(self, cyc):
        # [I.lo, I.hi + k*(H-1)), wrapped mod N when cyclic
        k, h, n = 2, 5, 64
        lo, length = (0, n) if cyc else (3, n - 3 - k * (h - 1))
        a, _, seen = self.counted(n)
        p = ul.BoxParams(k, h, ul.IntervalSpec(lo, length),
                         ul.cyclic(n) if cyc else ul.INTERVAL)
        ul.box_norm(a, p, path="fast")
        want = np.arange(lo, lo + length + k * (h - 1)) % n
        np.testing.assert_array_equal(np.concatenate(seen), want)

    @pytest.mark.parametrize("spec, limit", [("samples", 1.01),
                                             ("rad:3", 2.01)])
    def test_cyclic_peak(self, spec, limit):
        # traced peak above the returned operand, in N-point complex
        # arrays, at cyclic N = 2^16, k = 2, H = 64: the span's one index
        # array, reduced mod N in place, and from_samples' own ns - lo
        # (1.00), or rad:'s evaluation temporaries (2.00).  A second index
        # array, np.arange(lo, hi) % N, made it 1.50 and 2.51
        n = 1 << 16
        a = ul.parse_generator("rad:3")
        if spec == "samples":
            a = ul.from_samples(a.sample(0, n) * np.exp(1j * np.arange(n)))
        p = ul.BoxParams(2, 64, ul.IntervalSpec(0, n), ul.cyclic(n))
        x = uniformity._operand_array(a, p)
        extra = _traced_peak(lambda: uniformity._operand_array(a, p))
        assert (extra - x.nbytes) / (16 * n) <= limit

    @pytest.mark.parametrize("h, span", [(32, 1086), (1024, 3070)],
                             ids=["fast", "spectral"])
    def test_csg_samples_each_sequence_once(self, monkeypatch, h, span):
        # the 2^k box norms read the arrays the mixed pairing sampled (the
        # spectral norm its period x[:N]): one span per sequence, each point
        # evaluated once by the sequence.  Sampling again for the norms
        # made 4,344 per sequence at H = 32, 8,188 at N; a cyclic wrapper
        # that evaluated each point too, 2,172 and 6,140
        n = 1024
        seqs = [ul.from_samples(ul.rademacher_seq(m).sample(0, n))
                for m in range(4)]
        p = ul.BoxParams(2, h, ul.IntervalSpec(0, n), ul.cyclic(n))
        want = [ul.box_norm(s, p).value for s in seqs]
        evaluated = []
        orig = ul.ComplexSeq.eval

        def counting(self, ns):
            evaluated.append(np.size(ns))
            return orig(self, ns)

        monkeypatch.setattr(ul.ComplexSeq, "eval", counting)
        rep = ul.csg_check(seqs, p)
        assert sum(evaluated) == 4 * span
        assert list(rep.norms) == want


class TestKernelBitIdentity:
    """The workspace kernel gives the reference kernel's bits exactly."""

    @pytest.mark.parametrize("cyclic", [True, False],
                             ids=["cyclic", "interval"])
    @pytest.mark.parametrize("h", [1, 2, 5, 16])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_reference(self, k, h, cyclic):
        for out_len in (1, 7, 4099):
            for pattern in OPERAND_PATTERNS:
                xs = cube_operands(pattern, k, h, out_len, cyclic,
                                   seed=out_len + k)
                case = f"out_len={out_len} {pattern}"
                arrays = summed_operands(xs)
                got = uniformity._cube_average(arrays, k, h, out_len)
                want = reference_kernel(lambda: uniformity._cube_average(
                    arrays, k, h, out_len))
                assert got == want, case
                acc = uniformity._cube_average(xs, k, h, out_len, per_n=True)
                ref_acc = reference_kernel(lambda: uniformity._cube_average(
                    xs, k, h, out_len, per_n=True))
                assert acc.tobytes() == ref_acc.tobytes(), case

    def test_sup_window_average_unchanged(self):
        a = ul.rademacher_seq(9)
        for n in (1, 5, 64):
            got = ul.sup_window_average(a, ul.IntervalSpec(3, 500), n)
            vals = a.sample(3, 503 + n - 1)
            want = float(np.max(np.abs(ref_sliding_sums(vals, n, 500))) / n)
            assert got == want


class TestSortedWalk:
    """Symmetric operands walk the sorted outer shifts at every k, which at
    k <= 2 gives the full grid's bits; mixed operands keep the full grid."""

    @pytest.mark.parametrize("pattern", OPERAND_PATTERNS)
    @pytest.mark.parametrize("h", [1, 3, 6])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_base_calls_counted(self, k, h, pattern):
        out_len = 9
        xs = cube_operands(pattern, k, h, out_len, False, seed=k + h)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return seq_core._sliding_sums(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(uniformity, "_sliding_sums", counted)
            acc = uniformity._cube_average(xs, k, h, out_len, per_n=True)
        if pattern == "distinct":
            assert len(calls) == h ** (k - 1)
        else:
            assert len(calls) == math.comb(h + k - 2, k - 1)
        full_acc, full_shell = full_grid(xs, k, h, out_len)
        full_acc /= h ** k
        if pattern == "distinct" or k <= 2:
            assert acc.tobytes() == full_acc.tobytes()
        if pattern != "distinct":
            shell = uniformity._cube_average(summed_operands(xs), k, h,
                                             out_len)[1]
            assert_close(shell, shell_average(full_shell, k, h, out_len),
                         "shell")

    @pytest.mark.parametrize("pattern", ["single", "dual"])
    @pytest.mark.parametrize("cyclic", [True, False],
                             ids=["cyclic", "interval"])
    @pytest.mark.parametrize("k", [3, 4])
    def test_symmetric_agrees_with_full_grid(self, k, cyclic, pattern):
        for h in (2, 5, 8):
            for out_len in (1, 7, 300):
                xs = cube_operands(pattern, k, h, out_len, cyclic,
                                   seed=10 * h + out_len)
                case = f"H={h} out_len={out_len}"
                acc = uniformity._cube_average(xs, k, h, out_len, per_n=True)
                full_acc, full_shell = full_grid(xs, k, h, out_len)
                full_acc /= h ** k
                scale = np.max(np.abs(full_acc))
                assert np.max(np.abs(acc - full_acc)) <= 1e-12 * scale, case
                assert_close(acc.mean(), full_acc.mean(), case)
                shell = uniformity._cube_average(summed_operands(xs), k, h,
                                                 out_len)[1]
                assert_close(shell, shell_average(full_shell, k, h, out_len),
                             case)


class TestKernelWorkspace:
    """Buffers reused inside a pass never leak into inputs or outputs."""

    def test_operands_untouched(self):
        for k in (1, 2, 3):
            for pattern in OPERAND_PATTERNS:
                xs = cube_operands(pattern, k, 5, 64, False)
                arrays = summed_operands(xs)  # xs's arrays, and ones for None
                before = [x.tobytes() for x in arrays]
                uniformity._cube_average(arrays, k, 5, 64)
                uniformity._cube_average(xs, k, 5, 64, per_n=True)
                assert [x.tobytes() for x in arrays] == before, (k, pattern)

    def test_csg_operands_untouched(self):
        n = 256
        vals = [ul.rademacher_seq(60 + m).sample(0, n) for m in range(4)]
        before = [v.tobytes() for v in vals]
        seqs = [ul.from_samples(v) for v in vals]
        ul.csg_check(seqs, ul.BoxParams(2, 8, ul.IntervalSpec(0, n),
                                        ul.cyclic(n)))
        assert [s.sample(0, n).tobytes() for s in seqs] == before

    def test_repeated_and_interleaved_calls(self):
        first = {}
        cases = [(k, h, n) for k in (1, 2, 3) for h in (2, 5)
                 for n in (7, 300)]
        operands = {c: cube_operands("single", c[0], c[1], c[2], True)
                    for c in cases}
        for c in cases:
            first[c] = uniformity._cube_average(operands[c], *c)
            assert uniformity._cube_average(operands[c], *c) == first[c]
        for c in reversed(cases):
            assert uniformity._cube_average(operands[c], *c) == first[c]

    def test_dual_function_output_is_its_own(self):
        a = ul.rademacher_seq(8)
        n = 128
        p = ul.BoxParams(2, 6, ul.IntervalSpec(0, n), ul.cyclic(n))
        d1 = duality.dual_function(a, p)
        s1 = d1.sample(0, n)
        # a second call, then a call of another shape, must not rewrite d1
        d2 = duality.dual_function(a, p)
        duality.dual_function(a, ul.BoxParams(3, 3, ul.IntervalSpec(0, n),
                                              ul.cyclic(n)))
        s2 = d2.sample(0, n)
        assert s2.tobytes() == s1.tobytes()
        s2 *= 0
        assert d1.sample(0, n).tobytes() == s1.tobytes()
        assert d2.sample(0, n).tobytes() == s1.tobytes()


# Interpreter objects (dicts, array views) move a tracemalloc peak by under
# 1 KiB between identical calls; every kernel array here is >= 256 KiB.
PEAK_SLACK = 4096


def _traced_peak(fn):
    fn()  # warm: first-call caches are not the kernel's
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    """The workspace kernel never peaks above the allocating reference."""

    N = 1 << 16

    @pytest.fixture(scope="class")
    def big(self):
        rng = np.random.default_rng(5)
        return ul.from_samples(np.exp(2j * np.pi * rng.random(self.N)))

    def _check(self, fn):
        new = _traced_peak(fn)
        ref = reference_kernel(lambda: _traced_peak(fn))
        unit = 16 * self.N  # one complex array of N points
        assert new <= ref + PEAK_SLACK, (
            f"peak {new / unit:.3f} N vs reference {ref / unit:.3f} N")

    def test_box_norm_fast_k2(self, big):
        p = ul.BoxParams(2, 64, ul.IntervalSpec(0, self.N), ul.cyclic(self.N))
        self._check(lambda: ul.box_norm(big, p, path="fast"))

    def test_dual_function_k2(self, big):
        p = ul.BoxParams(2, 64, ul.IntervalSpec(0, self.N), ul.cyclic(self.N))
        self._check(lambda: duality.dual_function(big, p))

    def test_box_norm_fast_k3_interval(self, big):
        n, h = 1 << 14, 16
        p = ul.BoxParams(3, h, ul.IntervalSpec(0, n))
        self._check(lambda: ul.box_norm(big, p, path="fast"))


BLOCK_TEST = 64  # uniformity._BLOCK in TestKernelBlocks, so chunks stay cheap


def vdot_count(fn):
    """(fn(), the number of np.vdot calls it made)."""
    vdots, vdot = [], np.vdot

    def counted(u, v):
        vdots.append(1)
        return vdot(u, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uniformity.np, "vdot", counted)
        return fn(), len(vdots)
BLOCK_LENS = (BLOCK_TEST - 1, BLOCK_TEST, BLOCK_TEST + 1, 3 * BLOCK_TEST + 17)


class TestKernelBlocks:
    """_cube_average's chunks, with the block shrunk to 64 points, against
    one unchunked pass over the whole n-range."""

    @pytest.fixture(autouse=True)
    def small_block(self, monkeypatch):
        monkeypatch.setattr(uniformity, "_BLOCK", BLOCK_TEST)

    @pytest.mark.parametrize("pattern", OPERAND_PATTERNS)
    @pytest.mark.parametrize("cyclic", [True, False],
                             ids=["cyclic", "interval"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_agrees_with_unblocked(self, k, cyclic, pattern):
        for h in (1, 5):
            for out_len in BLOCK_LENS:
                xs = cube_operands(pattern, k, h, out_len, cyclic,
                                   seed=out_len + 10 * k + h)
                case = f"H={h} out_len={out_len}"

                def per_n():
                    return uniformity._cube_average(xs, k, h, out_len,
                                                    per_n=True)
                acc, one_acc = per_n(), unchunked(per_n)
                # the shell average of symmetric operands only
                shell = one_shell = 0j
                if pattern != "distinct":
                    def tail():
                        return uniformity._cube_average(
                            summed_operands(xs), k, h, out_len)[1]
                    shell, one_shell = tail(), unchunked(tail)
                    assert_close(shell, shell_average(
                        full_grid(xs, k, h, out_len)[1], k, h, out_len), case)
                if out_len <= BLOCK_TEST:
                    assert acc.tobytes() == one_acc.tobytes(), case
                    assert shell == one_shell, case
                    continue
                scale = np.max(np.abs(one_acc))
                assert np.max(np.abs(acc - one_acc)) <= 1e-12 * scale, case
                assert_close(acc.mean(), one_acc.mean(), case)
                assert_close(shell, one_shell, case)

    @pytest.mark.parametrize("pattern", OPERAND_PATTERNS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_base_calls_per_chunk(self, k, pattern):
        """Every chunk keeps the operands' identities, so a symmetric list
        still walks C(H+k-2, k-1) windows per chunk, not H^(k-1); chunks
        differ in length by at most one point."""
        h = 4
        if pattern == "distinct":
            per_chunk = h ** (k - 1)
        else:
            per_chunk = math.comb(h + k - 2, k - 1)
        for out_len in BLOCK_LENS:
            xs = cube_operands(pattern, k, h, out_len, False, seed=k)
            lens = []

            def counted(x, width, n, **kwargs):
                lens.append(n)
                return seq_core._sliding_sums(x, width, n, **kwargs)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(uniformity, "_sliding_sums", counted)
                uniformity._cube_average(xs, k, h, out_len, per_n=True)
            chunks = -(-out_len // BLOCK_TEST)
            assert len(lens) == chunks * per_chunk, out_len
            assert sum(lens) == per_chunk * out_len, out_len
            assert max(lens) <= BLOCK_TEST and max(lens) - min(lens) <= 1

    def test_public_paths_cross_blocks(self):
        """box_norm and dual_function past the block agree with the direct
        path and with the dual pairing identity."""
        a = ul.rademacher_seq(21)
        n, h = 3 * BLOCK_TEST + 17, 4
        for k in (1, 2, 3):
            p = ul.BoxParams(k, h, ul.IntervalSpec(5, n))
            fast = ul.box_norm(a, p, path="fast")
            direct = ul.box_norm(a, p, path="direct")
            assert abs(fast.powered - direct.powered) <= 1e-12, k
            assert abs(fast.h_tail - direct.h_tail) <= 1e-12, k
            pairing = duality.dual_pairing(a, p).real
            assert abs(pairing - fast.powered) <= 1e-12, k


SUMMED_LENS = (1, 2, 7, BLOCK_TEST - 1, BLOCK_TEST + 1, 3 * BLOCK_TEST + 17)


class TestSummedKernel:
    """The n-summed base (_cube_average without per_n, hence every box
    average) against the per-n kernel, with the block shrunk to 64
    points."""

    @pytest.fixture(autouse=True)
    def small_block(self, monkeypatch):
        monkeypatch.setattr(uniformity, "_BLOCK", BLOCK_TEST)

    @pytest.mark.parametrize("pattern", OPERAND_PATTERNS)
    @pytest.mark.parametrize("cyclic", [True, False],
                             ids=["cyclic", "interval"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_agrees_with_per_n(self, k, cyclic, pattern):
        for h in (1, 5):
            for out_len in SUMMED_LENS:
                xs = cube_operands(pattern, k, h, out_len, cyclic,
                                   seed=out_len + 10 * k + h)
                case = f"H={h} out_len={out_len}"
                acc = uniformity._cube_average(xs, k, h, out_len, per_n=True)
                got = uniformity._cube_average(summed_operands(xs), k, h,
                                               out_len)
                assert_close(got[0], acc.mean(), case)
                if pattern != "distinct":  # mixed operands have no shell
                    shell = full_grid(xs, k, h, out_len)[1]
                    assert_close(got[1], shell_average(shell, k, h, out_len),
                                 case)

    @pytest.mark.parametrize("pattern", OPERAND_PATTERNS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_prefix_calls_per_chunk(self, k, pattern):
        """One centred prefix per window and no window array; a symmetric
        list still walks C(H+k-2, k-1) windows per chunk."""
        h = 4
        if pattern == "distinct":
            per_chunk = h ** (k - 1)
        else:
            per_chunk = math.comb(h + k - 2, k - 1)
        for out_len in SUMMED_LENS:
            xs = summed_operands(cube_operands(pattern, k, h, out_len, False,
                                               seed=k))
            lens = []

            def counted(x, scratch=None):
                lens.append(len(x))
                return seq_core._centred_prefix(x, scratch)

            def no_window(*args, **kwargs):
                raise AssertionError("the n-summed base formed a window")

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(uniformity, "_centred_prefix", counted)
                mp.setattr(uniformity, "_sliding_sums", no_window)
                uniformity._cube_average(xs, k, h, out_len)
            chunks = -(-out_len // BLOCK_TEST)
            assert len(lens) == chunks * per_chunk, out_len
            assert sum(lens) == per_chunk * (out_len + chunks * (h - 1))


class TestKernelPasses:
    """What a call computes besides the windows' prefixes.  Every call
    conjugates each distinct operand some level shifts (those at vertices
    m >= 2) once per chunk, and no merge conjugates.  An n-summed call
    takes two dot products per window; a symmetric one (at k = 1 any two
    arrays are, one per popcount) also takes the shell's edge term
    h_1 = H-1 at k = 1 and in each window whose outer shifts hold H-1
    exactly once: 1 per chunk at k = 2, H-1 at k = 3, C(H, 2) at k = 4.
    A per-n call conjugates each window once, makes one product per
    merge, none for the dual function's constant 1, and takes no dot
    product."""

    @pytest.fixture(autouse=True)
    def small_block(self, monkeypatch):
        monkeypatch.setattr(uniformity, "_BLOCK", BLOCK_TEST)

    @pytest.mark.parametrize("out_len", [9, 3 * BLOCK_TEST + 17],
                             ids=["one-chunk", "four-chunks"])
    @pytest.mark.parametrize("pattern", OPERAND_PATTERNS)
    @pytest.mark.parametrize("h", [1, 2, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_conj_and_vdot_counts(self, k, h, pattern, out_len):
        xs = summed_operands(cube_operands(pattern, k, h, out_len, False,
                                           seed=k + h))
        conjs, vdots = [], []
        conj, vdot = np.conj, np.vdot

        def counted_conj(x, *args, **kwargs):
            if isinstance(x, np.ndarray):  # not the base's scalar conj(H mu)
                conjs.append(len(x))
            return conj(x, *args, **kwargs)

        def counted_vdot(a, b):
            vdots.append(1)
            return vdot(a, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(uniformity.np, "conj", counted_conj)
            mp.setattr(uniformity.np, "vdot", counted_vdot)
            got = uniformity._cube_average(xs, k, h, out_len)
        chunks = -(-out_len // BLOCK_TEST)
        shifted = len({id(x) for x in xs[2:]})
        assert len(conjs) == chunks * shifted  # each its chunk and margin
        assert sum(conjs) == shifted * (out_len + chunks * k * (h - 1))
        if pattern == "distinct" and k > 1:  # mixed: the full grid, no shell
            windows, edges = h ** (k - 1), 0
        else:
            windows = math.comb(h + k - 2, k - 1)
            edges = 1 if k == 1 else (math.comb(h + k - 4, k - 2) if h > 1
                                      else 0)
        assert len(vdots) == chunks * (2 * windows + edges)
        assert got == reference_kernel(lambda: uniformity._cube_average(
            xs, k, h, out_len))

    @pytest.mark.parametrize("out_len", [9, 3 * BLOCK_TEST + 17],
                             ids=["one-chunk", "four-chunks"])
    @pytest.mark.parametrize("pattern", ["single", "dual"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_shell_leaves_sum_unchanged(self, k, pattern, out_len):
        """Every chunk's _cube_sum call of a symmetric n-summed average
        gets a shell, and its accumulator gains the same bits as a call on
        the same operands with shell=None."""
        cube_sum, chunks, top = uniformity._cube_sum, [], k

        def both(xs, cs, k, h, out_len, acc, shell, ws, walk):
            if k < top:  # the recursion below the top call
                return cube_sum(xs, cs, k, h, out_len, acc, shell, ws, walk)
            alone = [0j]
            cube_sum(xs, cs, k, h, out_len, alone, None, {}, walk)
            assert shell == [0j]
            cube_sum(xs, cs, k, h, out_len, acc, shell, ws, walk)
            chunks.append(np.array([alone[0], acc[0]]))

        for h in (1, 2, 5):
            xs = summed_operands(cube_operands(pattern, k, h, out_len, False,
                                               seed=k + h))
            chunks.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(uniformity, "_cube_sum", both)
                uniformity._cube_average(xs, k, h, out_len)
            assert len(chunks) == -(-out_len // BLOCK_TEST), h
            for alone, summed in chunks:
                assert alone.tobytes() == summed.tobytes(), h

    @pytest.mark.parametrize("out_len", [9, 3 * BLOCK_TEST + 17],
                             ids=["one-chunk", "four-chunks"])
    @pytest.mark.parametrize("pattern", ["single", "dual"])
    @pytest.mark.parametrize("h", [1, 2, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_per_n_counts(self, k, h, pattern, out_len):
        xs = cube_operands(pattern, k, h, out_len, False, seed=k + h)
        conjs, products, vdots = [], [], []
        conj, multiply, vdot = np.conj, np.multiply, np.vdot

        def counted_conj(x, *args, **kwargs):
            conjs.append(len(x))
            return conj(x, *args, **kwargs)

        def counted_multiply(*args, **kwargs):
            products.append(1)
            return multiply(*args, **kwargs)

        def counted_vdot(a, b):
            vdots.append(1)
            return vdot(a, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(uniformity.np, "conj", counted_conj)
            mp.setattr(uniformity.np, "multiply", counted_multiply)
            mp.setattr(uniformity.np, "vdot", counted_vdot)
            got = uniformity._cube_average(xs, k, h, out_len, per_n=True)
        assert not vdots  # no shell on a per-n call
        chunks = -(-out_len // BLOCK_TEST)
        shifted = len({id(x) for x in xs[2:]})
        windows = math.comb(h + k - 2, k - 1)
        # the operands' conjugates cover their chunk and margin, the
        # windows' their chunk
        assert len(conjs) == chunks * (shifted + windows)
        assert sum(conjs) == (shifted * (out_len + chunks * k * (h - 1))
                              + windows * out_len)
        # level j (k >= j >= 2) runs once per sorted tuple of the k - j + 1
        # outer shifts chosen so far; each run makes one product per vertex
        # pair (the dual's lower levels pair the constant's merge with the
        # rest's), none for the constant's own pair, and at j >= 3 one more
        # for the conjugate of the merge that the level below shifts
        merges = sum(math.comb(h + k - j, k - j + 1)
                     * ((2 if pattern == "dual" and j < k else 1) + (j > 2))
                     for j in range(2, k + 1))
        assert len(products) == chunks * merges
        want = reference_kernel(lambda: uniformity._cube_average(
            xs, k, h, out_len, per_n=True))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("out_len", [9, 3 * BLOCK_TEST + 17],
                             ids=["one-chunk", "four-chunks"])
    @pytest.mark.parametrize("per_n", [False, True], ids=["summed", "per-n"])
    @pytest.mark.parametrize("pattern", OPERAND_PATTERNS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_cube_sum_calls(self, k, pattern, per_n, out_len):
        """The k = 2 level runs its windows' base in its own loop, with no
        _cube_sum call per window: one call per chunk at the top, and one
        per run of each level below it down to k = 2, that is once per
        outer tuple of the shifts chosen above that level.  The base still
        runs once per window: C(H+k-2, k-1) sorted windows per chunk for
        symmetric operands, H^(k-1) for mixed ones."""
        h = 4
        xs = cube_operands(pattern, k, h, out_len, False, seed=k + h)
        if not per_n:
            xs = summed_operands(xs)
        mixed = pattern == "distinct" and k > 1
        base_name = "_sliding_sums" if per_n else "_centred_prefix"
        cube_sum, base = uniformity._cube_sum, getattr(uniformity, base_name)
        levels, bases = [], []

        def counted_sum(*args):
            levels.append(args[2])  # the call's k
            return cube_sum(*args)

        def counted_base(*args, **kwargs):
            bases.append(1)
            return base(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(uniformity, "_cube_sum", counted_sum)
            mp.setattr(uniformity, base_name, counted_base)
            uniformity._cube_average(xs, k, h, out_len, per_n=per_n)

        def runs(j):  # the outer tuples of the k - j shifts above level j
            return h ** (k - j) if mixed else math.comb(h + k - j - 1, k - j)

        chunks = -(-out_len // BLOCK_TEST)
        assert Counter(levels) == {j: chunks * runs(j)
                                   for j in range(min(k, 2), k + 1)}
        assert len(bases) == chunks * runs(1)

    @pytest.mark.parametrize("out_len", [9, 3 * BLOCK_TEST + 17],
                             ids=["one-chunk", "four-chunks"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_signed_average_sums_no_shell(self, k, out_len):
        """box_powered_signed, whose callers read no h_tail, takes two dot
        products per window per chunk and no edge term, and gets the bits
        of the same S_H with the shell summed."""
        h, span = 5, 3 + out_len + k * 4
        rng = np.random.default_rng(k)
        a = ul.from_samples(rng.standard_normal(span)
                            + 1j * rng.standard_normal(span))
        p = ul.BoxParams(k, h, ul.IntervalSpec(3, out_len))
        got, vdots = vdot_count(lambda: ul.box_powered_signed(a, p, "fast"))
        chunks = -(-out_len // BLOCK_TEST)
        assert vdots == chunks * 2 * math.comb(h + k - 2, k - 1)
        x = uniformity._operand_array(a, p)
        with_shell = uniformity._powered_array(x, p, "fast")
        assert with_shell[1] != 0
        assert repr(got) == repr(with_shell[0].real)

    @pytest.mark.parametrize("k, n", [(1, 9), (2, 9), (3, 9),
                                      (2, 3 * BLOCK_TEST + 17)])
    def test_full_group_sums_no_shell(self, k, n):
        """At cyclic H = N the h average runs over the whole group: fast
        sums no shell there (two dot products per window per chunk) and
        h_tail stays 0.0."""
        p = ul.BoxParams(k, n, ul.IntervalSpec(0, n), ul.cyclic(n))
        a = ul.rademacher_seq(k + n)
        rep, vdots = vdot_count(lambda: ul.box_norm(a, p, path="fast"))
        chunks = -(-n // BLOCK_TEST)
        assert vdots == chunks * 2 * math.comb(n + k - 2, k - 1)
        assert rep.h_tail == 0.0 and rep.path == "fast"
        direct = ul.box_norm(a, p, path="direct")
        assert abs(rep.powered - direct.powered) <= 1e-12


class TestBlockedWorkspace:
    """Past _BLOCK output points the kernel's workspace is a few
    (_BLOCK + k(H-1))-point arrays, not a few N-point ones."""

    N, H, K = 1 << 16, 64, 2

    @pytest.fixture(scope="class")
    def big(self):
        rng = np.random.default_rng(5)
        return ul.from_samples(np.exp(2j * np.pi * rng.random(self.N)))

    def params(self, k, h):
        return ul.BoxParams(k, h, ul.IntervalSpec(0, self.N),
                            ul.cyclic(self.N))

    def _check(self, fn, p, operands=0, outputs=0, blocks=5):
        """fn's traced peak, less its operand arrays and N-point outputs,
        which are not workspace, within `blocks` arrays of
        _BLOCK + k(H-1) points."""
        margin = p.k * (p.H - 1)
        extra = _traced_peak(fn) - 16 * (operands * (self.N + margin)
                                         + outputs * self.N)
        unit = 16 * (uniformity._BLOCK + margin)
        assert extra <= blocks * unit, f"workspace {extra / unit:.2f} blocks"

    def test_box_norm(self, big):
        # the kernel of a box average on an operand sampled before tracing:
        # box_norm's own peak is its sampling, and it has no N-point output
        p = self.params(self.K, self.H)
        x = uniformity._operand_array(big, p)
        self._check(lambda: uniformity._cube_average(
            [x] * (1 << self.K), self.K, self.H, self.N), p)

    def test_dual_function(self, big):
        # one operand, the samples (the constant 1 at the base vertex is
        # None, no array), and the N-point output
        p = self.params(self.K, self.H)
        self._check(lambda: duality.dual_function(big, p), p, 1, 1)

    def test_dual_function_k3(self, big):
        # 7 blocks: the top merge and its conjugate (which the k = 2 level
        # shifts), the operand's conjugate, the two k = 2 merges, the
        # prefix and the window
        p = self.params(3, 16)
        self._check(lambda: duality.dual_function(big, p), p, 1, 1, 8)


# ---------------------------------------------------------------------------
# Closed forms for polynomial phases at scale
# ---------------------------------------------------------------------------

FULL = os.environ.get("UNIF_LAB_FULL", "") == "1"
CLOSED_FORM_TOL = 1e-14
# alpha for interval mode: a fraction near sqrt(2)/2 over the prime 2^31 - 1
INTERVAL_ALPHA = Fraction(1518500250, 2147483647)


def poly_phase_samples(alpha, d, count):
    """e(alpha * n^d) for n < count, with alpha * n^d reduced mod 1 exactly
    (alpha's denominator must be below 2^31)."""
    num, den = alpha.numerator, alpha.denominator
    n = np.arange(count, dtype=np.int64) % den
    r = n.copy()
    for _ in range(d - 1):
        r = r * n % den
    r = r * (num % den) % den
    return seq_core._e(r / den)


def geometric_e(theta, h):
    """sum_{t<h} e(t * theta) = e((h-1) theta / 2) sin(pi h theta) /
    sin(pi theta), every phase reduced exactly in fractions first."""
    theta -= round(theta)
    if theta == 0:
        return complex(h)
    y = h * theta
    m = round(y)
    ratio = ((-1) ** m * math.sin(math.pi * float(y - m))
             / math.sin(math.pi * float(theta)))
    half = (h - 1) * theta / 2
    return ratio * cmath.exp(2j * math.pi * float(half - math.floor(half)))


def poly_phase_powered(alpha, d, k, h):
    """S_H of a(n) = e(alpha n^d) at k >= d, independent of I and N.

    The cube product at shift h is the same at every n: at k = d it is
    e((-1)^d d! alpha h_1...h_d), and at k > d it is 1.  The h_1 sum is a
    geometric series; the others are grouped by the product h_2...h_d.
    """
    if k > d:
        return 1.0 + 0.0j
    theta = (-1) ** d * math.factorial(d) * alpha
    counts = Counter(math.prod(t)
                     for t in itertools.product(range(h), repeat=d - 1))
    terms = [c * geometric_e(theta * q, h) for q, c in counts.items()]
    return complex(math.fsum(t.real for t in terms),
                   math.fsum(t.imag for t in terms)) / h ** d


# (degree d, k, H, N); N > uniformity._BLOCK, so every case crosses chunk
# boundaries, and some N are not multiples of it
CLOSED_FORM_CASES = [
    (2, 2, 256, 20000), (2, 2, 37, 3 * 8192 + 17), (3, 3, 32, 16385),
    (4, 4, 12, 9000), (5, 5, 6, 8200), (2, 3, 32, 16384), (3, 4, 8, 8193),
]
if FULL:
    CLOSED_FORM_CASES += [(2, 2, 256, 1 << 20), (3, 3, 32, 1 << 20),
                          (4, 4, 8, 1 << 20), (5, 5, 4, 1 << 20),
                          (2, 3, 16, 1 << 20)]


class TestPolynomialPhaseClosedForm:
    """The fast path against the closed form of e(alpha n^d): k = d (sorted
    walk weights 3 and 6 at k = 4; 4, 6, 12 and 24 at k = 5) and k = d + 1
    (exactly 1), in interval mode and in cyclic(N) at alpha = j/N."""

    @pytest.mark.parametrize("d,k,h,n", CLOSED_FORM_CASES,
                             ids=[f"d{c[0]}-k{c[1]}-H{c[2]}-N{c[3]}"
                                  for c in CLOSED_FORM_CASES])
    @pytest.mark.parametrize("cyclic", [True, False],
                             ids=["cyclic", "interval"])
    def test_powered(self, d, k, h, n, cyclic):
        """S_H, and the shell average, whose closed form is
        (H^k P(H) - (H-1)^k P(H-1)) / (H^k - (H-1)^k) for P(H) = S_H:
        within 1.2e-15 of it at these sizes."""
        assert n > uniformity._BLOCK
        if cyclic:
            alpha = Fraction(n // 3 + 1, n)
            vals = poly_phase_samples(alpha, d, n)
            p = ul.BoxParams(k, h, ul.IntervalSpec(0, n), ul.cyclic(n))
        else:
            alpha = INTERVAL_ALPHA
            vals = poly_phase_samples(alpha, d, n + k * (h - 1))
            p = ul.BoxParams(k, h, ul.IntervalSpec(0, n))
        x = uniformity._operand_array(ul.from_samples(vals), p)
        got, shell = uniformity._cube_average([x] * (1 << k), k, h, n)
        want = poly_phase_powered(alpha, d, k, h)
        assert abs(got - want) <= CLOSED_FORM_TOL, (got, want)
        below = poly_phase_powered(alpha, d, k, h - 1)
        want = ((h ** k * want - (h - 1) ** k * below)
                / (h ** k - (h - 1) ** k))
        assert abs(shell - want) <= CLOSED_FORM_TOL, (shell, want)

    @pytest.mark.parametrize("cyclic", [True, False],
                             ids=["cyclic", "interval"])
    def test_dual_function(self, cyclic):
        """At k = d the cube product without the base vertex is
        c_h conj(a_n), so D_k a = S_H conj(a) at every n."""
        d, h, n = 2, 128, 3 * 8192 + 17
        alpha = Fraction(5, n) if cyclic else INTERVAL_ALPHA
        vals = poly_phase_samples(alpha, d, n if cyclic else n + d * (h - 1))
        mode = ul.cyclic(n) if cyclic else ul.INTERVAL
        p = ul.BoxParams(d, h, ul.IntervalSpec(0, n), mode)
        got = duality.dual_function(ul.from_samples(vals), p).sample(0, n)
        want = poly_phase_powered(alpha, d, d, h) * np.conj(vals[:n])
        assert np.max(np.abs(got - want)) <= CLOSED_FORM_TOL


# ---------------------------------------------------------------------------
# An exact oracle for sign sequences
# ---------------------------------------------------------------------------

# |S_H - exact| and max_n |D(n) - exact / H^k|, against 5.3e-17 and 9.5e-16
# measured at these sizes, 6.9e-18 and 1.4e-15 at 2^20; the shell's n-sum
# over |I| H^k, against 5.6e-17 at these sizes
SIGN_S_TOL = 1e-15
SIGN_DUAL_TOL = 1e-14
SIGN_N = 3 * 8192 + 17  # crosses two chunk boundaries, not a multiple of them
SIGN_CASES = [("rad:3", 2, 64, SIGN_N), ("tm:pm", 2, 64, SIGN_N),
              ("rad:12345", 3, 16, SIGN_N), ("tm:pm", 3, 16, SIGN_N),
              ("rad:7", 4, 4, 8193)]
if FULL:
    SIGN_CASES += [("rad:11", 2, 64, 1 << 20), ("rad:3", 3, 16, 1 << 20)]


def exact_cube_sums(xs, k, h, out_len):
    """sum_{h in [0,H)^k} prod_m xs[m][n + eps.h] at every n < out_len, in
    int64 for integer operands: the full grid of the cube recursion, with
    a window of integer prefix sums at its base."""
    if k == 1:
        prefix = np.concatenate(([0], np.cumsum(xs[1])))
        return xs[0][:out_len] * (prefix[h:h + out_len] - prefix[:out_len])
    half = 1 << (k - 1)
    m = out_len + (k - 1) * (h - 1)
    total = np.zeros(out_len, dtype=np.int64)
    for hh in range(h):
        total += exact_cube_sums(
            [xs[v][:m] * xs[v + half][hh:hh + m] for v in range(half)],
            k - 1, h, out_len)
    return total


class TestSignSequenceExact:
    """For +-1 input every cube product is +-1, so H^k D_k a(n) and
    |I| H^k S_H = sum_n a_n H^k D_k a(n) are integers, which int64 holds
    exactly while |I| H^k <= 2^62; so is the n-sum over the shell
    max(h) = H-1, the grid [0,H)^k less [0,H-1)^k.  The kernel's S_H,
    shell and dual function against them, in both modes, past the chunk
    size."""

    @pytest.mark.parametrize("spec,k,h,n", SIGN_CASES,
                             ids=[f"{c[0]}-k{c[1]}-H{c[2]}-N{c[3]}"
                                  for c in SIGN_CASES])
    @pytest.mark.parametrize("cyclic", [True, False],
                             ids=["cyclic", "interval"])
    def test_against_integers(self, spec, k, h, n, cyclic):
        assert n > uniformity._BLOCK and n * h ** k <= 1 << 62
        p = ul.BoxParams(k, h, ul.IntervalSpec(0, n),
                         ul.cyclic(n) if cyclic else ul.INTERVAL)
        x = uniformity._operand_array(ul.parse_generator(spec), p)
        signs = x.real.astype(np.int64)
        assert np.array_equal(signs, x) and np.all(np.abs(signs) == 1)
        dual = exact_cube_sums([np.ones_like(signs)]
                               + [signs] * ((1 << k) - 1), k, h, n)
        total = int(np.dot(signs[:n], dual))
        got, shell = uniformity._cube_average([x] * (1 << k), k, h, n)
        err = abs(Fraction(got.real) - Fraction(total, n * h ** k))
        assert err <= SIGN_S_TOL and abs(got.imag) <= SIGN_S_TOL, float(err)
        # the shell's n-sum, relative to the |I| H^k terms of the grid
        inner = int(np.sum(exact_cube_sums([signs] * (1 << k), k, h - 1, n)))
        count = h ** k - (h - 1) ** k
        shell_sum = shell * (n * count)
        err = abs(Fraction(shell_sum.real) - (total - inner))
        assert err <= SIGN_S_TOL * n * h ** k, float(err)
        assert abs(shell_sum.imag) <= SIGN_S_TOL * n * h ** k
        d = duality._dual_values(x, p)
        assert np.max(np.abs(d - dual / h ** k)) <= SIGN_DUAL_TOL
