"""Sequence representation and averaging primitives."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unif_lab as ul
from unif_lab.errors import IncompatibleRangeError, SequenceRangeError
from unif_lab.seq_core import _frac, sample_mode


def brute_average(seq, lo, hi):
    """Independent oracle: pure-python left-to-right sum."""
    total = 0.0 + 0.0j
    for n in range(lo, hi):
        total += seq.at(n)
    return total / (hi - lo)


class TestIntervalAverage:
    def test_constant(self):
        rep = ul.interval_average(ul.constant_seq(1.0), ul.IntervalSpec(0, 100))
        assert rep.value == 1.0
        assert rep.count == 100

    def test_alternating_cancels(self):
        alternating = ul.wrap_cyclic(ul.from_samples(np.array([1.0, -1.0])), 2)
        rep = ul.interval_average(alternating, ul.IntervalSpec(0, 100))
        assert abs(rep.value) == 0.0

    def test_geometric_full_periods(self):
        # e(n/8) over eight full periods; oracle: explicit geometric sum
        seq = ul.exp_seq(1 / 8)
        oracle = sum(cmath.exp(2j * cmath.pi * n / 8) for n in range(64)) / 64
        assert abs(oracle) < 1e-12
        rep = ul.interval_average(seq, ul.IntervalSpec(0, 64))
        assert abs(rep.value) < 1e-12

    def test_matches_brute_oracle(self):
        seq = ul.rademacher_seq(17)
        rep = ul.interval_average(seq, ul.IntervalSpec(-50, 120))
        assert abs(rep.value - brute_average(seq, -50, 70)) < 1e-12

    def test_linearity(self):
        interval = ul.IntervalSpec(0, 513)
        a = ul.rademacher_seq(1)
        b = ul.rademacher_seq(2)
        combo = ul.add(ul.scale(a, 0.3 + 0.4j), ul.scale(b, -1.25))
        lhs = ul.interval_average(combo, interval).value
        rhs = ((0.3 + 0.4j) * ul.interval_average(a, interval).value
               - 1.25 * ul.interval_average(b, interval).value)
        assert abs(lhs - rhs) < 1e-12

    def test_bounded_by_sup(self):
        for seed in range(5):
            a = ul.rademacher_seq(seed)
            rep = ul.interval_average(a, ul.IntervalSpec(0, 777))
            assert abs(rep.value) <= 1 + 1e-12

    def test_cyclic_mode_wraps(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        a = ul.from_samples(vals)
        rep = ul.interval_average(a, ul.IntervalSpec(2, 4), ul.cyclic(4))
        assert rep.value == pytest.approx((3 + 4 + 1 + 2) / 4)

    def test_cyclic_shift_invariance(self):
        n = 256
        a = ul.wrap_cyclic(ul.from_samples(ul.rademacher_seq(4).sample(0, n)), n)
        base = ul.interval_average(a, ul.IntervalSpec(0, n), ul.cyclic(n)).value
        for h in (1, 7, 100, -3):
            shifted = ul.interval_average(ul.shift(a, h), ul.IntervalSpec(0, n),
                                          ul.cyclic(n)).value
            assert abs(shifted - base) < 1e-12

    def test_out_of_range_raises(self):
        a = ul.from_samples(np.ones(10))
        with pytest.raises(SequenceRangeError):
            ul.interval_average(a, ul.IntervalSpec(5, 10))


class TestSupWindowAverage:
    def test_constant(self):
        v = ul.sup_window_average(ul.constant_seq(1.0), ul.IntervalSpec(0, 500), 50)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_alternating(self):
        alternating = ul.wrap_cyclic(ul.from_samples(np.array([1.0, -1.0])), 2)
        v = ul.sup_window_average(alternating, ul.IntervalSpec(0, 100), 2)
        assert v < 1e-12

    def test_rademacher_concentration(self):
        v = ul.sup_window_average(ul.rademacher_seq(42),
                                  ul.IntervalSpec(0, 1 << 16), 1024)
        assert v <= 0.2

    def test_matches_brute_scan(self):
        # independent O(range * N) oracle on a small instance
        a = ul.rademacher_seq(8)
        rng, n = ul.IntervalSpec(-20, 64), 16
        vals = a.sample(-20, rng.hi + n - 1)
        oracle = max(abs(sum(vals[m:m + n]) / n) for m in range(rng.length))
        assert ul.sup_window_average(a, rng, n) == pytest.approx(oracle, abs=1e-12)

    def test_dominates_single_windows(self):
        a = ul.rademacher_seq(5)
        rng, n = ul.IntervalSpec(0, 2048), 128
        sup = ul.sup_window_average(a, rng, n)
        for m in (0, 363, 1907):
            win = abs(ul.interval_average(a, ul.IntervalSpec(m, n)).value)
            assert win <= sup + 1e-12


class TestAlgebra:
    def test_shift_zero_is_identity(self):
        a = ul.rademacher_seq(3)
        ns = np.arange(-40, 40)
        assert np.array_equal(ul.shift(a, 0).eval(ns), a.eval(ns))

    def test_shift_semantics(self):
        a = ul.from_samples(np.arange(10, dtype=complex))
        assert ul.shift(a, 3).at(2) == 5.0
        assert ul.shift(a, 3).valid_range == (-3, 7)

    def test_conjugate_exp(self):
        c = ul.conjugate(ul.exp_seq(0.25)).at(1)
        assert abs(c - (-1j)) < 1e-12

    def test_rademacher_times_conjugate_is_one(self):
        a = ul.rademacher_seq(11)
        prod = ul.product(a, ul.conjugate(a))
        assert np.allclose(prod.sample(0, 256), 1.0)

    def test_incompatible_ranges(self):
        a = ul.from_samples(np.ones(4), lo=0)
        b = ul.from_samples(np.ones(4), lo=100)
        with pytest.raises(IncompatibleRangeError):
            ul.product(a, b)

    def test_dispatcher(self):
        # numpy's complex multiply may fuse operations, so compare at 1e-15
        a = ul.exp_seq(0.1)
        assert ul.shift(a, 5).at(0) == a.at(5)
        assert ul.conjugate(a).at(3) == np.conj(a.at(3))
        assert abs(ul.scale(a, 2j).at(1) - 2j * a.at(1)) < 1e-15
        b = ul.exp_seq(0.2)
        assert abs(ul.product(a, b).at(4) - a.at(4) * b.at(4)) < 1e-15
        assert abs(ul.add(a, b).at(4) - (a.at(4) + b.at(4))) < 1e-15

    def test_wrap_cyclic_composes_with_shift(self):
        vals = np.arange(8, dtype=complex)
        w = ul.wrap_cyclic(ul.from_samples(vals), 8)
        assert ul.shift(w, 3).at(6) == vals[(6 + 3) % 8]
        assert w.valid_range is None

    @pytest.mark.parametrize("lo, hi", [
        (0, 8), (3, 8), (0, 11), (5, 6), (7, 30), (-3, 2), (-20, -9),
        (16, 40), (9, 9)])
    def test_cyclic_sample_mode_is_the_wrap(self, lo, hi):
        # a(n mod N) on [lo, hi), as wrap_cyclic gives it, with each point
        # evaluated once by a itself
        vals = ul.rademacher_seq(2).sample(0, 8) * np.exp(1j * np.arange(8))
        seen = []

        def fn(ns):
            seen.extend(ns.tolist())
            return vals[ns]

        a = ul.ComplexSeq(fn, (0, 8))
        got = sample_mode(a, lo, hi, ul.cyclic(8))
        want = ul.wrap_cyclic(ul.from_samples(vals), 8).sample(lo, hi)
        assert got.tobytes() == want.tobytes()
        assert seen == (np.arange(lo, hi) % 8).tolist()
        with pytest.raises(SequenceRangeError, match="cyclic wrap"):
            sample_mode(a, lo, hi, ul.cyclic(9))

    @given(st.complex_numbers(max_magnitude=10, allow_nan=False,
                              allow_infinity=False))
    @settings(max_examples=25, deadline=None)
    def test_scale_homogeneity(self, c):
        a = ul.rademacher_seq(21)
        interval = ul.IntervalSpec(0, 64)
        lhs = ul.interval_average(ul.scale(a, c), interval).value
        rhs = c * ul.interval_average(a, interval).value
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(c))

    def test_determinism(self):
        a = ul.rademacher_seq(99)
        ns = np.arange(-1000, 1000)
        first = a.eval(ns)
        second = a.eval(ns)
        assert np.array_equal(first, second)


def _remainder_outcome(fn, v):
    """(bits of fn(v), whether it raised a floating-point error)."""
    arr = np.array([v], dtype=np.float64)
    with np.errstate(all="raise"):
        try:
            fn(arr)
            raised = False
        except FloatingPointError:
            raised = True
    with np.errstate(invalid="ignore"):
        return fn(arr).view(np.uint64)[0], raised


class TestFrac:
    """_frac(v) must be np.remainder(v, 1.0) bit for bit, warning for warning:
    every array-valued phase reduction mod 1 in the package goes through it."""

    def check(self, v):
        assert (_remainder_outcome(_frac, v)
                == _remainder_outcome(lambda a: np.remainder(a, 1.0), v))

    @given(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        # any bit pattern, so NaN payloads and signs too
        st.integers(0, 2 ** 64 - 1).map(
            lambda b: np.array([b], dtype=np.uint64).view(np.float64)[0])))
    @settings(max_examples=1000, deadline=None)
    def test_bits_of_remainder(self, v):
        self.check(v)

    @pytest.mark.parametrize("v", [
        -1e-20, -2.0 ** 52 - 0.5, -2.0 ** 52 + 0.5, 5e-324, -5e-324,
        1 - 2.0 ** -53, -(1 - 2.0 ** -53), 0.0, -0.0, 1.0, -1.0, 1e308,
        -1e308, float("inf"), float("-inf"), float("nan")])
    def test_edge_values(self, v):
        self.check(v)

    def test_leaves_its_input_alone(self):
        v = np.array([-1.25, 0.5, 3.75])
        _frac(v)
        assert v.tolist() == [-1.25, 0.5, 3.75]

    @pytest.mark.parametrize("v", [
        np.float64(-1e-20), np.array(-1e-20), np.array(2.75), -0.0, 5.5])
    def test_scalar_and_zero_d_input(self, v):
        # a 0-d or scalar phase gives a numpy scalar with the same bits
        got, want = _frac(v), np.remainder(v, 1.0)
        assert type(got) is type(want)
        assert np.asarray(got).view(np.uint64) == np.asarray(want).view(
            np.uint64)
