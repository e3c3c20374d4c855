"""Weighted ergodic averages on rotation, skew, and Heisenberg systems."""

import math
from fractions import Fraction

import numpy as np
import pytest

import unif_lab as ul
from unif_lab.ergodic_weights import wiener_wintner_scan
from unif_lab.nilmanifold import character_ez


def dist_to_integers(t: float) -> float:
    return min(t % 1.0, 1.0 - (t % 1.0))


def ref_iterated_orbit(sys_, x0, ms):
    """Oracle for DynSystem.orbit_coords on rotation and skew: applies the
    map step by step, reducing mod 1 after each step."""
    ms = np.asarray(ms, dtype=np.int64)
    top = int(ms.max()) if ms.size else 0
    if sys_.kind == "rotation":
        path = np.empty(top + 1, dtype=np.float64)
        cur = float(x0)
        for m in range(top + 1):
            path[m] = cur
            cur = (cur + sys_.alpha) % 1.0
        return (path[ms],)
    x, y = x0
    xs = np.empty(top + 1, dtype=np.float64)
    ys = np.empty(top + 1, dtype=np.float64)
    for m in range(top + 1):
        xs[m], ys[m] = x, y
        x, y = (x + sys_.alpha) % 1.0, (y + 2.0 * x + sys_.alpha) % 1.0
    return xs[ms], ys[ms]


def ref_iterated_average(w, sys_, fs, x0, n):
    """weighted_multiple_average along the iterated orbit."""
    total = w.sample(0, n)
    ms = np.arange(n, dtype=np.int64)
    for i, f in enumerate(fs, start=1):
        total = total * f(*ref_iterated_orbit(sys_, x0, i * ms))
    return complex(total.mean())


class TestWeightedAverage:
    def test_unweighted_rotation_decays(self):
        alpha = math.sqrt(2) - 1
        sys_ = ul.rotation(alpha)
        ex = ul.named_observable(sys_, "ex")
        for n in (100, 1000, 10000):
            val = ul.weighted_multiple_average(ul.constant_seq(1.0), sys_,
                                               [ex], 0.3, n)
            assert abs(val) <= 2 / (n * 2 * dist_to_integers(alpha)) + 1e-12

    def test_resonant_weight_cancels_exactly(self):
        alpha = math.sqrt(3) - 1
        x0 = 0.27
        sys_ = ul.rotation(alpha)
        ex = ul.named_observable(sys_, "ex")
        w = ul.conjugate(ul.exp_seq(alpha))
        for n in (1, 7, 100, 4096):
            val = ul.weighted_multiple_average(w, sys_, [ex], x0, n)
            assert abs(val - np.exp(2j * np.pi * x0)) < 1e-9

    def test_bounded_by_sup_products(self):
        sys_ = ul.rotation(0.1234)
        ex = ul.named_observable(sys_, "ex")
        w = ul.scale(ul.rademacher_seq(4), 0.5)
        val = ul.weighted_multiple_average(w, sys_, [ex, ex], 0.0, 2048)
        assert abs(val) <= 0.5 + 1e-12

    def test_rotation_closed_equals_iterated(self):
        alpha = math.sqrt(2) / 3
        sys_ = ul.rotation(alpha)
        ex = ul.named_observable(sys_, "ex")
        w = ul.rademacher_seq(2)
        a = ul.weighted_multiple_average(w, sys_, [ex], 0.4, 100_000)
        b = ref_iterated_average(w, sys_, [ex], 0.4, 100_000)
        assert abs(a - b) < 1e-9

    def test_skew_closed_equals_iterated(self):
        sys_ = ul.skew(math.sqrt(5) - 2)
        ey = ul.named_observable(sys_, "ey")
        w = ul.constant_seq(1.0)
        a = ul.weighted_multiple_average(w, sys_, [ey], (0.1, 0.2), 20_000)
        b = ref_iterated_average(w, sys_, [ey], (0.1, 0.2), 20_000)
        assert abs(a - b) < 1e-9

    def test_skew_second_coordinate_is_quadratic_phase(self):
        alpha = math.sqrt(2) / 4
        sys_ = ul.skew(alpha)
        xs, ys = sys_.orbit_coords((0.0, 0.0), np.arange(500))
        want = (alpha * np.arange(500, dtype=np.float64) ** 2) % 1.0
        assert np.max(np.abs(ys - want)) < 1e-9

    @pytest.mark.parametrize("x0", [(0.0, 0.0), (0.1, 0.2), (0.37, 0.91)],
                             ids=lambda x0: f"{x0[0]},{x0[1]}")
    def test_skew_orbit_exact_at_large_m(self, x0):
        # the float64 m*m*alpha used to lose 2.5e-6 of y at m = 1e6 and
        # 2.5e-2 at 1e8
        alpha = 0.1234567
        ms = np.array([10 ** 6, 10 ** 7, 10 ** 8], dtype=np.int64)
        xs, ys = ul.skew(alpha).orbit_coords(x0, ms)
        a, x, y = Fraction(alpha), Fraction(x0[0]), Fraction(x0[1])
        for m, xm, ym in zip(ms.tolist(), xs, ys):
            want_x = (x + m * a) % 1
            want_y = (y + 2 * m * x + m * m * a) % 1
            assert abs(Fraction(float(xm)) - want_x) < 1e-15
            assert abs(Fraction(float(ym)) - want_y) < 1e-15

    @pytest.mark.parametrize("system, x0", [
        pytest.param(ul.rotation(math.sqrt(2) - 1), 0.3, id="rotation"),
        pytest.param(ul.skew(math.sqrt(3) - 1), (0.1, 0.7), id="skew"),
        pytest.param(ul.heis_system(ul.HeisElem(0.31, 0.57, 0.83)),
                     ul.HeisPoint(0.2, 0.4, 0.6), id="heis"),
    ])
    def test_single_index_orbit(self, system, x0):
        # a scalar m takes the array path's bits, as it did with % 1.0
        got = system.orbit_coords(x0, 3)
        want = system.orbit_coords(x0, np.array([3]))
        assert [np.asarray(g).view(np.uint64) for g in got] == [
            w.view(np.uint64)[0] for w in want]

    def test_heis_system_matches_nilsequence(self):
        tau = ul.HeisElem(math.sqrt(2) - 1, 1.0, 0.0)
        sys_ = ul.heis_system(tau)
        ez = ul.named_observable(sys_, "ez")
        val = ul.weighted_multiple_average(ul.constant_seq(1.0), sys_, [ez],
                                           ul.IDENTITY_POINT, 512)
        seq = ul.nilsequence(tau, ul.IDENTITY_POINT, character_ez(1))
        want = ul.interval_average(seq, ul.IntervalSpec(0, 512)).value
        assert abs(val - want) < 1e-12

    def test_uniform_weight_with_quadratic_weight_decays(self):
        # 2-uniform weight against a 1-step observable: the average dies
        quad = ul.quad_phase_seq(math.sqrt(2) / 2)
        sys_ = ul.rotation(math.sqrt(3) - 1)
        ex = ul.named_observable(sys_, "ex")
        val = ul.weighted_multiple_average(quad, sys_, [ex], 0.0, 1 << 16)
        assert abs(val) <= 0.05


class TestCauchyScan:
    def test_constant_weight_constant_observable(self):
        sys_ = ul.rotation(0.3333)
        rep = ul.cauchy_scan(ul.constant_seq(1.0), sys_,
                             [lambda xs: np.ones_like(xs, dtype=complex)],
                             0.0, [64, 128, 256])
        assert all(v == rep.values[0] for v in rep.values)
        assert all(d == 0.0 for d in rep.deltas)
        assert rep.converged

    def test_rademacher_weight_decays(self):
        sys_ = ul.rotation(math.sqrt(2) - 1)
        ex = ul.named_observable(sys_, "ex")
        rep = ul.cauchy_scan(ul.rademacher_seq(6), sys_, [ex], 0.0,
                             [2 ** j for j in range(8, 15)])
        mags = [abs(v) for v in rep.values]
        assert mags[-1] < mags[0]
        assert abs(rep.values[-1]) <= 4 / math.sqrt(2 ** 14)

    def test_block_weight_boundary_grid(self):
        # block-boundary-aligned N grid: early deltas are uneven, yet the
        # tail decays once blocks dominated by cancellation take over
        seq, _ = ul.block_counterexample_seq(ul.BlockSpec.geometric(4, 10))
        sys_ = ul.rotation(math.sqrt(2) - 1)
        ex = ul.named_observable(sys_, "ex")
        grid = [4 ** j for j in range(3, 9)]
        rep = ul.cauchy_scan(seq, sys_, [ex], 0.0, grid)
        assert rep.deltas[-1] < max(rep.deltas)

    @pytest.mark.parametrize("system, obs, x0", [
        pytest.param(ul.rotation(math.sqrt(2) - 1), ["ex", "ex"], 0.3,
                     id="rotation"),
        pytest.param(ul.skew(math.sqrt(3) - 1), ["ex", "ey"], (0.1, 0.7),
                     id="skew"),
        pytest.param(ul.heis_system(ul.HeisElem(0.31, 0.57, 0.83)),
                     ["ez", "e2z"], ul.HeisPoint(0.2, 0.4, 0.6), id="heis"),
    ])
    @pytest.mark.parametrize("weight", [
        pytest.param(ul.rademacher_seq(11), id="rad"),
        pytest.param(ul.quad_phase_seq(math.sqrt(5) - 2), id="quad"),
        pytest.param(ul.block_counterexample_seq(
            ul.BlockSpec.geometric(4, 10))[0], id="block"),
    ])
    def test_values_are_single_average_bits(self, system, obs, x0, weight):
        # every value has the bits of its own single-N average
        fs = [ul.named_observable(system, name) for name in obs]
        grid = [1, 2, 7, 100, 1000, 1023, 1024, 4097, 20000]
        rep = ul.cauchy_scan(weight, system, fs, x0, grid)
        assert rep.values == tuple(
            ul.weighted_multiple_average(weight, system, fs, x0, n)
            for n in grid)

    def test_increasing_grid_required(self):
        sys_ = ul.rotation(0.1)
        with pytest.raises(ValueError):
            ul.cauchy_scan(ul.constant_seq(1.0), sys_,
                           [ul.named_observable(sys_, "ex")], 0.0, [64, 64])


class TestWienerWintner:
    def test_on_grid_peak(self):
        n, m = 4096, 700
        freqs, mags = wiener_wintner_scan(ul.exp_seq(m / n), n)
        assert int(np.argmax(mags)) == m
        assert mags[m] == pytest.approx(1.0, abs=1e-12)
        assert freqs[m] == pytest.approx(m / n)

    def test_rademacher_flat(self):
        _, mags = wiener_wintner_scan(ul.rademacher_seq(123), 1 << 16)
        assert float(np.max(mags)) <= 0.1

    def test_quadratic_phase_flat(self):
        _, mags = wiener_wintner_scan(ul.quad_phase_seq(math.sqrt(2) / 2), 1 << 14)
        assert float(np.max(mags)) <= 0.1

    def test_scan_is_dft_magnitudes(self):
        n = 256
        a = ul.rademacher_seq(5)
        _, mags = wiener_wintner_scan(a, n)
        want = np.abs(np.fft.fft(a.sample(0, n))) / n
        assert np.max(np.abs(mags - want)) < 1e-14
