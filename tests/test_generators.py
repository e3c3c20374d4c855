"""Generator families and the spec-string grammar."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unif_lab as ul
from unif_lab.errors import DuplicateFrequencyError, GeneratorSpecError
from unif_lab.generators import (Add, Const, Floor, Mul, Var,
                                 _exact_term_frac, parse_generator,
                                 parse_genpoly_expr, parse_trig_terms)


def digit_sum_parity(n: int) -> int:
    """Independent Thue-Morse oracle: base-2 digit sum of |n| mod 2."""
    return bin(abs(n)).count("1") % 2


class TestExpSeq:
    def test_point_values(self):
        assert ul.exp_seq(0.123).at(0) == 1.0
        assert abs(ul.exp_seq(0.5).at(1) - (-1.0)) < 1e-15
        assert abs(ul.exp_seq(0.25).at(3) - (-1j)) < 1e-15

    def test_unbounded_and_unimodular(self):
        a = ul.exp_seq(0.37)
        assert a.valid_range is None
        assert np.allclose(np.abs(a.sample(-100, 100)), 1.0)


class TestTrigPoly:
    def test_single_term_matches_exp(self):
        p = ul.TrigPoly(((0.3, 1.0),))
        ns = np.arange(-50, 50)
        assert np.allclose(ul.trig_poly_seq(p).eval(ns),
                           ul.exp_seq(0.3).eval(ns), atol=1e-14)

    def test_two_term_cancellation(self):
        p = ul.TrigPoly(((0.0, 0.5), (0.5, 0.5)))
        assert abs(ul.trig_poly_seq(p).at(1)) < 1e-15

    def test_dft_recovers_coefficients(self):
        # orthogonality oracle: FFT of 64 samples isolates each bin
        n = 64
        p = ul.TrigPoly(((3 / n, 0.7 - 0.2j), (11 / n, -0.25j)))
        samples = ul.trig_poly_seq(p).sample(0, n)
        coefs = np.fft.fft(samples) / n
        assert abs(coefs[3] - (0.7 - 0.2j)) < 1e-12
        assert abs(coefs[11] - (-0.25j)) < 1e-12
        others = np.delete(coefs, [3, 11])
        assert np.max(np.abs(others)) < 1e-12

    def test_additivity_over_disjoint_terms(self):
        p1 = ul.TrigPoly(((0.1, 0.5),))
        p2 = ul.TrigPoly(((0.37, 0.5),))
        union = ul.TrigPoly(((0.1, 0.5), (0.37, 0.5)))
        ns = np.arange(200)
        lhs = ul.trig_poly_seq(union).eval(ns)
        rhs = ul.trig_poly_seq(p1).eval(ns) + ul.trig_poly_seq(p2).eval(ns)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_duplicate_frequency_rejected(self):
        with pytest.raises(DuplicateFrequencyError):
            ul.TrigPoly(((0.25, 1.0), (1.25, 2.0)))  # equal mod 1

    def test_sup_bound(self):
        p = ul.TrigPoly(((0.1, 3j), (0.2, -4.0)))
        assert ul.trig_poly_seq(p).sup_bound == pytest.approx(7.0)


class TestPolyPhase:
    def test_point_values(self):
        assert ul.poly_phase_seq([0.0, 0.0, 0.123]).at(0) == 1.0
        assert abs(ul.poly_phase_seq([0.0, 0.0, 0.25]).at(1) - 1j) < 1e-15

    def test_quad_box_correlation_telescopes(self):
        # cube phase of e(alpha n^2) collapses to e(2 alpha h1 h2)
        alpha = math.sqrt(2) / 2
        a = ul.quad_phase_seq(alpha)
        p = ul.BoxParams(2, 16, ul.IntervalSpec(0, 2048))
        for h in ((1, 2), (3, 5), (9, 13)):
            got = ul.box_correlation(a, h, p)
            want = np.exp(2j * np.pi * ((2 * alpha * h[0] * h[1]) % 1.0))
            assert abs(got - want) < 1e-12


def big_int_term_frac(c: float, ns, j: int) -> np.ndarray:
    """Oracle: frac(c * n^j) as (m * n^j mod 2^d) / 2^d in Python ints."""
    m, e = math.frexp(c)
    m, d = int(m * (1 << 53)), 53 - e
    if d <= 0:
        return np.zeros(len(ns))
    return np.array([((m * int(n) ** j) % (1 << d)) / (1 << d) for n in ns])


EXTREME_NS = np.concatenate([
    np.arange(-3000, 3000, dtype=np.int64),
    np.array([2 ** 62, -2 ** 62, 2 ** 63 - 1, -2 ** 63], dtype=np.int64)])


class TestExactTermFrac:
    @pytest.mark.parametrize("d", range(50, 70))
    def test_bit_identical_to_big_ints(self, d):
        # an odd 53-bit mantissa makes c = m * 2^-d need exactly d bits;
        # d > 64 takes the big-int fallback
        m = (1 << 52) + 2 * (0x5DEECE66D * d % (1 << 51)) + 1
        for c in (math.ldexp(m, -d), -math.ldexp(m, -d)):
            for j in range(6):
                got = _exact_term_frac(c, EXTREME_NS, j)
                want = big_int_term_frac(c, EXTREME_NS, j)
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64)), (c, j)

    @given(c=st.floats(allow_nan=False, allow_infinity=False),
           n=st.integers(-2 ** 63, 2 ** 63 - 1), j=st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_property_bit_identical(self, c, n, j):
        ns = np.array([n], dtype=np.int64)
        got = _exact_term_frac(c, ns, j)
        assert got.view(np.uint64) == big_int_term_frac(c, ns, j).view(
            np.uint64)

    def test_poly_phase_matches_big_int_sum(self):
        # the summed terms are reduced mod 1 exactly as np.remainder would
        cs = [0.1, -0.37, 2.5, math.sqrt(2), -1e-5, 0.3]
        frac = sum(big_int_term_frac(c, EXTREME_NS, j)
                   for j, c in enumerate(cs)) % 1.0
        want = np.exp(2j * np.pi * frac)
        got = ul.poly_phase_seq(cs).eval(EXTREME_NS)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestGenPoly:
    def test_integer_has_zero_frac(self):
        assert ul.genpoly_seq(Var(), "frac").at(7) == 0.0

    def test_half_square(self):
        ast = Mul(Const(0.5), Mul(Var(), Var()))
        assert ul.genpoly_seq(ast, "frac").at(3) == pytest.approx(0.5)

    def test_floor_node(self):
        ast = Floor(Mul(Const(math.sqrt(2)), Var()))
        assert ast.eval(np.array([1])) == pytest.approx(1.0)

    def test_frac_values_in_unit_interval(self):
        ast = Mul(Const(math.sqrt(2)), Mul(Var(), Floor(Mul(Const(math.sqrt(3)), Var()))))
        vals = ul.genpoly_seq(ast, "frac").sample(-500, 500)
        assert np.all(vals.real >= 0.0) and np.all(vals.real < 1.0)
        assert np.all(vals.imag == 0.0)

    def test_exp_form_unimodular(self):
        ast = Add(Var(), Const(0.5))
        vals = ul.genpoly_seq(ast, "exp").sample(0, 50)
        assert np.allclose(np.abs(vals), 1.0)


class TestThueMorse:
    def test_first_sixteen(self):
        want = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]
        got = [int(ul.thue_morse_seq("01").at(n).real) for n in range(16)]
        assert got == want
        assert want == [digit_sum_parity(n) for n in range(16)]

    def test_symmetric_in_n(self):
        a = ul.thue_morse_seq("01")
        for n in range(1, 200):
            assert a.at(-n) == a.at(n)

    def test_doubling_recursion(self):
        a = ul.thue_morse_seq("01")
        ns = np.arange(1 << 12)
        even = a.eval(2 * ns).real
        odd = a.eval(2 * ns + 1).real
        base = a.eval(ns).real
        assert np.array_equal(even, base)
        assert np.array_equal(odd, 1.0 - even)

    def test_pm_is_affine_in_zeroone(self):
        ns = np.arange(-300, 300)
        pm = ul.thue_morse_seq("pm").eval(ns)
        zo = ul.thue_morse_seq("01").eval(ns)
        assert np.max(np.abs(pm - (1.0 - 2.0 * zo))) == 0.0


class TestRademacher:
    def test_values_are_signs(self):
        vals = ul.rademacher_seq(0).sample(-4096, 4096).real
        assert set(np.unique(vals)) == {-1.0, 1.0}

    def test_seed_determinism(self):
        ns = np.arange(-1000, 1000)
        assert np.array_equal(ul.rademacher_seq(42).eval(ns),
                              ul.rademacher_seq(42).eval(ns))
        assert not np.array_equal(ul.rademacher_seq(42).eval(ns),
                                  ul.rademacher_seq(43).eval(ns))

    def test_mean_is_small(self):
        rep = ul.interval_average(ul.rademacher_seq(9), ul.IntervalSpec(0, 1 << 16))
        assert abs(rep.value) <= 0.02

    def test_random_access_matches_bulk(self):
        a = ul.rademacher_seq(7)
        bulk = a.sample(0, 100)
        assert all(a.at(n) == bulk[n] for n in range(0, 100, 17))


class TestBlockCounterexample:
    def test_first_block_is_constant_one(self):
        seq, _ = ul.block_counterexample_seq(ul.BlockSpec.geometric(4, 6))
        # block 1 covers [0, 16): e(n/1) = 1 there, including below N_1
        assert np.allclose(seq.sample(0, 16), 1.0)

    def test_geometric_starts(self):
        spec = ul.BlockSpec.geometric(4, 5)
        assert spec.starts == (4, 16, 64, 256, 1024)

    def test_intervals(self):
        _, intervals = ul.block_counterexample_seq(ul.BlockSpec.geometric(4, 4))
        assert [(i.lo, i.hi) for i in intervals] == [(4, 16), (16, 64), (64, 256)]

    def test_block_values_and_mirror(self):
        seq, _ = ul.block_counterexample_seq(ul.BlockSpec.geometric(4, 6))
        # n in [64, 256) lies in block 3: a_n = e(n/3), and a uses |n|
        for n in (100, 217):
            assert abs(seq.at(n) - np.exp(2j * np.pi * ((n / 3) % 1.0))) < 1e-12
            assert abs(seq.at(-n) - np.exp(2j * np.pi * ((-n / 3) % 1.0))) < 1e-12

    def test_out_of_range(self):
        seq, _ = ul.block_counterexample_seq(ul.BlockSpec.geometric(4, 3))
        with pytest.raises(Exception):
            seq.sample(0, 65)


class TestSpecGrammar:
    @pytest.mark.parametrize("spec", [
        "exp:0.25", "quad:0.70710678", "poly:0.1,0.2,0.3", "tm:pm", "tm:01",
        "rad:42", "block:geo4x20", "block:4,16,64",
        "trig:[t=0.1,l=0.5;t=0.37,l=0.5]",
        'genpoly:"frac(sqrt2*n*floor(sqrt3*n))"',
        "genpoly:e(n*n+0.5*n)",
        "heis:tau=(0.41,1,0);x0=(0,0,0);f=ez",
    ])
    def test_parses(self, spec):
        seq = parse_generator(spec)
        assert abs(seq.at(5)) <= seq.sup_bound + 1e-9

    def test_exp_spec_matches_function(self):
        assert parse_generator("exp:0.25").at(3) == ul.exp_seq(0.25).at(3)

    def test_trig_terms_complex_coef(self):
        p = parse_trig_terms("t=0.1,l=0.5+0.25j")
        assert p.terms[0][1] == 0.5 + 0.25j

    def test_genpoly_expression_values(self):
        ast = parse_genpoly_expr("0.5*n*n+0.25")
        assert ast.eval(np.array([3])) == pytest.approx(4.75)
        ast = parse_genpoly_expr("floor(sqrt2*n)-n")
        assert ast.eval(np.array([5])) == pytest.approx(math.floor(5 * math.sqrt(2)) - 5)
        ast = parse_genpoly_expr("-n+2")
        assert ast.eval(np.array([7])) == pytest.approx(-5.0)

    @pytest.mark.parametrize("bad", [
        "nope:1", "exp:x", "trig:t=0.1", "genpoly:frac(", "block:geoZx2",
        "rad:abc", "0.25",
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(GeneratorSpecError):
            parse_generator(bad)
