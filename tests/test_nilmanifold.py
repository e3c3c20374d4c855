"""Heisenberg group arithmetic, reduction, orbits, nilsequences."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unif_lab as ul
from unif_lab import nilmanifold
from unif_lab.generators import named_character, parse_heis_spec
from unif_lab.nilmanifold import (_lift, _reduce_arrays, character_ex,
                                  character_ez, orbit_points)
from unif_lab.seq_core import _cube_vertices, _e

coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def exact_orbit_point(tau, x0, n):
    """tau^n * lift(x0) reduced y, then x, then z, in exact rationals of
    the float inputs: the closed form with no rounding at all."""
    tx, ty, tz = map(Fraction, (tau.x, tau.y, tau.z))
    ax, ay, az = map(Fraction, (x0.x, x0.y, x0.z))
    px, py = n * tx + ax, n * ty + ay
    pz = n * tz + Fraction(n * (n - 1), 2) * tx * ty + az + n * tx * ay
    q = -math.floor(py)
    z = pz + px * q
    return px - math.floor(px), py + q, z - math.floor(z)


def circle_dist(got, want):
    d = abs(Fraction(float(got)) - want) % 1
    return float(min(d, 1 - d))


def elems_close(g, h, tol=1e-9):
    return (abs(g.x - h.x) < tol and abs(g.y - h.y) < tol
            and abs(g.z - h.z) < tol)


class TestGroupLaw:
    def test_identity(self):
        e = ul.HeisElem(0, 0, 0)
        g = ul.HeisElem(0.3, -1.2, 5.5)
        assert ul.heis_mul(e, g) == g
        assert ul.heis_mul(g, e) == g

    def test_worked_product(self):
        got = ul.heis_mul(ul.HeisElem(1, 2, 3), ul.HeisElem(4, 5, 6))
        assert got == ul.HeisElem(5, 7, 14)

    def test_inverse(self):
        g = ul.HeisElem(0.7, -2.3, 1.9)
        assert elems_close(ul.heis_mul(g, ul.heis_inv(g)), ul.HeisElem(0, 0, 0))
        assert elems_close(ul.heis_mul(ul.heis_inv(g), g), ul.HeisElem(0, 0, 0))

    @given(coord, coord, coord, coord, coord, coord, coord, coord, coord)
    @settings(max_examples=50, deadline=None)
    def test_associativity(self, ax, ay, az, bx, by, bz, cx, cy, cz):
        a, b, c = ul.HeisElem(ax, ay, az), ul.HeisElem(bx, by, bz), ul.HeisElem(cx, cy, cz)
        lhs = ul.heis_mul(ul.heis_mul(a, b), c)
        rhs = ul.heis_mul(a, ul.heis_mul(b, c))
        assert elems_close(lhs, rhs, tol=1e-9)


class TestPow:
    def test_zero_power(self):
        assert ul.heis_pow(ul.HeisElem(0.4, 1.0, 0.2), 0) == ul.HeisElem(0, 0, 0)

    def test_cube_of_standard_element(self):
        alpha = 0.4142
        got = ul.heis_pow(ul.HeisElem(alpha, 1.0, 0.0), 3)
        assert elems_close(got, ul.HeisElem(3 * alpha, 3.0, 3 * alpha), tol=1e-12)

    def test_matches_repeated_multiplication(self):
        tau = ul.HeisElem(0.31, -0.7, 0.11)
        acc = ul.HeisElem(0, 0, 0)
        for n in range(1, 40):
            acc = ul.heis_mul(acc, tau)
            assert elems_close(ul.heis_pow(tau, n), acc, tol=1e-9)

    def test_homomorphism(self):
        rng = np.random.default_rng(0)
        tau = ul.HeisElem(0.27, 1.3, -0.5)
        for _ in range(100):
            m, n = int(rng.integers(-500, 500)), int(rng.integers(-500, 500))
            lhs = ul.heis_pow(tau, m + n)
            rhs = ul.heis_mul(ul.heis_pow(tau, m), ul.heis_pow(tau, n))
            assert elems_close(lhs, rhs, tol=1e-9)

    def test_negative_power_is_inverse(self):
        tau = ul.HeisElem(0.61, 0.25, -1.4)
        assert elems_close(ul.heis_pow(tau, -7),
                           ul.heis_inv(ul.heis_pow(tau, 7)), tol=1e-9)

    @given(coord, coord, coord, st.integers(-2 ** 63, 2 ** 63 - 1))
    @settings(max_examples=200, deadline=None)
    def test_is_the_lift_at_n(self, tx, ty, tz, n):
        tau = ul.HeisElem(tx, ty, tz)
        got = ul.heis_pow(tau, n)
        want = _lift(tau, ul.IDENTITY_POINT, np.array([n], dtype=np.int64))
        assert (np.array([got.x, got.y, got.z]).view(np.uint64).tolist()
                == [c.view(np.uint64)[0] for c in want])

    @pytest.mark.parametrize("n", [2 ** 63, -2 ** 63 - 1, 10 ** 30])
    def test_refuses_n_outside_int64(self, n):
        with pytest.raises(ValueError, match="outside int64"):
            ul.heis_pow(ul.HeisElem(0.1, 0.2, 0.3), n)


class TestReduce:
    def test_worked_example(self):
        point, lattice = ul.heis_reduce(ul.HeisElem(0.5, 2.25, 0.9))
        assert (point.x, point.y) == (0.5, 0.25)
        assert point.z == pytest.approx(0.9, abs=1e-12)
        assert lattice == (0, -2, 1)

    def test_fundamental_domain_fixed(self):
        g = ul.HeisElem(0.5, 0.25, 0.9)
        point, lattice = ul.heis_reduce(g)
        assert (point.x, point.y, point.z) == (0.5, 0.25, 0.9)
        assert lattice == (0, 0, 0)

    @pytest.mark.parametrize("g, want, lattice", [
        # y + q rounds up to 1.0 after z took x*q: q - 1 keeps z in g's
        # coset, so the point is the one y = -1e-20 ~ 0 gives
        ((0.3, -1e-20, 0.0), (0.3, 0.0, 0.0), (0, 0, 0)),
        ((0.3, -2.0 ** -60, 0.7), (0.3, 0.0, 0.7), (0, 0, 0)),
        ((0.25, -1e-20, 0.5), (0.25, 0.0, 0.5), (0, 0, 0)),
        # off the seam: a whole step in y takes x from z
        ((0.25, 1.0, 0.5), (0.25, 0.0, 0.25), (0, -1, 0)),
    ])
    def test_seam_where_y_rounds_to_one(self, g, want, lattice):
        point, used = ul.heis_reduce(ul.HeisElem(*g))
        assert (point.x, point.y, point.z) == want
        assert used == lattice

    @given(coord, st.one_of(coord, st.floats(-2.0 ** -53, 0.0)), coord)
    @settings(max_examples=300, deadline=None)
    def test_is_the_array_reduction_at_one_point(self, x, y, z):
        # negative y below 2^-53 in size lands on the seam
        g = ul.HeisElem(x, y, z)
        point, (p, q, r) = ul.heis_reduce(g)
        got = np.array([point.x, point.y, point.z]).view(np.uint64).tolist()
        one = [np.array([c]) for c in (x, y, z)]
        for want in (_reduce_arrays(*one), ref_reduce_arrays(*one)):
            assert got == [c.view(np.uint64)[0] for c in want]
        gamma = ul.HeisElem(float(p), float(q), float(r))
        assert elems_close(ul.heis_mul(g, gamma), point.lift(), tol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = ul.HeisElem(*(10 * rng.standard_normal(3)))
            point, _ = ul.heis_reduce(g)
            again, _ = ul.heis_reduce(point.lift())
            assert (again.x, again.y, again.z) == (point.x, point.y, point.z)

    def test_well_defined_on_cosets(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = ul.HeisElem(*(5 * rng.standard_normal(3)))
            gamma = ul.HeisElem(*(float(v) for v in rng.integers(-6, 7, size=3)))
            p1, _ = ul.heis_reduce(g)
            p2, _ = ul.heis_reduce(ul.heis_mul(g, gamma))
            assert abs(p1.x - p2.x) < 1e-9
            assert abs(p1.y - p2.y) < 1e-9
            assert abs(p1.z - p2.z) < 1e-9

    def test_reduction_is_right_multiplication(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = ul.HeisElem(*(4 * rng.standard_normal(3)))
            point, (p, q, r) = ul.heis_reduce(g)
            gamma = ul.HeisElem(float(p), float(q), float(r))
            prod = ul.heis_mul(g, gamma)
            assert elems_close(prod, point.lift(), tol=1e-9)


def ref_reduce_arrays(x, y, z):
    """_reduce_arrays as it was written with np.remainder (% 1.0), and q one
    less where y + q rounds up to 1.0, so that z moves with y's step."""
    q = -np.floor(y)
    y = y + q
    q = q - (y == 1.0)
    z = z + x * q
    y = y % 1.0
    x = (x - np.floor(x)) % 1.0
    z = (z - np.floor(z)) % 1.0
    return x, y, z


class TestReduceArrays:
    EDGES = [-1e-20, 1e-20, -5e-324, 0.0, -0.0, 1.0, -1.0, 1 - 2.0 ** -53,
             -(1 - 2.0 ** -53), -2.0 ** 52 + 0.5, 2.0 ** 53, -1e15 - 0.25,
             0.5, -0.5, -2.0 ** -60]

    def check(self, x, y, z):
        got = _reduce_arrays(x, y, z)
        want = ref_reduce_arrays(x, y, z)
        for g, w in zip(got, want):
            assert g.view(np.uint64).tolist() == w.view(np.uint64).tolist()
            assert np.all((0.0 <= g) & (g < 1.0))

    def test_matches_remainder_on_edges(self):
        grid = np.array(np.meshgrid(self.EDGES, self.EDGES, self.EDGES))
        self.check(*grid.reshape(3, -1))

    def test_edges_agree_with_heis_reduce(self):
        grid = np.array(np.meshgrid(self.EDGES, self.EDGES, self.EDGES))
        got = [c.view(np.uint64) for c in _reduce_arrays(*grid.reshape(3, -1))]
        for i, g in enumerate(grid.reshape(3, -1).T.tolist()):
            point, _ = ul.heis_reduce(ul.HeisElem(*g))
            bits = np.array([point.x, point.y, point.z]).view(np.uint64)
            assert bits.tolist() == [c[i] for c in got], g

    def test_inputs_are_not_written(self):
        rng = np.random.default_rng(11)
        xyz = [np.concatenate([[-1e-20, 1.0, -0.5], 1e3 * v])
               for v in rng.standard_normal((3, 1000))]
        before = [c.copy() for c in xyz]
        _reduce_arrays(*xyz)
        for c, b in zip(xyz, before):
            assert c.view(np.uint64).tolist() == b.view(np.uint64).tolist()

    def test_seam_keeps_the_orbit_in_its_coset(self):
        # y = -1e-20 after one step: y + q rounds up to 1.0, and z must not
        # take x*q for the step y did not take
        got = orbit_points(ul.HeisElem(0.0, -1e-20, 0.0),
                           ul.HeisPoint(0.3, 0.0, 0.0), np.array([1]))
        assert [c[0] for c in got] == [0.3, 0.0, 0.0]

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e9, 1e15])
    def test_matches_remainder_on_random_points(self, scale):
        rng = np.random.default_rng(7)
        self.check(*(scale * rng.standard_normal((3, 20000))))

    def test_matches_remainder_along_an_orbit(self):
        tau = ul.HeisElem(0.7071067811865476, -1.4142135623730951, 0.123)
        x0 = ul.HeisPoint(0.25, 0.5, 0.75)
        ns = np.arange(-70000, 70000, 7, dtype=np.int64)
        got = orbit_points(tau, x0, ns)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nilmanifold, "_reduce_arrays", ref_reduce_arrays)
            want = orbit_points(tau, x0, ns)
        for g, w in zip(got, want):
            assert g.view(np.uint64).tolist() == w.view(np.uint64).tolist()

    @pytest.mark.parametrize("n", [5, np.int64(-7), np.array(123)])
    def test_zero_d_index(self, n):
        # a single index takes the array path's bits, as it did with % 1.0
        tau = ul.HeisElem(0.31, 0.57, 0.83)
        x0 = ul.HeisPoint(0.2, 0.4, 0.6)
        got = orbit_points(tau, x0, n)
        want = orbit_points(tau, x0, np.array([n]))
        assert [np.asarray(g).view(np.uint64) for g in got] == [
            w.view(np.uint64)[0] for w in want]
        seq = ul.nilsequence(tau, x0, character_ez(1))
        assert seq.eval(n).tobytes() == seq.eval(np.array([n])).tobytes()


class TestNilsequence:
    def test_constant_function(self):
        seq = ul.nilsequence(ul.HeisElem(0.3, 1.0, 0.0), ul.IDENTITY_POINT,
                             lambda x, y, z: np.ones_like(x, dtype=complex))
        assert np.allclose(seq.sample(-100, 100), 1.0)

    def test_closed_form_phase(self):
        # tau = (alpha, 1, 0) from the identity with f = e(z) produces
        # e(-n(n+1) alpha / 2); re-derived by tracking the y-then-x-then-z
        # reduction of tau^n and checked here against the evaluator
        alpha = math.sqrt(2) - 1
        seq = ul.nilsequence(ul.HeisElem(alpha, 1.0, 0.0), ul.IDENTITY_POINT,
                             character_ez(1))
        ns = np.arange(-5000, 5001)
        phases = (-(ns * (ns + 1) // 2).astype(np.float64) * alpha) % 1.0
        ref = np.exp(2j * np.pi * phases)
        assert np.max(np.abs(seq.eval(ns) - ref)) <= 1e-6

    def test_closed_form_vs_iterated_pipeline(self):
        # second pipeline: iterated group multiplication, reduced at the end
        tau = ul.HeisElem(0.317, 1.0, 0.0)
        x0 = ul.HeisPoint(0.2, 0.6, 0.9)
        seq = ul.nilsequence(tau, x0, character_ez(1))
        acc = x0.lift()
        for n in range(1, 301):
            acc = ul.heis_mul(tau, acc)
            point, _ = ul.heis_reduce(acc)
            direct = np.exp(2j * np.pi * point.z)
            assert abs(seq.at(n) - direct) < 1e-6

    def test_abelian_degenerate_case(self):
        alpha = 0.2137
        seq = ul.nilsequence(ul.HeisElem(alpha, 0.0, 0.0), ul.IDENTITY_POINT,
                             character_ex)
        ns = np.arange(-400, 400)
        assert np.max(np.abs(seq.eval(ns) - ul.exp_seq(alpha).eval(ns))) < 1e-9

    def test_modulus_bounded(self):
        seq = ul.nilsequence(ul.HeisElem(0.7, 1.0, 0.3),
                             ul.HeisPoint(0.1, 0.2, 0.3), character_ez(3))
        assert np.max(np.abs(seq.sample(-2000, 2000))) <= 1.0 + 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_orbit_points_within_1e6_of_exact_up_to_1e4(self, seed):
        # the module docstring's promise; float64 rounds C(n,2)*x*y, so the
        # z error grows like n^2 and passes 1e-6 near |n| = 1e5
        rng = np.random.default_rng(seed)
        tau = ul.HeisElem(*rng.random(3))
        x0 = ul.IDENTITY_POINT if seed == 0 else ul.HeisPoint(*rng.random(3))
        ns = np.concatenate([[-10_000, -1, 0, 1, 10_000],
                             rng.integers(-10_000, 10_001, 200)])
        pts = orbit_points(tau, x0, ns)
        for i, n in enumerate(ns.tolist()):
            want = exact_orbit_point(tau, x0, n)
            for got, exact in zip((c[i] for c in pts), want):
                assert circle_dist(got, exact) <= 1e-6

    def test_binomial_does_not_wrap_past_int64(self):
        # int64 n*(n-1)//2 wraps negative from n = 3,037,000,501, which put
        # z near 0.75 here in place of 0.25
        tau = ul.HeisElem(2.0 ** -32, 2.0 ** -32, 0.0)
        n = 3_037_000_501
        _, _, zs = orbit_points(tau, ul.IDENTITY_POINT, np.array([n]))
        want = exact_orbit_point(tau, ul.IDENTITY_POINT, n)[2]
        assert abs(float(want) - 0.25) < 1e-3
        assert circle_dist(zs[0], want) <= 1e-6

    def test_orbit_equidistribution_smoke(self):
        xs, _, _ = orbit_points(ul.HeisElem(math.sqrt(2) - 1, 1.0, 0.0),
                                ul.IDENTITY_POINT, np.arange(100_000))
        assert abs(np.mean(np.exp(2j * np.pi * xs))) <= 0.01


class TestCubeOrbit:
    def test_zero_offsets(self):
        x = ul.HeisPoint(0.3, 0.4, 0.5)
        pts = ul.cube_orbit(x, ul.HeisElem(0.2, 1.0, 0.0), (0, 0, 0), 3)
        assert len(pts) == 8
        assert all(p == x for p in pts)

    def test_little_endian_offsets(self):
        offs = [off for off, _ in _cube_vertices((1, 2))]
        assert offs == [0, 1, 2, 3]
        offs = [off for off, _ in _cube_vertices((1, 10, 100))]
        assert offs == [0, 1, 10, 11, 100, 101, 110, 111]

    def test_weight_counts_ones(self):
        # vertex m is conjugated when bit i of m, i.e. eps_{i+1}, is set an
        # odd number of times; m = 5 is eps = (1, 0, 1), of weight 2
        odd = [conj for _, conj in _cube_vertices((0, 0, 0))]
        assert odd == [False, True, True, False, True, False, False, True]

    def test_first_coordinate_abelianizes(self):
        tau = ul.HeisElem(0.31, 1.0, 0.0)
        x = ul.HeisPoint(0.15, 0.0, 0.0)
        h = (3, 7)
        pts = ul.cube_orbit(x, tau, h, 2)
        for m, off in enumerate([0, 3, 7, 10]):
            want = (x.x + off * tau.x) % 1.0
            assert abs(pts[m].x - want) < 1e-9

    def test_entries_match_orbit(self):
        tau = ul.HeisElem(0.41, 1.0, 0.0)
        x = ul.HeisPoint(0.0, 0.5, 0.25)
        pts = ul.cube_orbit(x, tau, (2, 5), 2)
        xs, ys, zs = orbit_points(tau, x, np.array([0, 2, 5, 7]))
        for m in range(4):
            assert abs(pts[m].x - xs[m]) < 1e-12
            assert abs(pts[m].z - zs[m]) < 1e-12


class TestCharactersAndSpecs:
    def test_named_characters(self):
        z = np.array([0.25])
        x = np.array([0.5])
        assert abs(named_character("ez")(x, x, z)[0] - 1j) < 1e-12
        assert abs(named_character("ex")(x, x, z)[0] - (-1.0)) < 1e-12
        assert abs(named_character("e2z")(x, x, z)[0] - (-1.0)) < 1e-12

    def test_ey_spec_is_e_of_y(self):
        # f=ey: e(y) of the orbit's canonical representatives
        tau, x0 = ul.HeisElem(0.3, 0.7, 0.1), ul.HeisPoint(0.2, 0.5, 0.9)
        ns = np.arange(-20, 44)
        seq = parse_heis_spec("tau=(0.3,0.7,0.1);x0=(0.2,0.5,0.9);f=ey")
        ys = orbit_points(tau, x0, ns)[1]
        np.testing.assert_array_equal(seq.eval(ns), _e(ys))
        assert np.max(np.abs(seq.eval(ns) - np.exp(2j * np.pi * ys))) < 1e-12

    def test_parse_heis_spec(self):
        seq = parse_heis_spec("tau=(0.41,1,0);x0=(0,0,0);f=ez")
        assert abs(seq.at(0) - 1.0) < 1e-12

    def test_bad_character(self):
        with pytest.raises(Exception):
            named_character("nope")
