"""Spectra, k = 2 norm calculus, dual functions, correlation bounds."""

import math
from collections import defaultdict

import numpy as np
import pytest

import unif_lab as ul
from unif_lab.duality import (dual_function, dual_pairing, run_direct_bound_suite,
                              run_pairing_suite, spectrum_probe)
from unif_lab.errors import FrequencyGridMismatch, NegativityViolation
from unif_lab.nilmanifold import character_ez

# a finite numeral whose phases overflow to NaN samples
OVERFLOW_GEN = "genpoly:e(1" + "0" * 300 + "*n*n*n*n*n)"


def ref_dft_coefficients(a, n):
    """dft_coefficients as it was before the correlation layer: an N-term
    TrigPoly built bin by bin, and the k = 2 norms read off its coefs."""
    coefs = np.fft.fft(a.sample(0, n)) / n
    poly = ul.TrigPoly(tuple((j / n, complex(coefs[j])) for j in range(n)))
    mags = np.abs(poly.coefs)
    return (poly, float(np.sum(mags ** 4) ** 0.25),
            float(np.sum(mags ** (4.0 / 3.0)) ** 0.75))


def ref_inverse_search(a, n, kind="fourier", grid=None, top=10):
    """inverse_search as it was before the correlation layer: one
    (spec, corr) tuple per dictionary element, fully sorted, then cut."""
    samples = a.sample(0, n)
    hits = []
    if kind == "fourier":
        coefs = np.fft.fft(samples) / n
        for j in range(n):
            hits.append((f"exp:{j / n!r}", float(abs(coefs[j]))))
    else:
        for alpha in map(float, grid):
            if kind == "quad":
                spec, b = f"quad:{alpha!r}", ul.quad_phase_seq(alpha)
            else:
                spec = f"heis:tau=({alpha!r},1,0);f=ez"
                b = ul.nilsequence(ul.HeisElem(alpha, 1.0, 0.0),
                                   ul.IDENTITY_POINT, character_ez(1))
            corr = abs(complex(np.mean(samples * np.conj(b.sample(0, n)))))
            hits.append((spec, corr))
    hits.sort(key=lambda item: (-item[1], item[0]))
    return hits[:top]


def ref_spectrum_probe(a, n, freqs):
    """spectrum_probe as it was: its own e(-mt) per frequency."""
    samples = a.sample(0, n)
    ms = np.arange(n, dtype=np.float64)
    return np.array([np.mean(samples * np.exp(-2j * np.pi * ((ms * t) % 1.0)))
                     for t in freqs], dtype=np.complex128)


class TestDft:
    def test_pure_exponential_isolates_bin(self):
        n, m = 128, 37
        rep = ul.dft_coefficients(ul.exp_seq(m / n), n)
        coefs = rep.coefficients.coefs
        assert abs(coefs[m] - 1.0) < 1e-12
        assert np.max(np.abs(np.delete(coefs, m))) < 1e-12

    def test_delta_spreads_flat(self):
        n = 64
        vals = np.zeros(n, dtype=complex)
        vals[0] = 1.0
        rep = ul.dft_coefficients(ul.from_samples(vals), n)
        assert np.allclose(rep.coefficients.coefs, 1 / n, atol=1e-15)

    def test_parseval(self):
        n = 512
        a = ul.rademacher_seq(12)
        rep = ul.dft_coefficients(a, n)
        lhs = float(np.sum(np.abs(rep.coefficients.coefs) ** 2))
        rhs = float(np.mean(np.abs(a.sample(0, n)) ** 2))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_report_norm_fields(self):
        n = 64
        p = ul.TrigPoly(((3 / n, 0.5), (9 / n, 0.5)))
        rep = ul.dft_coefficients(ul.trig_poly_seq(p), n)
        assert rep.hk2 == pytest.approx(ul.hk_norm_k2(p), abs=1e-12)
        assert rep.dual2 == pytest.approx(ul.dual_norm_k2(p), abs=1e-12)


class TestNormFormulas:
    def test_single_unit_coefficient(self):
        p = ul.TrigPoly(((0.3, 1.0),))
        assert ul.dual_norm_k2(p) == pytest.approx(1.0, abs=1e-15)
        assert ul.hk_norm_k2(p) == pytest.approx(1.0, abs=1e-15)

    def test_two_half_coefficients(self):
        p = ul.TrigPoly(((0.1, 0.5), (0.37, 0.5)))
        assert ul.dual_norm_k2(p) == pytest.approx(0.8408964, abs=1e-6)
        assert ul.hk_norm_k2(p) == pytest.approx(0.5946036, abs=1e-6)
        # frozen closed forms: 2^(-1/4) and 8^(-1/4)
        assert ul.dual_norm_k2(p) == pytest.approx(2 ** -0.25, abs=1e-14)
        assert ul.hk_norm_k2(p) == pytest.approx(8 ** -0.25, abs=1e-14)

    def test_homogeneity(self):
        p = ul.TrigPoly(((0.1, 0.4 - 0.1j), (0.22, -0.7j), (0.8, 0.2)))
        for c in (3.0, -0.5j):
            scaled = ul.TrigPoly(tuple((t, c * lam) for t, lam in p.terms))
            assert ul.dual_norm_k2(scaled) == pytest.approx(
                abs(c) * ul.dual_norm_k2(p), abs=1e-12)
            assert ul.hk_norm_k2(scaled) == pytest.approx(
                abs(c) * ul.hk_norm_k2(p), abs=1e-12)

    def test_hk_matches_cyclic_box_norm(self):
        rng = np.random.default_rng(7)
        n = 512
        for _ in range(10):
            m = int(rng.integers(1, 8))
            bins = rng.choice(n, size=m, replace=False)
            coefs = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * 0.4
            p = ul.TrigPoly(tuple((int(j) / n, complex(c))
                                  for j, c in zip(bins, coefs)))
            bx = ul.box_norm(ul.trig_poly_seq(p),
                             ul.BoxParams(2, n, ul.IntervalSpec(0, n), ul.cyclic(n)))
            assert ul.hk_norm_k2(p) == pytest.approx(bx.value, abs=1e-9)


class TestDualFunction:
    def test_constant(self):
        p = ul.BoxParams(2, 8, ul.IntervalSpec(0, 64), ul.cyclic(64))
        d = dual_function(ul.constant_seq(1.0), p)
        assert np.allclose(d.sample(0, 64), 1.0, atol=1e-12)

    def test_matches_brute_force(self):
        # independent oracle: literal loop over the h grid and the cube
        # vertices eps != 0, indices wrapped mod n in cyclic mode
        import itertools
        n, h = 48, 4
        a = ul.rademacher_seq(3)
        for k in (1, 2, 3):
            for cyc in (False, True):
                mode = ul.cyclic(n) if cyc else ul.INTERVAL
                vals = a.sample(0, n + k * (h - 1))
                p = ul.BoxParams(k, h, ul.IntervalSpec(0, n), mode)
                d = dual_function(a, p).sample(0, n)
                for base in (0, 17, n - 1):
                    acc = 0.0 + 0.0j
                    for hs in itertools.product(range(h), repeat=k):
                        term = 1.0 + 0.0j
                        for m in range(1, 1 << k):
                            eps = [(m >> i) & 1 for i in range(k)]
                            idx = base + sum(e * hi for e, hi in zip(eps, hs))
                            v = vals[idx % n if cyc else idx]
                            term *= v.conjugate() if sum(eps) % 2 else v
                        acc += term
                    assert abs(d[base] - acc / h ** k) < 1e-12

    def test_pairing_regroups_to_powered(self):
        n, h = 512, 32
        p = ul.BoxParams(2, h, ul.IntervalSpec(0, n), ul.cyclic(n))
        for seed in range(5):
            a = ul.from_samples(np.exp(
                2j * np.pi * np.random.default_rng(seed).random(n)))
            pairing = dual_pairing(a, p)
            powered = ul.box_norm(a, p).powered
            assert pairing.real == pytest.approx(powered, abs=1e-9)

    def test_bounded_by_one(self):
        p = ul.BoxParams(2, 16, ul.IntervalSpec(0, 256), ul.cyclic(256))
        d = dual_function(ul.rademacher_seq(5), p)
        assert np.max(np.abs(d.sample(0, 256))) <= 1.0 + 1e-12

    def test_output_range_shrinks_in_interval_mode(self):
        a = ul.from_samples(np.ones(128))
        p = ul.BoxParams(2, 8, ul.IntervalSpec(0, 114))
        d = dual_function(a, p)  # needs margin 2*(H-1) = 14
        assert d.valid_range == (0, 114)
        with pytest.raises(Exception):
            dual_function(a, ul.BoxParams(2, 8, ul.IntervalSpec(0, 120)))

    def test_spectrum_of_separated_trig_poly(self):
        # main components |lambda|^2 lambda sit on the conjugate frequencies
        p = ul.TrigPoly(((0.13, 0.8), (0.61, 0.5)))
        a = ul.trig_poly_seq(p)
        bp = ul.BoxParams(2, 512, ul.IntervalSpec(0, 4096))
        d = dual_function(a, bp)
        got = spectrum_probe(d, 4096, [1 - 0.13, 1 - 0.61])
        assert abs(got[0] - 0.8 ** 3) < 5e-3
        assert abs(got[1] - 0.5 ** 3) < 5e-3

    def test_spectrum_matches_triple_sum_oracle(self):
        # expand D2(a) for a two-term polynomial: component at t3-t1-t2 has
        # coefficient conj(l1 l2) l3 * K(t3-t1) K(t3-t2) with K the one-sided
        # Dirichlet average over [0, H)
        h = 256
        p = ul.TrigPoly(((0.13, 0.8), (0.61, 0.5)))

        def kern(theta):
            theta %= 1.0
            if theta == 0:
                return 1.0 + 0.0j
            num = np.exp(2j * np.pi * h * theta) - 1
            return num / (h * (np.exp(2j * np.pi * theta) - 1))

        comp = defaultdict(complex)
        for t1, l1 in p.terms:
            for t2, l2 in p.terms:
                for t3, l3 in p.terms:
                    s = round((t3 - t1 - t2) % 1.0, 9)
                    comp[s] += np.conj(l1 * l2) * l3 * kern(t3 - t1) * kern(t3 - t2)
        a = ul.trig_poly_seq(p)
        d = dual_function(a, ul.BoxParams(2, h, ul.IntervalSpec(0, 4096)))
        freqs = sorted(comp)
        got = spectrum_probe(d, 4096, freqs)
        for want, have in zip((comp[f] for f in freqs), got):
            assert abs(want - have) < 2e-3

    def test_dual_of_dual_norm_relation(self):
        n, h = 4096, 512
        p = ul.TrigPoly(((532 / n, 0.8), (2499 / n, 0.5)))
        a = ul.trig_poly_seq(p)
        d = dual_function(a, ul.BoxParams(2, h, ul.IntervalSpec(0, n), ul.cyclic(n)))
        spec = ul.dft_coefficients(d, n)
        assert ul.dual_norm_k2(spec.coefficients) == pytest.approx(
            ul.hk_norm_k2(p) ** 3, abs=1e-2)

    def test_modulation_commutes(self):
        # D2(a * e(ns/N)) = e(-ns/N) * D2(a), exactly at any H
        n, h, s = 256, 16, 37
        a = ul.wrap_cyclic(ul.from_samples(ul.rademacher_seq(9).sample(0, n)), n)
        p = ul.BoxParams(2, h, ul.IntervalSpec(0, n), ul.cyclic(n))
        lhs = dual_function(ul.product(a, ul.exp_seq(s / n)), p).sample(0, n)
        base = dual_function(a, p).sample(0, n)
        ns = np.arange(n)
        rhs = np.exp(-2j * np.pi * s * ns / n) * base
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestDirectBound:
    def test_single_frequency_tight(self):
        n, j = 1024, 123
        a = ul.exp_seq(j / n)
        b = ul.TrigPoly((((n - j) / n, 1.0),))
        rep = ul.direct_bound_check(a, b, n)
        assert rep.corr == pytest.approx(1.0, abs=1e-12)
        assert rep.bound == pytest.approx(1.0, abs=1e-9)

    def test_self_pairing_holder(self):
        # a = the b-sequence itself: corr = sum |lambda|^2 and the bound is
        # hk * dual >= corr by Hoelder; verify both sides numerically
        n = 512
        p = ul.TrigPoly(((3 / n, 0.5), (100 / n, 0.25 - 0.1j), (490 / n, 0.3j)))
        conj_terms = tuple(((-t) % 1.0, np.conj(l)) for t, l in p.terms)
        a = ul.trig_poly_seq(ul.TrigPoly(conj_terms))
        rep = ul.direct_bound_check(a, p, n)
        want_corr = float(np.sum(np.abs(p.coefs) ** 2))
        assert rep.corr == pytest.approx(want_corr, abs=1e-9)
        assert rep.bound == pytest.approx(
            ul.hk_norm_k2(p) * ul.dual_norm_k2(p), abs=1e-9)
        assert rep.holds

    def test_off_grid_frequency_rejected(self):
        with pytest.raises(FrequencyGridMismatch):
            ul.direct_bound_check(ul.rademacher_seq(0),
                                  ul.TrigPoly(((0.1234, 1.0),)), 256)

    def test_seeded_suite(self):
        assert run_direct_bound_suite(60, n=1024, seed=3).ok

    def test_trial_draws_from_its_own_seed(self):
        # trial t's a, bins and coefficients come from seed + t alone, not
        # from a master RNG advanced by the trials before it
        rep = run_direct_bound_suite(3, n=256, seed=6)
        assert rep.worst_trial == 2
        alone = run_direct_bound_suite(1, n=256, seed=8)
        assert alone.worst_slack == rep.worst_slack
        assert rep.replay == alone.replay == (("seed", 8),)

    def test_suite_needs_five_bins(self):
        # each trial draws 5 distinct bins; numpy's refusal named no field
        with pytest.raises(ValueError,
                           match=r"^direct-bound suite needs N >= 5, got 4$"):
            run_direct_bound_suite(1, n=4)
        assert run_direct_bound_suite(2, n=5).trials == 2

    def test_pairing_suite(self):
        assert run_pairing_suite(20, n=512, h=16, seed=3).ok

    def test_pairing_samples_once(self, monkeypatch):
        # the base a_n is read from the dual function's operand: 1,086
        # points (I plus the k(H-1) margin), each evaluated once by a;
        # sampling a on I again and reading the dual function back made
        # 5,244, and a cyclic wrapper that evaluated each point too, 2,172
        p = ul.BoxParams(2, 32, ul.IntervalSpec(0, 1024), ul.cyclic(1024))
        a = ul.from_samples(ul.rademacher_seq(5).sample(0, 1024))
        want = ul.box_norm(a, p).powered
        evaluated = []
        orig = ul.ComplexSeq.eval

        def counting(self, ns):
            evaluated.append(np.size(ns))
            return orig(self, ns)

        monkeypatch.setattr(ul.ComplexSeq, "eval", counting)
        assert dual_pairing(a, p).real == pytest.approx(want, abs=1e-12)
        assert sum(evaluated) == 1086


class TestInverseSearch:
    def test_fourier_exact_hit(self):
        n, j = 512, 41
        hits = ul.inverse_search(ul.exp_seq(j / n), n, "fourier", top=3)
        spec, corr = hits[0]
        assert spec == f"exp:{j / n!r}"
        assert corr == pytest.approx(1.0, abs=1e-12)

    def test_quad_phase_hides_from_fourier(self):
        hits = ul.inverse_search(ul.quad_phase_seq(math.sqrt(2) / 2), 4096,
                                 "fourier", top=1)
        assert hits[0][1] <= 0.1

    def test_quad_dictionary_finds_it(self):
        alpha = math.sqrt(2) / 2
        hits = ul.inverse_search(ul.quad_phase_seq(alpha), 1024, "quad",
                                 grid=[0.70, 0.705, alpha, 0.71], top=2)
        assert hits[0][0] == f"quad:{alpha!r}"
        assert hits[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_heis_dictionary(self):
        alpha = math.sqrt(2) - 1
        target = ul.nilsequence(ul.HeisElem(alpha, 1.0, 0.0), ul.IDENTITY_POINT,
                                __import__("unif_lab.nilmanifold",
                                           fromlist=["character_ez"]).character_ez(1))
        hits = ul.inverse_search(target, 512, "heis",
                                 grid=[0.3, alpha, 0.5], top=1)
        assert f"{alpha!r}" in hits[0][0]
        assert hits[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_requires_grid(self):
        with pytest.raises(ValueError):
            ul.inverse_search(ul.rademacher_seq(0), 64, "quad")


LAYER_NS = [1, 64, 1000, 4096]
# rad: is real, so |a^(j)| = |a^(N-j)|; exp:0.25 leaves most bins at one
# magnitude.  top = 9 and 11 split a pair of tied bins at the cut.
LAYER_GENS = ["rad:3", "exp:0.25"]


class TestCorrelationLayer:
    """The one correlation layer against the code it replaced, bit for bit."""

    @pytest.mark.parametrize("gen", LAYER_GENS)
    @pytest.mark.parametrize("n", LAYER_NS)
    @pytest.mark.parametrize("top", [1, 9, 10, 11, "N+5"])
    def test_fourier_search_matches_full_sort(self, gen, n, top):
        a = ul.parse_generator(gen)
        top = n + 5 if top == "N+5" else top
        got = ul.inverse_search(a, n, "fourier", top=top)
        assert got == ref_inverse_search(a, n, "fourier", top=top)
        assert len(got) == min(top, n)

    def test_spec_text_breaks_ties_not_bin_order(self):
        # at N = 2^14 bin 1 prints as exp:6.103515625e-05, which sorts
        # after every exp:0.* spec, so bin order would keep the wrong zero
        a, n = ul.exp_seq(0.25), 1 << 14
        got = ul.inverse_search(a, n, "fourier", top=6)
        assert got == ref_inverse_search(a, n, "fourier", top=6)
        assert got[-2:] == [("exp:0.0001220703125", 0.0),
                            ("exp:0.00018310546875", 0.0)]

    def test_corpus_splits_ties_at_the_cut(self):
        # cases where more bins share the top-th magnitude than fit under
        # the cut, so the spec order decides which are kept
        split = []
        for gen in LAYER_GENS:
            a = ul.parse_generator(gen)
            for n in LAYER_NS:
                c = np.fft.fft(a.sample(0, n)) / n
                mags = np.sort(np.hypot(c.real, c.imag))[::-1]
                for top in (1, 9, 10, 11):
                    if top < n and mags[top] == mags[top - 1]:
                        split.append((gen, n, top))
        assert ("exp:0.25", 4096, 10) in split
        assert any(gen == "rad:3" for gen, _, _ in split)

    @pytest.mark.parametrize("kind", ["quad", "heis"])
    @pytest.mark.parametrize("top", [1, 2, 3, 10])
    def test_sequence_dictionaries_match_full_sort(self, kind, top):
        # the repeated 0.3 ties exactly with itself
        grid = [0.1, 0.3, 0.5, 0.3, math.sqrt(2) / 2]
        for gen in ("rad:3", "quad:0.3"):
            a = ul.parse_generator(gen)
            got = ul.inverse_search(a, 1000, kind, grid=grid, top=top)
            assert got == ref_inverse_search(a, 1000, kind, grid, top)

    def test_empty_grid_gives_no_hits(self):
        assert ul.inverse_search(ul.rademacher_seq(3), 64, "quad", grid=[]) == []

    @pytest.mark.parametrize("gen", LAYER_GENS)
    @pytest.mark.parametrize("n", LAYER_NS)
    def test_dft_coefficients_match_trig_poly_build(self, gen, n):
        a = ul.parse_generator(gen)
        poly, hk2, dual2 = ref_dft_coefficients(a, n)
        rep = ul.dft_coefficients(a, n)
        assert rep.coefs.tobytes() == poly.coefs.tobytes()
        assert (rep.hk2, rep.dual2) == (hk2, dual2)
        assert rep.coefficients == poly

    def test_spectrum_probe_matches_its_loop(self):
        a = ul.rademacher_seq(5)
        freqs = [0.0, 0.13, 0.5, 1 - 0.61, math.sqrt(2) - 1, 0.999]
        got = spectrum_probe(a, 1000, freqs)
        assert got.tobytes() == ref_spectrum_probe(a, 1000, freqs).tobytes()

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_is_rejected(self, n):
        a = ul.rademacher_seq(3)
        for call in (lambda: ul.dft_coefficients(a, n),
                     lambda: ul.inverse_search(a, n),
                     lambda: spectrum_probe(a, n, [0.1]),
                     lambda: ul.wiener_wintner_scan(a, n)):
            with pytest.raises(ValueError, match="N must be >= 1"):
                call()

    def test_non_finite_samples_are_rejected(self):
        a = ul.parse_generator(OVERFLOW_GEN)
        for call in (lambda: ul.dft_coefficients(a, 64),
                     lambda: ul.inverse_search(a, 64),
                     lambda: spectrum_probe(a, 64, [0.1]),
                     lambda: ul.wiener_wintner_scan(a, 64)):
            with pytest.raises(NegativityViolation, match="not finite"):
                call()
