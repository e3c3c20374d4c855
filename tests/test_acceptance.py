"""Acceptance suite.

One test per stated criterion, each printing a PASS/FAIL line with the
measured quantity so a full run reads as a checklist.  Tolerances are fixed
here, not computed.  Set UNIF_LAB_FULL=1 to also run the k = 3 vanishing
third-difference check at the full h-grid (H = 256 at N = 65536; criterion
11 then takes about 18 s on one Xeon core; the default run asserts the same
identity, same tolerance, at H = 64).
"""

import math
import os
import time

import numpy as np

import unif_lab as ul
from unif_lab import cli
from unif_lab.duality import (dual_function, run_direct_bound_suite,
                              run_pairing_suite, spectrum_probe)
from unif_lab.uniformity import (run_csg_suite, run_monotonicity_suite,
                                 run_recursion_suite, run_subadditivity_suite,
                                 run_vdc_suite)

FULL = os.environ.get("UNIF_LAB_FULL", "") == "1"


def check(num, desc, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {desc}  [{detail}]")
    assert ok, f"criterion {num}: {desc} [{detail}]"


def test_criterion_01_exponential_norm():
    t0 = time.perf_counter()
    n = 4096
    rep = ul.box_norm(ul.exp_seq(177 / n),
                      ul.BoxParams(2, n, ul.IntervalSpec(0, n), ul.cyclic(n)))
    elapsed = time.perf_counter() - t0
    ok = abs(rep.value - 1.0) <= 1e-9 and elapsed < 1.0
    check(1, "on-grid exponential has k=2 cyclic box norm 1 within 1e-9, <1s",
          ok, f"value={rep.value!r}, {elapsed:.3f}s")


def test_criterion_02_van_der_corput():
    t0 = time.perf_counter()
    rep = run_vdc_suite(1000, length=8192, h=64, seed=0)
    elapsed = time.perf_counter() - t0
    ok = rep.violations == 0 and elapsed < 30.0
    check(2, "van der Corput: 1000 sign cases, |I|=8192, H=64, slack 1e-12",
          ok, f"violations={rep.violations}, worst={rep.worst_slack:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_03_cauchy_schwarz_gowers():
    t0 = time.perf_counter()
    rep = run_csg_suite(200, n=1024, h=32, ks=(2, 3), seed=0)
    elapsed = time.perf_counter() - t0
    ok = rep.violations == 0 and elapsed < 60.0
    check(3, "CSG: 200 cyclic cases, k in {2,3}, N=1024, H=32, slack 1e-9",
          ok, f"violations={rep.violations}, worst={rep.worst_slack:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_04_subadditivity_and_monotonicity():
    sub = run_subadditivity_suite(200, n=1024, h=32, ks=(1, 2, 3), seed=0)
    mono = run_monotonicity_suite(200, n=1024, h=32, ks=(1, 2), seed=0)
    ok = sub.violations == 0 and mono.violations == 0
    check(4, "subadditivity and k-monotonicity: 200 cyclic cases each, 1e-9",
          ok, f"subadd worst={sub.worst_slack:.2e}, "
              f"mono worst={mono.worst_slack:.2e}")


def test_criterion_05_recursion_identity():
    rep = run_recursion_suite(50, n=1024, h=32, ks=(1, 2), seed=0)
    ok = rep.violations == 0
    check(5, "k->k+1 recursion: matched-grid cyclic equality to 1e-9, "
             "50 cases, k=1->2 and 2->3",
          ok, f"worst gap slack={rep.worst_slack:.2e}")


def test_criterion_06_dual_pairing_identity():
    rep = run_pairing_suite(50, n=1024, h=32, k=2, seed=0)
    ok = rep.violations == 0
    check(6, "dual pairing avg(a * D2 a) = powered box norm to 1e-9, 50 cases",
          ok, f"worst slack={rep.worst_slack:.2e}")


def test_criterion_07_k2_fourier_calculus():
    rng = np.random.default_rng(7)
    n = 512
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 9))
        bins = rng.choice(n, size=m, replace=False)
        coefs = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * 0.4
        p = ul.TrigPoly(tuple((int(j) / n, complex(c))
                              for j, c in zip(bins, coefs)))
        bx = ul.box_norm(ul.trig_poly_seq(p),
                         ul.BoxParams(2, n, ul.IntervalSpec(0, n), ul.cyclic(n)))
        worst = max(worst, abs(ul.hk_norm_k2(p) - bx.value))
    halves = ul.TrigPoly(((0.1, 0.5), (0.37, 0.5)))
    ok = (worst <= 1e-9
          and abs(ul.dual_norm_k2(halves) - 0.8408964) <= 1e-6
          and abs(ul.hk_norm_k2(halves) - 0.5946036) <= 1e-6)
    check(7, "hk_norm_k2 = cyclic box norm (50 on-grid polys, 1e-9); "
             "{1/2,1/2} constants to 1e-6",
          ok, f"worst gap={worst:.2e}")


def test_criterion_08_direct_bound():
    rep = run_direct_bound_suite(500, n=4096, seed=0)
    n, j = 4096, 357
    eq = ul.direct_bound_check(ul.exp_seq(j / n),
                               ul.TrigPoly((((n - j) / n, 1.0),)), n)
    tight = abs(eq.corr - eq.bound) <= 1e-9
    ok = rep.violations == 0 and tight
    check(8, "direct bound corr <= ||a||_2 ||b||_2* on 500 cyclic pairs; "
             "equality at a single matched exponential",
          ok, f"worst={rep.worst_slack:.2e}, equality gap="
              f"{abs(eq.corr - eq.bound):.2e}")


def test_criterion_09_dual_function_spectrum():
    p = ul.TrigPoly(((0.13, 0.8), (0.61, 0.5)))
    d = dual_function(ul.trig_poly_seq(p),
                      ul.BoxParams(2, 512, ul.IntervalSpec(0, 4096)))
    got = spectrum_probe(d, 4096, [1 - 0.13, 1 - 0.61])
    spectrum_ok = (abs(got[0] - 0.512) <= 5e-3 and abs(got[1] - 0.125) <= 5e-3)

    n, h = 4096, 512
    pg = ul.TrigPoly(((532 / n, 0.8), (2499 / n, 0.5)))
    dg = dual_function(ul.trig_poly_seq(pg),
                       ul.BoxParams(2, h, ul.IntervalSpec(0, n), ul.cyclic(n)))
    spec = ul.dft_coefficients(dg, n)
    dd_gap = abs(ul.dual_norm_k2(spec.coefficients) - ul.hk_norm_k2(pg) ** 3)
    ok = spectrum_ok and dd_gap <= 1e-2
    check(9, "D2 spectrum = |lambda|^2 lambda within 5e-3 at H=512; "
             "dual-of-dual ||D2 f||* = ||f||^3 within 1e-2",
          ok, f"coef errs=({abs(got[0] - 0.512):.1e}, "
              f"{abs(got[1] - 0.125):.1e}), dual-of-dual gap={dd_gap:.1e}")


def test_criterion_10_heisenberg_closed_form():
    alpha = math.sqrt(2) - 1
    from unif_lab.nilmanifold import character_ez
    seq = ul.nilsequence(ul.HeisElem(alpha, 1.0, 0.0), ul.IDENTITY_POINT,
                         character_ez(1))
    ns = np.arange(-5000, 5001)
    ref = np.exp(2j * np.pi * ((-(ns * (ns + 1) // 2).astype(np.float64)
                                * alpha) % 1.0))
    dev = float(np.max(np.abs(seq.eval(ns) - ref)))
    check(10, "nilsequence tau=(alpha,1,0), f=e(z) matches e(-n(n+1)alpha/2) "
              "within 1e-6 for |n| <= 5000",
          dev <= 1e-6, f"max dev={dev:.2e}")


def test_criterion_11_structured_vs_random():
    alpha = math.sqrt(2) / 2
    quad = ul.quad_phase_seq(alpha)
    k2 = ul.box_norm(quad, ul.BoxParams(2, 256, ul.IntervalSpec(0, 65536),
                                        ul.cyclic(65536)))
    h3 = 256 if FULL else 64
    k3 = ul.box_norm(quad, ul.BoxParams(3, h3, ul.IntervalSpec(0, 65536)))
    prox = ul.uniformity_norm_proxy(ul.rademacher_seq(7),
                                    ul.IntervalSpec(0, 1 << 16),
                                    4096, 1024, 2, 64)
    ok = (k2.value <= 0.6 and abs(k3.value - 1.0) <= 1e-9
          and prox.value <= 0.25)
    check(11, "quadratic phase: k=2 cyclic norm <= 0.6 at (N=65536, H=256), "
              f"k=3 norm = 1 +/- 1e-9 (H={h3}); random-sign k=2 proxy <= 0.25",
          ok, f"k2={k2.value:.4f}, |k3-1|={abs(k3.value - 1.0):.2e}, "
              f"proxy={prox.value:.4f}")


def test_criterion_12_block_counterexample():
    seq, intervals = ul.block_counterexample_seq(ul.BlockSpec.geometric(4, 20))
    norms = {}
    for j in (4, 5, 6, 7, 8):
        rep = ul.box_norm(seq, ul.BoxParams(2, 32, intervals[j - 1]))
        norms[j] = rep.value
    norms_ok = all(v >= 0.9 for v in norms.values())

    phi_inv = 2.0 / (1.0 + math.sqrt(5.0))

    def geometric_avg_bound(theta, length):
        # |sum_{n in I} e(n theta)| / |I| <= 1 / (|I| |sin(pi theta)|)
        return 1.0 / (length * abs(math.sin(math.pi * (theta % 1.0))))

    # cross-validate the closed form against brute sums where feasible
    worst_gap = 0.0
    for j in (8, 10):
        interval = intervals[j - 1]
        for t in (0.0, phi_inv):
            mod = ul.product(seq, ul.exp_seq(t))
            brute = abs(ul.interval_average(mod, interval).value)
            theta = (1.0 / j + t) % 1.0
            exact = abs(math.sin(math.pi * interval.length * theta)
                        / math.sin(math.pi * theta)) / interval.length
            worst_gap = max(worst_gap, abs(brute - exact))
    cross_ok = worst_gap <= 1e-9

    # spot-check the generator inside block 16, then bound its average
    interval16 = intervals[15]
    ns = np.linspace(interval16.lo, interval16.hi - 1, 64).astype(np.int64)
    spot = np.max(np.abs(seq.eval(ns)
                         - np.exp(2j * np.pi * ((ns / 16.0) % 1.0))))
    bounds16 = [geometric_avg_bound(1.0 / 16 + t, interval16.length)
                for t in (0.0, phi_inv)]
    avg_ok = spot <= 1e-6 and all(b <= 0.05 for b in bounds16)

    check(12, "block scheme: per-block k=2 norm >= 0.9 for j in 4..8; "
              "block-16 averages vs {1, e(n/phi)} are <= 0.05",
          norms_ok and cross_ok and avg_ok,
          f"min norm={min(norms.values()):.4f}, brute-vs-exact="
          f"{worst_gap:.1e}, j=16 bounds={max(bounds16):.1e}")


def test_criterion_13_thue_morse():
    want = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]
    got = [int(ul.thue_morse_seq("01").at(n).real) for n in range(16)]
    first16_ok = got == want

    # rotation parameter chosen so the dyadic delta sequence decays at
    # every doubling step (the doubling-map orbit of the effective
    # frequency stays away from the half-integers)
    alpha = math.sqrt(2) / 24
    sys_ = ul.rotation(alpha)
    ex = ul.named_observable(sys_, "ex")
    rep = ul.cauchy_scan(ul.thue_morse_seq("pm"), sys_, [ex, ex], 0.0,
                         [2 ** j for j in range(10, 17)])
    deltas = np.array(rep.deltas)
    mono_ok = bool(np.all(np.diff(deltas) < 0))
    check(13, "Thue-Morse: first 16 terms match the digit-sum oracle; "
              "double-average Cauchy deltas decrease on N = 2^10..2^16",
          first16_ok and mono_ok,
          f"deltas={[float(f'{d:.5f}') for d in deltas]}")


def test_criterion_14_fast_vs_direct():
    res = cli.run_bench(1 << 16, 256, 2, 0)
    ok = res["max_abs_diff"] <= 1e-9 and res["speedup"] >= 10.0
    check(14, "fast path: identical to direct to 1e-9 and >= 10x faster at "
              "N=2^16, H=256, k=2",
          ok, f"diff={res['max_abs_diff']:.1e}, "
              f"speedup={res['speedup']:.1f}x "
              f"({res['direct_seconds']:.1f}s vs {res['fast_seconds']:.2f}s)")


def test_criterion_15_determinism(capsys):
    import io
    from contextlib import redirect_stdout

    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.dispatch(argv)
        return code, buf.getvalue().encode()

    argv = ["norm", "--gen", "rad:11", "--k", "2", "--mode", "cyclic",
            "--N", "2048", "--H", "64"]
    c1, b1 = run(argv)
    c2, b2 = run(argv)
    repeat_ok = c1 == c2 == 0 and b1 == b2

    base = ["verify", "recur", "--trials", "26", "--seed", "5"]
    _, t1 = run(base + ["--threads", "1"])
    _, t4 = run(base + ["--threads", "4"])
    threads_ok = t1 == t4

    with capsys.disabled():
        check(15, "CLI output is byte-reproducible and thread-count-invariant",
              repeat_ok and threads_ok,
              f"repeat={repeat_ok}, threads={threads_ok}")
