"""CLI surface: grammar, output shapes, exit codes, reproducibility."""

import argparse
import cmath
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import unif_lab as ul
from unif_lab import cli, generators, nilmanifold, uniformity
from unif_lab.errors import NegativityViolation


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.dispatch(argv)
    return code, out.getvalue(), err.getvalue()


class TestNorm:
    def test_exponential_norm_json(self):
        code, out, _ = run_cli(["norm", "--gen", "exp:0.25", "--k", "2",
                                "--mode", "cyclic", "--N", "4096", "--H", "64",
                                "--json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["op"] == "norm"
        assert abs(obj["value"] - 1.0) <= 1e-9
        assert set(obj["diagnostics"]) == {"h_tail", "path", "mode", "N", "H"}

    @pytest.mark.parametrize("path, h, ran", [
        ("fft", "64", "fast"), ("auto", "4096", "spectral")])
    def test_prints_the_path_that_ran(self, path, h, ran):
        code, out, _ = run_cli(["norm", "--gen", "rad:5", "--N", "4096",
                                "--H", h, "--path", path])
        assert code == 0
        obj = json.loads(out)
        assert obj["params"]["path"] == path
        assert obj["diagnostics"]["path"] == ran

    def test_fft_is_another_name_for_fast(self):
        base = ["norm", "--gen", "rad:5", "--N", "1024", "--H", "32",
                "--path"]
        fft = json.loads(run_cli(base + ["fft"])[1])
        fast = json.loads(run_cli(base + ["fast"])[1])
        for key in ("value", "powered"):
            assert fft[key] == fast[key]
        assert fft["diagnostics"]["h_tail"] == fast["diagnostics"]["h_tail"]

    def test_interval_mode_needs_len(self):
        code, _, err = run_cli(["norm", "--gen", "exp:0.25", "--mode",
                                "interval", "--k", "2", "--H", "8"])
        assert code == 2
        assert "len" in err

    def test_negativity_exit_code(self):
        # adversarial k=1 grid: the finite average is genuinely negative
        code, _, err = run_cli(["norm", "--gen", "exp:0.3", "--mode",
                                "interval", "--lo", "0", "--len", "3000",
                                "--k", "1", "--H", "3"])
        assert code == 3
        assert "contract" in err

    @pytest.mark.parametrize("gen, length, h, want", [
        # exp:0.1's -0.140 at scale 1e-5: -1.4e-11, clamped to 0 by an
        # absolute floor of -1e-9 while the unit-scale input exits 3
        ("trig:t=0.1,l=0.00001", 4096, 8, 3),
        # -4.86e-7 is rounding: the exact average of these samples is
        # +3.7e-23, and max|a|^2 = 1e10
        ("trig:t=0.5,l=100000", 1004, 2, 0)])
    def test_negativity_floor_scales_with_the_input(self, gen, length, h,
                                                    want):
        code, out, err = run_cli(["norm", "--gen", gen, "--k", "1", "--mode",
                                  "interval", "--len", str(length), "--H",
                                  str(h)])
        assert code == want
        if want == 3:
            assert out == ""
            assert "M = max|a|^2 = " in err
        else:
            assert json.loads(out)["powered"] == 0.0

    @given(terms=st.lists(st.tuples(st.integers(0, 999),
                                    st.integers(-1000, 1000).filter(bool)),
                          min_size=1, max_size=2,
                          unique_by=lambda term: term[0]),
           j=st.integers(-40, 40), k=st.integers(1, 3), h=st.integers(1, 8),
           length=st.integers(1, 200))
    @example(terms=[(100, 1000)], j=-17, k=1, h=8, length=4096)
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_scale(self, terms, j, k, h, length):
        # scaling the input by 2^j is exact in floats and scales S_H by
        # exactly 2^(j 2^k): the printed powered value follows it bit for
        # bit, and the exit code does not move
        def run(scale):
            spec = "trig:" + ";".join(f"t={t / 1000!r},l={c / 1000 * scale!r}"
                                      for t, c in terms)
            code, out, _ = run_cli(["norm", "--gen", spec, "--k", str(k),
                                    "--mode", "interval", "--len",
                                    str(length), "--H", str(h)])
            return code, json.loads(out)["powered"] if code == 0 else None

        code, powered = run(1.0)
        scaled_code, scaled = run(2.0 ** j)
        assert scaled_code == code
        if code == 0:
            assert scaled == math.ldexp(powered, j << k)


class TestSubcommands:
    def test_gen_csv(self):
        code, out, _ = run_cli(["gen", "--gen", "tm:01", "--range", "0:8"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,re,im"
        got = [float(line.split(",")[1]) for line in lines[1:]]
        assert got == [0, 1, 1, 0, 1, 0, 0, 1]

    def test_gen_negative_range(self):
        code, out, _ = run_cli(["gen", "--gen", "tm:01", "--range", "-4:4"])
        assert code == 0
        assert out.splitlines()[1].startswith("-4,")

    def test_unorm(self):
        code, out, _ = run_cli(["unorm", "--gen", "rad:7", "--range",
                                "0:16384", "--window", "4096", "--stride",
                                "4096", "--k", "2"])
        assert code == 0
        obj = json.loads(out)
        assert 0.0 < obj["value"] < 0.3
        assert "argmax_lo" in obj["params"]

    def test_unorm_interval_takes_h(self):
        code, out, _ = run_cli(["unorm", "--gen", "rad:7", "--range", "0:64",
                                "--window", "16", "--stride", "16",
                                "--per-window", "interval", "--H", "4"])
        assert code == 0
        assert json.loads(out)["diagnostics"]["H"] == 4

    def test_dual_trig(self):
        code, out, _ = run_cli(["dual", "--trig", "t=0.1,l=0.5;t=0.37,l=0.5"])
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["dual2"] - 0.8408964) < 1e-6
        assert abs(obj["hk2"] - 0.5946036) < 1e-6

    def test_dual_spectrum_csv(self):
        code, out, _ = run_cli(["dual", "--gen", "exp:0.25", "--N", "16",
                                "--csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "bin,re,im,magnitude"
        assert len(lines) == 17
        mags = [float(line.split(",")[3]) for line in lines[1:]]
        assert mags[4] == pytest.approx(1.0, abs=1e-12)

    def test_dualfn_csv(self):
        code, out, _ = run_cli(["dualfn", "--gen", "exp:0.125", "--k", "2",
                                "--mode", "cyclic", "--N", "64", "--H", "8"])
        assert code == 0
        assert out.splitlines()[0] == "n,re,im"

    def test_search(self):
        code, out, _ = run_cli(["search", "--gen", "exp:0.25", "--N", "64",
                                "--dict", "fourier", "--top", "2"])
        assert code == 0
        obj = json.loads(out)
        assert obj["hits"][0]["spec"] == "exp:0.25"
        assert obj["hits"][0]["corr"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_search_top_must_be_positive(self, top):
        code, out, err = run_cli(["search", "--gen", "exp:0.25", "--N", "64",
                                  "--top", top])
        assert code == 2
        assert out == ""
        assert "top must be >= 1" in err

    def test_weighted_scan(self):
        code, out, _ = run_cli(["weighted", "--w", "tm:pm", "--system",
                                "rot:0.41421356", "--obs", "ex,ex",
                                "--grid", "256,512,1024"])
        assert code == 0
        obj = json.loads(out)
        assert len(obj["values"]) == 3
        assert len(obj["deltas"]) == 2

    def test_ww_csv(self):
        code, out, _ = run_cli(["ww", "--gen", "exp:0.25", "--N", "32"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t_bin,magnitude"
        mags = [float(line.split(",")[1]) for line in lines[1:]]
        assert mags[8] == pytest.approx(1.0, abs=1e-12)

    def test_heis_check(self):
        code, out, _ = run_cli(["heis", "--tau", "0.41421356,1,0", "--f", "ez",
                                "--range", "-5000:5000",
                                "--check-closed-form"])
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"]
        assert obj["max_abs_dev"] <= 1e-6

    def test_heis_seam_point_stays_in_its_coset(self):
        # y = -1e-20 rounds up to 1.0 under q = 1; z took x*q = 0.3 for a
        # step y did not take, and e(z) printed e(0.3)
        code, out, _ = run_cli(["heis", "--tau", "0,-1e-20,0", "--x0",
                                "0.3,0,0", "--range", "1:2"])
        assert code == 0
        assert out.splitlines() == ["n,re,im", "1,1.0,0.0"]

    def test_heis_check_reference_is_exact(self):
        # the reference once rounded the O(n^2) product alpha*n(n+1)/2,
        # 1.2e-2 off at n = 1e7; max_abs_dev now measures the orbit alone
        alpha, lo, hi = 0.41421356, 10_000_000, 10_000_100
        code, out, _ = run_cli(["heis", "--tau", f"{alpha!r},1,0",
                                "--range", f"{lo}:{hi}",
                                "--check-closed-form"])
        assert code == 0
        orbit = ul.nilsequence(ul.HeisElem(alpha, 1.0, 0.0),
                               ul.IDENTITY_POINT,
                               nilmanifold.character_ez(1)).eval(
                                   np.arange(lo, hi))
        exact = np.array([cmath.exp(2j * math.pi * float(
            -Fraction(alpha) * n * (n + 1) / 2 % 1)) for n in range(lo, hi)])
        want = float(np.max(np.abs(orbit - exact)))
        assert abs(json.loads(out)["max_abs_dev"] - want) <= 1e-12

    def test_heis_check_past_int64_binomials(self):
        # int64 n*(n+1)//2 wrapped from n = 3,037,000,500 and n*(n-1)//2
        # from one later, which moved both phases by 2^64 * 2^-70 = 1/64
        code, out, _ = run_cli(["heis", "--tau", f"{2.0 ** -70!r},1,0",
                                "--range", "3037000499:3037000503",
                                "--check-closed-form"])
        assert code == 0
        assert json.loads(out)["max_abs_dev"] <= 1e-12

    def test_verify_passes(self):
        code, out, _ = run_cli(["verify", "vdc", "--trials", "20"])
        assert code == 0
        assert json.loads(out)["violations"] == 0

    def test_verify_exit_code_on_violation(self, monkeypatch):
        from unif_lab.uniformity import SuiteReport
        monkeypatch.setitem(
            cli._SUITES, "vdc",
            lambda trials, seed=0, **kw: SuiteReport("vdc", trials, 1, 0.5))
        code, out, _ = run_cli(["verify", "vdc", "--trials", "5"])
        assert code == 4
        assert json.loads(out)["violations"] == 1

    def test_verify_replays_the_worst_trial(self):
        # the uniform-kernel monotonicity failure: stdout is the report
        # alone, and the one stderr line reruns the worst trial by itself
        code, out, err = run_cli(["verify", "mono", "--trials", "12",
                                  "--seed", "553174"])
        assert code == 4
        worst = json.loads(out)["worst_slack"]
        line, = err.splitlines()
        call = line.split("; replay: ", 1)[1]
        assert call.startswith(
            "unif_lab.uniformity.run_monotonicity_suite(1, seed=")
        assert eval(call, {"unif_lab": ul}).worst_slack == worst

    @pytest.mark.parametrize("suite, kwargs, seed", [
        ("vdc", {"length": 512, "h": 8}, 3),
        ("csg", {"n": 64, "h": 8}, 0),
        ("subadd", {"n": 64, "h": 8}, 1),
        ("mono", {"n": 64, "h": 8}, 0),
        ("recur", {"n": 64, "h": 8}, 2),
        ("pairing", {"n": 64, "h": 8, "k": 2}, 0),
        ("direct", {"n": 64}, 0)])
    def test_replay_line_reruns_the_worst_trial(self, suite, kwargs, seed):
        # seeds whose worst trial is not the first, so the seed step counts
        rep = cli._SUITES[suite](5, seed=seed, **kwargs)
        assert rep.worst_trial > 0
        line = cli._replay_line(suite, kwargs, rep)
        call = line.rstrip("\n").split("; replay: ", 1)[1]
        assert eval(call, {"unif_lab": ul}).worst_slack == rep.worst_slack

    # trial t of a suite draws from seed + step * t alone
    SEED_STEP = {"vdc": 1, "csg": 1000, "subadd": 2, "mono": 1, "recur": 1,
                 "pairing": 1, "direct": 1}
    SMALL = {"vdc": {"length": 256, "h": 4}, "csg": {"n": 32, "h": 4},
             "subadd": {"n": 32, "h": 4}, "mono": {"n": 32, "h": 4},
             "recur": {"n": 32, "h": 4}, "pairing": {"n": 32, "h": 4},
             "direct": {"n": 32}}

    @pytest.mark.parametrize("suite", sorted(SMALL))
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10 ** 9))
    def test_replay_keywords_rerun_the_worst_trial(self, suite, seed):
        kwargs = self.SMALL[suite]
        rep = cli._SUITES[suite](3, seed=seed, **kwargs)
        replay = dict(rep.replay)
        assert replay["seed"] == seed + self.SEED_STEP[suite] * rep.worst_trial
        again = cli._SUITES[suite](1, **replay, **kwargs)
        assert again.worst_slack == rep.worst_slack
        assert again.replay == rep.replay

    @pytest.mark.parametrize("argv", [
        ["mono", "--seed", "-1", "--N", "32", "--H", "4"],
        ["vdc", "--seed", "-1", "--len", "64", "--H", "4"],
    ], ids=["mono", "vdc"])
    def test_verify_refuses_negative_seeds(self, argv):
        # mono exited 2 with numpy's "expected non-negative integer", which
        # named no flag; vdc ran and exited 0
        code, out, err = run_cli(["verify", *argv, "--trials", "2"])
        assert (code, out) == (2, "")
        assert err == "error: seed must be >= 0, got -1\n"

    def test_verify_params_take_the_suite_defaults(self):
        # every parameter a flag can set is printed, unset ones at the
        # suite's own default (k was left out unless --k was given)
        code, out, _ = run_cli(["verify", "pairing", "--trials", "1",
                                "--N", "16", "--H", "4"])
        assert code == 0
        assert json.loads(out)["params"] == {
            "suite": "pairing", "trials": 1, "seed": 0, "n": 16, "h": 4,
            "k": 2}

    @pytest.mark.parametrize("flags, seed", [
        ([], 0), (["--seed", "7"], 7)])
    def test_verify_seed_from_one_flag(self, flags, seed):
        code, out, _ = run_cli(["verify", "csg", "--trials", "1", "--N", "16",
                                "--H", "4"] + flags)
        assert code == 0
        assert json.loads(out)["params"]["seed"] == seed

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_verify_trials_must_be_positive(self, trials):
        code, out, err = run_cli(["verify", "vdc", "--trials", trials,
                                  "--len", "64", "--H", "4"])
        assert code == 2
        assert out == ""
        assert "trials must be >= 1" in err

    def test_verify_trials_capped(self):
        # a count that could never finish is refused before any trial
        code, out, err = run_cli(["verify", "vdc", "--trials",
                                  "1" + "0" * 300, "--len", "64", "--H", "4"])
        assert code == 2
        assert out == ""
        assert "--trials must be at most" in err

    def test_bench_small(self):
        code, out, err = run_cli(["bench", "--N", "512", "--H", "16"])
        assert code == 0
        obj = json.loads(out)
        assert obj["agree_1e9"]
        assert obj["fast_value"] == pytest.approx(obj["direct_value"],
                                                  abs=1e-9)
        assert "speedup" in err  # timings stay off stdout

    def test_bench_seed(self):
        code, out, _ = run_cli(["bench", "--N", "64", "--H", "4",
                                "--seed", "5"])
        assert code == 0
        assert json.loads(out)["params"]["seed"] == 5

    @pytest.mark.parametrize("argv", [
        ["norm", "--gen", "rad:1", "--N", "64", "--H", "8"],
        ["unorm", "--gen", "rad:1", "--range", "0:64", "--window", "16",
         "--stride", "16"],
        ["gen", "--gen", "rad:1", "--range", "0:4"],
        ["dual", "--gen", "rad:1", "--N", "16"],
        ["dualfn", "--gen", "rad:1", "--N", "16", "--H", "4"],
        ["search", "--gen", "rad:1", "--N", "16"],
        ["weighted", "--w", "rad:1", "--system", "rot:0.1", "--obs", "ex",
         "--N", "16"],
        ["ww", "--gen", "rad:1", "--N", "16"],
        ["heis", "--tau", "0.1,1,0", "--range", "0:4"],
    ], ids=lambda argv: argv[0])
    def test_seed_only_where_read(self, argv):
        # --seed was accepted here and dropped without a word
        assert run_cli(argv)[0] == 0
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            cli.dispatch(argv + ["--seed", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in err.getvalue()

    @pytest.mark.parametrize("argv, flag", [
        ("norm --gen rad:1 --N 64 --H 8", "--json"),
        ("unorm --gen rad:1 --range 0:64 --window 16 --stride 16", "--json"),
        ("gen --gen rad:1 --range 0:4", "--csv"),
        ("gen --gen rad:1 --range 0:4", "--json"),
        ("dual --gen rad:1 --N 16", "--json"),
        ("dual --gen rad:1 --N 16", "--csv"),
        ("dual --trig t=0.1,l=0.5", "--json"),
        ("dualfn --gen rad:1 --N 16 --H 4", "--csv"),
        ("search --gen rad:1 --N 16", "--json"),
        ("weighted --w rad:1 --system rot:0.1 --obs ex --N 16", "--json"),
        ("ww --gen rad:1 --N 16", "--csv"),
        ("heis --tau 0.1,1,0 --range 0:4", "--csv"),
        ("heis --tau 0.1,1,0 --range 0:4 --check-closed-form", "--json"),
        ("verify vdc --trials 1 --len 64 --H 4", "--json"),
        ("bench --N 64 --H 4", "--json"),
    ], ids=lambda v: v.split()[0] if " " in v else v)
    def test_format_flag_accepted(self, argv, flag):
        # the flag of the format printed: gen --json and dual --csv pick
        # it, every other one names the default (bench's stderr timings
        # differ from run to run)
        code, out, _ = run_cli(argv.split() + [flag])
        assert code == 0
        assert out.startswith("{") == (flag == "--json")
        picks = (argv.split()[0], flag) in (("gen", "--json"),
                                            ("dual", "--csv"))
        assert (out == run_cli(argv.split())[1]) != picks

    def test_usage_error_exit_two(self):
        code, _, _ = run_cli(["gen", "--gen", "bogus:1", "--range", "0:4"])
        assert code == 2

    def test_out_flag_writes_file(self, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(["norm", "--gen", "exp:0.25", "--N", "256",
                                "--out", str(path)])
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["value"] == pytest.approx(1.0, abs=1e-9)


def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestVerifyWorkers:
    """verify scores its trials in uniformity._cpus() processes (patched
    here): the report, stdout, stderr and exit code are the same for
    any number of them."""

    def verify(self, argv, workers, monkeypatch):
        monkeypatch.setattr(uniformity, "_cpus", lambda: workers)
        return run_cli(["verify"] + argv.split())

    @pytest.mark.parametrize("suite", sorted(cli._SUITES))
    def test_report_and_bytes(self, suite, monkeypatch):
        kwargs = TestSubcommands.SMALL[suite]
        flag = {"length": "--len", "n": "--N", "h": "--H"}
        argv = f"{suite} --trials 7 --seed 11 " + " ".join(
            f"{flag[name]} {value}" for name, value in kwargs.items())
        runs = []
        for workers in (1, 2, 3, 8):  # 8 is more workers than trials
            output = self.verify(argv, workers, monkeypatch)
            runs.append((repr(cli._SUITES[suite](7, seed=11, **kwargs)),
                         output))
        assert all(run == runs[0] for run in runs), runs
        assert no_child_left()

    def test_replay_line_from_a_child(self, monkeypatch):
        # the one violation is trial 8, in the last block at 2 and 3 workers
        argv = "mono --trials 12 --seed 553166"
        want = self.verify(argv, 1, monkeypatch)
        assert want[0] == 4 and "worst trial 8;" in want[2]
        for workers in (2, 3):
            assert self.verify(argv, workers, monkeypatch) == want
        assert no_child_left()

    @pytest.mark.parametrize("first", [1, 4], ids=["block-0", "child"])
    def test_lowest_index_exception(self, first, monkeypatch):
        # exit 3 from the first raising trial, not exit 2 from a later one
        # in another block (9 trials, blocks 0-2, 3-5 and 6-8)
        drawn = uniformity._suite_seq
        raises = {first: NegativityViolation(f"drawn at {first}"),
                  7: ValueError("drawn at 7")}

        def suite_seq(seed, n):
            if seed in raises:
                raise raises[seed]
            return drawn(seed, n)

        monkeypatch.setattr(uniformity, "_suite_seq", suite_seq)
        argv = "mono --trials 9 --N 32 --H 4"
        want = self.verify(argv, 1, monkeypatch)
        assert want == (3, "", f"numeric contract violation: drawn at "
                                f"{first}\n")
        assert self.verify(argv, 3, monkeypatch) == want
        assert no_child_left()

    def test_subprocess_prints_what_dispatch_prints(self):
        # forked workers print nothing of their own
        for argv in ("subadd --trials 26 --seed 1 --N 64 --H 8",
                     "mono --trials 12 --seed 553166"):
            proc = subprocess.run(
                [sys.executable, "-m", "unif_lab.cli", "verify",
                 *argv.split()], capture_output=True)
            code, out, err = run_cli(["verify"] + argv.split())
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                code, out.encode(), err.encode())

    def test_total_preflight(self, monkeypatch):
        # each k = 3 box norm is 2.18e9 element operations, affordable
        # alone; the 3000 trials' 3 norms each were hours of work
        def drawn(seed, n):
            raise AssertionError("a trial ran")

        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(uniformity, "_suite_seq", drawn)
        monkeypatch.setattr(os, "fork", fork)
        code, out, err = run_cli("verify subadd --trials 3000 --N 65536 "
                                 "--H 256".split())
        assert (code, out) == (2, "")
        assert err == ("error: the subadditivity suite's 3000 trials would "
                       "take ~6.59e+12 element operations (~6.54e+09 for "
                       "the costliest trial), above the limit of 1e+12\n")


NORM_FLAGS = ["--N", "64", "--H", "8"]
# a finite numeral whose phases overflow during evaluation
OVERFLOW_GEN = "genpoly:e(1" + "0" * 300 + "*n*n*n*n*n)"


class TestBadNumbers:
    @pytest.mark.parametrize("argv, expected", [
        pytest.param(["norm", "--gen", "exp:nan"] + NORM_FLAGS, 2,
                     id="exp-nan"),
        pytest.param(["norm", "--gen", "exp:inf"] + NORM_FLAGS, 2,
                     id="exp-inf"),
        pytest.param(["norm", "--gen", "quad:-inf"] + NORM_FLAGS, 2,
                     id="quad-minus-inf"),
        pytest.param(["norm", "--gen", "genpoly:e(" + "9" * 400 + "*n)"]
                     + NORM_FLAGS, 2, id="genpoly-numeral-overflow"),
        pytest.param(["dual", "--trig", "t=0.1,l=nan"], 2, id="trig-l-nan"),
        pytest.param(["dual", "--trig", "t=0.1,l=1e400"], 2,
                     id="trig-l-overflow"),
        pytest.param(["gen", "--gen", "heis:tau=(nan,1,0)", "--range", "0:4"],
                     2, id="heis-spec-tau-nan"),
        # finite coordinates whose orbit overflows: 0 * inf at n = 0
        pytest.param(["heis", "--tau", "1e300,1e300,1e300", "--range", "0:8"],
                     3, id="heis-tau-overflow"),
        # the average of the overflowing samples is NaN
        pytest.param(["norm", "--gen", OVERFLOW_GEN] + NORM_FLAGS, 3,
                     id="genpoly-nan-average"),
        # the same NaN samples reach every CSV writer
        pytest.param(["gen", "--gen", OVERFLOW_GEN, "--range", "60:63"], 3,
                     id="gen-csv-nan"),
        pytest.param(["gen", "--gen", OVERFLOW_GEN, "--range", "60:63",
                      "--json"], 3, id="gen-json-nan"),
        pytest.param(["dualfn", "--gen", OVERFLOW_GEN] + NORM_FLAGS, 3,
                     id="dualfn-csv-nan"),
        pytest.param(["ww", "--gen", OVERFLOW_GEN, "--N", "64", "--csv"], 3,
                     id="ww-csv-nan"),
        pytest.param(["dual", "--gen", OVERFLOW_GEN, "--N", "64", "--csv"], 3,
                     id="dual-csv-nan"),
        # non-finite JSON values: the contract exit, as for CSV
        pytest.param(["dual", "--trig", "t=0.1,l=1e300"], 3,
                     id="trig-norm-overflow"),
        pytest.param(["weighted", "--w", "rad:1", "--system",
                      "heis:1e300,1e300,1e300", "--obs", "ez", "--N", "64"],
                     3, id="weighted-nan-average"),
        pytest.param(["search", "--gen", OVERFLOW_GEN, "--N", "64"], 3,
                     id="search-json-nan"),
        pytest.param(["dual", "--gen", OVERFLOW_GEN, "--N", "64"], 3,
                     id="dual-json-nan"),
        pytest.param(["search", "--gen", "exp:0.25", "--N", "64", "--dict",
                      "quad", "--grid", "nan,0.1"], 2, id="search-grid-nan"),
        pytest.param(["search", "--gen", "exp:0.25", "--N", "64", "--dict",
                      "quad", "--grid", "0:inf:3"], 2, id="search-grid-inf"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "rot:0.1",
                      "--obs", "ex", "--grid", "64,128", "--threshold", "nan"],
                     2, id="weighted-threshold-nan"),
    ])
    def test_non_finite_never_printed(self, argv, expected):
        code, out, err = run_cli(argv)
        assert code == expected
        assert out == ""
        assert "finite" in err

    def test_stderr_holds_only_the_contract_message(self):
        # numpy's overflow warnings must not leak ahead of the message
        proc = subprocess.run(
            [sys.executable, "-m", "unif_lab.cli", "gen", "--gen",
             OVERFLOW_GEN, "--range", "60:63"],
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "numeric contract violation: output value nan is not finite\n")

    @pytest.mark.parametrize("n", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        pytest.param(["dual", "--gen", "rad:3"], id="dual"),
        pytest.param(["search", "--gen", "rad:3"], id="search"),
        pytest.param(["ww", "--gen", "rad:3"], id="ww"),
    ])
    def test_n_below_one_exits_two(self, argv, n):
        code, out, err = run_cli(argv + ["--N", n])
        assert code == 2
        assert out == ""
        assert err == f"error: N must be >= 1, got {n}\n"

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["weighted", "--w", "rad:1", "--system", "skew:0.1",
                      "--x0", "0.1", "--obs", "ex", "--N", "64"],
                     "--x0 needs 2 comma-separated values, got '0.1'",
                     id="skew-x0-short"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "heis:0.1,1,0",
                      "--x0", "0.1", "--obs", "ez", "--N", "64"],
                     "--x0 needs 3 comma-separated values, got '0.1'",
                     id="heis-x0-short"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "heis:0.1,1",
                      "--obs", "ez", "--N", "64"],
                     "heis system tau needs 3 comma-separated values, "
                     "got '0.1,1'", id="heis-system-short"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "rot:nan",
                      "--obs", "ex", "--N", "64"],
                     "rot angle must be finite: 'nan'", id="rot-nan"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "rot:0.1",
                      "--x0", "0.1,0.2", "--obs", "ex", "--N", "64"],
                     "bad --x0: '0.1,0.2'", id="rot-x0-long"),
        pytest.param(["heis", "--tau", "0.1,1", "--range", "0:4"],
                     "--tau needs 3 comma-separated values, got '0.1,1'",
                     id="heis-tau-short"),
        pytest.param(["heis", "--tau", "0.1,1,0", "--x0", "0.1,x,0",
                      "--range", "0:4"], "bad --x0: 'x'", id="heis-x0-bad"),
        # the list fields below used to drop an empty entry and run
        pytest.param(["search", "--gen", "exp:0.25", "--N", "64", "--dict",
                      "quad", "--grid", "0.1,,0.2"],
                     "empty --grid value in '0.1,,0.2'",
                     id="search-grid-empty-entry"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "rot:0.1",
                      "--obs", "ex,,ex", "--N", "64"],
                     "empty --obs in 'ex,,ex'", id="obs-empty-entry"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "rot:0.1",
                      "--obs", ",", "--N", "64"], "empty --obs in ','",
                     id="obs-only-comma"),
        # used to print Python's int() message, which names no field
        pytest.param(["weighted", "--w", "rad:1", "--system", "rot:0.1",
                      "--obs", "ex", "--grid", "10,x"],
                     "bad --grid value: 'x'", id="weighted-grid-not-int"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "rot:0.1",
                      "--obs", "ex", "--grid", "10," + "9" * 5000],
                     "--grid value has more than 4300 digits",
                     id="weighted-grid-long"),
        # a flag the suite has no parameter for used to be dropped
        pytest.param(["verify", "vdc", "--trials", "1", "--N", "5"],
                     "verify vdc does not take --N", id="verify-vdc-N"),
        pytest.param(["verify", "csg", "--trials", "1", "--k", "3"],
                     "verify csg does not take --k", id="verify-csg-k"),
        pytest.param(["verify", "direct", "--trials", "1", "--H", "5"],
                     "verify direct does not take --H", id="verify-direct-H"),
        # H = 0 ended in a ZeroDivisionError traceback, H = -3 ran (exit 4)
        pytest.param(["verify", "vdc", "--trials", "1", "--H", "0"],
                     "van der Corput needs H >= 1, got 0", id="verify-vdc-H0"),
        pytest.param(["verify", "vdc", "--trials", "1", "--H", "-3"],
                     "van der Corput needs H >= 1, got -3",
                     id="verify-vdc-H-negative"),
        # numpy's "Cannot take a larger sample than population" named no field
        pytest.param(["verify", "direct", "--trials", "1", "--N", "3"],
                     "direct-bound suite needs N >= 5, got 3",
                     id="verify-direct-N-small"),
        # the cyclic proxy uses H = --window and used to drop --H
        pytest.param(["unorm", "--gen", "rad:1", "--range", "0:64",
                      "--window", "16", "--stride", "16", "--H", "0"],
                     "unorm --H needs --per-window interval; the cyclic "
                     "proxy uses H = --window", id="unorm-H-cyclic"),
        # flags the chosen mode or dictionary does not read; each ran with
        # the flag dropped ("N": null, the grid echoed in params)
        pytest.param(["norm", "--gen", "rad:1", "--mode", "interval",
                      "--len", "16", "--H", "4", "--N", "5"],
                     "interval mode does not take --N", id="norm-interval-N"),
        pytest.param(["dualfn", "--gen", "rad:1", "--mode", "interval",
                      "--len", "16", "--H", "4", "--N", "5"],
                     "interval mode does not take --N",
                     id="dualfn-interval-N"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "rot:0.1",
                      "--obs", "ex", "--N", "10", "--grid", "10,20"],
                     "weighted takes --N or --grid, not both",
                     id="weighted-N-grid"),
        pytest.param(["search", "--gen", "rad:1", "--N", "16", "--dict",
                      "fourier", "--grid", "0:1:3"],
                     "search --dict fourier does not take --grid",
                     id="search-fourier-grid"),
        pytest.param(["dual", "--trig", "t=0.1,l=1", "--gen", "rad:3",
                      "--N", "64"], "dual --trig does not take --gen",
                     id="dual-trig-gen"),
        pytest.param(["dual", "--trig", "t=0.1,l=1", "--N", "64"],
                     "dual --trig does not take --N", id="dual-trig-N"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "rot:0.1",
                      "--obs", "ex", "--N", "64", "--threshold", "0.5"],
                     "weighted --threshold needs --grid",
                     id="weighted-N-threshold"),
        # the cyclic proxy named the window's indices, or its wrapped
        # [0, window) ones, not the search range
        pytest.param(["unorm", "--gen", "rad:1", "--range",
                      "268435000:268436000", "--window", "512", "--stride",
                      "512"],
                     "search range needs indices [268435000, 268436000) but "
                     "valid range is (-268435456, 268435456)",
                     id="unorm-range-cyclic"),
        pytest.param(["unorm", "--gen", "rad:1", "--range",
                      "268435000:268436000", "--window", "512", "--stride",
                      "512", "--per-window", "interval", "--H", "4"],
                     "search range needs indices [268435000, 268436000) but "
                     "valid range is (-268435456, 268435456)",
                     id="unorm-range-interval"),
        # refused before the grid is built; one step more than the bound
        pytest.param(["search", "--gen", "exp:0.25", "--N", "1", "--dict",
                      "quad", "--grid", "0:1:1000001"],
                     "--grid steps must be between 1 and 1000000, "
                     "got 1000001", id="search-grid-steps-bound"),
    ])
    def test_malformed_tuples_exit_two(self, argv, message):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    K_COMMANDS = [
        "norm --gen rad:1 --k {} --mode cyclic --N 64 --H 1",
        "dualfn --gen rad:1 --k {} --mode cyclic --N 64 --H 1",
        "unorm --gen rad:1 --range 0:64 --window 16 --stride 16 --k {} "
        "--per-window interval --H 1",
        "verify pairing --trials 1 --N 64 --H 1 --k {}",
    ]

    @pytest.mark.parametrize("command", K_COMMANDS,
                             ids=["norm", "dualfn", "unorm", "verify-pairing"])
    @pytest.mark.parametrize("k", [17, 40, 64])
    def test_k_above_bound_exits_two(self, k, command):
        # k = 64 overflowed the 2^k vertex list, k = 40 ran out of memory;
        # BoxParams refuses both before anything is sampled
        code, out, err = run_cli(command.format(k).split())
        assert (code, out) == (2, "")
        assert err == f"error: k must be <= 16, got {k}\n"

    @pytest.mark.parametrize("command", K_COMMANDS,
                             ids=["norm", "dualfn", "unorm", "verify-pairing"])
    def test_k_at_bound_runs(self, command):
        code, out, err = run_cli(command.format(16).split())
        assert (code, err) == (0, "")
        assert out

    HUGE_COMMANDS = [
        "norm --gen rad:1 --k 16 --mode cyclic --N 64 --H 64",
        "norm --gen rad:1 --k 2 --mode cyclic --N 1048576 --path fast",
        "norm --gen rad:1 --k 4 --mode cyclic --N 4096 --H 512 --path direct",
        "norm --gen rad:1 --k 1 --mode interval --len 8 --H 10000000000000",
        "dualfn --gen rad:1 --k 16 --mode cyclic --N 64 --H 64",
        "unorm --gen rad:1 --range 0:64 --window 64 --stride 64 --k 16",
        "verify pairing --trials 1 --N 64 --H 64 --k 16",
    ]

    @pytest.mark.parametrize("command", HUGE_COMMANDS, ids=[
        "norm-k16", "norm-fast-H=N", "norm-direct", "norm-huge-H", "dualfn",
        "unorm", "verify-pairing"])
    def test_size_preflight_refuses_before_sampling(self, command,
                                                     monkeypatch):
        def sampled(self, ns):
            raise AssertionError("sampled before the size preflight")

        if not command.startswith("verify"):  # a suite draws its corpus
            monkeypatch.setattr(ul.ComplexSeq, "eval", sampled)
        code, out, err = run_cli(command.split())
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: the (fast|direct) path would take "
                            r"~\S+ element operations \(k=\d+, H=\d+, "
                            r"\|I\|=\d+\), above the limit of 1e\+12\n",
                            err), err

    @pytest.mark.parametrize("command", [
        # k = 2 cyclic windows take the spectral path, 4,096 operations
        # each: affordable one at a time, hours for all of them
        "unorm --gen exp:0.1 --range 0:4000000000 --window 4096 --stride 1 "
        "--k 2",
        "unorm --gen rad:1 --range 0:200000000 --window 512 --stride 1 "
        "--k 3 --per-window interval --H 32",
    ], ids=["cyclic", "interval"])
    def test_unorm_total_refused(self, command, monkeypatch):
        def sampled(self, ns):
            raise AssertionError("sampled before the proxy's preflight")

        monkeypatch.setattr(ul.ComplexSeq, "eval", sampled)
        start = time.perf_counter()
        code, out, err = run_cli(command.split())
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: the proxy's \d+ windows would take "
                            r"~\S+ element operations \(~\S+ each\), above "
                            r"the limit of 1e\+12\n", err), err

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 7.28 TiB for an array with shape "
         "(1000000000000,) and data type complex128",
         "error: Unable to allocate 7.28 TiB for an array with shape "
         "(1000000000000,) and data type complex128\n"),
        ("", "error: out of memory\n"),
    ], ids=["numpy", "bare"])
    @pytest.mark.parametrize("command", [
        "gen --gen rad:1 --range 0:16",
        "norm --gen rad:1 --k 1 --mode interval --len 16 --H 1",
        "dualfn --gen rad:1 --k 2 --mode cyclic --N 16 --H 4",
        "ww --gen rad:1 --N 16",
    ], ids=["gen", "norm", "dualfn", "ww"])
    def test_allocation_failure_exits_two(self, command, message, line,
                                          monkeypatch):
        # numpy raises MemoryError for a size the machine cannot hold; it
        # is raised here, since a real request that large does not fail at
        # once on every machine
        def refused(self, ns):
            raise MemoryError(message)

        monkeypatch.setattr(ul.ComplexSeq, "eval", refused)
        assert run_cli(command.split()) == (2, "", line)

    @pytest.mark.parametrize("argv, odd, plain", [
        # -1e-20 mod 1 rounds to 1.0, which used to be refused as outside
        # [0, 1)
        pytest.param(["heis", "--tau", "0.1,1,0", "--x0", "{}", "--range",
                      "-3:4"], "-1e-20,0,0", "0,0,0", id="heis-x0"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "heis:0.1,1,0",
                      "--x0", "{}", "--obs", "ez,ex", "--N", "64"],
                     "-1e-20,0,0", "0,0,0", id="weighted-heis-x0"),
        pytest.param(["gen", "--gen", "heis:tau=(0.1,1,0);x0=({})",
                      "--range", "-3:4"], "-1e-20,0,0", "0,0,0",
                     id="heis-spec-x0"),
        # a step of 1 in y moves z by x: x0 names the point of its coset
        pytest.param(["heis", "--tau", "0.1,0.2,0.3", "--x0", "{}",
                      "--range", "0:4"], "0.5,-0.25,0", "0.5,0.75,0.5",
                     id="heis-x0-coset"),
        pytest.param(["heis", "--tau", "0.1,0.2,0.3", "--x0", "{}",
                      "--range", "0:4"], "0.5,1.5,0", "0.5,0.5,0.5",
                     id="heis-x0-coset-up"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "heis:0.1,1,0",
                      "--x0", "{}", "--obs", "ez,ex", "--N", "64"],
                     "0.5,-0.25,0", "0.5,0.75,0.5",
                     id="weighted-heis-x0-coset"),
        pytest.param(["gen", "--gen", "heis:tau=(0.1,0.2,0.3);x0=({})",
                      "--range", "0:4"], "0.5,-0.25,0", "0.5,0.75,0.5",
                     id="heis-spec-x0-coset"),
        # named constants used to be read by exp: and quad: only
        pytest.param(["heis", "--tau", "{},1,0", "--range", "-3:4"], "sqrt2",
                     repr(2 ** 0.5), id="heis-tau-sqrt2"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "rot:{}",
                      "--obs", "ex", "--N", "64"], "sqrt2", repr(2 ** 0.5),
                     id="rot-sqrt2"),
        pytest.param(["search", "--gen", "quad:0.25", "--N", "64", "--dict",
                      "quad", "--grid", "{},0.5"], "sqrt2", repr(2 ** 0.5),
                     id="search-grid-sqrt2"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "rot:0.1",
                      "--obs", "ex", "--grid", "64,128", "--threshold", "{}"],
                     "sqrt2", repr(2 ** 0.5), id="threshold-sqrt2"),
    ])
    def test_spellings_of_one_input_print_the_same(self, argv, odd, plain):
        # stdout is byte-identical, apart from the echoed spelling itself
        code_odd, out_odd, _ = run_cli([a.replace("{}", odd) for a in argv])
        code, out, _ = run_cli([a.replace("{}", plain) for a in argv])
        assert (code_odd, code) == (0, 0)
        assert out_odd.replace(odd, plain) == out


FUZZ_VALUES = ["nan", "inf", "-inf", "1e400", "9" * 400, "1" + "0" * 300,
               "0.25", "-3", "", "x"]
FUZZ_TEMPLATES = [
    "norm --gen exp:{} --N 64 --H 8",
    "norm --gen quad:{} --N 64 --H 8",
    "dual --trig t={},l=0.5",
    "dual --trig t=0.1,l={}",
    "heis --tau {} --range 0:8",
    "weighted --w rad:1 --system skew:{} --obs ex --N 64",
    "weighted --w rad:1 --system skew:0.1 --x0 {} --obs ex --N 64",
    "verify vdc --trials {} --len 64 --H 4",
    "gen --gen genpoly:e({}*n*n*n*n*n) --range 60:63",
    "search --gen exp:0.25 --N 64 --dict quad --grid {}",
    "weighted --w rad:1 --system rot:0.1 --obs ex --grid 64,128 "
    "--threshold {}",
]


def _csv(header, *columns):
    """Per-row reference: integers by str, floats by repr."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(str(c) if isinstance(c, int) else repr(float(c))
                              for c in row))
    return "\n".join(lines) + "\n"


def _samples(ns, vals):
    return _csv(("n", "re", "im"), [int(n) for n in ns], vals.real, vals.imag)


def _gen_case(rows):
    lo = -rows // 2 - 1
    vals = ul.parse_generator("quad:0.3").sample(lo, lo + rows)
    return (["gen", "--gen", "quad:0.3", "--range", f"{lo}:{lo + rows}"],
            _samples(range(lo, lo + rows), vals))


def _heis_case(rows):
    lo = -rows // 3
    tau = nilmanifold.HeisElem(0.41421356, 1.0, 0.0)
    seq = nilmanifold.nilsequence(tau, nilmanifold.IDENTITY_POINT,
                                  generators.named_character("ez"))
    ns = np.arange(lo, lo + rows, dtype=np.int64)
    return (["heis", "--tau", "0.41421356,1,0", "--range",
             f"{lo}:{lo + rows}"], _samples(ns, seq.eval(ns)))


def _dualfn_case(rows):
    h = min(4, rows)
    p = ul.BoxParams(2, h, ul.IntervalSpec(0, rows), ul.cyclic(rows))
    vals = ul.dual_function(ul.exp_seq(0.125), p).sample(0, rows)
    return (["dualfn", "--gen", "exp:0.125", "--k", "2", "--mode", "cyclic",
             "--N", str(rows), "--H", str(h)], _samples(range(rows), vals))


def _ww_case(rows):
    freqs, mags = ul.wiener_wintner_scan(ul.rademacher_seq(3), rows)
    return (["ww", "--gen", "rad:3", "--N", str(rows)],
            _csv(("t_bin", "magnitude"), freqs, mags))


def _dual_case(rows):
    terms = ul.dft_coefficients(ul.rademacher_seq(3), rows).coefficients.terms
    coefs = [c for _, c in terms]
    return (["dual", "--gen", "rad:3", "--N", str(rows), "--csv"],
            _csv(("bin", "re", "im", "magnitude"), range(rows),
                 [c.real for c in coefs], [c.imag for c in coefs],
                 [abs(c) for c in coefs]))


class TestCsvBytes:
    """Every CSV emitter against a per-row reference, across block edges."""

    @pytest.mark.parametrize("case", [_gen_case, _heis_case, _dualfn_case,
                                      _ww_case, _dual_case],
                             ids=["gen", "heis", "dualfn", "ww", "dual"])
    @pytest.mark.parametrize("offset", [None, -1, 0, 1],
                             ids=["1", "block-1", "block", "block+1"])
    def test_matches_per_row_reference(self, case, offset, tmp_path):
        rows = 1 if offset is None else cli._CSV_BLOCK + offset
        argv, want = case(rows)
        code, out, _ = run_cli(argv)
        assert code == 0
        assert out == want
        path = tmp_path / "out.csv"
        code, out, _ = run_cli(argv + ["--out", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_bytes() == want.encode()

    # one value of each layout: zeros, subnormals (the first two take the
    # formatter's scaled step), exponent form both ways, fixed notation at
    # both of its ends, integral floats
    LAYOUTS = [-0.0, 5e-324, -1e-323, 1.5e-323, 2.2250738585072009e-308,
               -9.999999999999999e-05, 0.0001, 1e-300, -1.7976931348623157e308,
               1e16, 9999999999999998.0, -3.0, 1e15, 0.1, -123.456, 2.5e-07,
               6.02214076e+23]

    @pytest.mark.parametrize("offset", [None, -1, 0, 1],
                             ids=["1", "block-1", "block", "block+1"])
    def test_direct_call_mixes_every_layout(self, offset, tmp_path, capsys):
        rows = 1 if offset is None else cli._CSV_BLOCK + offset
        ns = np.arange(-rows, 0, dtype=np.int64) * 3
        ns[0] = -2 ** 63
        a = np.resize(np.array(self.LAYOUTS), rows)
        b = np.roll(np.resize(np.array(self.LAYOUTS[::-1]), rows), 5)
        zeros = np.zeros(rows)  # as dualfn's im on rad: input
        header = ("n", "a", "zero", "b")
        want = _csv(header, ns.tolist(), a, zeros, b)
        cli._emit_csv(argparse.Namespace(out=None), header, ns, a, zeros, b)
        assert capsys.readouterr().out == want
        path = tmp_path / "out.csv"
        cli._emit_csv(argparse.Namespace(out=str(path)), header, ns, a,
                      zeros, b)
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == want.encode()


# Spec-grammar fuzzing: genpoly expressions, block specs and heis specs, each
# built from valid pieces and from hostile ones (huge numerals, non-finite
# numbers, unbalanced brackets, wrong counts), run through the CLI at N <= 256.
SPEC_NUMBERS = ["0", "1", "0.5", ".25", "3.", "7", "9" * 400, "1" + "0" * 300,
                "1e5", "nan", "inf"]
SPEC_FLOATS = ["0", "0.1", "-0.3", "1e16", "1e300", "-1e300", "1e-320",
               "-1e-20", "sqrt2", "nan", "inf", "", "x", "9" * 400]


def _genpoly_exprs():
    atom = st.one_of(
        st.sampled_from(SPEC_NUMBERS),
        st.sampled_from(["n", "sqrt2", "sqrt3", "sqrt5", "phi", "pi", "floor",
                         "x"]),
        st.integers(0, 10 ** 6).map(str))

    def grow(child):
        return st.one_of(
            st.tuples(child, st.sampled_from(["+", "-", "*", " * ", ""]),
                      child).map("".join),
            child.map("floor({})".format), child.map("({})".format),
            child.map("-{}".format), child.map("{})".format),
            child.map("({}".format))

    return st.recursive(atom, grow, max_leaves=12)


def _triples():
    return st.lists(st.sampled_from(SPEC_FLOATS), min_size=2,
                    max_size=4).map(lambda v: "(" + ",".join(v) + ")")


def _trig_terms():
    field = st.tuples(st.sampled_from(["t", "l", "m", ""]),
                      st.sampled_from(["=", "", "=="]),
                      st.sampled_from(SPEC_FLOATS + ["1+2j", "-0.5j"]))
    term = st.lists(field.map("".join), max_size=4).map(",".join)
    return st.lists(term, max_size=3).map(";".join)


SPEC_STRATEGY = st.one_of(
    st.builds("trig:{1}{0}{2}".format, _trig_terms(),
              st.sampled_from(["", "["]), st.sampled_from(["", "]"])),
    st.lists(st.sampled_from(SPEC_FLOATS), max_size=4).map(
        lambda v: "poly:" + ",".join(v)),
    st.builds("genpoly:{2}{0}({1}){2}".format,
              st.sampled_from(["frac", "e", "exp", ""]), _genpoly_exprs(),
              st.sampled_from(["", '"'])),
    st.builds("block:geo{}x{}".format,
              st.one_of(st.integers(0, 70), st.just(10 ** 20)),
              st.one_of(st.integers(0, 70), st.just(20000))),
    st.lists(st.one_of(st.integers(-5, 300),
                       st.sampled_from([2 ** 62, 2 ** 63, 10 ** 30])),
             max_size=5).map(lambda v: "block:" + ",".join(map(str, v))),
    st.builds(lambda tau, x0, f: "heis:" + ";".join(p for p in (tau, x0, f)
                                                    if p),
              _triples().map("tau={}".format),
              st.one_of(st.just(""), _triples().map("x0={}".format)),
              st.sampled_from(["", "f=ez", "f=ex", "f=ey", "f=e3z", "f=e0z",
                               "f=e" + "9" * 20 + "z", "f=q", "f=e-1z"])),
)
NON_FINITE_TEXT = re.compile(r"nan|inf", re.IGNORECASE)


def _spec_argv(spec, n, h, command):
    h = str(min(h, n))
    return {
        "norm": ["norm", "--gen", spec, "--N", str(n), "--H", h],
        "norm-interval": ["norm", "--gen", spec, "--mode", "interval",
                          "--len", str(n), "--H", h],
        "gen": ["gen", "--gen", spec, "--range", f"{-n}:{n}"],
        "gen-far": ["gen", "--gen", spec, "--range",
                    f"{2 ** 62}:{2 ** 62 + 4}"],
        "dual": ["dual", "--gen", spec, "--N", str(n)],
        "search": ["search", "--gen", spec, "--N", str(n)],
        "ww": ["ww", "--gen", spec, "--N", str(n)],
    }[command]


class TestFuzz:
    @given(spec=SPEC_STRATEGY, n=st.integers(1, 256), h=st.integers(1, 16),
           command=st.sampled_from(["norm", "norm-interval", "gen", "gen-far",
                                    "dual", "search", "ww"]))
    @settings(max_examples=250, deadline=None)
    def test_spec_grammar(self, spec, n, h, command):
        # a traceback would escape dispatch as an exception and fail here
        try:
            code, out, _ = run_cli(_spec_argv(spec, n, h, command))
        except SystemExit as exc:
            code, out = exc.code, ""
        assert code in (0, 2, 3, 4)
        assert not NON_FINITE_TEXT.search(out)

    @pytest.mark.parametrize("expr", [
        pytest.param("+".join(["n"] * 1500), id="sum-chain"),
        pytest.param("(" * 1200 + "n" + ")" * 1200, id="parentheses"),
        pytest.param("-" * 1200 + "n", id="unary-minus"),
        pytest.param("floor(" * 600 + "n" + ")" * 600, id="floor"),
        pytest.param("-" * 256 + "n", id="one-token-too-many"),
    ])
    def test_long_expression_exits_two(self, expr):
        # all but the last used to recurse past Python's limit in the
        # parser or the evaluator and escape as a RecursionError
        code, out, err = run_cli(["gen", "--gen", f"genpoly:e({expr})",
                                  "--range", "0:3"])
        assert (code, out) == (2, "")
        assert err == "error: expression longer than 256 tokens\n"

    def test_longest_expression_still_runs(self):
        code, out, _ = run_cli(["gen", "--gen",
                                "genpoly:e(" + "-" * 255 + "n)",
                                "--range", "0:3"])
        assert code == 0
        assert out.splitlines()[2] == "1,1.0,0.0"

    @pytest.mark.parametrize("spec, message", [
        pytest.param("block:geo2x63", "block starts must be below 2^63",
                     id="geo-past-int64"),
        # used to build 2^j for every j up to the count before any check
        # (for a billion, 3 GB and 100 s); kept small so a regression
        # fails fast instead
        pytest.param("block:geo2x20000",
                     "block starts must be below 2^63", id="geo-large-count"),
        pytest.param(f"block:3,{2 ** 63}",
                     f"bad block spec '3,{2 ** 63}': "
                     "block starts must be below 2^63", id="list-past-int64"),
        pytest.param(f"block:3,{10 ** 30}",
                     f"bad block spec '3,{10 ** 30}': "
                     "block starts must be below 2^63",
                     id="list-far-past-int64"),
    ])
    def test_block_starts_past_int64_exit_two(self, spec, message):
        # each used to raise OverflowError (or run out of memory)
        code, out, err = run_cli(["norm", "--gen", spec, "--N", "64",
                                  "--H", "4"])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("spec, message", [
        pytest.param("block:3,2", "bad block spec '3,2': "
                     "block starts must be strictly increasing",
                     id="list-decreasing"),
        pytest.param("block:0,2", "bad block spec '0,2': "
                     "first block start must be >= 1", id="list-from-zero"),
        pytest.param("block:5", "bad block spec '5': "
                     "need at least two block starts", id="list-one-start"),
        pytest.param("block:3,x", "bad block start: 'x'", id="list-not-int"),
        pytest.param("block:geo" + "9" * 5000 + "x3",
                     "block ratio has more than 4300 digits", id="geo-ratio"),
        pytest.param("block:geo2x" + "9" * 5000,
                     "block count has more than 4300 digits", id="geo-count"),
        pytest.param("block:3," + "9" * 5000,
                     "block start has more than 4300 digits", id="list-start"),
        pytest.param("rad:" + "9" * 5000, "seed has more than 4300 digits",
                     id="rad-seed"),
        pytest.param("rad:" + "x" * 5000, f"bad seed: {'x' * 5000!r}",
                     id="rad-long-not-int"),
        pytest.param("block:3," + "9" * 5000 + "x",
                     f"bad block start: {'9' * 5000 + 'x'!r}",
                     id="list-long-not-int"),
        pytest.param("heis:tau=(0.1,0.2,0.3);f=e" + "9" * 5000 + "z",
                     "nilmanifold character index has more than 4300 digits",
                     id="heis-character"),
        pytest.param("heis:tau=(0.1,0.2,0.3);;;tau=(1,2,3)",
                     "heis field 'tau' given twice", id="heis-repeated-tau"),
        pytest.param("heis:tau=(0.1,0.2,0.3);f=ez;x0=(0,0,0);f=ex",
                     "heis field 'f' given twice", id="heis-repeated-f"),
        pytest.param("heis:tau=(0.1,0.2,0.3);xo=(0.5,0,0)",
                     "unknown heis field 'xo'", id="heis-unknown-key"),
        pytest.param("trig:[t=0.1,l=1,t=0.2,l=2]", "trig field 't' given twice",
                     id="trig-repeated-t"),
        pytest.param("trig:t=0.1,l=1,m=2", "unknown trig field 'm'",
                     id="trig-unknown-key"),
        pytest.param("poly:0,,0.25", "empty coefficient in '0,,0.25'",
                     id="poly-empty-entry"),
        pytest.param("block:3,,9", "empty block start in '3,,9'",
                     id="block-empty-entry"),
    ])
    def test_spec_errors_name_their_cause(self, spec, message):
        # the block lists used to print only "bad block spec: '...'", the
        # long fields Python's int-conversion limit text, a repeated or
        # unknown key ran with its last value or without it, and an empty
        # poly: entry was dropped
        code, out, err = run_cli(["gen", "--gen", spec, "--range", "0:3"])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_genpoly_frac_stays_below_one(self):
        # -1e-20 - floor(-1e-20) rounds to exactly 1.0, outside [0, 1)
        code, out, _ = run_cli(["gen", "--gen",
                                "genpoly:frac(-0.00000000000000000001)",
                                "--range", "0:2"])
        assert code == 0
        assert out == "n,re,im\n0,0.0,0.0\n1,0.0,0.0\n"

    def test_genpoly_exp_keeps_its_bits(self):
        # the e(...) form still exponentiates the unfolded 1.0
        code, out, _ = run_cli(["gen", "--gen",
                                "genpoly:e(-0.00000000000000000001)",
                                "--range", "0:1"])
        z = complex(np.exp(2j * np.pi * 1.0))
        assert code == 0
        assert out == f"n,re,im\n0,{z.real!r},{z.imag!r}\n"

    def test_largest_block_start_still_runs(self):
        code, _, _ = run_cli(["norm", "--gen", f"block:3,{2 ** 63 - 1}",
                              "--N", "64", "--H", "4"])
        assert code == 0

    @given(template=st.sampled_from(FUZZ_TEMPLATES),
           value=st.one_of(
               st.lists(st.sampled_from(FUZZ_VALUES), min_size=1,
                        max_size=3).map(",".join),
               st.integers(-3, 3).map(str)))
    @settings(max_examples=60, deadline=None)
    def test_numeric_fields(self, template, value):
        # argparse reports a malformed flag value by raising SystemExit(2)
        argv = [tok.replace("{}", value) for tok in template.split()]
        try:
            code, out, _ = run_cli(argv)
        except SystemExit as exc:
            code, out = exc.code, ""
        assert code in (0, 2, 3, 4)
        assert "nan" not in out.lower() and "inf" not in out.lower()

    def test_overflowing_trig_weight_stays_quiet(self):
        # a finite weight whose fourth power overflows: no numpy warning
        # (an error here), no output
        code, out, _ = run_cli(["dual", "--trig", "t=0.1,l=1e300"])
        assert code == 3
        assert out == ""


class TestReproducibility:
    def test_identical_invocations_identical_bytes(self):
        argv = ["norm", "--gen", "rad:5", "--k", "2", "--mode", "cyclic",
                "--N", "1024", "--H", "32"]
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv)
        assert out1.encode() == out2.encode()

    @pytest.mark.parametrize("base", [
        pytest.param(["verify", "csg", "--trials", "30", "--seed", "3"],
                     id="csg"),
        pytest.param(["verify", "subadd", "--trials", "30", "--seed", "1",
                      "--N", "64", "--H", "8"], id="subadd"),
        pytest.param(["verify", "direct", "--trials", "30", "--seed", "3",
                      "--N", "256"], id="direct"),
    ])
    def test_thread_count_does_not_change_output(self, base):
        _, out1, _ = run_cli(base + ["--threads", "1"])
        for threads in ("2", "4"):
            _, out, _ = run_cli(base + ["--threads", threads])
            assert out.encode() == out1.encode()

    def test_readme_examples_run(self):
        # every documented command line parses and exits 0; `bench` is left
        # to acceptance criterion 14, which runs the same comparison
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```")[1]
        lines = [shlex.split(line, comments=True)
                 for line in block.splitlines() if line.startswith("unif-lab ")]
        assert lines
        for argv in lines:
            if argv[1] != "bench":
                code, _, err = run_cli(argv[1:])
                assert code == 0, (argv, err)

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "unif_lab.cli", "gen", "--gen", "exp:0.5",
             "--range", "0:4"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "n,re,im"
