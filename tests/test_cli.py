"""CLI surface: grammar, output shapes, exit codes, reproducibility."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unif_lab as ul
from unif_lab import cli, nilmanifold


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
        assert set(obj["diagnostics"]) == {"h_tail", "mode", "N", "H"}

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
        assert "speedup" in err  # timings stay off stdout

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

    @pytest.mark.parametrize("argv", [
        pytest.param(["weighted", "--w", "rad:1", "--system", "skew:0.1",
                      "--x0", "0.1", "--obs", "ex", "--N", "64"],
                     id="skew-x0-short"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "heis:0.1,1,0",
                      "--x0", "0.1", "--obs", "ez", "--N", "64"],
                     id="heis-x0-short"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "heis:0.1,1",
                      "--obs", "ez", "--N", "64"], id="heis-system-short"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "rot:nan",
                      "--obs", "ex", "--N", "64"], id="rot-nan"),
        pytest.param(["weighted", "--w", "rad:1", "--system", "rot:0.1",
                      "--x0", "0.1,0.2", "--obs", "ex", "--N", "64"],
                     id="rot-x0-long"),
        pytest.param(["heis", "--tau", "0.1,1", "--range", "0:4"],
                     id="heis-tau-short"),
        pytest.param(["heis", "--tau", "0.1,1,0", "--x0", "0.1,x,0",
                      "--range", "0:4"], id="heis-x0-bad"),
    ])
    def test_malformed_tuples_exit_two(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


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
                                  nilmanifold.named_character("ez"),
                                  ul.IntervalSpec(lo, rows))
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


class TestFuzz:
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

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "unif_lab.cli", "gen", "--gen", "exp:0.5",
             "--range", "0:4"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "n,re,im"
