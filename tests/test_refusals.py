"""Every refusal that the rest of the suite never reaches: the CLI's usage
errors (exit 2, one `error:` line, nothing on stdout) and the library's
argument checks, each with its message."""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

import unif_lab as ul
from unif_lab import cli, ergodic_weights, generators
from unif_lab.errors import GeneratorSpecError, NegativityViolation

CLI_REFUSALS = [
    ("gen --gen exp:0.1 --range 5", "bad range '5', expected lo:hi"),
    ("gen --gen exp:0.1 --range 5:5", "empty range '5:5'"),
    ("search --gen exp:0.1 --N 16 --dict quad --grid 1:2",
     "bad grid '1:2', expected lo:hi:steps"),
    ("search --gen exp:0.1 --N 16 --dict quad --grid -1e308:1e308:3",
     "--grid values must be finite, got '-1e308:1e308:3'"),
    ("norm --gen rad:1", "cyclic mode needs --N"),
    ("norm --gen rad:1 --mode interval --len 16", "interval mode needs --H"),
    ("dual", "dual needs --trig or (--gen and --N)"),
    ("weighted --w rad:1 --system foo:1 --obs ez --N 16",
     "unknown system 'foo:1'"),
    ("weighted --w rad:1 --system rot:0.1 --obs ex",
     "weighted needs --N or --grid"),
    ("weighted --w rad:1 --system rot:0.1 --obs ey --N 16",
     "rotation has no observable 'ey'"),
    ("weighted --w rad:1 --system skew:0.1 --obs ez --N 16",
     "skew has no observable 'ez'"),
    ("heis --tau 0.1,2,0 --range 0:8 --check-closed-form",
     "--check-closed-form needs tau=(alpha,1,0), identity x0, f=ez"),
    ("gen --gen heis:x0=(0,0,0) --range 0:4", "heis spec needs tau=(a,b,c)"),
    # x0's canonical z takes x*floor(y), here past float range
    ("heis --tau 0.1,1,0 --x0 2,1e308,0 --range 0:4",
     "cannot reduce HeisElem(x=2.0, y=1e+308, z=0.0): z + x*q = -inf "
     "overflows"),
    ("gen --gen trig:t=0.1,l=abc --range 0:4", "bad coefficient 'abc'"),
    ("dual --trig t=0.1,l=0.5 --csv", "dual --trig prints JSON, not CSV"),
    ("heis --tau 0.1,1,0 --range 0:4 --json", "heis prints CSV, not JSON"),
    ("heis --tau 0.1,1,0 --range 0:4 --check-closed-form --csv",
     "heis --check-closed-form prints JSON, not CSV"),
]


@pytest.mark.parametrize("argv, message", CLI_REFUSALS,
                         ids=[a for a, _ in CLI_REFUSALS])
def test_cli_refusal(argv, message):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.dispatch(argv.split())
    assert (code, out.getvalue(), err.getvalue()) == (
        cli.USAGE_EXIT, "", f"error: {message}\n")


# a format flag where the subcommand prints the other format, or both
# flags at once: argparse's own usage error
NOT_REGISTERED = "unrecognized arguments: {}"
BOTH = "argument --csv: not allowed with argument --json"
FORMAT_REFUSALS = [
    ("norm --gen rad:1 --k 2 --N 64 --H 8 --csv", NOT_REGISTERED),
    ("unorm --gen rad:1 --range 0:64 --window 16 --stride 16 --csv",
     NOT_REGISTERED),
    ("search --gen rad:1 --N 16 --csv", NOT_REGISTERED),
    ("weighted --w rad:1 --system rot:0.1 --obs ex --N 16 --csv",
     NOT_REGISTERED),
    ("verify vdc --trials 1 --csv", NOT_REGISTERED),
    ("bench --N 64 --H 4 --csv", NOT_REGISTERED),
    ("dualfn --gen rad:1 --N 16 --H 4 --json", NOT_REGISTERED),
    ("ww --gen rad:1 --N 4 --json", NOT_REGISTERED),
    ("gen --gen rad:1 --range 0:4 --json --csv", BOTH),
    ("dual --gen rad:1 --N 16 --json --csv", BOTH),
]


@pytest.mark.parametrize("argv, message", FORMAT_REFUSALS,
                         ids=[a for a, _ in FORMAT_REFUSALS])
def test_cli_format_refusal(argv, message):
    """Exit 2 before anything runs, argparse's error as the last stderr
    line, nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with (redirect_stdout(out), redirect_stderr(err),
          pytest.raises(SystemExit) as exc):
        cli.dispatch(argv.split())
    assert (exc.value.code, out.getvalue()) == (cli.USAGE_EXIT, "")
    flag = argv.split()[-1]
    assert err.getvalue().splitlines()[-1].endswith(
        "error: " + message.format(flag))


# flags no parser registers: exit 2 before anything runs, nothing on stdout,
# and argparse's error, naming the parser that refused, as the last stderr
# line.  verify seeds from --seed alone, and bench compares the k = 2 paths;
# a flag before the subcommand's name is the top-level parser's
UNREGISTERED = [
    ("verify vdc --trials 1 --gen rad:7",
     "unif-lab verify: error: unrecognized arguments: --gen rad:7"),
    ("bench --N 64 --H 4 --k 2",
     "unif-lab bench: error: unrecognized arguments: --k 2"),
    ("--bogus norm --gen rad:1 --N 64 --H 8",
     "unif-lab: error: unrecognized arguments: --bogus"),
    ("norm --gen rad:1 --N 64 --H 8 --bogus",
     "unif-lab norm: error: unrecognized arguments: --bogus"),
    ("--bogus norm --gen rad:1 --N 64 --H 8 --other",
     "unif-lab: error: unrecognized arguments: --bogus"),
]


@pytest.mark.parametrize("argv, last_line", UNREGISTERED,
                         ids=[a for a, _ in UNREGISTERED])
def test_cli_unregistered_flag(argv, last_line):
    out, err = io.StringIO(), io.StringIO()
    with (redirect_stdout(out), redirect_stderr(err),
          pytest.raises(SystemExit) as exc):
        cli.dispatch(argv.split())
    assert (exc.value.code, out.getvalue()) == (cli.USAGE_EXIT, "")
    assert err.getvalue().splitlines()[-1] == last_line


# a minimal valid command line of every subcommand but verify, the one
# that takes --threads
THREAD_REFUSALS = [
    "norm --gen rad:1 --N 64 --H 8",
    "unorm --gen rad:1 --range 0:64 --window 16 --stride 16",
    "gen --gen rad:1 --range 0:4",
    "dual --gen rad:1 --N 16",
    "dualfn --gen rad:1 --N 16 --H 4",
    "search --gen rad:1 --N 16",
    "weighted --w rad:1 --system rot:0.1 --obs ex --N 16",
    "ww --gen rad:1 --N 16",
    "heis --tau 0.1,1,0 --range 0:4",
    "bench --N 64 --H 4",
]


@pytest.mark.parametrize("argv", THREAD_REFUSALS,
                         ids=[a.split()[0] for a in THREAD_REFUSALS])
def test_cli_threads_refusal(argv):
    """The command line runs; with --threads it exits 2 before anything
    runs, nothing on stdout, and the last stderr line is the error of the
    subcommand's own parser, which names it."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.dispatch(argv.split()) == 0
    out, err = io.StringIO(), io.StringIO()
    with (redirect_stdout(out), redirect_stderr(err),
          pytest.raises(SystemExit) as exc):
        cli.dispatch(argv.split() + ["--threads", "2"])
    assert (exc.value.code, out.getvalue()) == (cli.USAGE_EXIT, "")
    assert err.getvalue().splitlines()[-1] == (
        f"unif-lab {argv.split()[0]}: error: unrecognized arguments: "
        "--threads 2")


def _interval(n=8):
    return ul.IntervalSpec(0, n)


LIBRARY_REFUSALS = [
    ("BoxParams k < 1", lambda: ul.BoxParams(0, 4, _interval()),
     ValueError, "k must be >= 1"),
    ("BoxParams H < 1", lambda: ul.BoxParams(1, 0, _interval()),
     ValueError, "H must be >= 1"),
    ("BoxParams H > N",
     lambda: ul.BoxParams(1, 9, _interval(), ul.cyclic(8)),
     ValueError, "cyclic mode needs H <= N"),
    ("IntervalSpec", lambda: ul.IntervalSpec(0, 0),
     ValueError, "interval length must be >= 1, got 0"),
    ("DomainMode kind", lambda: ul.DomainMode("torus"),
     ValueError, "unknown domain mode 'torus'"),
    ("DomainMode modulus", lambda: ul.DomainMode("cyclic", 0),
     ValueError, "cyclic mode needs a modulus N >= 1"),
    ("sup_window_average",
     lambda: ul.sup_window_average(ul.constant_seq(1.0), _interval(), 0),
     ValueError, "window length must be >= 1"),
    ("box_correlation",
     lambda: ul.box_correlation(ul.constant_seq(1.0), (1,),
                                ul.BoxParams(2, 4, _interval())),
     ValueError, "h must have 2 entries"),
    ("u1_norm",
     lambda: ul.u1_norm(ul.exp_seq(0.3), ul.IntervalSpec(0, 3000), 3),
     NegativityViolation,
     re.compile(r"k=1 average -0\.0393\d* is not finite or is below the "
                r"noise floor -1e-09\*M, M = max\|a\|\^2 = "
                r"(1\.0|0\.9999999999999)\d*\^2")),
    ("proxy per_window",
     lambda: ul.uniformity_norm_proxy(ul.constant_seq(1.0), _interval(64),
                                      16, 16, 2, 4, per_window="torus"),
     ValueError, "per_window must be 'cyclic' or 'interval'"),
    ("proxy stride",
     lambda: ul.uniformity_norm_proxy(ul.constant_seq(1.0), _interval(64),
                                      16, 0, 2, 4),
     ValueError, "stride must be >= 1"),
    ("proxy window",
     lambda: ul.uniformity_norm_proxy(ul.constant_seq(1.0), _interval(8),
                                      16, 1, 2, 4),
     ValueError, "search range shorter than the window"),
    ("csg_check", lambda: ul.csg_check([ul.constant_seq(1.0)] * 3,
                                       ul.BoxParams(2, 4, _interval())),
     ValueError, "need 4 sequences for k=2"),
    ("HeisPoint", lambda: ul.HeisPoint(0.5, 1.5, 0.0),
     ValueError, "point coordinate 1.5 outside [0,1)"),
    ("heis_reduce overflow",
     lambda: ul.heis_reduce(ul.HeisElem(-3.0, -1e308, 0.5)),
     ValueError,
     "cannot reduce HeisElem(x=-3.0, y=-1e+308, z=0.5): z + x*q = -inf "
     "overflows"),
    ("cube_orbit k < 1",
     lambda: ul.cube_orbit(ul.IDENTITY_POINT, ul.HeisElem(0.1, 1.0, 0.0),
                           (), 0),
     ValueError, "k must be >= 1"),
    ("cube_orbit h",
     lambda: ul.cube_orbit(ul.IDENTITY_POINT, ul.HeisElem(0.1, 1.0, 0.0),
                           (1,), 2),
     ValueError, "h must have 2 entries"),
    ("DynSystem kind", lambda: ergodic_weights.DynSystem("torus"),
     ValueError, "unknown system kind 'torus'"),
    ("DynSystem tau", lambda: ergodic_weights.DynSystem("heis"),
     ValueError, "heis system needs tau"),
    ("named_observable rotation",
     lambda: ergodic_weights.named_observable(ergodic_weights.rotation(0.1),
                                              "ey"),
     GeneratorSpecError, "rotation has no observable 'ey'"),
    ("named_observable skew",
     lambda: ergodic_weights.named_observable(ergodic_weights.skew(0.1),
                                              "ez"),
     GeneratorSpecError, "skew has no observable 'ez'"),
    ("poly_phase_seq", lambda: ul.poly_phase_seq([]),
     ValueError, "need at least one coefficient"),
    ("genpoly_seq form",
     lambda: generators.genpoly_seq(generators.parse_genpoly_expr("n"),
                                    "pm"),
     ValueError, "form must be 'frac' or 'exp'"),
    ("thue_morse_seq form", lambda: ul.thue_morse_seq("frac"),
     ValueError, "form must be '01' or 'pm'"),
    ("inverse_search dictionary",
     lambda: ul.inverse_search(ul.constant_seq(1.0), 8, kind="walsh"),
     ValueError, "unknown dictionary 'walsh'"),
    ("inverse_search grid",
     lambda: ul.inverse_search(ul.constant_seq(1.0), 8, kind="quad"),
     ValueError, "quad dictionary needs a grid of coefficients"),
]


@pytest.mark.parametrize("call, error, message",
                         [c[1:] for c in LIBRARY_REFUSALS],
                         ids=[c[0] for c in LIBRARY_REFUSALS])
def test_library_refusal(call, error, message):
    """message is the whole text: a string, or a pattern where it holds a
    computed number."""
    pattern = (message.pattern if isinstance(message, re.Pattern)
               else re.escape(message))
    with pytest.raises(error, match=f"^{pattern}$"):
        call()
