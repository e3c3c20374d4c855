"""The package's modules form one import chain, with no cycle to break,
and the package namespace exports a fixed list of names."""

import ast
import types
from pathlib import Path

import pytest

import unif_lab

# each module imports only modules to its left, and only at module top
CHAIN = ("errors", "seq_core", "nilmanifold", "generators", "uniformity",
         "duality", "ergodic_weights", "csvtext", "cli")
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "unif_lab"


def _package_imports(tree):
    """(line, imported module) for every `from .m import` and
    `from . import m` in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                yield from ((node.lineno, alias.name) for alias in node.names)
            else:
                yield node.lineno, node.module.split(".")[0]


def test_every_module_sits_on_the_chain():
    assert {p.stem for p in PACKAGE.glob("*.py")} == {*CHAIN, "__init__"}


@pytest.mark.parametrize("name", (*CHAIN, "__init__"))
def test_imports_run_down_the_chain(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = [sub.lineno for sub in ast.walk(node)
                     if isinstance(sub, (ast.Import, ast.ImportFrom))]
            assert not inner, f"{name}.{node.name} imports at lines {inner}"
    # the package namespace may import every module of the chain
    rank = CHAIN.index(name) if name in CHAIN else len(CHAIN)
    for line, module in _package_imports(tree):
        assert module in CHAIN[:rank], (
            f"{name}.py:{line} imports {module}, which is not earlier in "
            f"the chain {' -> '.join(CHAIN)}")


# the public API: a name added to or dropped from unif_lab/__init__.py
# changes this list, and the change is recorded with it
EXPORTS = [
    "AvgReport", "BlockSpec", "BoxParams", "CauchyReport", "ComplexSeq",
    "CsgReport", "DirectBoundReport", "DomainMode", "DuplicateFrequencyError",
    "DynSystem", "FrequencyGridMismatch", "GeneratorSpecError", "HeisElem",
    "HeisPoint", "IDENTITY_POINT", "INTERVAL", "IncompatibleRangeError",
    "IntervalSpec", "NegativityViolation", "NormReport", "SequenceRangeError",
    "SpectrumReport", "SuiteReport", "SupBoundViolation", "TrigPoly",
    "UnifLabError", "VdcReport", "add", "block_counterexample_seq",
    "box_correlation", "box_norm", "box_powered_signed", "cauchy_scan",
    "conjugate", "constant_seq", "csg_check", "cube_orbit", "cyclic",
    "dft_coefficients", "direct_bound_check", "dual_function",
    "dual_norm_k2", "dual_pairing", "exp_seq", "from_samples", "genpoly_seq",
    "heis_inv", "heis_mul", "heis_pow", "heis_reduce", "heis_system",
    "hk_norm_k2", "interval_average", "inverse_search", "named_observable",
    "nilsequence", "parse_generator", "poly_phase_seq", "product",
    "quad_phase_seq", "rademacher_seq", "rotation", "scale", "shift", "skew",
    "spectrum_probe", "sup_window_average", "thue_morse_seq", "trig_poly_seq",
    "u1_norm", "uniformity_norm_proxy", "vdc_bound",
    "weighted_multiple_average", "wiener_wintner_scan", "wrap_cyclic",
]


def test_package_exports():
    # submodules show up as attributes once imported; they are not exports
    names = sorted(name for name, obj in vars(unif_lab).items()
                   if not name.startswith("_")
                   and not isinstance(obj, types.ModuleType))
    assert names == EXPORTS
