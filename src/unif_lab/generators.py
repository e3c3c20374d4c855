"""Generators for every sequence family the package studies.

Families: complex exponentials e(nt), trigonometric polynomials, polynomial
phases e(p(n)), generalized (bracket) polynomials built from +, *, and the
integer part, the Thue-Morse sequence, reproducible random signs, and the
piecewise-exponential block sequence whose per-block behavior separates the
local norms from any global correlation bound.  The spec-string grammar at
the end reads all of them, Heisenberg nilsequences (heis:) included.

Throughout, e(t) = exp(2*pi*i*t), computed by seq_core._e.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import DuplicateFrequencyError, GeneratorSpecError
from .nilmanifold import (IDENTITY_POINT, HeisElem, HeisPoint, PointFunction,
                          character_ex, character_ey, character_ez,
                          heis_reduce, nilsequence)
from .seq_core import (ComplexSeq, IntervalSpec, _e, _exact_term_frac,
                       _frac)


# ---------------------------------------------------------------------------
# Exponentials and trigonometric polynomials
# ---------------------------------------------------------------------------

def exp_seq(t: float) -> ComplexSeq:
    """a_n = e(n*t).  Unbounded range, |a_n| = 1."""
    t = float(t) % 1.0

    def _eval(ns: np.ndarray) -> np.ndarray:
        return _e(_frac(ns.astype(np.float64) * t))

    return ComplexSeq(_eval, None)


@dataclass(frozen=True)
class TrigPoly:
    """Finite list of (frequency in [0,1), complex coefficient) pairs."""

    terms: Tuple[Tuple[float, complex], ...]

    def __post_init__(self) -> None:
        reduced = tuple((float(t) % 1.0, complex(c)) for t, c in self.terms)
        freqs = [t for t, _ in reduced]
        if len(set(freqs)) != len(freqs):
            raise DuplicateFrequencyError(
                "trigonometric polynomial has repeated frequencies")
        object.__setattr__(self, "terms", reduced)

    @property
    def freqs(self) -> np.ndarray:
        return np.array([t for t, _ in self.terms], dtype=np.float64)

    @property
    def coefs(self) -> np.ndarray:
        return np.array([c for _, c in self.terms], dtype=np.complex128)


def trig_poly_seq(p: TrigPoly) -> ComplexSeq:
    """a_n = sum_m lambda_m e(n t_m)."""
    freqs = p.freqs
    coefs = p.coefs

    def _eval(ns: np.ndarray) -> np.ndarray:
        nf = ns.astype(np.float64)
        out = np.zeros(ns.shape, dtype=np.complex128)
        for t, c in zip(freqs, coefs):  # term count is small in practice
            out += c * _e(_frac(nf * t))
        return out

    return ComplexSeq(_eval, None)


def poly_phase_seq(coeffs: Sequence[float]) -> ComplexSeq:
    """a_n = e(p(n)) with p(n) = sum_j c_j n^j, each term reduced mod 1
    exactly before summation."""
    cs = [float(c) for c in coeffs]
    if not cs:
        raise ValueError("need at least one coefficient")

    def _eval(ns: np.ndarray) -> np.ndarray:
        acc = np.zeros(ns.shape, dtype=np.float64)
        for j, c in enumerate(cs):
            if c != 0.0:
                acc += _exact_term_frac(c, ns, j)
        acc = _frac(acc)  # rebinding frees the sum before _e allocates
        return _e(acc)

    return ComplexSeq(_eval, None)


def quad_phase_seq(alpha: float) -> ComplexSeq:
    """a_n = e(alpha n^2), the prototypical 2-uniform sequence."""
    return poly_phase_seq([0.0, 0.0, float(alpha)])


# ---------------------------------------------------------------------------
# Generalized (bracket) polynomials
# ---------------------------------------------------------------------------

class GenPolyAst:
    """Expression tree over {Const, Var, Add, Mul, Floor}."""

    def eval(self, ns: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(GenPolyAst):
    value: float

    def eval(self, ns: np.ndarray) -> np.ndarray:
        return np.full(ns.shape, self.value, dtype=np.float64)


@dataclass(frozen=True)
class Var(GenPolyAst):
    def eval(self, ns: np.ndarray) -> np.ndarray:
        return ns.astype(np.float64)


@dataclass(frozen=True)
class Add(GenPolyAst):
    left: GenPolyAst
    right: GenPolyAst

    def eval(self, ns: np.ndarray) -> np.ndarray:
        return self.left.eval(ns) + self.right.eval(ns)


@dataclass(frozen=True)
class Mul(GenPolyAst):
    left: GenPolyAst
    right: GenPolyAst

    def eval(self, ns: np.ndarray) -> np.ndarray:
        return self.left.eval(ns) * self.right.eval(ns)


@dataclass(frozen=True)
class Floor(GenPolyAst):
    child: GenPolyAst

    def eval(self, ns: np.ndarray) -> np.ndarray:
        # Raw double floor, no snapping near integers: a constant tuned to
        # land on a boundary will flip with rounding, and hiding that would
        # hide a genuine discontinuity of the bracket polynomial.
        return np.floor(self.child.eval(ns))


def genpoly_seq(ast: GenPolyAst, form: str = "frac") -> ComplexSeq:
    """FracPart: a_n = {p(n)} in [0,1).  ExpPhase: a_n = e(p(n))."""
    if form not in ("frac", "exp"):
        raise ValueError("form must be 'frac' or 'exp'")

    def _eval(ns: np.ndarray) -> np.ndarray:
        # a finite expression can still overflow to inf and give a NaN frac;
        # the callers' finiteness checks reject it, so numpy stays quiet
        with np.errstate(over="ignore", invalid="ignore"):
            frac = _frac(ast.eval(ns))
            if form == "frac":
                # {p(n)} rounds up to exactly 1.0 for a tiny negative p(n);
                # that is 0 mod 1, and [0, 1) is the documented range
                return _frac(frac).astype(np.complex128)
            return _e(frac)

    return ComplexSeq(_eval, None)


# ---------------------------------------------------------------------------
# Thue-Morse
# ---------------------------------------------------------------------------

def thue_morse_seq(form: str = "pm") -> ComplexSeq:
    """Thue-Morse from the base-2 digit sum of |n|.

    form "01":  a_n = 1 if the digit sum is odd else 0.
    form "pm":  a_n = (-1)^(digit sum) = 1 - 2 * (01 form).
    """
    if form not in ("01", "pm"):
        raise ValueError("form must be '01' or 'pm'")

    def _eval(ns: np.ndarray) -> np.ndarray:
        parity = (np.bitwise_count(np.abs(ns)) & 1).astype(np.float64)
        if form == "01":
            return parity.astype(np.complex128)
        return (1.0 - 2.0 * parity).astype(np.complex128)

    return ComplexSeq(_eval, None)


# ---------------------------------------------------------------------------
# Random signs
# ---------------------------------------------------------------------------

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; uint64 in, uint64 out."""
    z = x + _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


_RAD_WINDOW = 1 << 28


def rademacher_seq(seed: int) -> ComplexSeq:
    """Random signs, addressable in O(1) at any index.

    a_n = +/-1 from the top bit of splitmix64(key(seed) + n * gamma), a
    stateless counter-based construction: no sequential state, so any index
    is valid on its own and distinct seeds give independent-looking streams.
    The declared valid range is [-2^28, 2^28).
    """
    key = _splitmix64(np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF)],
                               dtype=np.uint64))[0]

    def _eval(ns: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            u = ns.astype(np.uint64) * _GAMMA + key
            bits = _splitmix64(u) >> np.uint64(63)
        return (1.0 - 2.0 * bits.astype(np.float64)).astype(np.complex128)

    return ComplexSeq(_eval, (-_RAD_WINDOW, _RAD_WINDOW))


# ---------------------------------------------------------------------------
# Block counterexample
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSpec:
    """Block starts N_1 < N_2 < ... defining intervals I_j = [N_j, N_{j+1})."""

    starts: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.starts) < 2:
            raise ValueError("need at least two block starts")
        if any(b <= a for a, b in zip(self.starts, self.starts[1:])):
            raise ValueError("block starts must be strictly increasing")
        if self.starts[0] < 1:
            raise ValueError("first block start must be >= 1")
        if self.starts[-1] >= 1 << 63:  # indices are int64
            raise ValueError("block starts must be below 2^63")

    @staticmethod
    def geometric(ratio: int, block_count: int) -> "BlockSpec":
        if ratio < 2:
            raise ValueError("geometric growth needs ratio >= 2")
        if block_count > 63:  # ratio^63 >= 2^63: refuse before building it
            raise ValueError("block starts must be below 2^63")
        return BlockSpec(tuple(ratio ** j for j in range(1, block_count + 1)))

    def intervals(self) -> Tuple[IntervalSpec, ...]:
        return tuple(IntervalSpec(a, b - a)
                     for a, b in zip(self.starts, self.starts[1:]))


def block_counterexample_seq(spec: BlockSpec) -> Tuple[ComplexSeq,
                                                       Tuple[IntervalSpec, ...]]:
    """a_n = e(n/j) on the j-th block, blocks selected by |n|.

    Indices with |n| below the first listed start belong to block 1 (where
    a_n = e(n) = 1), so the sequence is total on (-N_last, N_last).  Also
    returns the block intervals for use as an interval scheme.
    """
    starts = np.array(spec.starts, dtype=np.int64)
    last = int(starts[-1])

    def _eval(ns: np.ndarray) -> np.ndarray:
        mag = np.abs(ns)
        j = np.searchsorted(starts, mag, side="right")
        j = np.maximum(j, 1)  # [0, N_1) is part of block 1
        return _e(_frac(ns.astype(np.float64) / j.astype(np.float64)))

    return ComplexSeq(_eval, (-(last - 1), last)), spec.intervals()


# ---------------------------------------------------------------------------
# Spec-string micro-grammar
# ---------------------------------------------------------------------------
#
#   exp:T            quad:ALPHA          poly:c0,c1,...      tm:pm | tm:01
#   rad:SEED         block:geoRxC        block:s1,s2,...
#   trig:[t=F,l=C;...]                   genpoly:"frac(EXPR)" | genpoly:"e(EXPR)"
#   heis:tau=(a,b,c);x0=(x,y,z);f=NAME
#
# EXPR uses +, -, *, floor(...), parentheses, numbers, `n`, and the named
# constants sqrt2, sqrt3, sqrt5, phi, pi.

_NAMED_CONSTANTS = {
    "sqrt2": math.sqrt(2.0),
    "sqrt3": math.sqrt(3.0),
    "sqrt5": math.sqrt(5.0),
    "phi": (1.0 + math.sqrt(5.0)) / 2.0,
    "pi": math.pi,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?|\.\d+)|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*()]))")


# The parser and the tree it builds recurse once per nesting level and per
# chained operator; this cap keeps both far inside Python's recursion limit.
_MAX_TOKENS = 256


def _tokenize_expr(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise GeneratorSpecError(f"bad expression near {text[pos:]!r}")
        tokens.append(m)
        if len(tokens) > _MAX_TOKENS:
            raise GeneratorSpecError(
                f"expression longer than {_MAX_TOKENS} tokens")
        pos = m.end()
    return tokens


def parse_genpoly_expr(text: str) -> GenPolyAst:
    """Recursive-descent parser for the bracket-polynomial expression grammar."""
    tokens = _tokenize_expr(text)
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else None

    def take():
        nonlocal idx
        tok = peek()
        if tok is None:
            raise GeneratorSpecError("unexpected end of expression")
        idx += 1
        return tok

    def parse_factor() -> GenPolyAst:
        tok = take()
        if tok.group("num"):
            return Const(_parse_number(tok.group("num"), "numeral"))
        if tok.group("op") == "-":
            return Mul(Const(-1.0), parse_factor())
        if tok.group("op") == "(":
            node = parse_sum()
            closing = take()
            if closing.group("op") != ")":
                raise GeneratorSpecError("missing ')'")
            return node
        name = tok.group("name")
        if name == "n":
            return Var()
        if name == "floor":
            opener = take()
            if opener.group("op") != "(":
                raise GeneratorSpecError("floor needs '('")
            node = parse_sum()
            closing = take()
            if closing.group("op") != ")":
                raise GeneratorSpecError("missing ')' after floor")
            return Floor(node)
        if name in _NAMED_CONSTANTS:
            return Const(_NAMED_CONSTANTS[name])
        raise GeneratorSpecError(f"unknown symbol {name!r}")

    def parse_term() -> GenPolyAst:
        node = parse_factor()
        while (tok := peek()) is not None and tok.group("op") == "*":
            take()
            node = Mul(node, parse_factor())
        return node

    def parse_sum() -> GenPolyAst:
        node = parse_term()
        while (tok := peek()) is not None and tok.group("op") in ("+", "-"):
            op = take().group("op")
            rhs = parse_term()
            node = Add(node, rhs if op == "+" else Mul(Const(-1.0), rhs))
        return node

    node = parse_sum()
    if idx != len(tokens):
        raise GeneratorSpecError(f"trailing input in expression {text!r}")
    return node


def _parse_number(text: str, what: str) -> float:
    """A finite float or a named constant; anything else is a spec error."""
    if text.strip() in _NAMED_CONSTANTS:
        return _NAMED_CONSTANTS[text.strip()]
    try:
        val = float(text)
    except ValueError:
        raise GeneratorSpecError(f"bad {what}: {text!r}") from None
    if not math.isfinite(val):
        raise GeneratorSpecError(f"{what} must be finite: {text!r}")
    return val


def _parse_int(text: str, what: str) -> int:
    """A decimal integer; anything else is a spec error naming `what`.

    Python refuses to convert more than sys.get_int_max_str_digits() digits
    (4300 by default) and says so in terms of an interpreter setting; here
    a field of only digits past that limit is reported as too long.
    """
    try:
        return int(text)
    except ValueError:
        pass
    body = text.strip()
    digits = (body[1:] if body[:1] in "+-" else body).replace("_", "")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(digits) > limit and digits.isdecimal():
        raise GeneratorSpecError(f"{what} has more than {limit} digits")
    raise GeneratorSpecError(f"bad {what}: {text!r}")


def _parse_list(text: str, what: str, read=_parse_number,
                count: Optional[int] = None) -> list:
    """Comma-separated entries (parentheses optional), each read by
    `read(entry, what)`: _parse_number, _parse_int or a name reader.  An
    empty entry, or a count other than a given `count`, is a spec error."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    entries = [entry.strip() for entry in body.split(",")]
    if not all(entries):
        raise GeneratorSpecError(f"empty {what} in {text!r}")
    if count is not None and len(entries) != count:
        raise GeneratorSpecError(
            f"{what} needs {count} comma-separated values, got {text!r}")
    return [read(entry, what) for entry in entries]


def _parse_fields(text: str, sep: str, what: str,
                  keys: Sequence[str]) -> Dict[str, str]:
    """'key=value' pieces split on `sep`, empty pieces skipped; a piece
    without '=', a key not in `keys` or a repeated key is a spec error
    naming `what`."""
    fields: Dict[str, str] = {}
    for piece in text.split(sep):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise GeneratorSpecError(f"bad {what} field {piece!r}")
        key, val = (part.strip() for part in piece.split("=", 1))
        if key not in keys:
            raise GeneratorSpecError(f"unknown {what} field {key!r}")
        if key in fields:
            raise GeneratorSpecError(f"{what} field {key!r} given twice")
        fields[key] = val
    return fields


def parse_generator(spec: str) -> ComplexSeq:
    """Parse a generator spec string into a sequence."""
    if ":" not in spec:
        raise GeneratorSpecError(f"generator spec needs a 'kind:' prefix: {spec!r}")
    kind, arg = spec.split(":", 1)
    kind = kind.strip().lower()

    if kind == "exp":
        return exp_seq(_parse_number(arg, "frequency"))
    if kind == "quad":
        return quad_phase_seq(_parse_number(arg, "quadratic coefficient"))
    if kind == "poly":
        return poly_phase_seq(_parse_list(arg, "coefficient"))
    if kind == "tm":
        return thue_morse_seq(arg.strip() or "pm")
    if kind == "rad":
        return rademacher_seq(_parse_int(arg, "seed"))
    if kind == "block":
        m = re.fullmatch(r"geo(\d+)x(\d+)", arg.strip())
        if m:
            bspec = BlockSpec.geometric(_parse_int(m.group(1), "block ratio"),
                                        _parse_int(m.group(2), "block count"))
        else:
            try:
                bspec = BlockSpec(tuple(_parse_list(arg, "block start",
                                                    _parse_int)))
            except ValueError as exc:
                raise GeneratorSpecError(
                    f"bad block spec {arg!r}: {exc}") from None
        return block_counterexample_seq(bspec)[0]
    if kind == "trig":
        return trig_poly_seq(parse_trig_terms(arg))
    if kind == "genpoly":
        text = arg.strip().strip('"').strip("'")
        m = re.fullmatch(r"(frac|e)\((.*)\)", text, flags=re.DOTALL)
        if not m:
            raise GeneratorSpecError(
                "genpoly spec must be frac(EXPR) or e(EXPR)")
        form = "frac" if m.group(1) == "frac" else "exp"
        return genpoly_seq(parse_genpoly_expr(m.group(2)), form)
    if kind == "heis":
        return parse_heis_spec(arg)
    raise GeneratorSpecError(f"unknown generator kind {kind!r}")


def parse_trig_terms(arg: str) -> TrigPoly:
    """Parse 't=F,l=C;t=F,l=C' (surrounding brackets optional, C complex)."""
    body = arg.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    terms = []
    for piece in body.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        fields = _parse_fields(piece, ",", "trig", ("t", "l"))
        if "t" not in fields or "l" not in fields:
            raise GeneratorSpecError(f"trig term needs t= and l=: {piece!r}")
        try:
            coef = complex(fields["l"])
        except ValueError:
            raise GeneratorSpecError(f"bad coefficient {fields['l']!r}") from None
        if not cmath.isfinite(coef):
            raise GeneratorSpecError(
                f"coefficient must be finite: {fields['l']!r}")
        terms.append((_parse_number(fields["t"], "frequency"), coef))
    if not terms:
        raise GeneratorSpecError("empty trig polynomial")
    return TrigPoly(tuple(terms))


# ---------------------------------------------------------------------------
# heis:tau=(a,b,c);x0=(x,y,z);f=NAME
# ---------------------------------------------------------------------------

def named_character(name: str) -> PointFunction:
    """Registry used by the CLI: ez, ex, ey, ejz with e.g. 'e3z'."""
    if name == "ez":
        return character_ez(1)
    if name == "ex":
        return character_ex
    if name == "ey":
        return character_ey
    if name.startswith("e") and name.endswith("z") and name[1:-1].isdigit():
        return character_ez(_parse_int(name[1:-1],
                                       "nilmanifold character index"))
    raise GeneratorSpecError(f"unknown nilmanifold character {name!r}")


def _parse_point(text: str, what: str) -> HeisPoint:
    """x,y,z (parentheses optional): the canonical representative of the
    coset of HeisElem(x, y, z), by heis_reduce.  A step of 1 in y moves z
    by x, so 0.5,1.5,0 is the point 0.5,0.5,0.5; -1e-20,0,0 is 0,0,0.
    ValueError where that step takes z past float range."""
    return heis_reduce(HeisElem(*_parse_list(text, what, count=3)))[0]


def parse_heis_spec(arg: str) -> ComplexSeq:
    fields = _parse_fields(arg, ";", "heis", ("tau", "x0", "f"))
    if "tau" not in fields:
        raise GeneratorSpecError("heis spec needs tau=(a,b,c)")
    tau = HeisElem(*_parse_list(fields["tau"], "tau", count=3))
    x0 = _parse_point(fields["x0"], "x0") if "x0" in fields else IDENTITY_POINT
    f = named_character(fields.get("f", "ez"))
    return nilsequence(tau, x0, f)
