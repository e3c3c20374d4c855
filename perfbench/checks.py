"""Output checks: every op's stdout is parsed, checked and summarised.

An op fails when it exits non-zero, when its output does not parse or holds
NaN/inf, when a `verify` suite reports anything but `ok: true`, when two
paths of one norm disagree beyond 1e-9, when its stdout changes between
passes or between the traced and the untraced run, and -- at the default
seed -- when its values drift from `reference.json` beyond 1e-9.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional

import numpy as np

TOL = 1e-9
CSV_SAMPLES = 40  # rows kept per CSV op in a summary


class OutputError(ValueError):
    """An op's output is wrong; the message says how."""


def _reject_constant(name: str):
    raise OutputError(f"non-finite JSON constant {name}")


def _check_finite(obj, where: str = "$") -> None:
    if isinstance(obj, float) and not math.isfinite(obj):
        raise OutputError(f"non-finite value at {where}")
    if isinstance(obj, dict):
        for key, val in obj.items():
            _check_finite(val, f"{where}.{key}")
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            _check_finite(val, f"{where}[{i}]")


def parse_json(text: str):
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OutputError(f"unparseable JSON: {exc}") from None
    _check_finite(obj)
    return obj


def parse_csv(text: str, rows: int) -> np.ndarray:
    """All cells of a numeric CSV as a (rows, columns) float array."""
    header, _, body = text.rstrip("\n").partition("\n")
    ncols = len(header.split(","))
    cells = body.replace("\n", ",").split(",") if body else []
    if len(cells) != rows * ncols:
        raise OutputError(f"expected {rows} rows of {ncols} cells, "
                          f"got {len(cells)} cells")
    try:
        vals = np.array(cells, dtype=np.float64).reshape(rows, ncols)
    except ValueError as exc:
        raise OutputError(f"unparseable CSV cell: {exc}") from None
    if not np.all(np.isfinite(vals)):
        raise OutputError("non-finite CSV cell")
    return vals


def summarize(op, text: str) -> Dict:
    """Check one op's stdout and reduce it to what reference.json keeps."""
    if op.kind == "csv":
        vals = parse_csv(text, op.rows)
        stride = max(1, op.rows // CSV_SAMPLES)
        return {"rows": op.rows,
                "sums": [float(v) for v in vals.sum(axis=0)],
                "sample": vals[::stride].tolist()}
    obj = parse_json(text)
    if op.kind == "verify":
        if obj.get("ok") is not True:
            raise OutputError(f"verify suite not ok: {text.strip()}")
        # worst_slack depends on the trial corpus, which a thread-pool fix
        # may legitimately change; only the verdict is a reference value
        return {"ok": True}
    return obj


def _get(obj: Dict, dotted: str):
    for key in dotted.split("."):
        obj = obj[key]
    return obj


def check_pairs(pairs, summaries: Dict[str, Dict]) -> List[str]:
    """Labels of ops whose cross-path values disagree beyond TOL."""
    bad = []
    for a, b, fields in pairs:
        if a not in summaries or b not in summaries:
            continue
        for field in fields:
            va, vb = _get(summaries[a], field), _get(summaries[b], field)
            if abs(va - vb) > TOL:
                bad.append(b)
                break
    return bad


def compare(ref, got, tol: float = TOL, where: str = "$") -> Optional[str]:
    """First difference between a reference summary and a fresh one."""
    if isinstance(ref, dict):
        # fields added to the output later are not a drift
        if not isinstance(got, dict) or not set(ref) <= set(got):
            return f"{where}: reference keys missing"
        # column sums add up `rows` cells, each allowed TOL of drift
        sub_tol = {"sums": tol * max(1, ref.get("rows", 1))}
        for key in ref:
            diff = compare(ref[key], got[key], sub_tol.get(key, tol),
                           f"{where}.{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return f"{where}: lengths differ"
        for i, (r, g) in enumerate(zip(ref, got)):
            diff = compare(r, g, tol, f"{where}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(got, (int, float)) and not isinstance(got, bool) \
                and abs(ref - got) <= tol:
            return None
        return f"{where}: {got!r} differs from reference {ref!r}"
    if ref != got:
        return f"{where}: {got!r} differs from reference {ref!r}"
    return None
