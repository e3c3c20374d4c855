"""CSV text of numeric columns: every cell the bytes of Python's repr.

A float cell gets its shortest round-trip digits from Schubfach (R.
Giulietti, "The Schubfach way to render doubles", 2020), run in uint64 over
a whole block of cells at once: three 126-bit by 64-bit products per cell
against an exact table of powers of ten, each 64x64 -> 128-bit product from
32-bit limbs held in uint64.  The table is built with Python ints on the
first call, not at import.  Java's Double.toString keeps two digits at
least; repr does not, so the one-digit-shorter candidate is tried at every
length.

Layout follows repr: fixed notation for -4 < decpt <= 16 (the decimal point
after decpt digits), else d.ddde+XX; an integral float ends in ".0", and a
zero prints 0.0 or -0.0.  Each cell is a fixed run of 4-byte words, with
NUL bytes wherever its text is shorter than a word's field: the sign, the
digits twice (masked to the int part, then to the fraction), the point and
the exponent.  An int64 cell is its sign and digits in the same words.  A
block of rows is held as word planes, each word of a column's cells one
contiguous run, and its text is the transpose's bytes with the NULs
deleted.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFF_FFFF)
_M63 = _U64(2 ** 63 - 1)
_T_MASK = _U64(2 ** 52 - 1)
_K_MIN, _K_MAX = -324, 292  # the decimal exponents Schubfach needs


def _word(text: bytes) -> int:
    """The native uint32 whose four bytes are `text`, NUL-padded."""
    return int(np.frombuffer(text.ljust(4, b"\0"), np.uint32)[0])


# the second byte's '0' is the int part of 0.0ddd, or the fraction of d.0
_MINUS, _DOT, _ZERO = _word(b"-"), _word(b"."), _word(b"\0" b"0")
_FLOAT_WORDS = 14  # sign, 5 int part, point, 5 fraction, 2 exponent
_INT_WORDS = 6     # sign, 5 digits
_GROUP = 10_000 * np.arange(5)[:, None]  # each digit group's trailing table
_tables = None


def _build_tables():
    """The power-of-ten table g and the digit tables.

    For each k in [K_MIN, K_MAX], 10^-k = beta 2^r with 2^125 <= beta < 2^126
    and g = floor(beta) + 1, kept as the 63-bit halves g1 = g >> 63 and
    g0 = g mod 2^63, each split into 32-bit limbs.
    """
    limbs = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = ((-k) * 913_124_641_741 >> 38) - 125  # floor(log2 10^-k) - 125
        num, den = 10 ** max(-k, 0), 10 ** max(k, 0)
        g = (num << -r if r < 0 else num) // (den << r if r > 0 else den) + 1
        g1, g0 = g >> 63, g & (2 ** 63 - 1)
        limbs.append((g0 & 0xFFFF_FFFF, g0 >> 32, g1 & 0xFFFF_FFFF, g1 >> 32))
    g = np.array(limbs, dtype=np.uint64).T.copy()
    pow10 = np.array([10 ** j for j in range(20)], dtype=np.uint64)
    # digits[w]: the four ASCII digits of w < 10^4, zero-padded (the
    # tables are built in small dtypes: their scratch stays resident)
    w = np.arange(10_000, dtype=np.uint16)
    place = np.array([1000, 100, 10, 1], np.uint16)
    chars = (w[:, None] // place % 10 + 48).astype(np.uint8)
    digits = chars.view(np.uint32).ravel()
    # trailing[10^4 i + w]: the trailing zero digits of a 20-digit field
    # whose last non-zero group is w in place i (w = 0: 20, never least)
    tz = np.zeros(10_000, np.int8)
    for j in range(1, 5):
        tz[w % 10 ** j == 0] = j
    trailing = np.where(w == 0, np.int8(20),
                        np.arange(16, -1, -4, dtype=np.int8)[:, None] + tz)
    trailing = trailing.ravel()
    # masks[:, 21 lo + hi]: the five words of a 20-byte field, byte i kept
    # where lo <= i < hi
    i = np.arange(20)
    lo, hi = np.divmod(np.arange(21 * 21), 21)
    keep = (lo[:, None] <= i) & (i < hi[:, None])
    masks = (keep * np.uint8(0xFF)).view(np.uint32).T.copy()
    # exponent[:, e + 325]: "e+XX" as repr writes exponent e, in two
    # words; index 0 (e = -325, below every double) is a fixed-notation cell
    text = b"".join(f"e{e:+03d}".encode().ljust(8, b"\0")
                    for e in range(-325, 309))
    exponent = np.frombuffer(text, np.uint32).reshape(-1, 2).T.copy()
    exponent[:, 0] = 0
    return g, pow10, digits, trailing, masks, exponent


def _get_tables():
    global _tables
    if _tables is None:
        _tables = _build_tables()
    return _tables


def _rop(a0, a1, b0, b1, cp):
    """Schubfach's rop: floor(g cp / 2^127), its last bit set when that
    quotient is not exact (round to odd); g = (b1 2^32 + b0) 2^63 +
    a1 2^32 + a0."""
    p0, p1 = cp & _M32, cp >> 32
    mid = a1 * p0 + a0 * p1 + ((a0 * p0) >> 32)
    x1 = a1 * p1 + (mid >> 32)  # high word of g0 cp
    lo = b0 * p0
    mid = b1 * p0 + b0 * p1 + (lo >> 32)
    y1 = b1 * p1 + (mid >> 32)  # g1 cp = y1 2^64 + y0
    y0 = (mid << 32) | (lo & _M32)
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | ((z & _M63) != 0)


def _ndigits(v, pow10):
    """Decimal digits of each v >= 1, from the bit length of float(v)."""
    bits = (v.astype(np.float64).view(np.uint64) >> 52).astype(np.int64) - 1022
    t = (bits * 1233) >> 12
    return t + (v >= pow10.take(t, mode="clip"))


def _digit_words(v):
    """The five 4-digit groups of each v < 10^20, most significant first."""
    out = np.empty((5, v.size), np.intp)
    ten4 = _U64(10_000)
    for i in range(4, 0, -1):
        q = v // ten4
        out[i] = v - q * ten4
        v = q
    out[0] = v
    return out


def _shortest(bits):
    """Schubfach on the finite doubles with these bits: (f, e) with f 10^e
    the shortest decimal that reads back as the double, the closest one
    when several are that short, f = 0 for a zero."""
    g, *_ = _get_tables()
    t = bits & _T_MASK
    bq = (bits >> 52) & _U64(0x7FF)
    normal = bq != 0
    # Java's C_TINY: the subnormals 1 and 2 ulp (and zero) are scaled by
    # 10 and their exponent lowered by one (dk = -1)
    tiny = ~normal & (t < 3)
    c = (t | (normal * _U64(2 ** 52))) * (tiny * _U64(9) + _U64(1))
    q = np.maximum(bq, 1).astype(np.int64) - 1075
    irregular = (t == 0) & (bq > 1)  # c = 2^52: the gap below is half
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    a0, a1, b0, b1 = g.take(k - _K_MIN, axis=1, mode="clip")
    cb = c << 2
    vb = _rop(a0, a1, b0, b1, cb << h)
    vbl = _rop(a0, a1, b0, b1, (cb - 2 + irregular) << h)
    vbr = _rop(a0, a1, b0, b1, (cb + 2) << h)
    lower = vbl + (c & 1)  # the rounding interval is closed for even c
    s = vb >> 2
    sp = s // _U64(10) * _U64(10)
    # one digit shorter: at most one of sp, sp + 10 reads back as the
    # double, except for the scaled tiny ones, which take the closer
    upin = lower <= sp << 2
    wpin = (sp << 2) + 40 + (c & 1) <= vbr
    up = wpin & (~upin | (vb > (sp << 2) + 20))
    # full length: s or s + 1, the closer one, the even one on a tie
    uin = lower <= s << 2
    win = (s << 2) + 4 + (c & 1) <= vbr
    mid = (s << 2) + 2
    wp = win & (~uin | (vb > mid) | ((vb == mid) & ((s & 1) == 1)))
    f = np.where(upin | wpin, sp + up * _U64(10), s + wp)
    nonzero = c != 0
    return f * nonzero, (k - tiny) * nonzero


def _float_cells(x, dest):
    """dest[:, i] = word i of repr of each finite x, for the columns of x
    (its rows) in dest's (columns, words, cells) planes."""
    _, pow10, digits, trailing, masks, exponent = _get_tables()
    bits = x.reshape(-1).view(np.uint64)
    f, e = _shortest(bits)
    nd = _ndigits(np.maximum(f, 1), pow10)
    decpt = e + nd  # the value is 0.ddd x 10^decpt
    sci = (decpt < -3) | (decpt > 16)
    before = np.where(sci, 1, decpt)  # digits before the point
    after = np.maximum(nd - before, 0)  # of f's digits, those after it
    # an integral value short of its point: f's digits and zeros
    f = f * pow10.take(np.maximum(before - nd, 0), mode="clip")
    words = _digit_words(f)
    # trailing zeros of the 20-digit field: the least over its groups
    tz = trailing.take(words + _GROUP).min(axis=0)
    text = digits.take(words)
    # the 20-digit field twice: its int part, the bytes before `point`,
    # and its fraction, from `point` to the last non-zero digit
    point = 20 - after
    int_part = masks.take((20 - np.maximum(nd, before)) * 21 + point, axis=1)
    fraction = masks.take(point * 21 + 20 - tz, axis=1)
    frac = tz < after
    _put(dest, 0, (bits >> 63) * _U64(_MINUS)
         + ((decpt <= 0) & ~sci) * _U64(_ZERO))
    _put(dest, 1, text & int_part)
    _put(dest, 6, (frac | ~sci) * _U64(_DOT) + ~(frac | sci) * _U64(_ZERO))
    _put(dest, 7, text & fraction)
    _put(dest, 12, exponent.take((decpt + 324) * sci, axis=1))


def _put(dest, start, val):
    """dest[:, start:] = val: a (words, cells) or (cells,) array of the
    cells of all dest's columns, into its (columns, words, cells) planes."""
    val = val.reshape(-1, dest.shape[0], dest.shape[2])
    dest[:, start:start + len(val)] = val.swapaxes(0, 1)


def _int_cells(x, dest):
    """dest[:, i] = word i of str of each int64 x, as in _float_cells."""
    _, pow10, digits, _, masks, _ = _get_tables()
    x = x.reshape(-1)
    neg = x < 0
    mag = x.view(np.uint64)
    mag = np.where(neg, ~mag + _U64(1), mag)  # |x|, -2^63 included
    lo = 20 - _ndigits(np.maximum(mag, 1), pow10)
    text = digits.take(_digit_words(mag)) & masks.take(lo * 21 + 20, axis=1)
    _put(dest, 0, neg * _U64(_MINUS))
    _put(dest, 1, text)


def rows(columns: Sequence[np.ndarray], block: int) -> Iterator[str]:
    """The CSV rows of equal-length int or float columns, `block` rows per
    string; each cell is repr of its value (str for an int)."""
    kinds = [col.dtype.kind == "f" for col in columns]
    width = [(_FLOAT_WORDS if fl else _INT_WORDS) + 1 for fl in kinds]
    n = len(columns[0])
    # word planes: buf[w, r] is word w of row r, so each word of a column's
    # cells is one contiguous run; the text is the transpose's bytes
    buf = np.zeros((sum(width), min(n, block)), np.uint32)
    ends = np.cumsum(width)
    buf[ends[:-1] - 1] = _word(b",")
    buf[-1] = _word(b"\n")
    # each run of adjacent columns of one kind is formatted in one call
    runs, start = [], 0
    for fl, run in itertools.groupby(range(len(columns)), kinds.__getitem__):
        run = list(run)
        stop = start + len(run) * width[run[0]]
        runs.append((fl, run, start, stop))
        start = stop
    for lo in range(0, n, block):
        m = min(block, n - lo)
        out = buf[:, :m]
        for fl, run, start, stop in runs:
            vals = np.stack([columns[j][lo:lo + m] for j in run])
            cells = out[start:stop].reshape(len(run), -1, m)
            if fl:
                _float_cells(vals.astype(np.float64, copy=False), cells)
            else:
                _int_cells(vals.astype(np.int64, copy=False), cells)
        yield out.T.tobytes().translate(None, b"\0").decode("ascii")
