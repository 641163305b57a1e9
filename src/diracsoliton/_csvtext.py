"""The text of CSV rows: floats as Python's '%.17g', integers as '%d'.

`format_rows` writes a block of rows with the bytes that `%` writes,
without a `%` per value.  For a double v with 1e-40 <= |v| < 1e40 it
finds the decimal exponent X and the 17 significant digits
D = round(|v| 10^(16 - X)), half to even, with numpy: the product
|v| 10^k is a double-double, 10^k being a pair hi + lo of doubles built
from Python integers, and lies within 1e-13 of the exact product (the
bound is at `_scaled`).  So D is exact unless the product lies within
1e-9 of a half-integer.  Such a value, and every value outside that
range (zero, subnormals, inf and nan included), is written by
'%.17g' % v itself: each byte is either proven or written by `%`.

The rows are laid out in a NUL-filled byte array: a 24-byte field per
float (the longest %.17g), 20 per integer (the longest %d of 64 bits),
each followed by ',' or the row's '\\n'.  The values of one exponent X
share their layout, fixed or exponent form as %g chooses, so they are
placed together; trailing zero digits, and a point with no digit after
it, stay NUL.  One bytearray.translate deletes every NUL.
"""

from __future__ import annotations

import numpy as np

_FLOAT_WIDTH, _INT_WIDTH = 24, 20
_TINY, _HUGE = 1e-40, 1e40  # the fast path's range of |v|
_KMIN = -26  # the powers 10^k, k in [-26, 58], cover 16 - X for |X| <= 42
_UNSETTLED = 1e-9  # a product this near a half-integer goes to `%`
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double in two halves
_FALLBACK = 255  # the group key of the values `%` writes, sorted last
_D_START, _D_END = 10_000_000_000_000_000, 100_000_000_000_000_000  # D's range


def _split(t):
    """t = hi + lo exactly, each half with at most 26 significant bits."""
    c = t * _SPLIT
    hi = c - (c - t)
    return hi, t - hi


def _power_table():
    """hi + lo = 10^k to about 2^-106 relative, k from _KMIN: hi the
    double nearest 10^k, lo the double nearest the remainder, both from
    correctly rounded quotients of Python integers."""
    hi, lo = [], []
    for k in range(_KMIN, 59):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den
        m, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * q - m * den) / (den * q))
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


def _digit_table():
    """The four ASCII digits of 0..9999 as one uint32 each: first with
    leading zeros kept ('0120'), then, at index 10000 + i, with trailing
    zeros NUL as well ('012\\0')."""
    i = np.arange(10000)
    both = np.empty((20000, 4), np.uint8)
    for j, unit in enumerate((1000, 100, 10, 1)):
        both[:10000, j] = i // unit % 10 + 48
        # the j-th digit trails when i is a multiple of 10 * unit
        both[10000:, j] = np.where(i % (10 * unit) == 0, 0, both[:10000, j])
    return both.view(np.uint32).ravel()


_P, _P_HI, _P_LO, _P_REST = _power_table()  # 10^k, its halves, its remainder
_DIGITS = _digit_table()


def _scaled(a, x):
    """floor(s) and round(s), s = a 10^(16 - x), as int64, and whether
    the rounding is settled.

    Dekker's product p + err = a hi is exact, and a lo is rounded once.
    With s < 1e18, the error of (p - floor p) + err + a lo against s is
    below 2^-106 s for hi + lo, 2^-106 s for a lo and two roundings of a
    sum below 70 (|err| <= ulp(p) / 2 <= 64): under 1e-13 in all.
    """
    k = 16 - x - _KMIN
    h, l = _P_HI[k], _P_LO[k]
    ah, al = _split(a)
    p = a * _P[k]
    err = ((ah * h - p) + ah * l + al * h) + al * l
    fl = np.floor(p)
    t = (p - fl) + (err + a * _P_REST[k])
    ft = np.floor(t)
    frac = t - ft
    whole = fl.astype(np.int64) + ft.astype(np.int64)
    return whole, whole + (frac > 0.5), np.abs(frac - 0.5) > _UNSETTLED


def _digits_and_exponents(v):
    """D, X and the values `%` has to write.

    X starts from floor(log10 |v|), off by one at most near a power of
    10.  It moves down where s < 10^16, and up where D reaches 10^17,
    s >= 10^17 or a carry of the rounding; a value whose moved s or D is
    still outside goes to `%`.  A floor(s) off by one near 10^16 (s within
    1e-13 of it) moves X down, and D then reaches 10^17, or leaves X
    where the carry of the move would return it.
    """
    a = np.abs(v)
    fast = (a >= _TINY) & (a < _HUGE)  # false for nan
    a = np.where(fast, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.int64)
    whole, D, settled = _scaled(a, x)
    move = (D >= _D_END).astype(np.int64) - (whole < _D_START)
    redo = np.flatnonzero(move)
    if redo.size:
        x[redo] += move[redo]
        w, D[redo], settled[redo] = _scaled(a[redo], x[redo])
        settled[redo] &= (w >= _D_START) & (D[redo] < _D_END)
    return D, x, ~(fast & settled)


def _float_fields(v, fields):
    """The '%.17g' text of each of the doubles v, NUL-padded, into the
    rows of `fields`, a (len(v), 24) uint8 view."""
    D, x, fallback = _digits_and_exponents(v)
    key = np.where(fallback, _FALLBACK, x + 64).astype(np.uint8)  # |X| <= 42
    order = np.argsort(key, kind="stable")
    D = np.where(fallback, _D_START, D)[order]
    n = len(v)
    F = np.zeros((n, _FLOAT_WIDTH), np.uint8)
    F[:, 0] = (v[order] < 0) * np.uint8(45)  # '-'
    # the 17 digits, trailing zeros NUL, in bytes 3..19 of a 20-byte row
    # (// and a product: numpy's divmod of int64 is several times slower)
    rest = D // 10000
    buf = np.empty((n, 20), np.uint8)
    chunks = buf.view(np.uint32)
    tail_zero = np.ones(n, bool)  # every digit right of this chunk is 0
    for j in range(4, 0, -1):
        g = D - rest * 10000
        chunks[:, j] = _DIGITS[g + 10000 * tail_zero]
        tail_zero &= g == 0
        D, rest = rest, rest // 10000
    buf[:, 3] = D + 48  # the leading digit, 1 to 9
    dig = buf[:, 3:]

    counts = np.bincount(key, minlength=256)
    ends = np.cumsum(counts)
    for k in np.flatnonzero(counts):
        s, e = ends[k] - counts[k], ends[k]
        f, d = F[s:e], dig[s:e]
        if k == _FALLBACK:
            text = ["%.17g" % t for t in v[order[s:e]].tolist()]
            f[:] = np.array(text, f"S{_FLOAT_WIDTH}").view(np.uint8).reshape(f.shape)
            continue
        X = int(k) - 64
        if -4 <= X < 0:  # 0.000ddd
            f[:, 1:3] = (48, 46)
            f[:, 3 : 2 - X] = 48
            f[:, 2 - X : 19 - X] = d
            continue
        # X + 1 digits before the point in fixed form, 1 in exponent form
        exponent = X >= 17 or X < -4
        p = 1 if exponent else X + 1
        # a digit before the point is NUL only as a trailing zero: '0'
        f[:, 1 : 1 + p] = np.maximum(d[:, :p], 48) if p > 1 else d[:, :1]
        if p < 17:
            f[:, 1 + p] = np.where(d[:, p] == 0, 0, 46)  # no digit after it: no point
            f[:, 2 + p : 19] = d[:, p:]
        if exponent:
            f[:, 19:23] = np.frombuffer(b"e%+03d" % X, np.uint8)
    fields[order] = F


def format_rows(columns: list[np.ndarray]) -> str:
    """The rows of equal-length columns, ','-separated, each ending '\\n':
    integer columns as '%d', the others as '%.17g'."""
    n = len(columns[0])
    widths = [_INT_WIDTH if c.dtype.kind in "iu" else _FLOAT_WIDTH for c in columns]
    row = sum(widths) + len(widths)
    buf = bytearray(n * row)
    out = np.frombuffer(buf, np.uint8).reshape(n, row)
    pos = 0
    for c, width in zip(columns, widths):
        field = out[:, pos : pos + width]
        if width == _INT_WIDTH:
            field[:] = c.astype(f"S{width}").view(np.uint8).reshape(n, width)
        else:
            _float_fields(np.asarray(c, dtype=np.float64), field)
        out[:, pos + width] = 44  # ','
        pos += width + 1
    out[:, -1] = 10  # '\n'
    return buf.translate(None, b"\0").decode("ascii")
