"""Shortest round-trip text of float64 tables, byte for byte as repr writes it.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), which needs 64-bit integer arithmetic only and so runs on
whole numpy arrays.  Python's layout of them, positional for a decimal
point -4 < p <= 16 and d.ddde+XX otherwise, goes into a 48-byte slot per
value that holds every byte the value's text may use; the bytes it does
not use are zeroed, and one bytes.translate deletes them all.  The
integer operands of one operation are all np.uint64 or all np.int64:
numpy 1.x promotes a mix of the two, and uint64 with a Python int, to
float64.  Subnormals, infinities and NaN take repr one value at a time.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = []

_U = np.uint64
_MASK32, _MASK63 = _U(2**32 - 1), _U(2**63 - 1)
_POW10 = np.array([10**i for i in range(17)], dtype=np.uint64)
# A slot is six words: "-0.000" and the first digit with a point after it, four words of four
# more digits each with a point after it, and "e+308" with the separator and two unused bytes.
_SLOT = 48
_P_LOW = -310  # normal doubles have -307 <= p <= 309


@cache
def _g():
    """Schubfach's g for k = -324 ... 292 as (g >> 63, g mod 2**63)."""
    g = []
    for k in range(-324, 293):  # g = floor(10**-k 2**-r) + 1, in [2**125, 2**126]
        r = (-k * 913124641741 >> 38) - 125
        g.append((10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1)
    return tuple(np.array(part, dtype=np.uint64) for part in zip(*((v >> 63, v & 2**63 - 1) for v in g)))


def _hi64(a_lo, a_hi, b):
    """High 64 bits of the 128-bit products (a_hi 2**32 + a_lo) b."""
    b_lo, b_hi = b & _MASK32, b >> _U(32)
    lh, hl = a_lo * b_hi, a_hi * b_lo
    mid = (a_lo * b_lo >> _U(32)) + (lh & _MASK32) + (hl & _MASK32)
    return a_hi * b_hi + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32))


def _shortest(bits):
    """(f, e) with f 10**e the shortest decimal, f < 10**17, that reads back
    to each positive normal double of the bit patterns bits; of two such,
    the nearer one, and of two as near, the one with even f."""
    biased = (bits >> _U(52)).astype(np.int64)
    t = bits & _U(2**52 - 1)
    c = t | _U(2**52)
    q = biased - 1075

    irregular = (t == _U(0)) & (biased > 1)  # the double below is half as far as the one above
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint64)
    g1, g0 = (part[k + 324] for part in _g())
    g1_lo, g1_hi, g0_lo, g0_hi = g1 & _MASK32, g1 >> _U(32), g0 & _MASK32, g0 >> _U(32)

    def rop(cp):  # (g1 2**63 + g0) cp 2**h / 2**127, rounded to odd
        cp = cp << h
        z = (g1 * cp >> _U(1)) + _hi64(g0_lo, g0_hi, cp)
        return _hi64(g1_lo, g1_hi, cp) + (z >> _U(63)) | (z & _MASK63 != _U(0)).astype(np.uint64)

    cb, odd = c << _U(2), c & _U(1)
    vb = rop(cb)
    vbl = rop(cb - _U(2) + irregular.astype(np.uint64)) + odd  # an odd c excludes both ends
    vbr = rop(cb + _U(2)) - odd

    s = vb >> _U(2)
    mid = _U(4) * s + _U(2)
    f = np.where((vb < mid) | (vb == mid) & (s & _U(1) == _U(0)), s, s + _U(1))
    for lo, step in ((s, _U(1)), (s // _U(10) * _U(10), _U(10))):  # one digit fewer goes last, and wins
        lower, upper = vbl <= _U(4) * lo, _U(4) * (lo + step) <= vbr
        f = np.where(lower != upper, np.where(lower, lo, lo + step), f)
    return f, k


@cache
def _layout():
    """The tables a slot is built from, by first digit, by four digits (and
    their place in the 17) and by decimal point p, and the bytes it keeps
    by kind of layout, digit count n and sign."""
    q = np.arange(10000)
    digits = np.stack((q // 1000, q // 100 % 10, q // 10 % 10, q % 10), axis=1)
    quads = np.full((10000, 8), ord("."), dtype=np.uint8)
    quads[:, ::2] = digits + ord("0")
    # the count of the 17 digits up to a quad's last one that is not 0, for each of its four places
    nonzero = digits != 0
    last = np.arange(1, 17, 4)[:, None] + 4 - np.argmax(nonzero[:, ::-1], axis=1)
    last = np.where(nonzero.any(axis=1), last, 1).astype(np.int8)
    lead = b"".join(b"-0.000%d." % d for d in range(10))
    points = range(_P_LOW, -_P_LOW + 1)
    tails = b"".join(b"e%c%03d,\0\0" % (b"-+"[p > 0], abs(p - 1)) for p in points)
    # kinds 0 ... 19 are positional at p = kind - 3, 20 and 21 take exponents of 2 and 3 digits
    kinds = np.array([p + 3 if -4 < p <= 16 else 20 + (abs(p - 1) >= 100) for p in points])
    kind, n, neg = (a.ravel() for a in np.meshgrid(np.arange(22), np.arange(1, 18), (0, 1), indexing="ij"))
    positional, p = kind < 20, kind - 3
    keep = np.zeros((kind.size, _SLOT), dtype=bool)
    keep[:, 0] = neg
    keep[:, 1] = keep[:, 2] = positional & (p <= 0)  # "0." and -p zeros
    keep[:, 3:6] = positional[:, None] & (np.arange(-1, -4, -1) >= p[:, None])
    keep[:, 6:40:2] = np.arange(17) < np.where(positional, np.maximum(n, p + 1), n)[:, None]
    keep[:, 7:40:2] = np.arange(17) == np.where(positional, p - 1, np.where(n > 1, 0, -1))[:, None]
    keep[:, 40:45] = ~positional[:, None]
    keep[:, 42] &= kind == 21
    keep[:, 45] = True
    return (np.frombuffer(lead, dtype=np.uint64), quads.view(np.uint64).ravel(), last,
            np.frombuffer(tails, dtype=np.uint64), kinds * 34, (keep * np.uint8(255)).view(np.uint64))


def format_rows(table) -> str:
    """"".join(",".join(map(repr, row)) + "\\n" for row in table.tolist())
    of a 2-D float64 table."""
    values = np.ascontiguousarray(table, dtype=np.float64)
    count, width = values.size, values.shape[1]
    bits = values.ravel().view(np.uint64)
    neg = (bits >> _U(63)).astype(np.intp)
    bits = bits & _MASK63
    biased = bits >> _U(52)
    zero = bits == _U(0)
    normal = (biased != _U(0)) & (biased != _U(2047))
    f, e = _shortest(np.where(normal, bits, _U(0x3FF0000000000000)))  # 1.0 stands in for the rest
    f, e = np.where(zero, _U(0), f), np.where(zero, 0, e)

    # the nd digits of f left-aligned in 17, four at a time after the first; p = e + nd
    lead, quad_words, last, tails, kinds, keep = _layout()
    nd = np.maximum(np.searchsorted(_POW10, f, side="right"), 1)
    point = e + nd - _P_LOW
    first, rest = np.divmod((f * _POW10[17 - nd]).astype(np.int64), 10**16)
    quads = np.stack((rest // 10**12, rest // 10**8, rest // 10**4, rest))
    quads[1:] -= quads[:-1] * 10**4
    n = last[np.arange(4)[:, None], quads].max(axis=0)
    words = np.empty((count, 6), dtype=np.uint64)
    words[:, 0] = lead[first]
    words[:, 1:5] = quad_words[quads.T]
    words[:, 5] = tails[point]
    words.view(np.uint8)[width - 1 :: width, 45] = ord("\n")
    words &= keep[kinds[point] + 2 * n - 2 + neg]

    for i in np.flatnonzero(~(normal | zero)):  # subnormal, infinite or NaN
        text = repr(values.flat[i].item()).encode() + (b"\n" if i % width == width - 1 else b",")
        words[i] = np.frombuffer(text.ljust(_SLOT, b"\0"), dtype=np.uint64)
    return words.tobytes().translate(None, b"\0").decode("ascii")
