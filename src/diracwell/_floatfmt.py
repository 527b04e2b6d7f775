"""Shortest round-trip text of float64 tables, byte for byte as repr writes it.

The digits come from Dragonbox (J. Jeon, "Dragonbox: A New Floating-Point
Binary-to-Decimal Conversion Algorithm", 2020), which needs one 64 x 128-bit
integer product per value, two more only where a parity decides, and so runs
on whole numpy arrays.  Python's layout of them, positional for a decimal
point -4 < p <= 16 and d.ddde+XX otherwise, goes into a 48-byte slot per
value that holds every byte the value's text may use; the bytes it does not
use are zeroed, and one bytes.translate deletes them all.  The integer
operands of one operation are all np.uint64 or all np.int64: numpy 1.x
promotes a mix of the two, and uint64 with a Python int, to float64.  Powers
of two, subnormals, infinities and NaN take repr one value at a time.
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
def _tables():
    """By biased exponent, e = biased - 1075 and k = 2 - floor(e log10 2): the 32-bit limbs of
    phi = ceil(10**k 2**(127 - floor(k log2 10))), 11 - beta and (2**53 + 1) 2**beta (see
    _shortest), delta, 50 - delta // 2 and floor(e log10 2), which zeros (biased 0) take as 0."""
    e = np.arange(2048) - 1075  # biased 0 and 2047 too, whose k are in phi
    fl = e * 661971961083 >> 41
    beta = e + ((2 - fl) * 913124641741 >> 38)  # 6 ... 9
    phi = [-(-(1 << r) // 10**-k) if k < 0 else 10**k << r if r >= 0 else -(-(10**k) >> -r)  # shifts need no division
           for k in range(-292, 327) for r in [127 - (k * 913124641741 >> 38)]]
    c = np.array([[p >> s & 2**32 - 1 for p in phi] for s in (0, 32, 64, 96)], dtype=np.uint64)[:, 294 - fl]
    delta = ((c[3] << _U(32) | c[2]) >> (63 - beta).astype(np.uint64)).astype(np.int64)
    rows = [11 - beta, (2**53 + 1) << beta, delta, 50 - delta // 2, fl * (e > -1075)]
    return np.vstack((c, np.array(rows).astype(np.uint64)))


def _mul(u, c0, c1, c2, c3):
    """(hi, lo), the upper 128 bits of u (c3 2**96 + c2 2**64 + c1 2**32 + c0), u < 2**63 and
    c0 ... c3 < 2**32.  With c0 None, lo falls short by less than 2**33, and hi only if lo >= 2**64 - 2**33."""
    u0, u1 = u & _MASK32, u >> _U(32)

    def mul(b0, b1):  # (hi, lo) of u (b1 2**32 + b0)
        ll, lh, hl = u0 * b0, u0 * b1, u1 * b0
        mid = (ll >> _U(32)) + (lh & _MASK32) + (hl & _MASK32)
        return u1 * b1 + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32)), ll + (lh + hl << _U(32))
    hi, lo = mul(c2, c3)
    w1 = lo + (u1 * c1 if c0 is None else mul(c0, c1)[0])
    return hi + (w1 < lo), w1


def _shortest(bits, biased):
    """(f, e) with f 10**e the shortest decimal, f < 10**17, that reads back to each positive normal
    double with a fraction field other than 0 (bits, and biased, its exponent field as intp); of two
    such, the nearer one, and of two as near, the one with even f.  With s, r = divmod(z, 1000) of
    z = (2 fc + 1) 2**beta phi // 2**128, f is 10 s if r < delta, else 10 s + (r - delta // 2 + 50) // 100."""
    c1, c2, c3, sh, hid, delta, off, e = np.take(_tables()[1:], biased, axis=1, mode="clip")
    z, w1 = _mul(bits << _U(12) >> sh | hid, None, c1, c2, c3)
    s = z // _U(1000)
    r = z - s * _U(1000)
    q = (dist := r + off) // _U(100)
    f = s * _U(10) + q * (r >= delta)
    # where a parity decides, z may be an integer, or w1 is too short to be sure of z
    i = np.flatnonzero((q * _U(100) == dist) | (r == delta) | (r == _U(0)) | (w1 >= _U(2**64 - 2**33)))
    f[i] = _exact(bits[i], biased[i])
    return f, e.astype(np.int64)  # a copy: a view would keep all eight gathered rows alive


def _exact(bits, biased):
    """_shortest's f by Dragonbox's whole test, which takes the parities of y = z - delta/2 and x = z - delta."""
    c0, c1, c2, c3, sh, hid, delta, off, _ = _tables()[:, biased]
    u = (bits << _U(12) >> sh | hid) - _U([[0], [1], [2]]) * (hid & _U(1023))  # (2 fc + 1, 2 fc, 2 fc - 1) 2**beta
    (z, y, x), (z_lo, y_lo, x_lo) = _mul(u, c0, c1, c2, c3)
    odd = bits & _U(1) == _U(1)  # an odd fc excludes both ends of its interval
    s = z // _U(1000) - ((z % _U(1000) == _U(0)) & (z_lo == _U(0)) & odd)  # an integer z at an excluded end
    r = z - s * _U(1000)
    x_integer = (x_lo == _U(0)) & ~odd & (1073 <= biased) & (biased <= 1161)  # only -2 <= e <= 86 make one
    big = np.where(r == delta, x & _U(1) | x_integer, r < delta)
    q = (dist := r + off) // _U(100)
    f = s * _U(10) + q
    down = (q * _U(100) == dist) & ((y ^ dist) | (y_lo == _U(0)) & f) & _U(1)
    return np.where(big, s * _U(10), f - down)


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
    biased = (bits >> _U(52)).astype(np.intp)
    zero = bits == _U(0)
    f, e = _shortest(bits, biased)
    f = np.where(zero, _U(0), f)
    # the nd digits of f left-aligned in 17, four at a time after the first; p = e + nd
    lead, quad_words, last, tails, kinds, keep = _layout()
    nd = np.maximum(np.searchsorted(_POW10, f, side="right"), 1)
    point = e + nd - _P_LOW
    digits = (f * _POW10[17 - nd]).astype(np.int64)
    first = digits // 10**16
    rest = digits - first * 10**16
    quads = np.stack((rest // 10**12, rest // 10**8, rest // 10**4, rest))
    quads[1:] -= quads[:-1] * 10**4
    n = np.maximum.reduce([row.take(q) for row, q in zip(last, quads)])
    words = np.empty((count, 6), dtype=np.uint64)
    words[:, 0] = lead[first]
    words[:, 1:5] = quad_words[quads.T]
    words[:, 5] = tails[point]
    words.view(np.uint8)[width - 1 :: width, 45] = ord("\n")
    words &= np.take(keep, kinds[point] + 2 * n - 2 + neg, axis=0)

    for i in np.flatnonzero(((bits << _U(12) == _U(0)) | (biased == 0) | (biased == 2047)) & ~zero):
        text = repr(values.flat[i].item()).encode() + (b"\n" if i % width == width - 1 else b",")
        words[i] = np.frombuffer(text.ljust(_SLOT, b"\0"), dtype=np.uint64)
    return words.tobytes().translate(None, b"\0").decode("ascii")
