"""The one writer behind every CSV table lgeo writes.

Every cell is byte for byte what a per-value format gives: floats
``'%.17g' % v`` (which parses back bitwise), integer and bool arrays
``'%d' % v`` and list entries (time stamps) ``str(v)``.  The numbers are
formatted by an array kernel, not one Python format per value.  A block of
rows goes through it at once: the distinct bit patterns of its numeric
cells (integers below 2**53 as exact doubles, which ``%.17g`` writes as
``%d`` does) are found, and each is formatted once.  A table of fewer than
``_KERNEL_CELLS`` cells takes the per-value formats, which cost less there
than the kernel's fixed cost of about 0.1 ms.

The kernel takes the 17 significant digits D of |x| and its decimal
exponent k from the exact product |x| 10**(16 - k) in double-double
arithmetic (Dekker's TwoProduct against a table of 10**m as hi + lo), then
lays D out as ``%.17g`` does.  The product is within about 1e-14 of the
exact one, so its rounding to an integer is certain unless the remainder is
within ``_MARGIN`` of a half; such a value (real ties among them), NaN and
+-inf take the per-value format, so the bytes are the reference's by
construction.  0 and -0 are laid out as 1 and -1 with the digit replaced.
The tables (powers of ten, digit groups) are built on the first write.
"""

from functools import cache

import numpy as np

_BLOCK = 4096  # rows deduplicated and written together
# tables below this many cells cost less by one format per value (measured
# crossover, CHANGES.md)
_KERNEL_CELLS = 400
_WIDTH = 24    # the longest %.17g: -d.dddddddddddddddde-ddd
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's split of a double into halves
# 10**m for m = 16 - k over every decimal exponent k of a finite double
# (-324 ... 308), one more at each end for the exponent's correction
_M_LO, _M_HI = -293, 341
# the product's error is below 1e-14 where D < 1e17; remainders this near a
# half (real ties among them, which %.17g rounds half-even) are not certified
_MARGIN = 1e-12
_E16, _E17 = 10**16, 10**17


@cache
def _powers():
    """Rows hi, its Dekker halves and lo, and the exponents t, per m in
    [_M_LO, _M_HI]: 10**m = (hi + lo) 2**t with hi in [1, 2) and hi + lo
    within 2**-105 hi of it, from exact integers."""
    rows = []
    for m in range(_M_LO, _M_HI + 1):
        num, den = (10**m, 1) if m >= 0 else (1, 10**-m)
        t = num.bit_length() - 1 if m >= 0 else -den.bit_length()
        num, den = (num, den << t) if t >= 0 else (num << -t, den)
        hi = num / den  # int division rounds correctly
        a, b = hi.as_integer_ratio()
        rows.append((hi, (num * b - a * den) / (den * b), t))
    hi, lo, t = (np.array(v) for v in zip(*rows))
    hh = hi * _SPLIT - (hi * _SPLIT - hi)
    return np.stack([hi, hh, hi - hh, lo]), t.astype(np.int32)


@cache
def _groups():
    """The four ASCII digits of 0000 ... 9999, each as one uint32."""
    n = np.arange(10000)[:, None]
    return (48 + n // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8).view(np.uint32)[:, 0]


@cache
def _keep(W):
    """Row start * (W + 1) + end: which bytes j of a W-byte cell are in
    [start, end), for start 0 and 1."""
    j = np.arange(W)
    return ((j >= np.arange(2)[:, None, None]) & (j < np.arange(W + 1)[:, None])).reshape(-1, W)


def _scaled(mant, mh, ml, ex, i):
    """floor and remainder of mant 2**ex 10**m, m the table row i, the
    mantissa split into Dekker halves mh + ml."""
    tab, t = _powers()
    hi, hh, hl, lo = tab.take(i, axis=1)
    ph = mant * hi
    pl = ((mh * hh - ph) + mh * hl + ml * hh) + ml * hl  # mant hi - ph, exactly
    s = ex + t.take(i)
    r = np.ldexp(pl + mant * lo, s)
    f = np.floor(r)
    # ph 2**s is an integer wherever the product is near [1e16, 1e17)
    return np.ldexp(ph, s).astype(np.int64) + f.astype(np.int64), r - f


def _digits(a):
    """The 17 significant digits D of positive finite doubles a, rounded
    half-even, as integers in [1e16, 1e17), the decimal exponents k of the
    rounded values, and whether the rounding is certified."""
    mant, ex = np.frexp(a)
    mh = mant * _SPLIT
    mh -= mh - mant
    ml = mant - mh
    k = np.floor(np.log10(a)).astype(np.int64)
    F, frac = _scaled(mant, mh, ml, ex, (16 - _M_LO) - k)
    ok = abs(frac - 0.5) > _MARGIN
    # log10 may miss by one near a power of ten: the unrounded product
    # decides, and a product that rounds up to 1e17 moves after rounding
    off = (F < _E16) | (F >= _E17)
    if off.any():
        j = off.nonzero()[0]
        k[j] += 2 * (F[j] >= _E17) - 1
        F[j], frac[j] = _scaled(mant[j], mh[j], ml[j], ex[j], (16 - _M_LO) - k[j])
        ok[j] = (F[j] >= _E16) & (F[j] < _E17) & (abs(frac[j] - 0.5) > _MARGIN)
    D = F + (frac > 0.5)
    top = D == _E17
    D[top] = _E16
    return D, k + top, ok


def _layout(D, k):
    """The ``'%.17g'`` bytes of D 10**(k - 16) and of its negative, sorted by
    notation: the order, one value per row of a (len(D), ``_WIDTH + 1``)
    array, "-" in column 0 and |x| from column 1 on, and the lengths of |x|.
    Trailing zeros of D and a bare point are dropped; the notation is fixed
    for -4 <= k <= 16 (-k - 1 zeros after "0." when k < 0), else d.ddde+-XX.
    Sorted, each notation is a few slice copies of digit positions."""
    n = len(D)
    # 0 ... 20: fixed with k = kind - 4; 21: exponential
    kind = np.minimum((k + 4).view(np.uint64), 21).astype(np.uint8)
    order = kind.argsort(kind="stable")
    count = np.bincount(kind, minlength=22)
    D, k = D.take(order), k.take(order)
    # rows d0, then the four groups of four digits
    g = np.empty((5, n), np.int64)
    np.divmod(D, 10**8, out=(g[1], g[3]))
    np.divmod(g[3], 10**4, out=(g[3], g[4]))
    np.divmod(g[1], 10**4, out=(g[1], g[2]))
    np.divmod(g[1], 10**4, out=(g[0], g[1]))
    dig = np.empty((17, n), np.uint8)
    np.add(g[0], 48, out=dig[0], casting="unsafe")
    dig[1:].reshape(4, 4, n)[:] = _groups().take(g[1:]).view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1)
    L = ((dig != 48) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0)  # significant digits
    lens = np.maximum(L, k + 1) + (L > k + 1) - np.minimum(k, 0)  # fixed notation
    out = np.empty((_WIDTH + 1, n), np.uint8)
    out.fill(48)
    out[0] = 45
    ends = count.cumsum().tolist()
    for c in count.nonzero()[0].tolist():
        cols = slice(ends[c] - count[c], ends[c])
        d, o = dig[:, cols], out[:, cols]
        p = 1 if c == 21 else c - 3  # digits before the point
        if p <= 0:
            o[2] = 46
            o[6 - c:23 - c] = d
        else:
            o[1:p + 1] = d[:p]
            o[p + 1] = 46
            o[p + 2:19] = d[p:]
    if count[21]:
        e = np.arange(n - count[21], n)  # the exponential notation, last
        ke, Le = k[e], L[e].astype(np.int64)
        at = 1 + Le + (Le > 1)
        big = abs(ke) >= 100
        out[at, e] = 101
        out[at + 1, e] = 43 + 2 * (ke < 0)
        out[at + 3 + big, e] = 48 + abs(ke) % 10
        out[at + 2 + big, e] = 48 + abs(ke) // 10 % 10
        out[at[big] + 2, e[big]] = 48 + abs(ke[big]) // 100
        lens[e] = at + 3 + big
    return order, out.T, lens


def _text_rows(texts):
    """Rows of the UTF-8 bytes of strings, with two bytes of room for a
    separator, and their lengths."""
    raw = [s.encode() for s in texts]
    lens = np.fromiter(map(len, raw), np.int64, len(raw))
    rows = np.zeros((len(raw), lens.max(initial=0) + 2), np.uint8)
    rows[np.arange(rows.shape[1]) < lens[:, None]] = np.frombuffer(b"".join(raw), np.uint8)
    return rows, lens


def _number_rows(x):
    """Rows of the ``'%.17g'`` bytes of doubles x, each from column
    ``start`` on, with two bytes of room for a separator, and their starts
    and lengths."""
    a = abs(x)
    zero, finite = a == 0, a < np.inf
    a[zero | ~finite] = 1.0  # zeros are written as ones, whose "1" becomes "0"
    D, k, ok = _digits(a)
    order, out, lens = _layout(D, k)
    rows = np.empty((len(x), _WIDTH + 3), np.uint8)
    rows[order, :_WIDTH + 1] = out
    rows[zero, 1] = 48
    neg = np.signbit(x)
    start, n = 1 - neg, np.empty(len(x), np.int64)
    n[order] = lens
    n += neg
    rest = (~(finite & ok)).nonzero()[0]
    if len(rest):
        text, n[rest] = _text_rows(["%.17g" % v for v in x[rest].tolist()])
        rows[rest, :text.shape[1]], start[rest] = text, 0
    return rows, start, n


def _as_double(col):
    """A numeric column as exact doubles, or None when it has integers of
    2**53 or more in magnitude, which then take ``'%d'``."""
    if col.dtype.kind == "f":
        return col
    if col.dtype.kind == "b" or np.all((col > -2**53) & (col < 2**53)):
        return col.astype(np.float64)
    return None


def _distinct(X):
    """The distinct bit patterns of doubles X as doubles, and the index of
    each entry of X among them (so that -0.0 is not merged into 0.0)."""
    B = X.view(np.int64).reshape(-1)
    perm = B.argsort()
    B = B.take(perm)
    new = np.empty(len(B), bool)
    new[0] = True
    np.not_equal(B[1:], B[:-1], out=new[1:])
    inv = np.empty(len(B), np.int64)
    inv[perm] = new.cumsum() - 1
    return B[new].view(np.float64), inv.reshape(X.shape)


def _block_bytes(columns, sep, seplen):
    """The CSV bytes of equal-length column blocks, each cell followed by its
    column's separator, the first ``seplen[c]`` bytes of row c of ``sep``."""
    R, C = len(columns[0]), len(columns)
    doubles = [None if isinstance(col, list) else _as_double(col) for col in columns]
    numbers = [c for c, x in enumerate(doubles) if x is not None]
    idx, parts = np.empty((R, C), np.int64), []
    if numbers:
        X = np.empty((R, len(numbers)))
        for j, c in enumerate(numbers):
            X[:, j] = doubles[c]
        x, idx[:, numbers] = _distinct(X)
        parts.append(_number_rows(x))
    for c in (c for c, x in enumerate(doubles) if x is None):
        col = columns[c]
        texts = map(str, col) if isinstance(col, list) else ("%d" % v for v in col.tolist())
        idx[:, c] = sum(len(part[0]) for part in parts) + np.arange(R)
        rows, lens = _text_rows(texts)
        parts.append((rows, np.zeros(R, np.int64), lens))
    if len(parts) == 1:
        (pool, start, lens), = parts
    else:
        pool = np.zeros((sum(len(part[0]) for part in parts), max(part[0].shape[1] for part in parts)), np.uint8)
        at = 0
        for rows, _, _ in parts:
            pool[at:at + len(rows), :rows.shape[1]] = rows
            at += len(rows)
        start, lens = (np.concatenate(v) for v in list(zip(*parts))[1:])
    # the cells, row after row, each from column start to its separator's end
    W = pool.shape[1]
    cells = pool.view(f"V{W}")[:, 0].take(idx).view(np.uint8).reshape(R, C, W)
    start, end = start.take(idx), (start + lens).take(idx)
    at = end + np.arange(0, R * C * W, W).reshape(R, C)
    for j in range(sep.shape[1]):
        cells.reshape(-1)[at + j] = sep[:, j]
    return cells[_keep(W).take(start * (W + 1) + end + seplen, axis=0)].tobytes()


def _small_text(columns, newline):
    """The CSV text of columns by one Python format per value."""
    line = ",".join("%s" if isinstance(col, list) else "%.17g" if col.dtype.kind == "f" else "%d"
                    for col in columns) + newline
    return "".join(line % row for row in zip(*(col if isinstance(col, list) else col.tolist()
                                                for col in columns)))


def write_table(path, header, columns, newline: str = "\n") -> None:
    """Write equal-length columns (arrays or lists) under a header as CSV,
    ``_BLOCK`` rows at a time, so that neither the text nor the cells of the
    whole table are ever held.  Tables of fewer than ``_KERNEL_CELLS``
    cells are formatted one value at a time, which costs less there than
    the kernel's fixed cost."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + newline)
        if len(columns) * len(columns[0]) < _KERNEL_CELLS:
            fh.write(_small_text(columns, newline))
            return
        sep = np.zeros((len(columns), len(newline)), np.uint8)
        sep[:-1, 0] = ord(",")
        sep[-1] = np.frombuffer(newline.encode(), np.uint8)
        seplen = (sep > 0).sum(axis=1)
        for lo in range(0, len(columns[0]), _BLOCK):
            block = [col[lo:lo + _BLOCK] for col in columns]
            fh.write(_block_bytes(block, sep, seplen).decode())
