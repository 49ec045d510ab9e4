"""The one writer behind every CSV table lgeo writes."""

from itertools import chain

import numpy as np

_BLOCK = 4096


def _cells(col):
    """Row-format field and entries of a column block: floats as %.17g (parses
    back bitwise), each distinct value formatted once; integer arrays as %d;
    lists by str."""
    if isinstance(col, list):
        return "%s", col
    if col.dtype.kind != "f":
        return "%d", col.tolist()
    # distinct by bit pattern, so that -0.0 is not merged into 0.0
    bits, inv = np.unique(col.view(np.int64), return_inverse=True)
    if len(bits) == len(col):
        return "%.17g", col.tolist()
    text = ["%.17g" % v for v in bits.view(np.float64).tolist()]
    return "%s", np.array(text, dtype=object)[inv].tolist()


def write_table(path, header, columns, newline: str = "\n") -> None:
    """Write equal-length columns under a header as CSV, 4096 rows at a time
    so that the text of the whole table is never held."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + newline)
        for lo in range(0, len(columns[0]), _BLOCK):
            fields, cells = zip(*(_cells(col[lo:lo + _BLOCK]) for col in columns))
            line = ",".join(fields) + newline
            fh.write((line * len(cells[0])) % tuple(chain.from_iterable(zip(*cells))))
