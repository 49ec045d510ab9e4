"""The one writer behind every CSV table lgeo writes."""

from itertools import chain

import numpy as np

_BLOCK = 4096  # rows deduplicated together
_SUB = 512     # rows formatted and written together


def _cells(col):
    """Row-format field and entry array of a column block: floats as %.17g
    (parses back bitwise), each distinct value formatted once; integer arrays
    as %d; lists by str."""
    if isinstance(col, list):
        return "%s", np.fromiter(col, dtype=object, count=len(col))
    if col.dtype.kind != "f":
        return "%d", col
    # distinct by bit pattern, so that -0.0 is not merged into 0.0
    bits, inv = np.unique(col.view(np.int64), return_inverse=True)
    if len(bits) == len(col):
        return "%.17g", col
    text = ["%.17g" % v for v in bits.view(np.float64).tolist()]
    return "%s", np.array(text, dtype=object)[inv]


def write_table(path, header, columns, newline: str = "\n") -> None:
    """Write equal-length columns under a header as CSV, deduplicated 4096
    rows at a time and formatted 512 rows at a time, so that neither the
    text nor the cells of the whole table are ever held."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + newline)
        for lo in range(0, len(columns[0]), _BLOCK):
            fields, cells = zip(*(_cells(col[lo:lo + _BLOCK]) for col in columns))
            line = ",".join(fields) + newline
            for sub in range(0, len(cells[0]), _SUB):
                rows = [c[sub:sub + _SUB].tolist() for c in cells]
                fh.write((line * len(rows[0])) % tuple(chain.from_iterable(zip(*rows))))
