"""Free-format MPS export.

Row names are the model's constraint tags and column names are variable ids,
so external tooling can map rows back to the formulation.  Output is
byte-deterministic for a fixed model.  Minimization is implied (no OBJSENSE
record); the objective constant is stored, by the usual convention, as the
negated RHS entry of the objective row.  Every variable appears in COLUMNS
(a zero objective entry is emitted for otherwise empty columns) so a
reader recovers the variable order exactly.

The file is written from the model's matrix (``MilpModel.matrix``) as it is
produced, a block of columns at a time: each column's objective entry, then
its matrix entries in row order, read from a column-major copy of the
matrix.  Each distinct number is formatted once.  Coefficients,
right-hand sides and bounds are written as the matrix holds them, so a
boolean one is written as 1; a boolean objective coefficient raises
``TypeError`` before the file is opened.
"""

from __future__ import annotations

import numpy as np

from itertools import islice

from .model import SENSE_EQ, SENSE_GE, SENSE_LE, MilpModel

OBJ_ROW = "OBJ"
_SENSE_TO_ROW = {SENSE_EQ: "E", SENSE_LE: "L", SENSE_GE: "G"}
# Lines per write: bounds the text held in memory at once.
_LINES_PER_WRITE = 512


def _fmt(value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean coefficient")
    if isinstance(value, int):
        return str(value)
    f = float(value)
    if f.is_integer():
        return str(int(f))
    return repr(f)


def _write_blocks(fh, lines) -> None:
    """Write the iterator ``lines`` a block of lines at a time."""
    while block := list(islice(lines, _LINES_PER_WRITE)):
        fh.write("".join(block))


def _write_columns(fh, mx, objective: dict, texts_of) -> None:
    """The COLUMNS entries, a column at a time: its head entry, then its
    matrix entries in row order.  The head entry is the column's objective
    coefficient, or a 0 for a column with no entry at all."""
    cols, rows, text_index, texts = _column_entries(mx, objective, texts_of)
    ids, names = mx.ids, mx.tags + (OBJ_ROW,)  # row -1 is the objective
    for a in range(0, cols.size, _LINES_PER_WRITE):
        b = a + _LINES_PER_WRITE
        fh.write("".join([
            f" {ids[c]} {names[r]} {texts[t]}\n"
            for c, r, t in zip(cols[a:b].tolist(), rows[a:b].tolist(), text_index[a:b].tolist())
        ]))


def _column_entries(mx, objective: dict, texts_of):
    """The COLUMNS entries in file order: their columns, rows (-1 for a
    head entry) and positions in the returned texts."""
    by_column = mx.A.tocsc()  # row indices ascend within each column
    distinct, code = np.unique(by_column.data, return_inverse=True)
    n_obj = len(objective)
    texts = texts_of(list(objective.values())) + ["0"] + texts_of(distinct.tolist())
    counts = np.diff(by_column.indptr)
    head = np.full(counts.size, -1, dtype=np.int32)
    head[np.fromiter(map(mx.column.__getitem__, objective), np.int64, n_obj)] = np.arange(n_obj)
    head[(counts == 0) & (head < 0)] = n_obj
    has_head = head >= 0
    width = counts + has_head
    cols = np.repeat(np.arange(counts.size, dtype=np.int32), width)
    first = np.cumsum(width) - width  # of each column's entries
    rows = np.full(cols.size, -1, dtype=np.int32)
    text_index = np.empty(cols.size, dtype=np.int32)
    text_index[first[has_head]] = head[has_head]
    entry = np.repeat(first + has_head - by_column.indptr[:-1], counts)
    entry += np.arange(by_column.nnz)
    rows[entry] = by_column.indices
    text_index[entry] = code + (n_obj + 1)
    return cols, rows, text_index, texts


def export_mps(m: MilpModel, path) -> None:
    mx = m.matrix()
    ids, tags = mx.ids, mx.tags
    # Equal numbers have equal texts, whatever their types, so one dict
    # serves every number in the file; only a bool would break that.
    objective = m.objective
    if bool in set(map(type, objective.values())):
        raise TypeError("boolean coefficient")
    texts: dict = {}

    def texts_of(values: list) -> list[str]:
        for value in set(values).difference(texts):
            texts[value] = _fmt(value)
        return list(map(texts.__getitem__, values))


    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"NAME {m.name}\nROWS\n N {OBJ_ROW}\n")
        _write_blocks(fh, (f" {_SENSE_TO_ROW[code]} {tag}\n" for code, tag in zip(mx.sense.tolist(), tags)))

        fh.write("COLUMNS\n MARKER 'MARKER' 'INTORG'\n")
        _write_columns(fh, mx, objective, texts_of)
        fh.write(" MARKER 'MARKER' 'INTEND'\n")

        fh.write("RHS\n")
        if m.offset != 0:
            fh.write(f" RHS {OBJ_ROW} {_fmt(-m.offset)}\n")
        nonzero = np.flatnonzero(mx.rhs != 0).tolist()
        _write_blocks(fh, (f" RHS {tags[i]} {text}\n" for i, text in zip(nonzero, texts_of(mx.rhs[nonzero].tolist()))))

        fh.write("RANGES\nBOUNDS\n")
        _write_blocks(fh, (
            f" BV BND {var_id}\n" if binary else f" LO BND {var_id} {lo}\n UP BND {var_id} {up}\n"
            for var_id, binary, lo, up in zip(
                ids, mx.binary.tolist(), texts_of(mx.lower.tolist()), texts_of(mx.upper.tolist())
            )
        ))
        fh.write("ENDATA\n")
