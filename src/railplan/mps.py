"""Free-format MPS export.

Row names are the model's constraint tags and column names are variable ids,
so external tooling can map rows back to the formulation.  Output is
byte-deterministic for a fixed model.  Minimization is implied (no OBJSENSE
record); the objective constant is stored, by the usual convention, as the
negated RHS entry of the objective row.  Every variable appears in COLUMNS
(a zero objective entry is emitted for otherwise empty columns) so a
reader recovers the variable order exactly.

The file is written as it is produced: the only copy of the model held
besides the model itself is one (row tag, coefficient text) list per
column, whose strings are shared with the constraints and among equal
coefficients.  A boolean coefficient raises ``TypeError``; one in a
right-hand side or bound does so after the file is opened and leaves it
partly written.
"""

from __future__ import annotations

from .model import MilpModel

OBJ_ROW = "OBJ"
_SENSE_TO_ROW = {"=": "E", "<=": "L", ">=": "G"}


def _fmt(value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean coefficient")
    if isinstance(value, int):
        return str(value)
    f = float(value)
    if f.is_integer():
        return str(int(f))
    return repr(f)


def export_mps(m: MilpModel, path) -> None:
    # Keyed by type as well as value: True == 1, but a bool must still raise.
    texts: dict[tuple[type, object], str] = {}

    def fmt(value) -> str:
        key = (type(value), value)
        text = texts.get(key)
        if text is None:
            text = texts[key] = _fmt(value)
        return text

    # Per column, row tags and coefficient texts alternate in one flat list.
    entries: dict[str, list[str]] = {v.id: [] for v in m.variables}
    for var_id, coef in m.objective.items():
        entries[var_id] += (OBJ_ROW, fmt(coef))
    for con in m.constraints:
        tag = con.tag
        for var_id, coef in con.terms:
            entries[var_id] += (tag, fmt(coef))

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"NAME {m.name}\nROWS\n N {OBJ_ROW}\n")
        fh.writelines(f" {_SENSE_TO_ROW[con.sense]} {con.tag}\n" for con in m.constraints)

        fh.write("COLUMNS\n MARKER 'MARKER' 'INTORG'\n")
        for var in m.variables:
            var_id = var.id
            rows = entries[var_id] or (OBJ_ROW, "0")
            fh.write("".join([f" {var_id} {rows[i]} {rows[i + 1]}\n" for i in range(0, len(rows), 2)]))
        fh.write(" MARKER 'MARKER' 'INTEND'\n")

        fh.write("RHS\n")
        if m.offset != 0:
            fh.write(f" RHS {OBJ_ROW} {_fmt(-m.offset)}\n")
        fh.writelines(f" RHS {con.tag} {fmt(con.rhs)}\n" for con in m.constraints if con.rhs != 0)

        fh.write("RANGES\nBOUNDS\n")
        for var in m.variables:
            if var.binary:
                fh.write(f" BV BND {var.id}\n")
            else:
                fh.write(f" LO BND {var.id} {fmt(var.lower)}\n UP BND {var.id} {fmt(var.upper)}\n")
        fh.write("ENDATA\n")
