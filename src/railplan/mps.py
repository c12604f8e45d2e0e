"""Free-format MPS export.

Row names are the model's constraint tags and column names are variable ids,
so external tooling can map rows back to the formulation.  Output is
byte-deterministic for a fixed model.  Minimization is implied (no OBJSENSE
record); the objective constant is stored, by the usual convention, as the
negated RHS entry of the objective row.  Every variable appears in COLUMNS
(a zero objective entry is emitted for otherwise empty columns) so a
reader recovers the variable order exactly.
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
    lines = [f"NAME {m.name}"]
    lines.append("ROWS")
    lines.append(f" N {OBJ_ROW}")
    for con in m.constraints:
        lines.append(f" {_SENSE_TO_ROW[con.sense]} {con.tag}")

    entries: dict[str, list[tuple[str, object]]] = {v.id: [] for v in m.variables}
    for var_id, coef in m.objective.items():
        entries[var_id].append((OBJ_ROW, coef))
    for con in m.constraints:
        for var_id, coef in con.terms:
            entries[var_id].append((con.tag, coef))

    lines.append("COLUMNS")
    lines.append(" MARKER 'MARKER' 'INTORG'")
    for var in m.variables:
        rows = entries[var.id]
        if not rows:
            rows = [(OBJ_ROW, 0)]
        for row, coef in rows:
            lines.append(f" {var.id} {row} {_fmt(coef)}")
    lines.append(" MARKER 'MARKER' 'INTEND'")

    lines.append("RHS")
    if m.offset != 0:
        lines.append(f" RHS {OBJ_ROW} {_fmt(-m.offset)}")
    for con in m.constraints:
        if con.rhs != 0:
            lines.append(f" RHS {con.tag} {_fmt(con.rhs)}")

    lines.append("RANGES")
    lines.append("BOUNDS")
    for var in m.variables:
        if var.binary:
            lines.append(f" BV BND {var.id}")
        else:
            lines.append(f" LO BND {var.id} {_fmt(var.lower)}")
            lines.append(f" UP BND {var.id} {_fmt(var.upper)}")
    lines.append("ENDATA")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
