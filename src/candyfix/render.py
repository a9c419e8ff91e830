"""Wire formats for tables and certificates: JSON and text tables.

The JSON schema is the external contract::

    {"k": ..., "engine": {...}, "pI": {"num", "exp"},
     "pIII": {"num", "exp"}, "pS": [[{"num", "exp"}, ...], ...]}

The text table prints the gap matrix twice: once as exact reduced dyadics
and once as integer numerators over one shared power-of-two denominator per
column (lower triangle only; the matrix is symmetric).  The numerator block
plus the header lines carry the full exact content.  Both forms are
written only: no command reads a table back, and ``certify`` computes the
tables it certifies.  The JSON form is for programs, the text form for
people.
"""

from __future__ import annotations

import copy

from .engine import Certificate, ProbTables

# The model every table is computed for, as the tables JSON and text name it.
ENGINE = {"kappa": 3, "n": 2, "p": ["1/2", "1/2"]}
ENGINE_TAG = "kappa=3,n=2,p=1/2,1/2"


# --------------------------------------------------------------------------
# JSON
# --------------------------------------------------------------------------


def tables_to_json(tables: ProbTables) -> dict:
    return {
        "k": tables.k,
        "engine": copy.deepcopy(ENGINE),
        "pI": tables.p_unstable.as_json(),
        "pIII": tables.p_triple.as_json(),
        "pS": [[entry.as_json() for entry in row] for row in tables.p_gap],
    }


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "k": cert.k,
        "pI": cert.p_unstable.as_json(),
        "pIII": cert.p_triple.as_json(),
        "gap_max": cert.gap_max.as_json(),
        "gap_argmax": cert.gap_argmax,
        "term_III": str(cert.term_triple),
        "term_I": str(cert.term_unstable),
        "term_gap": str(cert.term_gap),
        "c": str(cert.c),
        "contraction": cert.contraction,
    }


# --------------------------------------------------------------------------
# text table (layout: one power-of-two denominator per column)
# --------------------------------------------------------------------------


def _grid(rows: list[list[str]]) -> list[str]:
    widths = {}
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths.get(i, 0), len(cell))
    return ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows]


def tables_to_text(tables: ProbTables) -> str:
    sat = tables.sat
    lines = [
        f"k = {tables.k}",
        f"engine = {ENGINE_TAG}",
        f"p_unstable = {tables.p_unstable} = {tables.p_unstable.ratio_str()}",
        f"p_triple = {tables.p_triple} = {tables.p_triple.ratio_str()}",
        "",
        f"worst-case gap probabilities; side index {sat} stands for any count >= {sat}",
        "",
        "exact values:",
    ]
    header = [""] + [f"n={n}" for n in range(sat + 1)]
    grid = [header]
    for m in range(sat + 1):
        grid.append(
            [f"m={m}"] + [tables.p_gap[n][m].ratio_str() for n in range(sat + 1)])
    lines.extend(_grid(grid))

    # lower triangle as integers over one denominator per column
    col_exp = [
        max(tables.p_gap[n][m].exp for m in range(n, sat + 1)) for n in range(sat + 1)
    ]
    lines += ["", "numerators (column denominator in the second header line):"]
    grid = [header, ["denom"] + [f"2^{e}" for e in col_exp]]
    for m in range(sat + 1):
        row = [f"m={m}"]
        for n in range(m + 1):
            entry = tables.p_gap[n][m]
            row.append(str(entry.num << (col_exp[n] - entry.exp)))
        grid.append(row)
    lines.extend(_grid(grid))
    lines.append("")
    return "\n".join(lines)


def certificate_to_text(cert: Certificate) -> str:
    lines = [
        f"k = {cert.k}",
        f"p_unstable = {cert.p_unstable}  (worst unstable-site recurrence)",
        f"p_triple = {cert.p_triple}  (worst run-interior recurrence)",
        f"gap_max = {cert.gap_max}  (worst bounded stable region, size {cert.gap_argmax})",
        f"term_triple = {cert.term_triple}",
        f"term_unstable = {cert.term_unstable}",
        f"term_gap = {cert.term_gap}",
        f"c = {cert.c}",
    ]
    if cert.contraction:
        lines.append("CONTRACTION")
    return "\n".join(lines)
