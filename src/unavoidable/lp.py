"""Exact linear programming over the rationals.

A dense two-phase simplex with Bland's rule: every coefficient is a
:class:`fractions.Fraction`, so termination is guaranteed and optima are
exact.  Problem sizes in this package are tiny (tens of rows), which makes
the dense tableau the simplest correct choice.

``maximize`` solves  max c.x  subject to  x >= 0  and mixed <= / >= / ==
rows.  Besides the optimum it reports dual multipliers per row, and on an
unbounded problem an improving ray over the structural variables (the Farkas
direction callers turn into infeasibility certificates for the dual side).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

LE, GE, EQ = "<=", ">=", "=="


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Optional[Fraction]
    x: Optional[tuple[Fraction, ...]]
    duals: Optional[tuple[Fraction, ...]]  # one multiplier per input row
    ray: Optional[tuple[Fraction, ...]]  # improving direction when unbounded


def maximize(
    objective: Sequence[Fraction],
    rows: Sequence[tuple[Sequence[Fraction], str, Fraction]],
) -> LpResult:
    n = len(objective)
    c = [Fraction(v) for v in objective]

    # Normalize rows to rhs >= 0, then allocate slack / artificial columns.
    norm: list[tuple[list[Fraction], str, Fraction, bool]] = []
    for coeffs, sense, rhs in rows:
        if len(coeffs) != n:
            raise ValueError("row length does not match objective length")
        if sense not in (LE, GE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        coeffs = [Fraction(v) for v in coeffs]
        rhs = Fraction(rhs)
        flipped = False
        if rhs < 0 or (rhs == 0 and sense == GE):
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            sense = {LE: GE, GE: LE, EQ: EQ}[sense]
            flipped = True
        norm.append((coeffs, sense, rhs, flipped))

    n_rows = len(norm)
    next_col = n
    slack_col = [-1] * n_rows
    art_col = [-1] * n_rows
    dual_col = [-1] * n_rows
    for i, (_, sense, _, _) in enumerate(norm):
        if sense == LE:
            slack_col[i] = next_col
            dual_col[i] = next_col
            next_col += 1
        elif sense == GE:
            slack_col[i] = next_col  # surplus, coefficient -1
            next_col += 1
            art_col[i] = next_col
            dual_col[i] = next_col
            next_col += 1
        else:
            art_col[i] = next_col
            dual_col[i] = next_col
            next_col += 1
    cols = next_col
    artificial = [False] * cols
    for a in art_col:
        if a >= 0:
            artificial[a] = True

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    for i, (coeffs, sense, rhs, _) in enumerate(norm):
        row = coeffs + [ZERO] * (cols - n) + [rhs]
        if sense == LE:
            row[slack_col[i]] = ONE
            basis.append(slack_col[i])
        elif sense == GE:
            row[slack_col[i]] = -ONE
            row[art_col[i]] = ONE
            basis.append(art_col[i])
        else:
            row[art_col[i]] = ONE
            basis.append(art_col[i])
        tableau.append(row)

    z2 = [-v for v in c] + [ZERO] * (cols - n) + [ZERO]

    def pivot(row_idx: int, col: int, z_rows: list[list[Fraction]]) -> None:
        row = tableau[row_idx]
        piv = row[col]
        if piv != ONE:
            inv = ONE / piv
            tableau[row_idx] = row = [v * inv for v in row]
        for other in tableau + z_rows:
            if other is row:
                continue
            factor = other[col]
            if factor:
                for j in range(cols + 1):
                    if row[j]:
                        other[j] -= factor * row[j]
        basis[row_idx] = col

    def run_simplex(z: list[list[Fraction]], allow_art: bool) -> tuple[str, int]:
        # Bland's rule: entering = lowest eligible column, leaving = lowest
        # basic variable among minimum-ratio rows.  Guarantees termination.
        zrow = z[0]
        while True:
            enter = -1
            for j in range(cols):
                if not allow_art and artificial[j]:
                    continue
                if zrow[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal", -1
            leave = -1
            best_ratio: Optional[Fraction] = None
            for i, row in enumerate(tableau):
                a = row[enter]
                if a > 0:
                    ratio = row[cols] / a
                    if best_ratio is None or ratio < best_ratio or (
                        ratio == best_ratio and basis[i] < basis[leave]
                    ):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                return "unbounded", enter
            pivot(leave, enter, z)

    def dual_values(zrow: list[Fraction]) -> tuple[Fraction, ...]:
        out = [ZERO] * n_rows
        for i in range(n_rows):
            y = zrow[dual_col[i]]
            out[i] = -y if norm[i][3] else y
        return tuple(out)

    # Phase 1: drive the artificial variables to zero.
    if any(a >= 0 for a in art_col):
        z1 = [ZERO] * (cols + 1)
        for a in art_col:
            if a >= 0:
                z1[a] = ONE
        for i, b in enumerate(basis):
            if artificial[b]:
                row = tableau[i]
                for j in range(cols + 1):
                    if row[j]:
                        z1[j] -= row[j]
        # Phase 1 updates both objective rows so phase 2 can start directly.
        status, _ = run_simplex([z1, z2], True)
        if status == "unbounded":  # phase-1 objective is bounded by construction
            raise RuntimeError("phase 1 reported unbounded; tableau is corrupt")
        if z1[cols] != 0:
            return LpResult("infeasible", None, None, dual_values(z1), None)
        # Drive leftover basic artificials out; drop redundant rows.
        for i in range(n_rows - 1, -1, -1):
            if i >= len(basis) or not artificial[basis[i]]:
                continue
            row = tableau[i]
            enter = next((j for j in range(cols) if not artificial[j] and row[j] != 0), -1)
            if enter >= 0:
                pivot(i, enter, [z1, z2])
            else:
                del tableau[i]
                del basis[i]

    # Phase 2 on the real objective.
    status, enter = run_simplex([z2], False)
    if status == "unbounded":
        ray = [ZERO] * n
        if enter < n:
            ray[enter] = ONE
        for i, b in enumerate(basis):
            if b < n:
                ray[b] = -tableau[i][enter]
        return LpResult("unbounded", None, None, None, tuple(ray))

    x = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tableau[i][cols]
    return LpResult("optimal", z2[cols], tuple(x), dual_values(z2), None)
