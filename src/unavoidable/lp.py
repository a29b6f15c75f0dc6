"""Exact linear programming over the rationals.

A dense two-phase simplex with Bland's rule, so termination is guaranteed
and optima are exact.  The tableau is fraction-free: each input row is
multiplied by the lcm ``s_i`` of its denominators, and every cell is a Python
``int`` over one common positive denominator ``d``, the determinant of the
current basis.  A pivot on ``p = M[r][c]`` sets every other row to
``(p*row - row[c]*M[r]) // d``, a division that is exact (Edmonds 1967;
Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", 1968), and then ``d = p``.  Problem sizes in this package are
small (tens of rows), which makes the dense tableau the simplest correct
choice.

Columns are laid out in one pass over the rows, after each row is
normalized to a nonnegative right-hand side.  The n structural columns come
first.  Then each row adds, in row order, its surplus column (coefficient -1,
``>=`` rows only) followed by its starting basic column (coefficient +1): the
slack of a ``<=`` row, or an artificial of a ``>=`` or ``==`` row.  That basic
column also reads off the row's dual multiplier.  Bland's rule breaks ties by
column index, so this order fixes every pivot.

Scaling row i by ``s_i`` while its slack and artificial columns keep the
coefficients +-1 scales those variables by ``s_i``; the phase-1 objective
weighs artificial i by ``L / s_i`` (``L`` the lcm of the ``s_i``) so that it
stays the sum of the unscaled artificials.  Positive scalings change neither
the signs of reduced costs nor the order of ratios, so Bland's rule takes the
pivots of the rational tableau, and results are scaled back exactly.

``maximize`` solves  max c.x  subject to  x >= 0  and mixed <= / >= / ==
rows.  Besides the optimum it reports dual multipliers per row, and on an
unbounded problem an improving ray over the structural variables (the Farkas
direction callers turn into infeasibility certificates for the dual side).
"""

from __future__ import annotations

import math
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


def _integer_row(values: Sequence) -> tuple[list[int], int]:
    """``values`` times the lcm of their denominators, and that lcm."""
    exact = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in exact))
    return [v.numerator * (scale // v.denominator) for v in exact], scale


def maximize(
    objective: Sequence[Fraction],
    rows: Sequence[tuple[Sequence[Fraction], str, Fraction]],
) -> LpResult:
    n = len(objective)
    c, c_scale = _integer_row(objective)

    # Scale rows to integers and normalize them to rhs >= 0.
    norm: list[tuple[list[int], str, int, bool, int]] = []
    for coeffs, sense, rhs in rows:
        if len(coeffs) != n:
            raise ValueError("row length does not match objective length")
        if sense not in (LE, GE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        coeffs, scale = _integer_row([*coeffs, rhs])
        rhs = coeffs.pop()
        flipped = False
        if rhs < 0 or (rhs == 0 and sense == GE):
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            sense = {LE: GE, GE: LE, EQ: EQ}[sense]
            flipped = True
        norm.append((coeffs, sense, rhs, flipped, scale))

    # The column layout of the module docstring; a row's surplus and starting
    # basic column are both scaled by the row's s_i.
    n_rows = len(norm)
    cols = n + n_rows + sum(sense == GE for _, sense, _, _, _ in norm)
    artificial = [False] * cols
    col_scale = [1] * cols  # the factor by which each column's variable is scaled
    tableau: list[list[int]] = []
    basis: list[int] = []
    j = n
    for coeffs, sense, rhs, _, scale in norm:
        row = coeffs + [0] * (cols - n) + [rhs]
        if sense == GE:
            row[j], col_scale[j] = -1, scale
            j += 1
        row[j], col_scale[j], artificial[j] = 1, scale, sense != LE
        tableau.append(row)
        basis.append(j)
        j += 1
    dual_col = basis[:]

    z2 = [-v for v in c] + [0] * (cols - n) + [0]
    d = 1  # common denominator of every row, objective rows included

    def pivot(row_idx: int, col: int, z_rows: list[list[int]]) -> None:
        nonlocal d
        prow = tableau[row_idx]
        p = prow[col]
        for other in tableau + z_rows:
            if other is prow:
                continue
            f = other[col]
            if f or p != d:
                other[:] = [(p * a - f * b) // d for a, b in zip(other, prow)]
        if p < 0:  # only a drive-out pivot can be negative; keep d > 0
            for other in tableau + z_rows:
                other[:] = [-v for v in other]
            p = -p
        d = p
        basis[row_idx] = col

    def run_simplex(z: list[list[int]], allow_art: bool) -> tuple[str, int]:
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
            for i, row in enumerate(tableau):
                a = row[enter]
                if a > 0:
                    # Compare row[cols] / a with the best ratio by cross-multiplying.
                    if leave < 0:
                        leave = i
                        continue
                    best = tableau[leave]
                    lhs, rhs = row[cols] * best[enter], best[cols] * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                return "unbounded", enter
            pivot(leave, enter, z)

    def dual_values(zrow: list[int], z_scale: int) -> tuple[Fraction, ...]:
        out = [ZERO] * n_rows
        for i in range(n_rows):
            j = dual_col[i]
            y = Fraction(zrow[j] * col_scale[j], d * z_scale)
            out[i] = -y if norm[i][3] else y
        return tuple(out)

    # Phase 1: drive the artificial variables to zero.  Artificial i stands
    # for s_i times the unscaled one, so it weighs L / s_i.
    starts = [(b, row) for b, row in zip(basis, tableau) if artificial[b]]
    if starts:
        z1_scale = math.lcm(*(col_scale[b] for b, _ in starts))
        z1 = [0] * (cols + 1)
        for b, row in starts:
            w = z1_scale // col_scale[b]
            z1 = [z - w * v for z, v in zip(z1, row)]
            z1[b] = 0  # basic, so its reduced cost is zero
        # Phase 1 updates both objective rows so phase 2 can start directly.
        status, _ = run_simplex([z1, z2], True)
        if status == "unbounded":  # phase-1 objective is bounded by construction
            raise RuntimeError("phase 1 reported unbounded; tableau is corrupt")
        if z1[cols] != 0:
            return LpResult("infeasible", None, None, dual_values(z1, z1_scale), None)
        # Drive leftover basic artificials out; drop redundant rows.
        for i in range(n_rows - 1, -1, -1):
            if not artificial[basis[i]]:
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
                ray[b] = Fraction(-tableau[i][enter] * col_scale[enter], d)
        return LpResult("unbounded", None, None, None, tuple(ray))

    x = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tableau[i][cols], d)
    return LpResult("optimal", Fraction(z2[cols], d * c_scale), tuple(x),
                    dual_values(z2, c_scale), None)
