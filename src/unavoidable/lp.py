"""Exact linear programming over the rationals.

A two-phase revised simplex with Bland's rule, so termination is guaranteed
and optima are exact.  It is fraction-free: each input row is multiplied by
the lcm ``s_i`` of its denominators, and every stored number is a Python
``int`` over one common positive denominator ``d``, the determinant of the
current basis.  A pivot on ``p`` at row r sets every other row to
``(p*row - f*row_r) // d``, with ``f`` that row's entry in the entering column,
a division that is exact (Edmonds 1967; Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", 1968), and then ``d = p``.

Columns are laid out in one pass over the rows, after each row is
normalized to a nonnegative right-hand side.  The n structural columns come
first.  Then each row adds, in row order, its surplus column (coefficient -1,
``>=`` rows only) followed by its starting basic column (coefficient +1): the
slack of a ``<=`` row, or an artificial of a ``>=`` or ``==`` row.  That basic
column also reads off the row's dual multiplier.  Bland's rule breaks ties by
column index, so this order fixes every pivot.

The starting basic columns form an identity, so the tableau ``d*B^-1*A`` is
never stored: only ``d*B^-1`` (one row of coefficients over the input rows
per basic variable) and its right-hand side.  An objective row is kept as
``d*(-c) + lam*A`` by its multipliers ``lam``, and a reduced cost is computed
from the integer matrix, stored column-sparse, when Bland's rule reaches its
column; pricing stops at the first negative one.  A pivot forms the entering
column once, for the ratio test, and updates only ``d*B^-1``, the right-hand
side and each ``lam``.  So a pivot costs O(rows^2 + rows * nonzeros of one
column) plus the columns priced, where a dense tableau rewrites
rows * columns big integers.  A column is stored as (coefficient, rows)
groups, so pricing a 0/+-1 column is one ``sum`` of multipliers.  On
CPython 3.11 (one core of a shared 2-core machine), the margin LP of
``realize`` on ``skeleton(5, 13)`` (14 rows, 3434 columns) takes about
0.36 s, against 1.8 s on a dense fraction-free tableau with the same pivots;
on ``random_selfdual(12, 0)`` (13 rows, 690 columns) 15 ms against 83 ms.

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
from itertools import compress
from operator import mul
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
    if {*map(type, values)} <= {int}:  # already integers: nothing to scale
        return list(values), 1
    exact = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in exact))
    return [v.numerator * (scale // v.denominator) for v in exact], scale


def _dot(column: list[tuple[int, list[int]]], vec: list[int]) -> int:
    """``vec . A[:, j]`` for a column j stored as (coefficient, rows) groups."""
    get = vec.__getitem__
    return sum(v * sum(map(get, rows)) for v, rows in column)


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

    # The column layout of the module docstring, column-sparse: column j is a
    # list of (coefficient, rows holding it), as most coefficients repeat.  A
    # row's surplus and starting basic column are both scaled by its s_i.
    n_rows = len(norm)
    groups: list[dict[int, list[int]]] = [{} for _ in range(n)]
    for i, (coeffs, _, _, _, _) in enumerate(norm):
        for j in compress(range(n), coeffs):
            groups[j].setdefault(coeffs[j], []).append(i)
    columns = [list(g.items()) for g in groups]
    artificial = [False] * n
    col_scale = [1] * n  # the factor by which each column's variable is scaled
    dual_col: list[int] = []
    for i, (_, sense, _, _, scale) in enumerate(norm):
        if sense == GE:
            columns.append([(-1, [i])])
            col_scale.append(scale)
            artificial.append(False)
        dual_col.append(len(columns))
        columns.append([(1, [i])])
        col_scale.append(scale)
        artificial.append(sense != LE)
    cols = len(columns)
    b = [rhs for _, _, rhs, _, _ in norm]

    # Tableau row i is inv[i] . A with right-hand side rhs[i], over d; inv
    # starts as the identity, read off the starting basic columns.
    inv = [[0] * n_rows for _ in range(n_rows)]
    for i, row in enumerate(inv):
        row[i] = 1
    rhs = b[:]
    basis = dual_col[:]
    # Columns that may enter: not basic, and in phase 2 not artificial.
    eligible = [True] * cols
    for j in basis:
        eligible[j] = False
    d = 1  # common denominator of every row, objective rows included

    # An objective row is (base, lam): its entry in column j is
    # d*base[j] + lam . A[:, j], and its value lam . b.
    z2 = ([-v for v in c] + [0] * (cols - n), [0] * n_rows)

    def reduced(z: tuple[list[int], list[int]], j: int) -> int:
        return d * z[0][j] + _dot(columns[j], z[1])

    def value(z: tuple[list[int], list[int]]) -> int:
        return sum(map(mul, z[1], b))

    def column_of(j: int) -> list[int]:
        """Column j of the tableau: its entry in every row."""
        return [_dot(columns[j], row) for row in inv]

    def pivot(row_idx: int, col: int, column: list[int],
              z_rows: list[tuple[list[int], list[int]]]) -> None:
        nonlocal d
        prow, prhs, p = inv[row_idx], rhs[row_idx], column[row_idx]
        z_f = [reduced(z, col) for z in z_rows]
        for i, f in enumerate(column):
            if i != row_idx and (f or p != d):
                inv[i] = [(p * a - f * v) // d for a, v in zip(inv[i], prow)]
                rhs[i] = (p * rhs[i] - f * prhs) // d
        for (_, lam), f in zip(z_rows, z_f):
            if f or p != d:
                lam[:] = [(p * a - f * v) // d for a, v in zip(lam, prow)]
        if p < 0:  # only a drive-out pivot can be negative; keep d > 0
            for i, row in enumerate(inv):
                inv[i] = [-v for v in row]
                rhs[i] = -rhs[i]
            for _, lam in z_rows:
                lam[:] = [-v for v in lam]
            p = -p
        d = p
        eligible[basis[row_idx]] = True
        eligible[col] = False
        basis[row_idx] = col

    def run_simplex(z_rows: list[tuple[list[int], list[int]]]) -> tuple[str, int, list[int]]:
        # Bland's rule: entering = lowest eligible column, leaving = lowest
        # basic variable among minimum-ratio rows.  Guarantees termination.
        base, lam = z_rows[0]
        while True:
            enter = -1
            price = lam.__getitem__  # reduced(z, j), inlined: this loop is the hot path
            for j, ok, column, c_j in zip(range(cols), eligible, columns, base):
                if ok:
                    z = d * c_j
                    for v, rows_v in column:
                        z += v * sum(map(price, rows_v))
                    if z < 0:
                        enter = j
                        break
            if enter < 0:
                return "optimal", -1, []
            column = column_of(enter)
            leave = -1
            for i, a in enumerate(column):
                if a > 0:
                    # Compare rhs[i] / a with the best ratio by cross-multiplying.
                    if leave < 0:
                        leave = i
                        continue
                    lhs, best = rhs[i] * column[leave], rhs[leave] * a
                    if lhs < best or (lhs == best and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                return "unbounded", enter, column
            pivot(leave, enter, column, z_rows)

    def dual_values(z: tuple[list[int], list[int]], z_scale: int) -> tuple[Fraction, ...]:
        out = [ZERO] * n_rows
        for i in range(n_rows):
            j = dual_col[i]
            y = Fraction(reduced(z, j) * col_scale[j], d * z_scale)
            out[i] = -y if norm[i][3] else y
        return tuple(out)

    # Phase 1: drive the artificial variables to zero.  Artificial i stands
    # for s_i times the unscaled one, so it weighs w = L / s_i: the objective
    # row is -w times row i, plus w in the artificial's own (basic) column.
    starts = [(i, j) for i, j in enumerate(basis) if artificial[j]]
    if starts:
        z1_scale = math.lcm(*(col_scale[j] for _, j in starts))
        z1 = ([0] * cols, [0] * n_rows)
        for i, j in starts:
            w = z1_scale // col_scale[j]
            z1[0][j], z1[1][i] = w, -w
        # Phase 1 updates both objective rows so phase 2 can start directly.
        status, _, _ = run_simplex([z1, z2])
        if status == "unbounded":  # phase-1 objective is bounded by construction
            raise RuntimeError("phase 1 reported unbounded; tableau is corrupt")
        if value(z1) != 0:
            return LpResult("infeasible", None, None, dual_values(z1, z1_scale), None)
        # Drive leftover basic artificials out; drop redundant rows.
        for i in range(n_rows - 1, -1, -1):
            if not artificial[basis[i]]:
                continue
            row = inv[i]
            enter = next((j for j in range(cols) if not artificial[j] and _dot(columns[j], row)),
                         -1)
            if enter >= 0:
                pivot(i, enter, column_of(enter), [z1, z2])
            else:
                del inv[i]
                del rhs[i]
                del basis[i]

    # Phase 2 on the real objective; no artificial is basic any more.
    for j in range(cols):
        if artificial[j]:
            eligible[j] = False
    status, enter, column = run_simplex([z2])
    if status == "unbounded":
        ray = [ZERO] * n
        if enter < n:
            ray[enter] = ONE
        for i, j in enumerate(basis):
            if j < n:
                ray[j] = Fraction(-column[i] * col_scale[enter], d)
        return LpResult("unbounded", None, None, None, tuple(ray))

    x = [ZERO] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(rhs[i], d)
    return LpResult("optimal", Fraction(value(z2), d * c_scale), tuple(x),
                    dual_values(z2, c_scale), None)
