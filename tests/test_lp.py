"""Exact simplex solver: textbook cases, degeneracy, duals."""

import hashlib
import random
from fractions import Fraction as F

import pytest

from unavoidable.lp import _integer_row, maximize


def test_basic_optimum_and_duals():
    res = maximize([F(3), F(2)], [([F(1), F(1)], "<=", F(4)),
                                  ([F(1), F(3)], "<=", F(6))])
    assert res.status == "optimal"
    assert res.objective == 12
    assert res.x == (F(4), F(0))
    # strong duality: b.y == objective
    assert F(4) * res.duals[0] + F(6) * res.duals[1] == 12


def test_equality_and_ge_rows():
    res = maximize([F(0), F(1)], [([F(1), F(1)], "==", F(3)),
                                  ([F(1), F(0)], ">=", F(1))])
    assert res.status == "optimal"
    assert res.objective == 2
    assert res.x == (F(1), F(2))


def test_infeasible_detected():
    res = maximize([F(1), F(0)], [([F(1), F(1)], "==", F(2)),
                                  ([F(1), F(0)], ">=", F(3))])
    assert res.status == "infeasible"
    assert res.x is None


def test_unbounded_gives_ray():
    res = maximize([F(1), F(0)], [([F(1), F(-1)], "<=", F(1))])
    assert res.status == "unbounded"
    assert res.ray is not None
    dx, dy = res.ray
    # the ray must keep the constraint satisfied and improve the objective
    assert dx - dy <= 0
    assert dx > 0


def test_beale_degenerate_cycle_terminates():
    # Classic cycling example for naive pivot rules; Bland's rule must finish.
    c = [F(3, 4), F(-150), F(1, 50), F(-6)]
    rows = [([F(1, 4), F(-60), F(-1, 25), F(9)], "<=", F(0)),
            ([F(1, 2), F(-90), F(-1, 50), F(3)], "<=", F(0)),
            ([F(0), F(0), F(1), F(0)], "<=", F(1))]
    res = maximize(c, rows)
    assert res.status == "optimal"
    assert res.objective == F(1, 20)


def test_negative_rhs_normalization():
    # -x <= -2  is  x >= 2
    res = maximize([F(-1)], [([F(-1)], "<=", F(-2))])
    assert res.status == "optimal"
    assert res.x == (F(2),)
    assert res.objective == -2


def test_zero_rhs_ge_rows_need_no_artificial():
    res = maximize([F(1), F(1)], [([F(1), F(-1)], ">=", F(0)),
                                  ([F(1), F(2)], "<=", F(3))])
    assert res.status == "optimal"
    assert res.objective == 3
    assert res.x == (F(3), F(0))


def test_row_length_mismatch_rejected():
    with pytest.raises(ValueError):
        maximize([F(1)], [([F(1), F(2)], "<=", F(1))])
    with pytest.raises(ValueError):
        maximize([F(1)], [([F(1)], "<<", F(1))])


def test_integer_rows_are_kept_with_scale_one():
    assert _integer_row([3, -2, 0, 7]) == ([3, -2, 0, 7], 1)
    assert _integer_row([]) == ([], 1)
    # The same numbers as Fractions, or with one rational, take the scaling path.
    assert _integer_row([F(3), F(-2), F(0), F(7)]) == ([3, -2, 0, 7], 1)
    assert _integer_row([3, F(-1, 2), 0, True]) == ([6, -1, 0, 2], 2)


def test_against_fourier_motzkin_on_random_instances():
    import random

    from oracles import fourier_motzkin_maximize

    rng = random.Random(2718)
    agree = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(300):
        n = rng.randint(1, 3)
        n_rows = rng.randint(1, 4)
        c = [F(rng.randint(-4, 4)) for _ in range(n)]
        rows = []
        for _ in range(n_rows):
            coeffs = [F(rng.randint(-3, 3)) for _ in range(n)]
            sense = rng.choice(["<=", ">=", "=="])
            rhs = F(rng.randint(-4, 6))
            rows.append((coeffs, sense, rhs))
        res = maximize(c, rows)
        status, value = fourier_motzkin_maximize(c, rows)
        assert res.status == status, (c, rows)
        if status == "optimal":
            assert res.objective == value, (c, rows)
        agree[status] += 1
    # the sample must actually exercise all three outcomes
    assert all(agree.values()), agree


def test_redundant_equalities_survive_phase1():
    # Duplicated equality rows leave a basic artificial at zero that must be
    # driven out or dropped.
    rows = [([F(1), F(1)], "==", F(2)),
            ([F(1), F(1)], "==", F(2)),
            ([F(1), F(0)], "<=", F(2))]
    res = maximize([F(1), F(0)], rows)
    assert res.status == "optimal"
    assert res.objective == 2
    assert res.x == (F(2), F(0))


def _random_rational_lp(rng):
    def value():
        return F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 5, 7, 12]))

    n = rng.randint(1, 5)
    c = [value() for _ in range(n)]
    rows = [([value() for _ in range(n)], rng.choice(["<=", ">=", "=="]), value())
            for _ in range(rng.randint(1, 5))]
    return c, rows


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


def _satisfies(lhs, sense, rhs):
    return lhs <= rhs if sense == "<=" else lhs >= rhs if sense == ">=" else lhs == rhs


def test_certificates_on_random_rational_instances():
    # Rational data makes every row, and the objective, take the scaling
    # paths: duals and rays are read from scaled columns and scaled back.
    rng = random.Random(31415)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(1200):
        c, rows = _random_rational_lp(rng)
        res = maximize(c, rows)
        seen[res.status] += 1
        if res.status == "optimal":
            assert all(v >= 0 for v in res.x) and _dot(c, res.x) == res.objective
            assert all(_satisfies(_dot(a, res.x), sense, b) for a, sense, b in rows)
            for (_, sense, _), y in zip(rows, res.duals):
                if sense != "==":
                    assert y >= 0 if sense == "<=" else y <= 0
            for j in range(len(c)):
                assert sum((a[j] * y for (a, _, _), y in zip(rows, res.duals)), F(0)) >= c[j]
            assert _dot([b for _, _, b in rows], res.duals) == res.objective
        elif res.status == "unbounded":
            assert all(v >= 0 for v in res.ray) and _dot(c, res.ray) > 0
            assert all(_satisfies(_dot(a, res.ray), sense, 0) for a, sense, _ in rows)
    assert all(count >= 100 for count in seen.values()), seen


def test_results_pinned_on_random_rational_instances():
    # Bland's rule fixes every pivot, so the full results (which optimal
    # vertex, which duals, which ray) are pinned, not just their validity.  A
    # change to the column layout or the pivot choice changes this digest.
    rng = random.Random(31415)
    digest = hashlib.sha256()
    for _ in range(1200):
        res = maximize(*_random_rational_lp(rng))
        digest.update(repr((res.status, res.objective, res.x, res.duals, res.ray)).encode())
    assert digest.hexdigest() == (
        "d8d33e837897bb6a98be51829c00e12b239def77a5ee7a884204aec6cf79cc5a")


def _wider_rational_lp(rng):
    # Up to 40 columns and 12 rows, half the entries zero; about 30% of the
    # instances repeat an equality row (exactly or scaled), which leaves a
    # zero artificial in the basis after phase 1 to be driven out or dropped.
    def value():
        if rng.random() < 0.5:
            return F(0)
        return F(rng.randint(-9, 9), rng.choice([1, 1, 1, 2, 3, 4, 6, 7]))

    n = rng.randint(1, 40)
    c = [value() for _ in range(n)]
    rows = [([value() for _ in range(n)], rng.choice(["<=", "<=", ">=", "=="]), value())
            for _ in range(rng.randint(1, 9))]
    if rng.random() < 0.6:  # a positive row that bounds every variable
        rows.append(([F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)], "<=",
                     F(rng.randint(1, 20))))
    if rng.random() < 0.3:
        coeffs, rhs = [value() for _ in range(n)], value()
        rows.insert(rng.randint(0, len(rows)), (coeffs, "==", rhs))
        k = rng.choice([F(1), F(1), F(-2), F(3, 5)])
        rows.insert(rng.randint(0, len(rows)), ([k * a for a in coeffs], "==", k * rhs))
    return c, rows


def _margin_lp(m, upper, lower, r):
    # The dual margin LP that realize solves: columns y1, y2, one per upper
    # set, one per lower set; one >= 0 row per vertex and sum v = 1.
    objective = [F(-1), F(1)] + [F(-1, r)] * len(upper) + [F(1, r)] * len(lower)
    rows = [([1, -1] + [1 if fs >> i & 1 else 0 for fs in upper]
             + [-1 if ns >> i & 1 else 0 for ns in lower], ">=", 0) for i in range(m)]
    rows.append(([0, 0] + [0] * len(upper) + [1] * len(lower), "==", 1))
    return objective, rows


def _wider_instances():
    from oracles import random_complex

    rng = random.Random(1618)
    for _ in range(400):
        yield _wider_rational_lp(rng)
    for _ in range(150):
        m = rng.randint(2, 10)
        K = random_complex(rng, m, max_facets=rng.choice([3, 6, 12, 40]))
        if not K.min_nonfaces:
            continue
        r = rng.choice([2, 2, 3])
        upper = [] if rng.random() < 0.25 else [f for f in K.facets if f]
        yield _margin_lp(m, upper, K.min_nonfaces, r)


def test_results_pinned_on_wider_instances():
    # A second pin, past the small instances above: wider rows, duplicated
    # equality rows, and margin LPs of random complexes at m <= 10.
    digest = hashlib.sha256()
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for c, rows in _wider_instances():
        res = maximize(c, rows)
        seen[res.status] += 1
        digest.update(repr((res.status, res.objective, res.x, res.duals, res.ray)).encode())
    assert all(seen.values()), seen
    assert digest.hexdigest() == (
        "022154830aaf3a8bfc9dd1a59fb10ee3fb993ec4c1e94b5e9e34233e75bf570b")
