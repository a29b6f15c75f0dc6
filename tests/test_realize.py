"""Realizability: weighted-hypergraph measures, geometric measures, LPs."""

import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unavoidable import (
    GeometricMeasure,
    Measure,
    WeightedHypergraph,
    contains_clique,
    delete_facet,
    from_facets,
    is_linearly_realizable,
    is_r_unavoidable,
    is_self_dual,
    linear_subcomplex_witness,
    measure_from_json,
    measure_to_json,
    partition_number,
    pi_upper_bound,
    points,
    prune_zero_weights,
    ramsey_complex,
    random_selfdual,
    selfdual_wh_realization,
    skeleton,
    sublevel_complex,
    superadditive_sublevel,
    weights_from_json,
    weights_to_json,
    wh_realization_check,
)
from unavoidable.bitsets import elements, full_mask
from unavoidable.errors import BudgetExceededError

from oracles import brute_faces, oracle_wh_measure, oracle_wh_realization_check, random_complex


def _random_wh(rng: random.Random, m: int, max_members: int = 8) -> WeightedHypergraph:
    members: set[int] = set()
    for _ in range(rng.randint(1, max_members)):
        mask = rng.getrandbits(m)
        if mask:
            members.add(mask)
    if not members:
        members.add(1)
    omega = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in members]
    return WeightedHypergraph(m, sorted(members), omega)


# --- weighted hypergraph measure ------------------------------------------------

def test_wh_measure_examples():
    big_sets = [c for k in (3, 4, 5) for c in combinations(range(1, 6), k)]
    F = WeightedHypergraph(5, big_sets, [1] * len(big_sets))
    assert F.value({1, 2, 3, 4}) == 1

    singles = WeightedHypergraph(3, [[1], [2], [3]], [1, 2, 3])
    assert singles.value({1, 3}) == 4
    assert singles.value([]) == 0


def test_wh_measure_matches_exhaustive_packing():
    rng = random.Random(55)
    for _ in range(40):
        m = rng.randint(1, 6)
        F = _random_wh(rng, m, max_members=6)
        for _ in range(6):
            subset = rng.getrandbits(m)
            assert F.value(subset) == oracle_wh_measure(F.members, F.omega, subset)
    # denser families on small ground sets
    for _ in range(15):
        m = rng.randint(2, 5)
        F = _random_wh(rng, m, max_members=10)
        for subset in range(1 << m):
            assert F.value(subset) == oracle_wh_measure(F.members, F.omega, subset)
    # many zero-weight members, which the least-vertex recursion drops
    for _ in range(150):
        m = rng.randint(1, 8)
        members = sorted({rng.getrandbits(m) or 1 << rng.randrange(m) for _ in range(7)})
        omega = [0 if rng.random() < 0.4 else Fraction(rng.randint(1, 6), rng.randint(1, 4))
                 for _ in members]
        F = WeightedHypergraph(m, members, omega)
        for subset in [full_mask(m)] + [rng.getrandbits(m) for _ in range(8)]:
            assert F.value(subset) == oracle_wh_measure(F.members, F.omega, subset)


def test_wh_measure_concurrent_evaluation_consistent():
    # the memo is append-only under the GIL; concurrent readers agree
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(58)
    F = _random_wh(rng, 6, max_members=8)
    masks = [rng.getrandbits(6) for _ in range(64)]
    expected = [oracle_wh_measure(F.members, F.omega, mask) for mask in masks]
    fresh = WeightedHypergraph(F.m, F.members, F.omega)
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(fresh.value, masks))
    assert got == expected


def test_wh_validation():
    with pytest.raises(ValueError):
        WeightedHypergraph(3, [[1], [1]], [1, 1])  # duplicate
    with pytest.raises(ValueError):
        WeightedHypergraph(3, [[]], [1])  # empty member
    with pytest.raises(ValueError):
        WeightedHypergraph(3, [[1]], [-1])  # negative weight
    with pytest.raises(ValueError):
        WeightedHypergraph(3, [[1]], [1, 2])  # length mismatch
    with pytest.raises(BudgetExceededError, match="m <= 22"):
        WeightedHypergraph(23, [[1]], [1])
    with pytest.raises(BudgetExceededError, match="4096"):
        WeightedHypergraph(13, range(1, 4098), [1] * 4097)
    empty = WeightedHypergraph(3, [], [])  # empty family: measure is 0
    assert empty.value([1, 2, 3]) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_wh_measure_superadditive_and_monotone(m, data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    F = _random_wh(rng, m)
    full = full_mask(m)
    a = data.draw(st.integers(0, full))
    b = data.draw(st.integers(0, full))
    assert F.value(a | b) >= F.value(a & ~b)  # monotone
    if a & b == 0:
        assert F.value(a | b) >= F.value(a) + F.value(b)


# --- geometric measures ----------------------------------------------------------

def _example_53(q: int, p: int) -> GeometricMeasure:
    return GeometricMeasure((Measure.uniform(q), Measure.counting(q, range(1, p + 1))))


def test_geometric_measure_examples():
    G = _example_53(6, 3)
    assert G.value({4, 5, 6}) == 0
    assert G.value({1, 2}) == Fraction(1, 3)
    assert G.value(range(1, 7)) == 1


def test_geometric_superadditive():
    rng = random.Random(60)
    for _ in range(30):
        m = rng.randint(1, 6)
        comps = tuple(
            Measure(tuple(Fraction(rng.randint(0, 4) + (1 if i == 0 else 0))
                          for i in range(m)))
            for _ in range(rng.randint(1, 3)))
        G = GeometricMeasure(comps)
        full = full_mask(m)
        for _ in range(8):
            a = rng.getrandbits(m)
            b = rng.getrandbits(m) & ~a
            assert G.value(a | b) >= G.value(a) + G.value(b)
            sub = a & rng.getrandbits(m)
            assert G.value(sub) <= G.value(a)  # monotone
        assert G.total == G.value(full)


# --- sub-level construction -------------------------------------------------------

def test_superadditive_sublevel_union_identity():
    # min of two measures: the sub-level complex is the union of the two
    # separate sub-level complexes.
    G = _example_53(6, 3)
    K = superadditive_sublevel(G, 2)
    u1 = sublevel_complex(G.components[0], Fraction(1, 2))
    u2 = sublevel_complex(G.components[1], Fraction(1, 2))
    union = from_facets(6, list(u1.facets) + list(u2.facets))
    assert K == union


def test_sublevel_complex_of_nonadditive_measures_matches_brute_force():
    rng = random.Random(62)
    for _ in range(40):
        m = rng.randint(1, 7)
        if rng.random() < 0.5:
            nu = _random_wh(rng, m)
        else:
            nu = GeometricMeasure(tuple(
                Measure(tuple(Fraction(rng.randint(0, 4) + (1 if i == 0 else 0), rng.randint(1, 3))
                              for i in range(m)))
                for _ in range(rng.randint(1, 3))))
        beta = Fraction(rng.randint(0, 12), rng.randint(1, 4))
        want = {a for a in range(1 << m) if nu.value(a) <= beta}
        assert brute_faces(sublevel_complex(nu, beta)) == want
    # Geometric measures whose components may have zero weights, at
    # thresholds that often equal a component's subset sum.
    for _ in range(200):
        m = rng.randint(1, 8)
        comps = []
        for _ in range(rng.randint(1, 3)):
            ws = [Fraction(0) if rng.random() < 0.3
                  else Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(m)]
            if not any(ws):
                ws[rng.randrange(m)] = Fraction(1)
            comps.append(Measure(tuple(ws)))
        nu = GeometricMeasure(tuple(comps))
        if rng.random() < 0.5:
            beta = rng.choice(comps).value(rng.getrandbits(m))
        else:
            beta = Fraction(rng.randint(0, 12), rng.randint(1, 4))
        want = {a for a in range(1 << m) if nu.value(a) <= beta}
        assert brute_faces(sublevel_complex(nu, beta)) == want
    # Weighted hypergraphs with zero-weight members, at thresholds 0, at a
    # subset's value and at alpha / 1..4.
    for _ in range(150):
        m = rng.randint(1, 10)
        members = sorted({rng.getrandbits(m) or 1 << rng.randrange(m)
                          for _ in range(rng.randint(0, 16))})
        omega = [0 if rng.random() < 0.3 else Fraction(rng.randint(1, 6), rng.randint(1, 4))
                 for _ in members]
        nu = WeightedHypergraph(m, members, omega)
        beta = rng.choice([Fraction(0), nu.value(rng.getrandbits(m)),
                           nu.total / rng.randint(1, 4)])
        want = {a for a in range(1 << m) if nu.value(a) <= beta}
        assert brute_faces(sublevel_complex(nu, beta)) == want


def test_wh_sublevel_complex_at_m20():
    # 55 members on 20 vertices; both sides of the check are down-sets, so
    # testing K's facets and minimal non-faces decides equality.
    rng = random.Random(20)
    members = sorted({rng.getrandbits(20) or 1 for _ in range(55)})
    F = WeightedHypergraph(20, members, [Fraction(rng.randint(1, 6), rng.randint(1, 4))
                                         for _ in members])
    K = superadditive_sublevel(F, 2)
    assert K.min_nonfaces
    assert wh_realization_check(K, 2, F)


def test_superadditive_sublevel_additive_case_recovers_linear():
    mu = Measure.uniform(5)
    assert superadditive_sublevel(mu, 3) == sublevel_complex(mu, Fraction(1, 3))


def test_superadditive_sublevel_selfdual_indicator():
    for K in (random_selfdual(5, seed=4), random_selfdual(12, seed=0)):
        assert is_self_dual(K)
        F = selfdual_wh_realization(K)
        assert superadditive_sublevel(F, 2) == K


def test_superadditive_sublevel_always_unavoidable():
    rng = random.Random(61)
    for _ in range(25):
        m = rng.randint(2, 6)
        F = _random_wh(rng, m)
        if F.total == 0:
            continue
        r = rng.randint(2, 4)
        K = superadditive_sublevel(F, r)
        assert is_r_unavoidable(K, r)[0]


def test_superadditive_sublevel_check_survives_optimization(monkeypatch):
    # The unavoidability re-check is a RuntimeError, not an assert, so it
    # still runs under python -O.
    import unavoidable.realize

    monkeypatch.setattr(unavoidable.realize, "is_r_unavoidable", lambda K, r: (False, None))
    with pytest.raises(RuntimeError):
        superadditive_sublevel(Measure.uniform(5), 3)


def test_pi_upper_bound_examples():
    assert pi_upper_bound(1, Fraction(1, 3)) == 3
    assert pi_upper_bound(1, Fraction(1, 2)) == 2
    assert pi_upper_bound(Fraction(5, 2), Fraction(3, 4)) == 4
    with pytest.raises(ValueError):
        pi_upper_bound(1, 0)


def test_pi_bounded_by_ceiling():
    rng = random.Random(62)
    for _ in range(25):
        m = rng.randint(2, 6)
        F = _random_wh(rng, m)
        alpha = F.total
        if alpha == 0:
            continue
        beta = alpha * Fraction(rng.randint(1, 4), 4)
        facets = [mask for mask in range(1 << m)
                  if F.value(mask) <= beta]
        K = from_facets(m, facets)
        assert partition_number(K) <= pi_upper_bound(alpha, beta)


# --- linear realizability LP -----------------------------------------------------

def test_linear_realizability_examples():
    v = is_linearly_realizable(points(5), 3)
    assert v.feasible
    assert v.margin > 0
    assert v.witness.value([1, 2]) > Fraction(1, 3)

    for n in (1, 2, 3):
        v = is_linearly_realizable(skeleton(n, 2 * n + 3), 2)
        assert v.feasible, n

    v = is_linearly_realizable(points(6), 3)  # not 3-unavoidable: short-circuits
    assert not v.feasible
    assert "unavoidable" in v.infeasibility_note


def test_realizable_witness_reconstructs_complex():
    rng = random.Random(70)
    for _ in range(30):
        m = rng.randint(3, 7)
        r = rng.choice([2, 3])
        weights = [Fraction(rng.randint(1, 9)) for _ in range(m)]
        total = sum(weights)
        mu = Measure(tuple(w / total for w in weights))
        K = sublevel_complex(mu, Fraction(1, r))
        v = is_linearly_realizable(K, r)
        assert v.feasible, (K, r)
        assert sublevel_complex(v.witness, Fraction(1, r)) == K


def test_full_simplex_never_realizable_but_relaxed_trivial():
    full = from_facets(4, [[1, 2, 3, 4]])
    v = is_linearly_realizable(full, 2)
    assert not v.feasible
    relaxed = linear_subcomplex_witness(full, 2)
    assert relaxed.feasible
    assert relaxed.margin is None  # no non-face constraints at all


def test_relaxed_witness_gives_unavoidable_subcomplex():
    rng = random.Random(71)
    for _ in range(20):
        K = random_complex(rng, rng.randint(2, 6))
        r = rng.choice([2, 3])
        v = linear_subcomplex_witness(K, r)
        if not v.feasible:
            continue
        sub = sublevel_complex(v.witness, Fraction(1, r))
        assert all(K.is_face(f) for f in sub.facets)
        assert is_r_unavoidable(sub, r)[0]


def test_relaxed_lp_feasible_for_geometric_sublevels():
    # sub-level complexes of min-of-measures always contain a linearly
    # realizable unavoidable subcomplex, so the relaxed LP must be feasible
    for q, p, r in ((6, 3, 2), (5, 2, 2), (7, 4, 3)):
        K = superadditive_sublevel(_example_53(q, p), r)
        v = linear_subcomplex_witness(K, r)
        assert v.feasible, (q, p, r)
    rng = random.Random(85)
    for _ in range(12):
        m = rng.randint(2, 6)
        comps = tuple(
            Measure(tuple(Fraction(rng.randint(0, 5) + (1 if i == 0 else 0), 3)
                          for i in range(m)))
            for _ in range(rng.randint(1, 3)))
        r = rng.choice([2, 3])
        K = superadditive_sublevel(GeometricMeasure(comps), r)
        assert linear_subcomplex_witness(K, r).feasible


def test_margin_is_exact_optimum():
    # points(5) at r=3: min pair weight is maximized by the uniform measure,
    # giving margin 2/5 - 1/3 = 1/15.
    v = is_linearly_realizable(points(5), 3)
    assert v.margin == Fraction(1, 15)
    # skeleton(1,5) at r=2: margin 3/5 - 1/2 = 1/10.
    v = is_linearly_realizable(skeleton(1, 5), 2)
    assert v.margin == Fraction(1, 10)


# Margins, witnesses and the Farkas note of the margin LP as the dense
# Fraction tableau gave them.  Bland's rule must take the same pivots on any
# tableau representation, so the optimal vertex and its witness stay these.
PINNED_SELFDUAL_MARGIN_LP = {
    9: ("1/146",
        "9/73 9/73 2/73 5/73 12/73 11/73 8/73 6/73 11/73"),
    10: ("1/230",
        "13/115 13/115 2/115 9/115 16/115 3/23 12/115 9/115 3/23 11/115"),
    11: ("1/282",
        "13/141 14/141 2/141 3/47 17/141 16/141 13/141 10/141 16/141 4/47 19/141"),
}
K6_FARKAS_NOTE = (
    "constraint system is contradictory: the listed nonnegative combination of constraints "
    "sums to an impossibility; "
    "total-mass x -8; "
    "facet (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12) x 1; "
    "facet (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 14) x 1; "
    "facet (1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 14, 15) x 1; "
    "facet (1, 2, 3, 4, 5, 7, 8, 10, 11, 13, 14, 15) x 1; "
    "facet (1, 2, 3, 4, 5, 8, 9, 11, 12, 13, 14, 15) x 1; "
    "facet (1, 2, 4, 6, 7, 8, 9, 10, 11, 12, 13, 15) x 1; "
    "facet (1, 3, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15) x 1; "
    "facet (1, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15) x 1; "
    "facet (2, 3, 4, 6, 7, 8, 10, 11, 12, 13, 14, 15) x 1; "
    "facet (2, 3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15) x 1"
)

K6_RELAXED_NOTE = (
    "optimal margin -1/10 <= 0: the listed dual weights cap the margin; "
    "total-mass x 2/5; "
    "non-face (1, 2, 6, 13, 14, 15) x 1/10; "
    "non-face (1, 3, 7, 11, 12, 15) x 1/10; "
    "non-face (1, 4, 8, 10, 12, 14) x 1/10; "
    "non-face (1, 5, 9, 10, 11, 13) x 1/10; "
    "non-face (2, 3, 8, 9, 10, 15) x 1/10; "
    "non-face (2, 4, 7, 9, 11, 14) x 1/10; "
    "non-face (2, 5, 7, 8, 12, 13) x 1/10; "
    "non-face (3, 4, 6, 9, 12, 13) x 1/10; "
    "non-face (3, 5, 6, 8, 11, 14) x 1/10; "
    "non-face (4, 5, 6, 7, 10, 15) x 1/10"
)


def test_margin_lp_pivot_path_is_pinned():
    for m, (margin, witness) in PINNED_SELFDUAL_MARGIN_LP.items():
        v = is_linearly_realizable(random_selfdual(m, 0), 2)
        assert v.feasible and str(v.margin) == margin, m
        assert " ".join(str(w) for w in v.witness.weights) == witness, m
    v = linear_subcomplex_witness(skeleton(3, 9), 2)
    assert v.margin == Fraction(1, 18)
    assert v.witness.weights == (Fraction(1, 9),) * 9
    K6, _ = ramsey_complex(6, contains_clique(3))
    assert is_linearly_realizable(K6, 2).infeasibility_note == K6_FARKAS_NOTE


def test_margin_lp_decides_large_examples():
    # About 12 s and 6 s on the dense Fraction tableau; well under 1 s each
    # on the fraction-free one.
    assert is_linearly_realizable(skeleton(4, 11), 2).margin == Fraction(1, 22)
    K6, _ = ramsey_complex(6, contains_clique(3))
    relaxed = linear_subcomplex_witness(K6, 2)
    assert relaxed.margin == Fraction(-1, 10)
    assert relaxed.infeasibility_note == K6_RELAXED_NOTE


def _corrupt_margin_lp(monkeypatch, measure=None, shift=0, ray=None):
    """Make the margin LP's result carry the witness ``measure(mu)`` instead of
    mu and an optimum moved by ``shift``, or the Farkas ray ``ray(y)``
    instead of y."""
    import unavoidable.realize

    solve = unavoidable.realize.maximize

    def corrupted(objective, rows):
        res = solve(objective, rows)
        if res.status == "unbounded":
            return res if ray is None else dataclasses.replace(res, ray=ray(res.ray))
        m, duals = len(rows) - 1, res.duals
        if measure is not None:
            duals = tuple(-w for w in measure(tuple(-d for d in duals[:m]))) + duals[m:]
        return dataclasses.replace(res, objective=res.objective - shift, duals=duals)

    monkeypatch.setattr(unavoidable.realize, "maximize", corrupted)


WITNESS_CORRUPTIONS = {
    "negative-weight": ({"measure": lambda mu: (mu[0] + 1, mu[1] - 1) + mu[2:]},
                        "not a probability"),
    "total-not-1": ({"measure": lambda mu: tuple(2 * w for w in mu)}, "not a probability"),
    "shifted-margin": ({"shift": Fraction(1, 1000)}, "duality gap"),
}


@pytest.mark.parametrize("case", sorted(WITNESS_CORRUPTIONS))
@pytest.mark.parametrize("solve", [is_linearly_realizable, linear_subcomplex_witness])
def test_margin_lp_postconditions_catch_a_corrupted_witness(monkeypatch, solve, case):
    corruption, message = WITNESS_CORRUPTIONS[case]
    _corrupt_margin_lp(monkeypatch, **corruption)
    with pytest.raises(RuntimeError, match=message):
        solve(skeleton(1, 5), 2)


def test_margin_lp_postconditions_catch_a_heavy_facet(monkeypatch):
    # All mass on vertex 1: a probability, but the facets through 1 weigh 1 > 1/2.
    _corrupt_margin_lp(monkeypatch, measure=lambda mu: (Fraction(1),) + (0,) * (len(mu) - 1))
    with pytest.raises(RuntimeError, match="upper constraint"):
        is_linearly_realizable(skeleton(1, 5), 2)


# The Farkas ray is y = (y1, y2, u_F..., v_N...); its last entry weights a
# non-face, so it multiplies the margin row.
RAY_CORRUPTIONS = {
    "negative-weight": (lambda y: (-1,) + y[1:], "negative weights"),
    "margin-row": (lambda y: y[:-1] + (y[-1] + 1,), "touches the margin row"),
    "infeasible": (lambda y: (y[0], y[1] + 100) + y[2:], "not dual-feasible"),
    "no-improvement": (lambda y: (y[0] + 100,) + y[1:], "does not improve"),
}


@pytest.mark.parametrize("case", sorted(RAY_CORRUPTIONS))
def test_margin_lp_postconditions_catch_a_corrupted_farkas_ray(monkeypatch, case):
    # The K_6 triangle complex at r = 2 has a contradictory margin LP, so the
    # solver returns a Farkas ray.
    K6, _ = ramsey_complex(6, contains_clique(3))
    corruption, message = RAY_CORRUPTIONS[case]
    _corrupt_margin_lp(monkeypatch, ray=corruption)
    with pytest.raises(RuntimeError, match=message):
        is_linearly_realizable(K6, 2)


def test_relaxed_witness_checks_survive_optimization(monkeypatch):
    # The relaxed witness's sub-level complex is re-checked by RuntimeErrors,
    # not asserts, so both checks still run under python -O.
    import unavoidable.realize

    K = skeleton(1, 5)
    with monkeypatch.context() as patch:
        patch.setattr(unavoidable.realize, "sublevel_complex",
                      lambda nu, beta: from_facets(5, [full_mask(5)]))
        with pytest.raises(RuntimeError, match="not inside K"):
            linear_subcomplex_witness(K, 2)
    monkeypatch.setattr(unavoidable.realize, "is_r_unavoidable", lambda K, r: (False, None))
    with pytest.raises(RuntimeError, match="is not r-unavoidable"):
        linear_subcomplex_witness(K, 2)


def test_canonical_realization_check_survives_optimization(monkeypatch):
    import unavoidable.realize

    monkeypatch.setattr(unavoidable.realize, "wh_realization_check", lambda K, r, F: False)
    with pytest.raises(RuntimeError, match="does not realize the complex"):
        selfdual_wh_realization(skeleton(1, 5))


def test_lp_constraint_cap():
    with pytest.raises(BudgetExceededError):
        is_linearly_realizable(skeleton(1, 5), 2, max_constraints=3)


# --- WH realizability --------------------------------------------------------------

def test_wh_realization_selfdual_indicator():
    K = skeleton(1, 5)
    F = selfdual_wh_realization(K)
    assert F.total == 1
    assert wh_realization_check(K, 2, F)


def test_wh_realization_additive_from_lp_witness():
    v = is_linearly_realizable(points(5), 3)
    F = WeightedHypergraph(5, [[i] for i in range(1, 6)], list(v.witness.weights))
    assert wh_realization_check(points(5), 3, F)


def test_wh_realization_rejects_wrong_family():
    F = WeightedHypergraph(5, [[1, 2, 3, 4, 5]], [1])
    assert not wh_realization_check(points(5), 3, F)
    with pytest.raises(ValueError, match="ground sets differ"):
        wh_realization_check(points(4), 3, F)


def test_wh_realization_check_matches_exhaustive_oracle():
    rng = random.Random(329)
    verdicts = {True: 0, False: 0}
    for _ in range(160):
        m = rng.randint(1, 6)
        F = _random_wh(rng, m, max_members=5)
        if F.total == 0:
            continue
        r = rng.randint(2, 4)
        if rng.random() < 0.6:
            # The sub-level complex itself, sometimes with one facet deleted.
            threshold = oracle_wh_measure(F.members, F.omega, full_mask(m)) / r
            K = from_facets(m, [a for a in range(1 << m)
                                if oracle_wh_measure(F.members, F.omega, a) <= threshold])
            nonempty = [f for f in K.facets if f]
            if nonempty and rng.random() < 0.4:
                K = delete_facet(K, rng.choice(nonempty))
        else:
            K = random_complex(rng, m)
        want = oracle_wh_realization_check(K, r, F)
        assert wh_realization_check(K, r, F) == want
        verdicts[want] += 1
    assert min(verdicts.values()) >= 30


def test_wh_realization_check_on_random_selfdual_18():
    # random_selfdual(18, 0) is the weighted-majority complex of these
    # integer weights, so their singleton hypergraph realizes it at r = 2.
    m = 18
    rng = random.Random(0)
    weights = [rng.randint(1, 2 * m + 1) for _ in range(m)]
    if sum(weights) % 2 == 0:
        weights[0] += 1
    K = random_selfdual(m, 0)
    assert len(K.facets) == 12027 and len(K.min_nonfaces) == 12027
    F = WeightedHypergraph(m, [[v] for v in range(1, m + 1)], weights)
    assert wh_realization_check(K, 2, F)


def test_selfdual_realization_rejects_non_selfdual():
    with pytest.raises(ValueError):
        selfdual_wh_realization(points(5))


def test_selfdual_realization_caps_its_family():
    # The canonical family is every nonempty subset: 2^13 - 1 > 4096 members.
    with pytest.raises(BudgetExceededError, match="m <= 12"):
        selfdual_wh_realization(random_selfdual(13, 0))


def test_prune_zero_weights_preserves_measure_exhaustively():
    rng = random.Random(77)
    for _ in range(20):
        m = rng.randint(1, 6)
        F = _random_wh(rng, m)
        pruned = prune_zero_weights(F)
        assert all(w != 0 for w in pruned.omega)
        for mask in range(1 << m):
            assert F.value(mask) == pruned.value(mask)
    allzero = WeightedHypergraph(3, [[1], [2, 3]], [0, 0])
    assert prune_zero_weights(allzero).members == ()


def test_selfdual_canonical_prunes_to_nonfaces():
    K = random_selfdual(5, seed=9)
    F = prune_zero_weights(selfdual_wh_realization(K))
    assert all(not K.is_face(member) for member in F.members)
    for mask in range(1 << 5):
        assert F.value(mask) == (0 if K.is_face(mask) else 1)


# --- additive specialization -------------------------------------------------------

def test_singleton_family_is_additive_exhaustive():
    rng = random.Random(80)
    for _ in range(10):
        m = rng.randint(1, 10)
        weights = [Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(m)]
        F = WeightedHypergraph(m, [[i] for i in range(1, m + 1)], weights)
        mu_like = lambda mask: sum(weights[i] for i in range(m) if mask >> i & 1)
        for mask in range(1 << m):
            assert F.value(mask) == mu_like(mask)


# --- JSON wire formats ---------------------------------------------------------------

def test_weights_json_round_trip():
    F = WeightedHypergraph(4, [[1, 2], [3]], [Fraction(1, 3), 2])
    obj = weights_to_json(F)
    assert obj == {"m": 4, "family": [[1, 2], [3]], "omega": ["1/3", "2"]}
    back = weights_from_json(obj)
    assert back.members == F.members and back.omega == F.omega
    with pytest.raises(ValueError):
        weights_from_json({"m": 4, "family": [[1]]})


def test_json_weights_require_vertex_lists():
    # Bare ints would be read as bit masks: 5 is {1, 3}, 10 is {2, 4}.
    for family in ([5, 10], [[1, 2], 3], [True], [[1], False], 5, "12"):
        with pytest.raises(ValueError):
            weights_from_json({"m": 4, "family": family, "omega": ["1"] * 2})
    F = weights_from_json({"m": 4, "family": [[1, 3], [2, 4]], "omega": ["1", "1"]})
    assert F.members == (0b0101, 0b1010)
    assert WeightedHypergraph(4, [5, 10], [1, 1]).members == F.members  # the API takes masks


def test_json_weights_require_weight_lists():
    # A string would be read as one weight per character: "11" as 1 and 1.
    with pytest.raises(ValueError, match="omega"):
        weights_from_json({"m": 2, "family": [[1], [2]], "omega": "11"})
    with pytest.raises(ValueError, match="weights"):
        measure_from_json({"weights": "11"})
    with pytest.raises(ValueError, match="missing key"):
        measure_from_json({})
    for not_an_object in ([1, 2], "abc", None, 3):
        with pytest.raises(ValueError, match="JSON object"):
            weights_from_json(not_an_object)
        with pytest.raises(ValueError, match="JSON object"):
            measure_from_json(not_an_object)
    assert weights_from_json({"m": 2, "family": [[1], [2]], "omega": ["1", "1"]}).omega == (1, 1)
    assert measure_from_json({"weights": ["1", "1"]}).weights == (1, 1)


def test_weighted_hypergraph_orders_members_and_keeps_their_weights():
    rng = random.Random(81)
    for _ in range(50):
        m = rng.randint(1, 10)
        masks = rng.sample(range(1, 1 << m), rng.randint(1, min(20, (1 << m) - 1)))
        weights = [Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in masks]
        F = WeightedHypergraph(m, masks, weights)
        assert F.members == tuple(sorted(masks, key=elements))
        assert dict(zip(F.members, F.omega)) == dict(zip(masks, weights))


def test_measure_json_round_trip():
    mu = Measure((Fraction(1, 2), Fraction(1, 2)))
    assert measure_from_json(measure_to_json(mu)) == mu


def test_json_weights_reject_zero_denominator():
    with pytest.raises(ValueError):
        measure_from_json({"weights": ["1/0"]})
    with pytest.raises(ValueError):
        weights_from_json({"m": 2, "family": [[1]], "omega": ["1/0"]})
