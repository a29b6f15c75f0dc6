"""Core complex representation: construction, duality, joins, sub-levels, files."""

import math
import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unavoidable import (
    GeometricMeasure,
    Measure,
    ScxFormatError,
    VOID,
    alexander_dual,
    delete_facet,
    format_scx,
    from_facets,
    is_self_dual,
    join,
    parse_scx,
    points,
    random_selfdual,
    skeleton,
    sublevel_complex,
)
from unavoidable import complexes
from unavoidable.bitsets import elements, full_mask
from unavoidable.complexes import (
    _antichains_from_indicator,
    _incidence_rows,
    _maximal_antichain,
    _min_nonfaces_from_facets,
)
from unavoidable.errors import BudgetExceededError

from oracles import brute_faces, brute_min_nonfaces, oracle_num_faces, random_complex


@st.composite
def small_complexes(draw, max_m=6):
    m = draw(st.integers(1, max_m))
    n_facets = draw(st.integers(1, 5))
    facets = [draw(st.sets(st.integers(1, m), max_size=m)) for _ in range(n_facets)]
    return from_facets(m, facets)


# --- from_facets -----------------------------------------------------------

def test_one_skeleton_of_tetrahedron():
    K = from_facets(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}, {1, 3}, {2, 4}])
    # facets in lexicographic vertex-tuple order: 12, 13, 14, 23, 24, 34
    assert [elements(f) for f in K.facets] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert set(K.min_nonfaces) == {0b0111, 0b1011, 0b1101, 0b1110}


def test_empty_complex_min_nonfaces_are_singletons():
    K = from_facets(3, [[]])
    assert K.facets == (0,)
    assert K.min_nonfaces == (0b001, 0b010, 0b100)
    assert K.dim == -1


def test_two_skeleton_nonfaces():
    K = from_facets(5, combinations(range(1, 6), 2))
    assert len(K.min_nonfaces) == 10
    assert all(nf.bit_count() == 3 for nf in K.min_nonfaces)


def test_facet_reduction_and_errors():
    K = from_facets(3, [[1], [1, 2], []])
    assert K.facets == (0b011, )  # not an antichain input; reduced
    with pytest.raises(ValueError):
        from_facets(3, [])
    with pytest.raises(ValueError):
        from_facets(3, [[4]])
    with pytest.raises(ValueError):
        from_facets(0, [[]])


def test_ground_set_limits():
    K = from_facets(63, [[63], [1, 2]])
    assert K.m == 63 and len(K.min_nonfaces) == 62
    with pytest.raises(ValueError):
        from_facets(64, [[1]])
    # full-simplex factors skip the subset walk entirely
    big = join(from_facets(31, [full_mask(31)]), from_facets(31, [full_mask(31)]))
    assert big.min_nonfaces == ()
    assert alexander_dual(big) is VOID
    with pytest.raises(ValueError):
        join(from_facets(32, [full_mask(32)]), from_facets(32, [full_mask(32)]))


def test_isolated_ground_set_elements_count():
    # Vert(K) may be a proper subset of [m]; the unused elements are
    # minimal non-faces and enter every partition question.
    K = from_facets(7, [[i] for i in range(1, 6)])
    assert K.vertices == (1, 2, 3, 4, 5)
    assert (1 << 5) in K.min_nonfaces and (1 << 6) in K.min_nonfaces
    from unavoidable import partition_number
    assert partition_number(K) == 5


def test_min_nonfaces_match_brute_force_on_random_complexes():
    rng = random.Random(2024)
    cases = [from_facets(1, [[]]), from_facets(6, [[]]), from_facets(1, [[1]]),
             from_facets(9, [full_mask(9)]), from_facets(8, [[1, 2], [3]])]
    for _ in range(320):
        m = rng.randint(1, 10)
        # Facets drawn inside a random support leave isolated ground-set vertices.
        support = rng.getrandbits(m)
        facets = [rng.getrandbits(m) & support for _ in range(rng.randint(1, 8))]
        cases.append(from_facets(m, facets))
    for K in cases:
        assert K.min_nonfaces == tuple(sorted(brute_min_nonfaces(K), key=elements))


def test_maximal_antichain_matches_pairwise_filter():
    rng = random.Random(11)
    for _ in range(500):
        m = rng.randint(1, 12)
        masks = [rng.getrandbits(m) for _ in range(rng.randint(1, 12))]
        masks += rng.choices(masks, k=rng.randint(0, 3)) + [0] * rng.randint(0, 2)
        uniq = sorted(set(masks), key=elements)
        naive = [a for a in uniq if not any(a != b and a & ~b == 0 for b in uniq)]
        assert _maximal_antichain(masks) == naive
    assert _maximal_antichain([0, 0]) == [0]


def _mmcs_antichains(m, masks):
    maximal = tuple(_maximal_antichain(masks))
    return maximal, _min_nonfaces_from_facets(m, maximal)


def test_indicator_antichains_match_mmcs_on_random_complexes():
    # Facets are drawn non-maximal and duplicated on purpose; a random support
    # leaves isolated vertices.
    rng = random.Random(32)
    cases = [(m, [0]) for m in range(1, 13)] + [(m, [full_mask(m)]) for m in range(1, 13)]
    cases += [(m, [0, full_mask(m), 0]) for m in (1, 2, 3, 9)]
    for _ in range(2400):
        m = rng.randint(1, 12)
        support = rng.getrandbits(m) if rng.random() < 0.3 else full_mask(m)
        facets = [rng.getrandbits(m) & rng.getrandbits(m) & support
                  for _ in range(rng.randint(1, 24))]
        facets += [a & rng.getrandbits(m) for a in rng.choices(facets, k=rng.randint(0, 6))]
        facets += rng.choices(facets, k=rng.randint(0, 4)) + [0] * rng.randint(0, 1)
        cases.append((m, facets))
    for m, facets in cases:
        assert _antichains_from_indicator(m, facets) == _mmcs_antichains(m, facets), (m, facets)


def test_indicator_antichains_on_selfdual_complexes_and_skeletons():
    # random_selfdual's antichains come from the threshold pass, which shares
    # no code with either route; MMCS runs as the oracle where it is quick.
    for m in range(16, 21):
        K = random_selfdual(m, 0)
        assert _antichains_from_indicator(m, K.facets) == (K.facets, K.min_nonfaces)
        assert from_facets(m, reversed(K.facets)) == K
        if m <= 18:
            assert _mmcs_antichains(m, K.facets) == (K.facets, K.min_nonfaces)
    for k, m in ((0, 7), (1, 9), (2, 12), (3, 9), (4, 11), (5, 13)):
        K = skeleton(k, m)
        assert _antichains_from_indicator(m, K.facets) == (K.facets, K.min_nonfaces)
        assert _mmcs_antichains(m, K.facets) == (K.facets, K.min_nonfaces)


def test_from_facets_cost_rule_sides(monkeypatch):
    # At least 2^m / 64 facets (m <= 22) take the indicator, fewer take MMCS;
    # both sides give the brute-force antichains.
    taken = []
    indicator = complexes._antichains_from_indicator
    monkeypatch.setattr(complexes, "_antichains_from_indicator",
                        lambda m, masks: taken.append("indicator") or indicator(m, masks))
    mmcs = complexes._min_nonfaces_from_facets
    monkeypatch.setattr(complexes, "_min_nonfaces_from_facets",
                        lambda m, facets: taken.append("mmcs") or mmcs(m, facets))
    rng = random.Random(64)
    for m in (7, 10, 12):
        for count, route in (((1 << m) // 64 - 1, "mmcs"), ((1 << m) // 64, "indicator")):
            facets = [rng.getrandbits(m) & rng.getrandbits(m) for _ in range(count)]
            taken.clear()
            K = from_facets(m, facets)
            assert taken == [route], (m, count)
            maximal = {a for a in facets if not any(a != b and a & ~b == 0 for b in facets)}
            assert K.facets == tuple(sorted(maximal, key=elements))
            assert K.min_nonfaces == tuple(sorted(brute_min_nonfaces(K), key=elements))
    taken.clear()
    assert from_facets(6, [0]).min_nonfaces == tuple(1 << i for i in range(6))
    assert from_facets(23, [full_mask(22)]).min_nonfaces == (1 << 22,)
    assert taken == ["indicator", "mmcs"]


def test_incidence_rows_match_bit_by_bit_rows():
    rng = random.Random(5)
    cases = [(m, []) for m in (1, 9, 63)] + [(63, [full_mask(63)] * 40), (8, [0] * 33)]
    for _ in range(300):
        m = rng.randint(1, 63)
        cases.append((m, [rng.getrandbits(m) for _ in range(rng.randint(0, 140))]))
    for m, masks in cases:
        naive = [sum(1 << i for i, mask in enumerate(masks) if mask >> v & 1) for v in range(m)]
        assert _incidence_rows(m, masks) == naive, (m, masks)


# --- membership ------------------------------------------------------------

def test_contains_face_examples():
    K = skeleton(1, 5)
    assert K.is_face({1, 3})
    assert not K.is_face({1, 2, 3})
    assert K.is_face([])
    with pytest.raises(ValueError):
        K.is_face({6})


@settings(max_examples=60, deadline=None)
@given(small_complexes())
def test_membership_routes_agree(K):
    for mask in range(1 << K.m):
        assert K.is_face(mask) == K.is_face_via_nonfaces(mask)


def test_membership_routes_agree_exhaustive_m10():
    rng = random.Random(7)
    for _ in range(8):
        K = random_complex(rng, 10, max_facets=7)
        for mask in range(1 << 10):
            assert K.is_face(mask) == K.is_face_via_nonfaces(mask)


def test_face_table_matches_is_face():
    rng = random.Random(8)
    cases = [from_facets(m, [0]) for m in (1, 2, 3, 5)]
    cases += [from_facets(m, [full_mask(m)]) for m in (1, 2, 3, 5)]
    cases += [from_facets(m, [1 << (m - 1), 1]) for m in (2, 3, 4, 10)]  # isolated vertices
    cases += [from_facets(m, [rng.getrandbits(m) & rng.getrandbits(m) for _ in range(40)])
              for m in (6, 8, 10)]
    cases += [random_complex(rng, rng.randint(1, 12), max_facets=rng.randint(1, 12))
              for _ in range(60)]
    for K in cases:
        table = K.face_table()
        assert len(table) == 1 << K.m
        assert all(table[mask] == K.is_face(mask) for mask in range(1 << K.m)), K
    with pytest.raises(BudgetExceededError):
        from_facets(23, [full_mask(23)]).face_table()


# --- Alexander duality ------------------------------------------------------

def test_dual_examples():
    K = skeleton(1, 5)
    assert alexander_dual(K) == K  # self-dual
    empty = from_facets(4, [[]])
    boundary = alexander_dual(empty)
    assert boundary.facets == tuple(sorted((full_mask(4) ^ (1 << i) for i in range(4)),
                                           key=elements))
    assert alexander_dual(from_facets(3, [[1, 2, 3]])) is VOID


def test_double_dual_is_identity():
    rng = random.Random(11)
    for _ in range(80):
        K = random_complex(rng, rng.randint(1, 7))
        dual = alexander_dual(K)
        if dual is VOID:
            assert set(brute_faces(K)) == set(range(1 << K.m))
            continue
        assert alexander_dual(dual) == K


def test_dual_agrees_with_definition():
    # A in dual  <=>  complement of A is not a face.
    rng = random.Random(5)
    for _ in range(30):
        K = random_complex(rng, 6)
        dual = alexander_dual(K)
        full = full_mask(K.m)
        for mask in range(1 << K.m):
            in_dual = (full ^ mask) not in brute_faces(K)
            if dual is VOID:
                assert not in_dual
            else:
                assert dual.is_face(mask) == in_dual


def test_self_dual_examples():
    for n in range(1, 5):
        assert is_self_dual(skeleton(n, 2 * n + 3))
    assert not is_self_dual(points(5))
    assert not is_self_dual(from_facets(3, [[1, 2, 3]]))


def test_self_dual_iff_complement_bijection():
    rng = random.Random(23)
    for _ in range(100):
        K = random_complex(rng, 5)
        full = full_mask(K.m)
        exactly_one = all(
            ((mask in brute_faces(K)) != ((full ^ mask) in brute_faces(K)))
            for mask in range(1 << K.m))
        assert is_self_dual(K) == exactly_one


# --- join -------------------------------------------------------------------

def test_join_of_point_complexes():
    K = join(join(points(5), points(5)), points(5))
    assert K.m == 15
    assert all(f.bit_count() == 3 for f in K.facets)
    assert len(K.facets) == 125
    # at most one vertex per block of five
    assert K.is_face({1, 6, 11})
    assert not K.is_face({1, 2})


def test_join_with_point_free_complex():
    K = skeleton(1, 4)
    J = join(K, from_facets(3, [[]]))
    assert J.m == 7
    assert J.facets == K.facets
    assert oracle_num_faces(J) == oracle_num_faces(K)


def test_join_face_count_multiplicative():
    assert oracle_num_faces(join(points(2), points(2))) == 9
    rng = random.Random(40)
    for _ in range(25):
        m1 = rng.randint(1, 6)
        m2 = rng.randint(1, 12 - m1 if m1 < 11 else 1)
        K1, K2 = random_complex(rng, m1), random_complex(rng, m2)
        J = join(K1, K2)
        assert oracle_num_faces(J) == oracle_num_faces(K1) * oracle_num_faces(K2)


def test_join_matches_reconstruction_from_facets():
    rng = random.Random(41)
    for _ in range(20):
        K1 = random_complex(rng, rng.randint(1, 4))
        K2 = random_complex(rng, rng.randint(1, 4))
        J = join(K1, K2)
        rebuilt = from_facets(J.m, J.facets)
        assert rebuilt == J


# --- delete_facet ----------------------------------------------------------

def test_delete_facet_matches_face_set_difference():
    rng = random.Random(42)
    for _ in range(40):
        K = random_complex(rng, rng.randint(1, 6))
        for facet in K.facets:
            if facet == 0:
                continue
            smaller = delete_facet(K, facet)
            assert brute_faces(smaller) == brute_faces(K) - {facet}
            assert set(smaller.min_nonfaces) == brute_min_nonfaces(smaller)
    with pytest.raises(ValueError):
        delete_facet(from_facets(2, [[]]), [])
    with pytest.raises(ValueError):
        delete_facet(points(3), [1, 2])


# --- measures and sub-level complexes ----------------------------------------

def test_sublevel_examples():
    mu = Measure.uniform(5)
    assert sublevel_complex(mu, Fraction(1, 2)) == skeleton(1, 5)
    assert sublevel_complex(mu, Fraction(1, 3)) == points(5)
    assert sublevel_complex(mu, 0) == from_facets(5, [[]])
    full = sublevel_complex(Measure((Fraction(1, 2), Fraction(1, 3), Fraction(0))), Fraction(5, 6))
    assert full.facets == (0b111,) and full.min_nonfaces == ()
    zeros = sublevel_complex(Measure((Fraction(0), Fraction(2), Fraction(0), Fraction(1))), 0)
    assert zeros.facets == (0b0101,) and zeros.min_nonfaces == (0b0010, 0b1000)
    assert sublevel_complex(Measure((Fraction(1),)), 0) == from_facets(1, [[]])
    assert sublevel_complex(Measure((Fraction(1),)), 1) == from_facets(1, [[1]])
    # A threshold equal to a subset sum admits that subset.
    thirds = Measure((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    tight = sublevel_complex(thirds, Fraction(1, 2))
    assert tight.facets == (0b001, 0b110) and tight.min_nonfaces == (0b011, 0b101)


def test_measure_value_is_the_fraction_sum():
    # value() adds integer weights over their lcm; it must equal the plain
    # Fraction sum on every subset, mask or vertex list, zero weights included.
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 7)
        mu = Measure(tuple(Fraction(rng.randint(0, 9), rng.choice([1, 2, 3, 7, 12]))
                           for _ in range(m - 1)) + (Fraction(1, rng.randint(1, 9)),))
        for mask in range(1 << m):
            expected = sum((mu.weights[v - 1] for v in elements(mask)), Fraction(0))
            assert mu.value(mask) == expected
            assert mu.value(elements(mask)) == expected
        assert mu.value(full_mask(m)) == mu.total


def test_sublevel_monotone_in_threshold():
    rng = random.Random(3)
    for _ in range(20):
        m = rng.randint(1, 6)
        mu = Measure(tuple(Fraction(rng.randint(0, 5)) for _ in range(m))
                     if rng.random() < 0.5 else tuple(Fraction(1, m) for _ in range(m)))
        betas = sorted(Fraction(rng.randint(0, 10), 7) for _ in range(2))
        lo = brute_faces(sublevel_complex(mu, betas[0]))
        hi = brute_faces(sublevel_complex(mu, betas[1]))
        assert lo <= hi


def _random_threshold_case(rng: random.Random) -> tuple[Measure, Fraction]:
    # Zero weights, mixed denominators, and thresholds at 0, at a subset
    # sum, at or above the total, or anywhere in between.
    m = rng.choice([1, 1] + list(range(1, 11)))
    weights = [Fraction(0) if rng.random() < 0.2 else
               Fraction(rng.randint(0, 9), rng.choice([1, 2, 3, 5, 7, 12])) for _ in range(m)]
    if not any(weights):
        weights[rng.randrange(m)] = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    mu = Measure(tuple(weights))
    kind = rng.randrange(4)
    if kind == 0:
        beta = Fraction(0)
    elif kind == 1:
        beta = mu.value(rng.getrandbits(m))
    elif kind == 2:
        beta = mu.total + Fraction(rng.randint(0, 3), rng.randint(1, 4))
    else:
        beta = Fraction(rng.randint(0, 40), rng.choice([1, 2, 3, 4, 6, 10]))
    return mu, beta


def test_threshold_sublevel_matches_brute_force():
    rng = random.Random(1985)
    seen = set()
    for _ in range(2000):
        mu, beta = _random_threshold_case(rng)
        m = mu.m
        # Subset sums in integers over a common denominator, one addition per subset.
        D = math.lcm(beta.denominator, *(w.denominator for w in mu.weights))
        ints = [int(w * D) for w in mu.weights]
        sums = [0] * (1 << m)
        for a in range(1, 1 << m):
            sums[a] = sums[a & (a - 1)] + ints[(a & -a).bit_length() - 1]
        T = int(beta * D)
        want = {a for a in range(1 << m) if sums[a] <= T}
        K = sublevel_complex(mu, beta)
        assert brute_faces(K) == want
        assert K.facets == tuple(sorted(K.facets, key=elements))
        assert all(f | 1 << i not in want for f in K.facets for i in range(m) if not f >> i & 1)
        assert K.min_nonfaces == tuple(sorted(brute_min_nonfaces(K), key=elements))
        seen.add((m == 1, beta == 0, beta >= mu.total, 0 in mu.weights))
    # m = 1, beta = 0, the full simplex and zero weights all occurred.
    assert all(any(case[i] for case in seen) for i in range(4))


def test_sublevel_negative_threshold_rejected():
    with pytest.raises(ValueError):
        sublevel_complex(Measure.uniform(3), Fraction(-1, 3))


def test_sublevel_complex_refuses_other_measure_types():
    # Only the three measure classes have sub-level complexes, not any
    # object with an ``m`` and a ``value``.
    with pytest.raises(TypeError):
        sublevel_complex(SimpleNamespace(m=3, value=lambda subset: Fraction(0)), 1)


def test_measure_validation():
    with pytest.raises(TypeError):
        Measure((0.5, 0.5))
    with pytest.raises(ValueError):
        Measure((Fraction(-1), Fraction(2)))
    with pytest.raises(ValueError):
        Measure((Fraction(0), Fraction(0)))
    with pytest.raises(ValueError, match="at least one"):
        Measure(())
    with pytest.raises(ValueError, match="at least one"):
        GeometricMeasure(())
    with pytest.raises(ValueError, match="ground set"):
        GeometricMeasure((Measure.uniform(3), Measure.uniform(4)))
    mu = Measure.counting(6, [1, 2, 3])
    assert mu.value({1, 2}) == Fraction(2, 3)
    assert mu.value({4, 5, 6}) == 0
    assert mu.is_probability()


# --- scx file format ---------------------------------------------------------

def test_scx_round_trip():
    for K in (points(5), skeleton(1, 5), from_facets(3, [[]]), join(points(2), points(3))):
        text = format_scx(K)
        assert parse_scx(text) == K
        assert format_scx(parse_scx(text)) == text


def test_scx_parses_comments_and_empty_facet():
    text = "# a comment\nm 3  # trailing\n-\n"
    K = parse_scx(text)
    assert K == from_facets(3, [[]])


@pytest.mark.parametrize("bad", [
    "3\n1 2\n",             # missing header keyword
    "m x\n1\n",             # bad size
    "m 3\n2 1\n",           # not increasing
    "m 3\n1 b\n",           # not integers
    "m 3\n",                # no facets
    "m 3\n1 4\n",           # out of range
    "",
])
def test_scx_rejects_malformed(bad):
    with pytest.raises(ScxFormatError):
        parse_scx(bad)


@pytest.mark.parametrize("bad, message", [
    ("m 3\n1 4\n", "vertex 4 out of range 1..3"),
    # The first vertex out of range in line order, after every line is read.
    ("m 3\n1 2\n0 1\n3 4\n", "vertex 0 out of range 1..3"),
    ("m 3\n2 3 7 9\n-1 2\n", "vertex 7 out of range 1..3"),
    ("m 3\n1 4\n2 x\n", "line 3: facet must be integers, got '2 x'"),
    ("m 3\n1 4\n2 2\n", "line 3: vertices must be strictly increasing"),
    # The ground set is checked before the vertices, and no mask is built for it.
    ("m 64\n100\n", "ground-set size must be in 1..63, got 64"),
    ("m 0\n1\n", "ground-set size must be in 1..63, got 0"),
    ("m 1000000000000\n1 999999999999\n", "ground-set size must be in 1..63, got 1000000000000"),
])
def test_scx_error_messages(bad, message):
    with pytest.raises(ScxFormatError) as err:
        parse_scx(bad)
    assert str(err.value) == message


def test_scx_vertices_parse_as_ints():
    assert parse_scx("m 4\n01 +3\n 4 \n") == from_facets(4, [[1, 3], [4]])
