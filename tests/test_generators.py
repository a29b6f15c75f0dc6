"""Example families: skeletons, edge-property complexes, majority thresholds,
deleted-join counts."""

import random

import pytest

from unavoidable import (
    GraphProperty,
    contains_clique,
    deleted_join_faces,
    edge_table,
    from_facets,
    is_admissible,
    is_r_unavoidable,
    is_self_dual,
    join,
    partition_number,
    points,
    ramsey_complex,
    random_selfdual,
    skeleton,
    weighted_majority_complex,
)
from unavoidable.bitsets import elements, full_mask
from unavoidable.errors import BudgetExceededError

from oracles import brute_faces, oracle_deleted_join_counts, random_complex


# --- skeletons ------------------------------------------------------------------

def test_skeleton_examples():
    for n in (1, 2, 3, 4):
        assert is_self_dual(skeleton(n, 2 * n + 3))
    assert skeleton(0, 5) == points(5)
    full = skeleton(4, 5)
    assert full.facets == (full_mask(5),)
    assert partition_number(full) == 1
    with pytest.raises(ValueError):
        skeleton(5, 5)


def test_points_examples():
    assert partition_number(points(5)) == 3
    assert not is_r_unavoidable(points(6), 3)[0]
    assert partition_number(points(1)) == 1


# --- edge-property complexes -------------------------------------------------------

def test_edge_table_lexicographic():
    assert edge_table(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def test_ramsey_trivial_n3():
    L, table = ramsey_complex(3, contains_clique(3))
    assert L.m == 3
    assert L.facets == (0,)
    assert L.min_nonfaces == (0b001, 0b010, 0b100)
    assert table == ((1, 2), (1, 3), (2, 3))


def test_ramsey_n5_pentagon_split():
    L, table = ramsey_complex(5, contains_clique(3))
    assert L.m == 10
    ok, witness = is_r_unavoidable(L, 2)
    assert not ok
    # the two blocks are complementary triangle-free graphs on [5]
    test = contains_clique(3).make_test(5)
    for block in witness.blocks:
        others = full_mask(10) ^ sum(1 << (v - 1) for v in block)
        assert not test(others)


def test_ramsey_n6_unavoidable():
    L, _ = ramsey_complex(6, contains_clique(3))
    assert L.m == 15
    assert len(L.facets) == 20  # complements of the twenty triangles
    assert is_r_unavoidable(L, 2)[0]
    assert partition_number(L) == 2


def test_ramsey_n7_min_nonfaces_without_face_walk():
    # m = 21 with 35 facets: the minimal non-faces must come from the
    # facets, not from a walk over the faces.
    L, _ = ramsey_complex(7, contains_clique(3))
    assert L.m == 21 and len(L.facets) == 35
    assert len(L.min_nonfaces) == 1743
    assert partition_number(L) == 2


def test_ramsey_face_definition():
    # S is a face exactly when the complementary edge set has the property.
    for n in (4, 5):
        L, _ = ramsey_complex(n, contains_clique(3))
        test = contains_clique(3).make_test(n)
        full = full_mask(L.m)
        for mask in range(1 << L.m):
            assert L.is_face(mask) == test(full ^ mask)


def test_ramsey_generic_property_path_matches_builtin():
    # Drop the closed-form minimal sets: the exhaustive scan must agree.
    builtin = contains_clique(3)
    generic = GraphProperty("clique3-scan", builtin.make_test, None)
    for n in (4, 5):
        K1, _ = ramsey_complex(n, builtin)
        K2, _ = ramsey_complex(n, generic)
        assert K1 == K2


def test_ramsey_void_rejected():
    with pytest.raises(ValueError):
        ramsey_complex(3, contains_clique(4))


def test_ramsey_edge_set_size_limit():
    with pytest.raises(ValueError):
        ramsey_complex(12, contains_clique(3))  # 66 edges > 63


# --- admissibility ------------------------------------------------------------------

def test_admissibility_examples():
    assert not is_admissible(5, contains_clique(3), 2)
    assert not is_admissible(3, contains_clique(3), 2, allow_empty_classes=False)
    assert not is_admissible(3, contains_clique(3), 2)


def test_admissibility_budget():
    with pytest.raises(BudgetExceededError):
        is_admissible(6, contains_clique(3), 2, budget=100)


def test_admissibility_equivalence_with_unavoidability():
    # partitions into r nonempty classes <=> the edge complex is r-unavoidable
    for n in (4, 5):
        for r in (2, 3):
            L, _ = ramsey_complex(n, contains_clique(3))
            assert (is_admissible(n, contains_clique(3), r, allow_empty_classes=False)
                    == is_r_unavoidable(L, r)[0]), (n, r)


def test_clique_property_is_monotone():
    rng = random.Random(13)
    test = contains_clique(3).make_test(6)
    full = full_mask(15)
    for _ in range(1000):
        g = rng.getrandbits(15)
        if not test(g):
            continue
        free = full & ~g
        if free:
            extra = random.Random(rng.random()).choice(list(elements(free)))
            assert test(g | (1 << (extra - 1)))


# --- weighted-majority self-dual complexes --------------------------------------------

def test_weighted_majority_examples():
    assert weighted_majority_complex([1, 1, 1, 1, 1]) == skeleton(1, 5)
    K = weighted_majority_complex([3, 1, 1])
    assert sorted(brute_faces(K)) == [0b000, 0b010, 0b100, 0b110]  # {}, {2}, {3}, {2,3}
    assert is_self_dual(K)
    with pytest.raises(ValueError):
        weighted_majority_complex([1, 1])  # even total
    with pytest.raises(ValueError):
        weighted_majority_complex([0, 1])


def test_weighted_majority_matches_brute_force():
    # Odd totals are never met exactly, so the non-strict sub-level complex
    # at total/2 is the strict one.
    rng = random.Random(163)
    for _ in range(60):
        ws = [rng.randint(1, 9) for _ in range(rng.randint(1, 7))]
        if sum(ws) % 2 == 0:
            ws[0] += 1
        want = {a for a in range(1 << len(ws))
                if 2 * sum(w for i, w in enumerate(ws) if a >> i & 1) < sum(ws)}
        assert brute_faces(weighted_majority_complex(ws)) == want


def test_random_selfdual_always_self_dual_and_deterministic():
    for seed in range(25):
        m = 1 + seed % 7
        K = random_selfdual(m, seed)
        assert is_self_dual(K)
        assert K == random_selfdual(m, seed)


# --- deleted joins -----------------------------------------------------------------

def test_deleted_join_small_examples():
    assert deleted_join_faces(points(2), 2) == (4, 2)
    # full simplex: deleted join has (r+1)^m - 1 nonempty faces
    for m in (1, 2, 3, 4):
        for r in (1, 2, 3):
            counts = deleted_join_faces(from_facets(m, [full_mask(m)]), r)
            assert sum(counts) == (r + 1) ** m - 1, (m, r)


def test_deleted_join_against_product_scan():
    rng = random.Random(91)
    for _ in range(15):
        K = random_complex(rng, rng.randint(1, 5))
        r = rng.choice([1, 2, 3])
        assert deleted_join_faces(K, r) == oracle_deleted_join_counts(K, r)


def test_deleted_join_distributes_over_join():
    # counts-by-vertex-number generating polynomials multiply
    rng = random.Random(92)
    for _ in range(10):
        m1 = rng.randint(1, 4)
        m2 = rng.randint(1, 5 - m1 if m1 < 5 else 1)
        K1, K2 = random_complex(rng, m1), random_complex(rng, m2)
        r = rng.choice([2, 3])
        c1 = deleted_join_faces(K1, r)
        c2 = deleted_join_faces(K2, r)
        cj = deleted_join_faces(join(K1, K2), r)
        p1 = [1] + list(c1)
        p2 = [1] + list(c2)
        prod = [0] * (len(p1) + len(p2) - 1)
        for i, a in enumerate(p1):
            for j, b in enumerate(p2):
                prod[i + j] += a * b
        pj = [1] + list(cj)
        while len(prod) > len(pj):
            assert prod[-1] == 0
            prod.pop()
        assert prod == pj


def test_deleted_join_budget():
    with pytest.raises(BudgetExceededError):
        deleted_join_faces(points(10), 3, budget=1000)
