"""Example families: skeletons, edge-property complexes, majority thresholds,
deleted-join counts."""

import hashlib
import math
import random

import pytest

from unavoidable import (
    contains_clique,
    deleted_join_faces,
    edge_table,
    format_scx,
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

from oracles import (
    brute_faces,
    oracle_deleted_join_counts,
    oracle_has_clique,
    oracle_minimal_property_sets,
    random_complex,
)


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
    # C(40, 6) + C(40, 7) facets and minimal non-faces: refused before any is built.
    with pytest.raises(BudgetExceededError, match="skeleton"):
        skeleton(5, 40)
    assert len(skeleton(5, 13).facets) == 1716


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
    # The closed-form minimal sets, and the reference test behind
    # ``is_admissible``, agree with a scan of every edge subset.
    for n in (4, 5):
        for k in (3, 4):
            prop = contains_clique(k)
            scanned = oracle_minimal_property_sets(n, oracle_has_clique(n, k))
            assert sorted(prop.make_minimal_sets(n)) == scanned, (n, k)
            assert oracle_minimal_property_sets(n, prop.make_test(n)) == scanned, (n, k)


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


ADMISSIBILITY_GRID = [
    (n, k, r, allow_empty)
    for n in range(3, 7) for k in (3, 4) for r in (2, 3, 4) for allow_empty in (True, False)
    if k <= n and r ** (n * (n - 1) // 2) <= 1 << 20]


@pytest.mark.parametrize(
    "n, k, r, allow_empty", ADMISSIBILITY_GRID,
    ids=[f"n{n}-k{k}-r{r}-{'empty' if e else 'nonempty'}" for n, k, r, e in ADMISSIBILITY_GRID])
def test_admissibility_equivalence_with_unavoidability(n, k, r, allow_empty):
    # A class is a face exactly when the other classes have the property, and
    # an empty class is the empty face: every r-coloring is admissible, with or
    # without empty classes, exactly when the edge complex is r-unavoidable.
    L, _ = ramsey_complex(n, contains_clique(k))
    assert (is_admissible(n, contains_clique(k), r, allow_empty_classes=allow_empty)
            == is_r_unavoidable(L, r)[0])


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


# sha256 of format_scx(random_selfdual(m, seed)) for seeds 0..3, recorded when
# the threshold complexes still came from a face walk over every subset.
SELFDUAL_SCX_SHA256 = {
    11: (
        "a699ec3a7be21df1c9202833aff6d14a0ef829811f13770bc727fb0c154b5e77",
        "c1558677c9cb1e5ac5df9398ae9842592bd8432d28fa5e0dcf4830cb52ab7ff7",
        "870299834428c920a97ced0f788351807c60d35ec6aa49f481a48d588b13e9cb",
        "6335a79a7defedf594201ae81462ab76b03335c480564819e664498acd5f50c9",
    ),
    12: (
        "dc09171e3bd41dc0c22e459eaac06670906c6f9ea322f85d87800fb161e5cee7",
        "c4bdb7386fd64717e27535537edfb1073e53fba9253145dae1767556b385ab83",
        "8e99cc96e09af3d15496743a3205aac56d2c6899873a30a086d0e004b33270d2",
        "a41ba6841ec2bc71aa22f810bf079c8bb44c530fe2a6222f59f572b3e9cfa51e",
    ),
    13: (
        "cb2a4c18779fd3381aede681163365c911d6a40550b9967faa7e2cc1f78dc3d0",
        "e160ba8e681492347b39b580aed42809fca5b17c9d9db68d535ce2b9113c7b87",
        "af8294d25a0954f0d97e4a289a88540bdb98aeb432e01ba46bd7bff44d9a12be",
        "4821ea8b987a6ed4ee899597db940c842dacd8630314c15f0e643e1ac5fc243e",
    ),
    14: (
        "32697272a7050e6240f81ee93d803b74ea05e08c19a1cdc707ffba5c971a599d",
        "b8de476ebab93d7fb301187f1321c43253971592cb1e32395846cca6a8545ac4",
        "d5255dcbec96fa21a471882da5cf3d9951f04c7d68b6ff09be5d64365e96d871",
        "35625aa1b233599f672fcd6a4881281fb35b13bcfe8aa27cf8a3b712dcb7a688",
    ),
    15: (
        "924e1033f555676a9fb565624550def82df08b1758e5da102b5e76b133bdf9d5",
        "c3f282d304509873e0af38c6a719f07fe6298c7598166ed3032dc42d735a5bcc",
        "723c7a68d2f66485f36328efdc7b1bd3f347efa2792be5a5e92557be2dd191f1",
        "174f8275ce5261932cc609a1ba2b15b09cb9721bfd119d03d266c0235cf41a12",
    ),
    16: (
        "e7d21998b655241b225b9e228c7db9b433a01dacda898bb93828e932b31257cc",
        "319fd51f1ca8effedce7f33479819d4b39371915a47df505f1d5977549a5efc2",
        "d1c1c195728848ec189f924e2f616bdbc3e5ea1c176f15892e6f7fa148da0e18",
        "b7f880a6a6e246cf2d58e4462bf9b9f07788984485b5583feb4b17256295db2c",
    ),
}


def test_random_selfdual_files_are_pinned():
    for m, digests in SELFDUAL_SCX_SHA256.items():
        for seed, digest in enumerate(digests):
            text = format_scx(random_selfdual(m, seed))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (m, seed)


# --- deleted joins -----------------------------------------------------------------

def test_deleted_join_small_examples():
    assert deleted_join_faces(points(2), 2) == (4, 2)
    # full simplex: deleted join has (r+1)^m - 1 nonempty faces
    for m in (1, 2, 3, 4):
        for r in (1, 2, 3):
            counts = deleted_join_faces(from_facets(m, [full_mask(m)]), r)
            assert sum(counts) == (r + 1) ** m - 1, (m, r)


def test_deleted_join_of_full_simplex_in_closed_form():
    # A face with k vertices labels k of the m vertices freely: C(m,k)*r^k.
    # The largest packed coefficients arise here, so a slot too narrow for
    # them carries into its neighbour and breaks the count.
    cases = [(m, r) for m in range(1, 13) for r in range(1, 6)] + [(16, 5)]
    for m, r in cases:
        full = from_facets(m, [full_mask(m)])
        expected = tuple(math.comb(m, k) * r ** k for k in range(1, m + 1))
        assert deleted_join_faces(full, r) == expected, (m, r)


def test_deleted_join_against_product_scan():
    rng = random.Random(91)
    cases = [(from_facets(m, [0]), r) for m in (1, 4, 6) for r in (1, 2, 3, 4)]
    cases += [(from_facets(m, [full_mask(m)]), r) for m in (1, 5, 6) for r in (1, 2, 3, 4)]
    for _ in range(300):
        r = rng.randint(1, 4)
        m = rng.randint(1, (8, 7, 6, 5)[r - 1])  # (r+1)^m labelings for the oracle
        cases.append((random_complex(rng, m), r))
    for K, r in cases:
        assert deleted_join_faces(K, r) == oracle_deleted_join_counts(K, r), (K, r)


def test_deleted_join_with_one_label_is_the_f_vector():
    rng = random.Random(93)
    for m in range(1, 13):
        for K in (from_facets(m, [0]), from_facets(m, [full_mask(m)]),
                  random_complex(rng, m), random_complex(rng, m, max_facets=12)):
            sizes = [mask.bit_count() for mask in brute_faces(K) if mask]
            f = tuple(sizes.count(k) for k in range(1, max(sizes, default=0) + 1))
            assert deleted_join_faces(K, 1) == f, K


def test_deleted_join_distributes_over_join():
    # counts-by-vertex-number generating polynomials multiply
    rng = random.Random(92)
    cases = []
    for _ in range(10):
        m1 = rng.randint(1, 4)
        m2 = rng.randint(1, 5 - m1 if m1 < 5 else 1)
        cases.append((random_complex(rng, m1), random_complex(rng, m2), rng.choice([2, 3])))
    cases.append((random_complex(rng, 7, max_facets=10), random_complex(rng, 7, max_facets=10), 3))
    for K1, K2, r in cases:
        c1 = deleted_join_faces(K1, r)
        c2 = deleted_join_faces(K2, r)
        if K1.m == 7:
            assert c1 == oracle_deleted_join_counts(K1, r)
            assert c2 == oracle_deleted_join_counts(K2, r)
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
    # 2^5 packed ints of (r+1)*5*6 bits each: refused before any is allocated.
    with pytest.raises(BudgetExceededError, match="bits"):
        deleted_join_faces(points(5), 10 ** 9)
