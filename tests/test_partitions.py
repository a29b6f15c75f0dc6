"""Partition engine: packing reduction, oracle agreement, witnesses."""

import random
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unavoidable.partitions
from unavoidable import (
    from_facets,
    hypergraph_partition_number,
    is_minimally_r_unavoidable,
    is_r_unavoidable,
    is_rs_unavoidable,
    is_self_dual,
    max_disjoint_min_nonfaces,
    partition_number,
    partition_number_oracle,
    points,
    random_selfdual,
    skeleton,
)
from unavoidable.bitsets import elements, full_mask
from unavoidable.complexes import AntichainIndex
from unavoidable.errors import BudgetExceededError
from unavoidable.partitions import PACKING_NODE_LIMIT, _least_packing

from oracles import (
    all_complexes,
    is_face_naive,
    named_small_examples,
    oracle_least_packing,
    oracle_max_disjoint_nonfaces,
    oracle_partition_number,
    oracle_r_unavoidable_subpartitions,
    oracle_rs_blocks,
    random_complex,
)


@st.composite
def complexes_strategy(draw, max_m=6):
    m = draw(st.integers(1, max_m))
    facets = [draw(st.sets(st.integers(1, m), max_size=m))
              for _ in range(draw(st.integers(1, 5)))]
    return from_facets(m, facets)


# --- packing search ----------------------------------------------------------

def test_max_disjoint_min_nonfaces_examples():
    d, w = max_disjoint_min_nonfaces(points(5))
    assert d == 2
    assert w.nonfaces == ((1, 2), (3, 4))  # lexicographically least witness
    assert w.leftover == (5,)

    assert max_disjoint_min_nonfaces(from_facets(4, [[1, 2, 3, 4]]))[0] == 0

    boundary = from_facets(4, [full_mask(4) ^ (1 << i) for i in range(4)])
    d, w = max_disjoint_min_nonfaces(boundary)
    assert d == 1 and w.nonfaces == ((1, 2, 3, 4),)


def test_packing_size_matches_exhaustive_search():
    rng = random.Random(99)
    for _ in range(40):
        K = random_complex(rng, rng.randint(1, 6))
        if len(K.min_nonfaces) <= 12:
            assert max_disjoint_min_nonfaces(K)[0] == oracle_max_disjoint_nonfaces(K)


def test_packing_witness_is_lexicographically_least():
    from itertools import combinations as combos

    rng = random.Random(98)
    for _ in range(30):
        K = random_complex(rng, rng.randint(1, 6))
        cands = [tuple(sorted({v + 1 for v in range(K.m) if mask >> v & 1}))
                 for mask in K.min_nonfaces]
        d, w = max_disjoint_min_nonfaces(K)
        if d == 0 or len(cands) > 14:
            continue
        best = None
        for family in combos(range(len(cands)), d):
            blocks = [cands[i] for i in family]
            flat = [v for b in blocks for v in b]
            if len(flat) == len(set(flat)):
                if best is None or blocks < best:
                    best = blocks
        assert list(w.nonfaces) == best


def test_packing_bound_decides_large_examples():
    # The vertex-count bound proves these at once; an unbounded search over
    # the 1820 four-sets of skeleton(2, 16) does not finish in minutes.
    assert partition_number(skeleton(2, 16)) == 5
    assert partition_number(points(16)) == 9
    assert not is_minimally_r_unavoidable(points(16), 9)


def test_bitset_search_matches_pairwise_search():
    # Random antichains, each member ranked by its vertex tuple as in a
    # complex; every call varies k, the room and the live members.
    rng = random.Random(101)
    for _ in range(2000):
        m = rng.randint(1, 10)
        family = {rng.getrandbits(m) | 1 << rng.randrange(m) for _ in range(rng.randint(1, 14))}
        cands = sorted((a for a in family if not any(b != a and b & ~a == 0 for b in family)),
                       key=elements)
        index = AntichainIndex.of(m, cands)
        live = rng.getrandbits(len(cands)) if rng.random() < 0.5 else index.every
        k, room = rng.randint(0, 4), rng.randint(0, m)
        alive = [c for i, c in enumerate(cands) if live >> i & 1]
        assert _least_packing(index, k, room, live) == oracle_least_packing(alive, k, room), \
            (m, cands, live, k, room)


def test_packing_search_stops_at_its_node_limit():
    # The 120 triangles of K_10 as edge masks over its 45 edges: 13 of them
    # are pairwise edge-disjoint, but no sound cut here proves that 14 are
    # not, so the search ends at its node limit instead of running on.
    edge = {e: i for i, e in enumerate(combinations(range(10), 2))}
    triangles = sorted((sum(1 << edge[e] for e in combinations(t, 2))
                        for t in combinations(range(10), 3)), key=elements)
    index = AntichainIndex.of(45, triangles)
    assert len(_least_packing(index, 13, 45)) == 13
    with pytest.raises(BudgetExceededError, match=f"exceeded {PACKING_NODE_LIMIT} nodes"):
        _least_packing(index, 14, 45)


def test_packing_search_proves_many_intersecting_nonfaces():
    # 12027 pairwise intersecting minimal non-faces at m = 18 and 3257 at
    # m = 16; the search proves both in well under a second.
    assert partition_number(random_selfdual(18, 0)) == 2
    assert is_minimally_r_unavoidable(random_selfdual(16, 0), 2)


def test_packing_witness_is_valid_and_deterministic():
    rng = random.Random(100)
    for _ in range(30):
        K = random_complex(rng, 6)
        d1, w1 = max_disjoint_min_nonfaces(K)
        d2, w2 = max_disjoint_min_nonfaces(K)
        assert (d1, w1) == (d2, w2)
        used = set()
        for block in w1.nonfaces:
            mask = sum(1 << (v - 1) for v in block)
            assert mask in K.min_nonfaces
            assert not used & set(block)
            used |= set(block)
        assert used.isdisjoint(w1.leftover)


# --- partition number ---------------------------------------------------------

def test_partition_number_named_values():
    assert partition_number(points(5)) == 3
    for n in range(1, 5):
        assert partition_number(skeleton(n, 2 * n + 3)) == 2
    assert partition_number(from_facets(4, [[1, 2, 3, 4]])) == 1
    assert partition_number(from_facets(3, [[]])) == 4  # m + 1 sentinel
    assert partition_number(points(1)) == 1  # the single vertex is a face


def test_oracle_values():
    assert partition_number_oracle(points(5)) == 3
    assert partition_number_oracle(skeleton(1, 5)) == 2
    assert partition_number_oracle(from_facets(4, [[1, 2, 3, 4]])) == 1
    with pytest.raises(BudgetExceededError):
        partition_number_oracle(points(13))


def test_engine_matches_oracle_on_named_examples():
    for K in named_small_examples():
        if K.m <= 10:
            assert partition_number(K) == partition_number_oracle(K), K


@settings(max_examples=80, deadline=None)
@given(complexes_strategy())
def test_engine_matches_both_oracles(K):
    pi = partition_number(K)
    assert pi == partition_number_oracle(K)
    assert pi == oracle_partition_number(K)


# --- r-unavoidability -----------------------------------------------------------

def test_is_r_unavoidable_examples():
    ok, _ = is_r_unavoidable(points(5), 3)
    assert ok
    ok, witness = is_r_unavoidable(points(6), 3)
    assert not ok
    assert witness.blocks == ((1, 2), (3, 4), (5, 6))
    assert all(witness.offending)
    ok, _ = is_r_unavoidable(skeleton(1, 7), 3)
    assert ok
    with pytest.raises(ValueError):
        is_r_unavoidable(points(3), 1)


def test_false_witness_is_an_all_nonface_partition():
    rng = random.Random(17)
    for _ in range(60):
        K = random_complex(rng, rng.randint(2, 7))
        r = rng.randint(2, 4)
        ok, witness = is_r_unavoidable(K, r)
        if ok:
            assert witness is None
            continue
        assert len(witness.blocks) == r
        covered = sorted(chain.from_iterable(witness.blocks))
        assert covered == list(range(1, K.m + 1))
        for block in witness.blocks:
            assert not is_face_naive(K, sum(1 << (v - 1) for v in block))
        assert all(witness.offending)


def test_subpartition_condition_equals_exact_partition_condition():
    # Disjoint families with union inside [m] give the same predicate as
    # exact partitions: checked against an independent labeling scan.
    rng = random.Random(18)
    for _ in range(25):
        K = random_complex(rng, rng.randint(2, 6))
        for r in (2, 3):
            assert is_r_unavoidable(K, r)[0] == oracle_r_unavoidable_subpartitions(K, r)


def test_monotone_in_r():
    rng = random.Random(19)
    for _ in range(40):
        K = random_complex(rng, rng.randint(2, 7))
        for r in (2, 3, 4):
            if is_r_unavoidable(K, r)[0]:
                assert is_r_unavoidable(K, r + 1)[0]


def test_monotone_in_complex():
    rng = random.Random(20)
    for _ in range(40):
        m = rng.randint(2, 6)
        K = random_complex(rng, m)
        bigger = from_facets(m, list(K.facets) + [rng.getrandbits(m)])
        for r in (2, 3):
            if is_r_unavoidable(K, r)[0]:
                assert is_r_unavoidable(bigger, r)[0]


# --- (r, s)-unavoidability -------------------------------------------------------

def test_rs_examples():
    ok, _ = is_rs_unavoidable(points(4), 3, 2)
    assert ok
    ok, witness = is_rs_unavoidable(points(5), 3, 2)
    assert not ok
    sizes = sorted(len(b) for b in witness.blocks)
    assert sizes == [1, 2, 2]
    assert sum(witness.offending) >= 2  # more than s-1 = 1 blocks offend
    with pytest.raises(ValueError):
        is_rs_unavoidable(points(4), 2, 2)


def test_rs_with_s1_equals_plain_unavoidability():
    rng = random.Random(21)
    for _ in range(50):
        K = random_complex(rng, rng.randint(2, 7))
        r = rng.randint(2, 4)
        assert is_rs_unavoidable(K, r, 1)[0] == is_r_unavoidable(K, r)[0]


def test_rs_matches_literal_partition_scan():
    from oracles import partitions_insertion

    rng = random.Random(22)
    for _ in range(25):
        m = rng.randint(2, 6)
        K = random_complex(rng, m)
        for r, s in ((3, 2), (4, 2), (4, 3)):
            literal = True
            for blocks in partitions_insertion(list(range(1, m + 1))):
                if len(blocks) != r:
                    continue
                faces = sum(
                    1 for b in blocks if is_face_naive(K, sum(1 << (v - 1) for v in b)))
                if faces < s:
                    literal = False
                    break
            assert is_rs_unavoidable(K, r, s)[0] == literal, (K, r, s)


def test_rs_witness_is_least_minimum_total_packing():
    rng = random.Random(24)
    for _ in range(40):
        K = random_complex(rng, rng.randint(2, 7))
        cands = [tuple(v + 1 for v in range(K.m) if mask >> v & 1) for mask in K.min_nonfaces]
        for r, s in ((3, 2), (4, 2), (4, 3)):
            k = r - s + 1
            best = None
            for family in combinations(cands, k):
                flat = [v for block in family for v in block]
                if len(flat) == len(set(flat)):
                    key = (len(flat), list(family))
                    if best is None or key < best:
                        best = key
            ok, witness = is_rs_unavoidable(K, r, s)
            if best is None or best[0] > K.m - s + 1:
                assert ok and witness is None, (K, r, s)
            else:
                assert not ok, (K, r, s)
                assert list(witness.blocks[:k]) == best[1], (K, r, s)


def test_rs_false_witness_has_few_face_blocks():
    rng = random.Random(23)
    for _ in range(40):
        K = random_complex(rng, rng.randint(3, 7))
        for r, s in ((3, 2), (4, 2)):
            if r > K.m:
                continue
            ok, witness = is_rs_unavoidable(K, r, s)
            if ok:
                continue
            assert len(witness.blocks) == r
            covered = sorted(chain.from_iterable(witness.blocks))
            assert covered == list(range(1, K.m + 1))
            assert sum(not off for off in witness.offending) <= s - 1


def test_rs_witness_matches_the_room_scan():
    # Random (r, s) on random complexes whose packing memo is empty, partly
    # filled or full, against the scan over every room from 0 up.
    rng = random.Random(25)
    violated = 0
    for _ in range(1000):
        m = rng.randint(1, 11)
        K = random_complex(rng, m, max_facets=8)
        fill = rng.randrange(3)
        if fill == 1:
            is_r_unavoidable(K, rng.randint(2, 4))
        elif fill == 2:
            max_disjoint_min_nonfaces(K)
        for _ in range(4):
            r = rng.randint(2, m + 3)
            s = rng.randint(1, r - 1)
            blocks = oracle_rs_blocks(K, r, s)
            ok, witness = is_rs_unavoidable(K, r, s)
            assert ok == (blocks is None), (K, r, s)
            if blocks is not None:
                violated += 1
                assert witness.blocks == tuple(elements(b) for b in blocks), (K, r, s)
    assert violated >= 500


def test_rs_verdicts_read_the_packing_memo(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1:3])
        return _least_packing(*args)

    monkeypatch.setattr(unavoidable.partitions, "_least_packing", counted)
    # No 2-packing in room m settles every smaller room: no search.
    K = random_selfdual(16, 0)
    assert max_disjoint_min_nonfaces(K)[0] == 1
    calls.clear()
    assert is_rs_unavoidable(K, 2, 1) == (True, None)
    assert calls == []
    # Three 4-sets need 12 vertices, more than room 11: no search.
    L = skeleton(2, 12)
    max_disjoint_min_nonfaces(L)
    calls.clear()
    assert is_rs_unavoidable(L, 4, 2) == (True, None)
    assert calls == []
    # The memo's 2-packing of 2-sets fits in room 4 and no 2-packing is
    # smaller than 4: no search.
    P = points(5)
    max_disjoint_min_nonfaces(P)
    calls.clear()
    assert not is_rs_unavoidable(P, 3, 2)[0]
    assert calls == []
    # A negative room (s > m + 1) admits no packing: no search, even on a fresh complex.
    calls.clear()
    assert is_rs_unavoidable(points(3), 6, 5) == (True, None)
    assert calls == []


def test_rs_never_searches_more_than_the_room_scan(monkeypatch):
    # With the memo full, an (r, s) check runs no more searches than the scan
    # that tries rooms 0, 1, ... up to m-s+1 until a k-packing fits.
    calls = []

    def counted(*args):
        calls.append(args[1:3])
        return _least_packing(*args)

    def room_scan_searches(K, k, room):
        for cap in range(room + 1):
            if _least_packing(K.nonface_index, k, cap) is not None:
                return cap + 1
        return max(room + 1, 0)

    monkeypatch.setattr(unavoidable.partitions, "_least_packing", counted)
    rng = random.Random(7)
    for _ in range(500):
        m = rng.randint(1, 11)
        K = random_complex(rng, m, max_facets=8)
        max_disjoint_min_nonfaces(K)
        for r in range(2, m + 4):
            for s in range(1, r):
                calls.clear()
                is_rs_unavoidable(K, r, s)
                assert len(calls) <= room_scan_searches(K, r - s + 1, m - s + 1), (K, r, s)


# --- minimality -------------------------------------------------------------------

def test_minimally_unavoidable_examples():
    for n in (1, 2, 3):
        assert is_minimally_r_unavoidable(skeleton(n, 2 * n + 3), 2)
    assert not is_minimally_r_unavoidable(from_facets(5, [full_mask(5)]), 2)
    assert is_minimally_r_unavoidable(points(5), 3)


def test_self_dual_iff_minimally_2_unavoidable_exhaustive():
    # All complexes on up to 5 vertices (every nonempty facet antichain;
    # 7580 complexes at m = 5).  m = 6 is sampled below: the full antichain
    # count there is in the millions.
    for m in (1, 2, 3, 4, 5):
        for K in all_complexes(m):
            assert is_self_dual(K) == is_minimally_r_unavoidable(K, 2), K


def test_self_dual_iff_minimally_2_unavoidable_sampled_m6():
    rng = random.Random(31)
    for _ in range(250):
        K = random_complex(rng, 6, max_facets=8)
        assert is_self_dual(K) == is_minimally_r_unavoidable(K, 2), K


def test_packing_characterization_exhaustive_m_le_5():
    # Every complex on up to 5 vertices: the packing route and the literal
    # partition oracle must give the same partition number.
    for m in (1, 2, 3, 4, 5):
        for K in all_complexes(m):
            assert partition_number(K) == partition_number_oracle(K), K


def test_memoized_verdicts_match_fresh_ones():
    # The same complex built twice: one copy answers from a memo that
    # max_disjoint_min_nonfaces filled, a fresh copy per call searches.
    rng = random.Random(33)
    for _ in range(500):
        K = random_complex(rng, rng.randint(1, 8))
        max_disjoint_min_nonfaces(K)
        for r in range(2, 6):
            fresh = from_facets(K.m, K.facets)
            assert is_r_unavoidable(K, r) == is_r_unavoidable(fresh, r), (K, r)
            fresh = from_facets(K.m, K.facets)
            assert is_minimally_r_unavoidable(K, r) == is_minimally_r_unavoidable(fresh, r)
    with pytest.raises(ValueError, match="r must be at least 2"):
        is_minimally_r_unavoidable(from_facets(3, [[1, 2, 3]]), 1)


def test_verdicts_after_the_packing_number_run_no_search(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _least_packing(*args)

    monkeypatch.setattr(unavoidable.partitions, "_least_packing", counted)
    K = skeleton(2, 12)
    assert max_disjoint_min_nonfaces(K)[0] == 3
    assert calls == [1, 2, 3, 4]
    verdicts = [is_r_unavoidable(K, r) for r in range(2, 7)]
    assert calls == [1, 2, 3, 4]
    assert [ok for ok, _ in verdicts] == [False, False, True, True, True]
    # Past a k without a packing, larger k are answered without a search.
    L = skeleton(2, 12)
    assert is_r_unavoidable(L, 5)[0] and is_r_unavoidable(L, 9)[0]
    assert calls == [1, 2, 3, 4, 5]


def test_a_huge_r_on_a_fresh_complex_is_decided_at_once():
    # The memo scan reads the memo's own entries, not every k below r.
    assert is_r_unavoidable(points(5), 10 ** 12) == (True, None)
    assert is_minimally_r_unavoidable(points(5), 10 ** 12) is False


def test_packing_memo_is_not_part_of_the_value():
    K, L = skeleton(2, 7), skeleton(2, 7)
    max_disjoint_min_nonfaces(K)
    assert K.nonface_index._packings and not L.nonface_index._packings
    assert K == L and hash(K) == hash(L)
    assert K.nonface_index == L.nonface_index
    assert hash(K.nonface_index) == hash(L.nonface_index)
    assert repr(K.nonface_index) == repr(L.nonface_index)


def test_minimality_agrees_with_generic_facet_deletion():
    from unavoidable import delete_facet

    rng = random.Random(32)
    for _ in range(60):
        K = random_complex(rng, rng.randint(2, 6))
        for r in (2, 3):
            ok, _ = is_r_unavoidable(K, r)
            generic = ok and all(
                not is_r_unavoidable(delete_facet(K, f), r)[0]
                for f in K.facets if f != 0)
            assert is_minimally_r_unavoidable(K, r) == generic, (K, r)


# --- hypergraph partition number -----------------------------------------------

def test_hypergraph_partition_examples():
    p5 = points(5)
    small = [c for k in (1, 2) for c in combinations(range(1, 6), k)]
    nu, vacuous = hypergraph_partition_number(p5, small)
    assert nu == 1
    assert {1, 2} <= vacuous

    everything = [c for k in range(1, 6) for c in combinations(range(1, 6), k)]
    nu, vacuous = hypergraph_partition_number(p5, everything)
    assert nu == partition_number(p5) == 3
    assert not {v for v in vacuous if v <= 5}

    empty4 = from_facets(4, [[]])
    nu, vacuous = hypergraph_partition_number(empty4, [[i] for i in range(1, 5)])
    assert nu == 5
    assert 5 in vacuous


def test_hypergraph_partition_validation():
    with pytest.raises(ValueError):
        hypergraph_partition_number(points(3), [])
    with pytest.raises(ValueError):
        hypergraph_partition_number(points(3), [[]])
    with pytest.raises(BudgetExceededError):
        hypergraph_partition_number(points(13), [[1]])


def test_hypergraph_with_full_family_matches_pi():
    rng = random.Random(37)
    for _ in range(20):
        m = rng.randint(1, 6)
        K = random_complex(rng, m)
        family = [c for k in range(1, m + 1) for c in combinations(range(1, m + 1), k)]
        nu, vacuous = hypergraph_partition_number(K, family)
        assert nu == partition_number(K)
        assert vacuous == frozenset({m + 1})


def test_shared_values_safe_under_concurrent_evaluation():
    # pure functions over immutable complexes: concurrent callers must see
    # identical results and witnesses
    from concurrent.futures import ThreadPoolExecutor

    K = skeleton(2, 7)  # self-dual, pi = 2
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: max_disjoint_min_nonfaces(K), range(32)))
    assert len(set(results)) == 1
    with ThreadPoolExecutor(max_workers=8) as pool:
        pis = list(pool.map(partition_number, [K] * 16))
    assert set(pis) == {2}


def test_hypergraph_partition_matches_insertion_oracle():
    # Independent recomputation: stable threshold over literal level status
    # derived from the insertion-based partition enumerator.
    from oracles import partitions_insertion

    rng = random.Random(38)
    for _ in range(40):
        m = rng.randint(1, 6)
        K = random_complex(rng, m)
        family = set()
        for _ in range(rng.randint(1, 10)):
            mask = rng.getrandbits(m)
            if mask:
                family.add(mask)
        if not family:
            family.add(1)
        fails, seen = set(), set()
        for blocks in partitions_insertion(list(range(1, m + 1))):
            masks = [sum(1 << (v - 1) for v in b) for b in blocks]
            if not all(b in family for b in masks):
                continue
            seen.add(len(masks))
            if all(not is_face_naive(K, b) for b in masks):
                fails.add(len(masks))
        expect_nu = max(fails) + 1 if fails else 1
        expect_vacuous = {nu for nu in range(1, m + 1) if nu not in seen} | {m + 1}
        members = [tuple(v + 1 for v in range(m) if mask >> v & 1) for mask in family]
        nu, vacuous = hypergraph_partition_number(K, members)
        assert nu == expect_nu, (K, sorted(family))
        assert vacuous == frozenset(expect_vacuous), (K, sorted(family))
