"""Independent reference implementations used to validate the package.

Everything here is deliberately naive and shares no code path with the
library: faces come from direct facet-subset arithmetic, set partitions from
recursive insertion (not restricted growth strings), packings and measures
from exhaustive enumeration.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, combinations, product

from unavoidable import SimplicialComplex, from_facets
from unavoidable.bitsets import full_mask


def is_face_naive(K: SimplicialComplex, mask: int) -> bool:
    return any(mask & ~facet == 0 for facet in K.facets)


def brute_faces(K: SimplicialComplex) -> set[int]:
    return {mask for mask in range(1 << K.m) if is_face_naive(K, mask)}


def brute_min_nonfaces(K: SimplicialComplex) -> set[int]:
    faces = brute_faces(K)
    out = set()
    for mask in range(1, 1 << K.m):
        if mask in faces:
            continue
        if all((mask ^ (1 << i)) in faces for i in range(K.m) if mask >> i & 1):
            out.add(mask)
    return out


def partitions_insertion(universe: list[int]):
    """All set partitions of ``universe`` (lists of lists), by element insertion."""
    if not universe:
        yield []
        return
    first, rest = universe[0], universe[1:]
    for smaller in partitions_insertion(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


def oracle_partition_number(K: SimplicialComplex) -> int:
    """Literal least nu: every partition into nu blocks has a face block."""
    by_count: dict[int, bool] = {}
    for blocks in partitions_insertion(list(range(1, K.m + 1))):
        nu = len(blocks)
        masks = [sum(1 << (v - 1) for v in block) for block in blocks]
        if all(not is_face_naive(K, b) for b in masks):
            by_count[nu] = True
    for nu in range(1, K.m + 1):
        if nu not in by_count:
            return nu
    return K.m + 1


def oracle_r_unavoidable_subpartitions(K: SimplicialComplex, r: int) -> bool:
    """Literal check over disjoint nonempty families with union inside [m]:
    label every vertex with 0 (unused) or a class 1..r."""
    for labels in product(range(r + 1), repeat=K.m):
        classes = [0] * r
        for v, lab in enumerate(labels):
            if lab:
                classes[lab - 1] |= 1 << v
        if any(c == 0 for c in classes):
            continue
        if all(not is_face_naive(K, c) for c in classes):
            return False
    return True


def oracle_max_disjoint_nonfaces(K: SimplicialComplex) -> int:
    cands = sorted(brute_min_nonfaces(K))
    best = 0
    for picks in product([0, 1], repeat=len(cands)):
        used = 0
        ok = True
        chosen = 0
        for cand, take in zip(cands, picks):
            if take:
                if cand & used:
                    ok = False
                    break
                used |= cand
                chosen += 1
        if ok:
            best = max(best, chosen)
    return best


def oracle_least_packing(cands: list[int], k: int, room: int):
    """Lexicographically least family of k pairwise disjoint masks from cands
    whose sizes sum to at most room, or None, by pairwise disjointness tests.

    Depth-first search in candidate order, so the first family found is the
    least one.  A branch is cut when too few candidates remain, or when the
    masks still needed, each at least as large as the smallest remaining
    candidate, cannot fit into the vertices left: room, capped at the size of
    the union of cands, minus the sizes chosen so far.
    """
    n = len(cands)
    sizes = [c.bit_count() for c in cands]
    smallest = list(accumulate(reversed(sizes), min))[::-1]  # min of sizes[i:]
    out: list[int] = []

    def rec(start: int, used: int, left: int) -> bool:
        need = k - len(out)
        if need == 0:
            return True
        for i in range(start, n):
            if n - i < need or need * smallest[i] > left:
                return False
            cand = cands[i]
            if cand & used or sizes[i] > left:
                continue
            out.append(cand)
            if rec(i + 1, used | cand, left - sizes[i]):
                return True
            out.pop()
        return False

    union = 0
    for cand in cands:
        union |= cand
    return out if rec(0, 0, min(room, union.bit_count())) else None


def oracle_rs_blocks(K: SimplicialComplex, r: int, s: int):
    """The block masks of the (r, s) witness partition, or None when every
    partition of [m] into r blocks has at least s face blocks, by a scan over
    the rooms from 0 up to m-s+1.

    The first room that admits r-s+1 pairwise disjoint minimal non-faces is
    their least total size, so its least packing is the lexicographically
    least one of least total size.  The vertices left over join the first
    block when s = 1; otherwise all but one of the s-1 extra blocks are
    singletons and the last takes the rest.
    """
    cands = list(K.min_nonfaces)
    for room in range(K.m - s + 2):
        packing = oracle_least_packing(cands, r - s + 1, room)
        if packing is not None:
            break
    else:
        return None
    used = 0
    for block in packing:
        used |= block
    rest = [1 << v for v in range(K.m) if not used >> v & 1]
    if s == 1:
        return [packing[0] | sum(rest)] + packing[1:]
    return packing + rest[: s - 2] + [sum(rest[s - 2:])]


def oracle_wh_measure(members, omega, subset_mask: int) -> Fraction:
    """Best total weight over all pairwise disjoint subfamilies inside the subset."""
    best = Fraction(0)
    n = len(members)
    for picks in range(1 << n):
        used = 0
        total = Fraction(0)
        ok = True
        for i in range(n):
            if picks >> i & 1:
                b = members[i]
                if b & ~subset_mask or b & used:
                    ok = False
                    break
                used |= b
                total += omega[i]
        if ok and total > best:
            best = total
    return best


def oracle_wh_realization_check(K: SimplicialComplex, r: int, F) -> bool:
    """Literal test of K = {A : nu_F(A) <= nu_F([m]) / r} over all 2^m subsets."""
    threshold = oracle_wh_measure(F.members, F.omega, full_mask(K.m)) / r
    return all(is_face_naive(K, mask) == (oracle_wh_measure(F.members, F.omega, mask) <= threshold)
               for mask in range(1 << K.m))


def oracle_deleted_join_counts(K: SimplicialComplex, r: int) -> tuple[int, ...]:
    counts = [0] * K.m
    for labels in product(range(r + 1), repeat=K.m):
        classes = [0] * r
        labeled = 0
        for v, lab in enumerate(labels):
            if lab:
                classes[lab - 1] |= 1 << v
                labeled += 1
        if labeled == 0:
            continue
        if all(is_face_naive(K, c) for c in classes):
            counts[labeled - 1] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def oracle_has_clique(n: int, k: int):
    """Predicate on edge masks of K_n (edge (i, j), i < j, at its lexicographic
    position) that holds when the graph has k pairwise adjacent vertices."""
    position = {pair: idx for idx, pair in enumerate(
        (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i < j)}

    def test(graph: int) -> bool:
        return any(all(graph >> position[i, j] & 1 for i in verts for j in verts if i < j)
                   for verts in combinations(range(1, n + 1), k))
    return test


def oracle_minimal_property_sets(n: int, test) -> list[int]:
    """The minimal edge masks of K_n with a monotone property, ascending, by a
    scan of all 2^|E| edge subsets."""
    num_edges = n * (n - 1) // 2
    return [mask for mask in range(1 << num_edges)
            if test(mask) and not any(test(mask & ~(1 << e))
                                      for e in range(num_edges) if mask >> e & 1)]


def oracle_num_faces(K: SimplicialComplex) -> int:
    return len(brute_faces(K))


def fourier_motzkin_maximize(objective, rows):
    """Exact LP oracle by Fourier-Motzkin elimination (tiny instances only).

    Maximize c.x over x >= 0 subject to (coeffs, sense, rhs) rows; returns
    ("optimal", value), ("infeasible", None), or ("unbounded", None).
    Completely independent of the simplex implementation.
    """
    n = len(objective)
    # inequalities over (x_1..x_n, t):  a.x + p*t <= q
    ineqs: list[tuple[list[Fraction], Fraction, Fraction]] = []

    def add(coeffs, p, q):
        ineqs.append(([Fraction(v) for v in coeffs], Fraction(p), Fraction(q)))

    for coeffs, sense, rhs in rows:
        if sense in ("<=", "=="):
            add(coeffs, 0, rhs)
        if sense in (">=", "=="):
            add([-v for v in coeffs], 0, -Fraction(rhs))
    for i in range(n):
        add([-(1 if j == i else 0) for j in range(n)], 0, 0)
    add([Fraction(v) for v in objective], -1, 0)   # t <= c.x
    add([-Fraction(v) for v in objective], 1, 0)   # t >= c.x

    for var in range(n):
        pos, neg, rest = [], [], []
        for coeffs, p, q in ineqs:
            a = coeffs[var]
            if a > 0:
                pos.append((coeffs, p, q))
            elif a < 0:
                neg.append((coeffs, p, q))
            else:
                rest.append((coeffs, p, q))
        new = rest
        for cp, pp, qp in pos:
            for cn, pn, qn in neg:
                s, t_ = cp[var], -cn[var]
                coeffs = [t_ * a + s * b for a, b in zip(cp, cn)]
                new.append((coeffs, t_ * pp + s * pn, t_ * qp + s * qn))
        ineqs = new

    upper = None
    lower = None
    for coeffs, p, q in ineqs:
        if any(v != 0 for v in coeffs):
            raise AssertionError("Fourier-Motzkin left a variable uneliminated")
        if p > 0:
            bound = q / p
            upper = bound if upper is None else min(upper, bound)
        elif p < 0:
            bound = q / p
            lower = bound if lower is None else max(lower, bound)
        elif q < 0:
            return "infeasible", None
    if lower is not None and upper is not None and lower > upper:
        return "infeasible", None
    if upper is None:
        return "unbounded", None
    return "optimal", upper


def random_complex(rng: random.Random, m: int, max_facets: int = 6) -> SimplicialComplex:
    count = rng.randint(1, max_facets)
    facets = [rng.getrandbits(m) for _ in range(count)]
    return from_facets(m, facets)


def all_complexes(m: int):
    """Every simplicial complex on [m]: one per nonempty antichain in 2^[m]."""
    subsets = sorted(range(1 << m))

    def rec(start: int, chosen: list[int]):
        if chosen:
            yield from_facets(m, list(chosen))
        for i in range(start, len(subsets)):
            cand = subsets[i]
            if any(cand & ~c == 0 or c & ~cand == 0 for c in chosen):
                continue
            chosen.append(cand)
            yield from rec(i + 1, chosen)
            chosen.pop()

    yield from rec(0, [])


def named_small_examples() -> list[SimplicialComplex]:
    """A spread of named complexes with m <= 12 for oracle comparisons."""
    from unavoidable import join, points, skeleton

    out: list[SimplicialComplex] = []
    for m in range(1, 9):
        out.append(points(m))
    for n in (1, 2, 3):
        out.append(skeleton(n, 2 * n + 3))
    for m in (4, 6, 8):
        out.append(skeleton(1, m))
    for m in (1, 3, 5):
        out.append(from_facets(m, [full_mask(m)]))  # full simplex
    for m in (2, 4, 6):
        out.append(from_facets(m, [[]]))  # the complex {0}
    for m in (3, 5, 7):
        boundary = [full_mask(m) ^ (1 << i) for i in range(m)]
        out.append(from_facets(m, boundary))
    out.append(join(points(2), points(3)))
    out.append(join(skeleton(1, 5), points(3)))
    return out
