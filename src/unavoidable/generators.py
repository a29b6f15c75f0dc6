"""Generators for the standard example families.

* skeletons and point sets,
* complexes on the edge set of a complete graph cut out by a monotone graph
  property (faces are the edge sets whose complement has the property);
  every r-coloring of the edges is admissible exactly when the complex is
  r-unavoidable, and ``is_admissible`` scans the colorings as a reference,
* random self-dual complexes from weighted-majority thresholds,
* face counts of r-fold deleted joins.

Deleted joins are never materialized: their vertex sets multiply and only
f-vectors are needed downstream, which are counted without visiting a face.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable

from .bitsets import full_mask
from .complexes import Measure, SimplicialComplex, from_facets, sublevel_complex
from .errors import BudgetExceededError

DEFAULT_COLORING_BUDGET = 1 << 26
DEFAULT_DELETED_JOIN_BUDGET = 20 << 20  # m*2^m transform steps: m <= 20
# 2^m packed polynomials of (r+1)*m*(m+1) bits each: m = 20, r = 3 needs ~1.8e9.
DELETED_JOIN_MAX_BITS = 1 << 33
# C(m, k+1) facets plus C(m, k+2) minimal non-faces: skeleton(5, 13) has 3432.
SKELETON_MAX_ANTICHAINS = 1 << 17


def skeleton(k: int, m: int) -> SimplicialComplex:
    """The k-skeleton of the (m-1)-simplex: all subsets of [m] of size <= k+1.

    Raises ``BudgetExceededError`` before building a facet when its facets and
    minimal non-faces number more than ``SKELETON_MAX_ANTICHAINS``.
    """
    if not 0 <= k <= m - 1:
        raise ValueError(f"need 0 <= k <= m-1, got k={k}, m={m}")
    members = comb(m, k + 1) + comb(m, k + 2)
    if members > SKELETON_MAX_ANTICHAINS:
        raise BudgetExceededError(
            f"skeleton({k}, {m}) has {members} facets and minimal non-faces, "
            f"over the limit {SKELETON_MAX_ANTICHAINS}")
    return from_facets(m, combinations(range(1, m + 1), k + 1))


def points(m: int) -> SimplicialComplex:
    """The 0-dimensional complex of m isolated points."""
    return skeleton(0, m)


@dataclass(frozen=True)
class GraphProperty:
    """A monotone property of graphs given by their edge subsets of K_n.

    ``make_test(n)`` returns a predicate on edge masks, used by the
    reference scan ``is_admissible``.  ``make_minimal_sets(n)`` returns the
    minimal edge masks with the property in closed form; ``ramsey_complex``
    builds its facets from them and never scans edge subsets.
    """

    name: str
    make_test: Callable[[int], Callable[[int], bool]]
    make_minimal_sets: Callable[[int], tuple[int, ...]]


def edge_table(n: int) -> tuple[tuple[int, int], ...]:
    """Edges of K_n in lexicographic order; edge index v (1-based) is table[v-1]."""
    return tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


def _edge_index_map(n: int) -> dict[tuple[int, int], int]:
    return {edge: idx for idx, edge in enumerate(edge_table(n))}


def _clique_masks(n: int, k: int) -> tuple[int, ...]:
    index = _edge_index_map(n)
    masks = []
    for verts in combinations(range(1, n + 1), k):
        mask = 0
        for e in combinations(verts, 2):
            mask |= 1 << index[e]
        masks.append(mask)
    return tuple(masks)


def contains_clique(k: int) -> GraphProperty:
    """The monotone property of containing a clique on k vertices."""
    if k < 2:
        raise ValueError("clique size must be at least 2")

    def make_test(n: int) -> Callable[[int], bool]:
        cliques = _clique_masks(n, k)
        return lambda graph: any(graph & c == c for c in cliques)

    return GraphProperty(
        name=f"contains_clique({k})",
        make_test=make_test,
        make_minimal_sets=lambda n: _clique_masks(n, k),
    )


def ramsey_complex(n: int, prop: GraphProperty) -> tuple[SimplicialComplex, tuple[tuple[int, int], ...]]:
    """The complex on the edges of K_n whose faces are the edge sets S such
    that the complementary graph has the property.

    Returns the complex together with the edge labeling table (vertex v of
    the complex is the edge ``table[v-1]`` of K_n).  Facets are complements
    of the minimal property graphs.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    num_edges = n * (n - 1) // 2
    if num_edges > 63:
        raise ValueError("edge set exceeds the 63-vertex ground-set limit")
    minimal = prop.make_minimal_sets(n)
    if not minimal:
        raise ValueError(f"property {prop.name} never holds on K_{n}; the complex would be void")
    full = full_mask(num_edges)
    K = from_facets(num_edges, [full ^ mask for mask in minimal])
    return K, edge_table(n)


def is_admissible(
    n: int,
    prop: GraphProperty,
    r: int,
    allow_empty_classes: bool = True,
    *,
    budget: int = DEFAULT_COLORING_BUDGET,
) -> bool:
    """Exhaustive scan over r-colorings of the edges of K_n.

    True iff every coloring has a class whose complement (the union of the
    other classes) satisfies the property.  With ``allow_empty_classes``
    False, colorings with an empty class are skipped, which quantifies over
    partitions into r nonempty classes instead.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if r < 2:
        raise ValueError("r must be at least 2")
    num_edges = n * (n - 1) // 2
    if r ** num_edges > budget:
        raise BudgetExceededError(
            f"{r}^{num_edges} colorings exceed the budget {budget}")
    test = prop.make_test(n)
    classes = [0] * r

    def assigned_union_ok(assigned: int) -> bool:
        # Once the union of the classes other than i has the property, every
        # completion keeps it (the union only grows): prune as satisfied.
        return any(test(assigned ^ classes[i]) for i in range(r))

    def scan(edge: int, assigned: int) -> bool:
        if assigned_union_ok(assigned):
            return True
        if edge == num_edges:
            if not allow_empty_classes and any(c == 0 for c in classes):
                return True  # skipped coloring
            return False  # a violating coloring survived
        bit = 1 << edge
        for i in range(r):
            classes[i] |= bit
            ok = scan(edge + 1, assigned | bit)
            classes[i] ^= bit
            if not ok:
                return False
        return True

    return scan(0, 0)


def weighted_majority_complex(weights) -> SimplicialComplex:
    """Faces are the coalitions with strictly less than half the total weight.

    Weights must be positive integers with odd total, so no subset lands on
    exactly half and the complex is self-dual.
    """
    ws = list(weights)
    if not ws or any(not isinstance(w, int) or isinstance(w, bool) or w <= 0 for w in ws):
        raise ValueError("weights must be positive integers")
    total = sum(ws)
    if total % 2 == 0:
        raise ValueError("total weight must be odd (ties would break self-duality)")
    mu = Measure(tuple(Fraction(w) for w in ws))
    # An odd total is never met exactly, so "<= total/2" is "< total/2".
    return sublevel_complex(mu, Fraction(total, 2))


def random_selfdual(m: int, seed: int) -> SimplicialComplex:
    """A random self-dual complex from a weighted-majority threshold; deterministic per seed."""
    if m < 1:
        raise ValueError("need m >= 1")
    rng = random.Random(seed)
    ws = [rng.randint(1, 2 * m + 1) for _ in range(m)]
    if sum(ws) % 2 == 0:
        ws[0] += 1
    return weighted_majority_complex(ws)


def deleted_join_faces(
    K: SimplicialComplex, r: int, *, budget: int = DEFAULT_DELETED_JOIN_BUDGET
) -> tuple[int, ...]:
    """f-vector of the r-fold 2-wise deleted join of K (counts of nonempty
    faces by dimension).

    A face with k vertices (dimension k-1) labels k vertices of [m] with 1..r
    so that every label class is a face of K: it is an r-tuple of pairwise
    disjoint faces of K, k vertices in all.  Faces are counted, never
    visited, by the ranked subset transform (Bjorklund-Husfeldt-Kaski-
    Koivisto, "Fourier meets Mobius", STOC 2007).  With Z_S(x) the sum of
    x^|A| over the faces A inside S, [x^k] Z_S^r counts the r-tuples of faces
    inside S with k vertices in all, and inclusion-exclusion over S keeps
    those whose union has k vertices, the disjoint ones:

        f_k = sum over j of (-1)^(k-j) C(m-j, k-j) [x^k] P_j,  P_j = sum of Z_S^r over |S| = j.

    ``budget`` bounds the m*2^m steps of the zeta transform that builds every
    Z_S, and ``DELETED_JOIN_MAX_BITS`` the bits of the 2^m packed Z_S.  A
    polynomial is one int, coefficient k at bit k*slot, cut above degree m by
    powers modulo 2^(slot*(m+1)).  No coefficient carries with
    slot = (r+1)*m: Z_S(1) <= 2^|S| bounds every coefficient of Z_S^r by
    2^(r*m), and every coefficient of P_j by C(m, j)*2^(r*m) < 2^((r+1)*m),
    so each int is its polynomial at x = 2^slot.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    m = K.m
    if m << m > budget:
        raise BudgetExceededError(f"{m}*2^{m} subset-transform steps exceed the budget {budget}")
    slot = (r + 1) * m
    if slot * (m + 1) << m > DELETED_JOIN_MAX_BITS:
        raise BudgetExceededError(
            f"2^{m} packed polynomials of {slot * (m + 1)} bits exceed the limit "
            f"of {DELETED_JOIN_MAX_BITS} bits")
    zeta = [face << slot * mask.bit_count() for mask, face in enumerate(K.face_table())]
    for bit in (1 << i for i in range(m)):
        for mask in range(len(zeta)):
            if mask & bit:
                zeta[mask] += zeta[mask ^ bit]
    ranked = [0] * (m + 1)
    for mask, z in enumerate(zeta):
        ranked[mask.bit_count()] += pow(z, r, 1 << slot * (m + 1))
    digit = (1 << slot) - 1
    counts = [sum((-1) ** (k - j) * comb(m - j, k - j) * (ranked[j] >> slot * k & digit)
                  for j in range(k + 1)) for k in range(1, m + 1)]
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)
