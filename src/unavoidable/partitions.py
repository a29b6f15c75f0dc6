"""Exact decision procedures for unavoidability and partition numbers.

The workhorse is a packing reduction: a partition of [m] into nu blocks that
are all non-faces exists exactly when nu pairwise disjoint minimal non-faces
exist (shrink each block to a minimal non-face inside it; conversely dump the
leftover vertices into one packed non-face, which stays a non-face because
non-faces are upward closed).  Hence

    partition_number(K) = (max size of a disjoint family of minimal non-faces) + 1

and K is r-unavoidable iff no r pairwise disjoint minimal non-faces exist.
A literal brute-force oracle over set partitions guards the reduction.

One bounded search, ``_least_packing``, answers every packing question.  It
scans candidates in :func:`~unavoidable.bitsets.canonical` order, so the
witnesses it returns are the lexicographically least ones and runs reproduce
bit-identically regardless of scheduling.

The search is bit-parallel, in the manner of the bitset clique search of
San Segundo et al. (2011): bit i of one Python int stands for candidate i,
the candidates disjoint from a chosen c are one AND-NOT with the OR of the
incidence rows of c's vertices, and a prefix-OR table by size drops the
candidates too large for the vertices left.  The rows and the table form
the complex's ``nonface_index``, built once per complex, so the k loop of
``max_disjoint_min_nonfaces``, every room of ``is_rs_unavoidable`` and every
facet of ``is_minimally_r_unavoidable`` share it.  Each search stops with
``BudgetExceededError`` after ``PACKING_NODE_LIMIT`` nodes.  This module
owns the index's memo of least k-packings in room m (``_full_packing``):
``max_disjoint_min_nonfaces`` fills it, and ``is_r_unavoidable`` and
``is_rs_unavoidable`` read it, so no r-unavoidability verdict repeats a
search that pi(K) has made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .bitsets import SubsetLike, as_mask, elements, full_mask, iter_singletons
from .complexes import AntichainIndex, SimplicialComplex
from .errors import BudgetExceededError

ORACLE_MAX_GROUND_SET = 12
PACKING_NODE_LIMIT = 1 << 20  # nodes of one packing search


@dataclass(frozen=True)
class PackingWitness:
    """A pairwise disjoint family of minimal non-faces plus the uncovered rest of [m]."""

    nonfaces: tuple[tuple[int, ...], ...]
    leftover: tuple[int, ...]


@dataclass(frozen=True)
class PartitionWitness:
    """A partition of [m] with a flag per block (True = the block is a non-face)."""

    blocks: tuple[tuple[int, ...], ...]
    offending: tuple[bool, ...]


def _partition_witness(K: SimplicialComplex, block_masks: Sequence[int]) -> PartitionWitness:
    return PartitionWitness(
        blocks=tuple(elements(b) for b in block_masks),
        offending=tuple(not K.is_face(b) for b in block_masks),
    )


def _union(masks: Iterable[int]) -> int:
    out = 0
    for mask in masks:
        out |= mask
    return out


def _least_packing(index: AntichainIndex, k: int, room: int,
                   live: Optional[int] = None) -> Optional[list[int]]:
    """Lexicographically least family of k pairwise disjoint members of index
    whose sizes sum to at most room, or None.

    Only the members in the bitset ``live`` take part (all by default).  The
    search is depth first in member order over one bitset P of live
    candidates: a node takes the least candidate c of P, and its child keeps
    the later candidates that avoid c and fit into the vertices left (room,
    capped at the vertices the live members cover, minus the sizes chosen so
    far).  A branch is cut when P holds fewer candidates than are still
    needed, or when none of them is small enough: of `need` disjoint
    candidates in `left` vertices, the smallest has at most left // need.
    Both cuts are sound, so the first family found is the least one.  Past
    PACKING_NODE_LIMIT nodes the search raises BudgetExceededError.
    """
    if live is None:
        live = index.every
    masks, fits = index.masks, index.fits
    out: list[int] = []
    nodes = 0

    def rec(cands: int, left: int, need: int) -> bool:
        nonlocal nodes
        small = fits[left // need]
        while cands & small and cands.bit_count() >= need:
            nodes += 1
            if nodes > PACKING_NODE_LIMIT:
                raise BudgetExceededError(
                    f"packing search exceeded {PACKING_NODE_LIMIT} nodes")
            low = cands & -cands
            cands ^= low
            cand = masks[low.bit_length() - 1]
            out.append(cand)
            if need == 1:
                return True
            rest = left - cand.bit_count()
            if rec(index.avoiding(cand, cands & fits[rest]), rest, need - 1):
                return True
            out.pop()
        return False

    if k == 0:
        return out
    left = min(room, index.span(live))
    return out if rec(live & fits[left], left, k) else None


def _full_packing(K: SimplicialComplex, k: int) -> Optional[tuple[int, ...]]:
    """``_least_packing(K.nonface_index, k, K.m)`` as a tuple, memoized per k.
    No search runs past a k without a packing: a k-packing holds smaller ones.
    The memo's own entries are scanned (a snapshot, as other threads may add
    to it), so a huge k costs no loop over the k below it."""
    memo = K.nonface_index._packings
    if k not in memo:
        none_below = any(j < k and p is None for j, p in list(memo.items()))
        packing = None if none_below else _least_packing(K.nonface_index, k, K.m)
        memo[k] = None if packing is None else tuple(packing)
    return memo[k]


def max_disjoint_min_nonfaces(K: SimplicialComplex) -> tuple[int, PackingWitness]:
    """Maximum pairwise disjoint family of minimal non-faces, with its witness.

    Raises k while a packing of k minimal non-faces exists; the returned
    witness is the lexicographically least family of maximum size.  D = 0
    exactly when K is the full simplex.
    """
    best: tuple[int, ...] = ()
    while True:
        packing = _full_packing(K, len(best) + 1)
        if packing is None:
            break
        best = packing
    witness = PackingWitness(
        nonfaces=tuple(elements(mask) for mask in best),
        leftover=elements(full_mask(K.m) & ~_union(best)),
    )
    return len(best), witness


def partition_number(K: SimplicialComplex) -> int:
    """pi(K): least nu such that every partition of [m] into nu nonempty blocks
    contains a face block.

    The value m+1 means no nu in 1..m works, which happens exactly for the
    complex {0} (every nonempty set is a non-face).
    """
    return max_disjoint_min_nonfaces(K)[0] + 1


def _set_partitions(m: int, nu: int) -> Iterator[tuple[int, ...]]:
    """All partitions of [m] into exactly nu nonempty blocks, as block-mask tuples.

    Restricted-growth-string enumeration: vertex 1 gets label 0 and each next
    vertex gets a label at most one past the current maximum.
    """
    blocks = [0] * nu

    def rec(v: int, used: int) -> Iterator[tuple[int, ...]]:
        if v == m:
            if used == nu:
                yield tuple(blocks)
            return
        if used + (m - v) < nu:
            return
        bit = 1 << v
        for label in range(min(used + 1, nu)):
            blocks[label] |= bit
            yield from rec(v + 1, max(used, label + 1))
            blocks[label] ^= bit

    yield from rec(0, 0)


def partition_number_oracle(K: SimplicialComplex) -> int:
    """Literal partition number by exhausting all set partitions (m <= 12).

    Independent of the packing reduction: uses only facet-containment
    membership and restricted-growth-string enumeration.
    """
    if K.m > ORACLE_MAX_GROUND_SET:
        raise BudgetExceededError(
            f"partition oracle limited to m <= {ORACLE_MAX_GROUND_SET}, got m = {K.m}")
    for nu in range(1, K.m + 1):
        violating = False
        for blocks in _set_partitions(K.m, nu):
            if all(not K.is_face(b) for b in blocks):
                violating = True
                break
        if not violating:
            return nu
    return K.m + 1


def is_r_unavoidable(K: SimplicialComplex, r: int) -> tuple[bool, Optional[PartitionWitness]]:
    """True iff pi(K) <= r, i.e. no r pairwise disjoint minimal non-faces exist.

    On failure the witness is a concrete partition of [m] into r non-face
    blocks: the lexicographically least packing of size r, with the leftover
    vertices dumped into the first block (non-faces are upward closed).
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    packing = _full_packing(K, r)
    if packing is None:
        return True, None
    blocks = list(packing)
    blocks[0] |= full_mask(K.m) & ~_union(packing)
    return False, _partition_witness(K, blocks)


def is_rs_unavoidable(K: SimplicialComplex, r: int, s: int) -> tuple[bool, Optional[PartitionWitness]]:
    """True iff every partition of [m] into r nonempty blocks has >= s face blocks.

    A violating partition needs r-s+1 non-face blocks plus s-1 further
    nonempty blocks, so it exists exactly when r-s+1 pairwise disjoint
    minimal non-faces fit into m-(s-1) vertices.  With s = 1 this is
    r-unavoidability.
    """
    if not r > s >= 1:
        raise ValueError("need r > s >= 1")
    # No k-packing is smaller than the k smallest minimal non-faces together
    # (``least``), so a room below that settles the verdict unsearched.  The
    # least k-packing in room m, from the memo, is also the least one in
    # the smaller room when it fits there, and settles every room when it is
    # None.  Below it, each packing found caps the next search at its total
    # size minus one, until a search fails or the total reaches ``least``,
    # so the last one found is the lexicographically least packing of least
    # total size.
    index, k, room = K.nonface_index, r - s + 1, K.m - s + 1
    sizes = sorted(mask.bit_count() for mask in index.masks)
    least = sum(sizes[:k])
    if len(sizes) < k or least > room:
        return True, None
    packing = _full_packing(K, k)
    if packing is not None and _union(packing).bit_count() > room:
        packing = _least_packing(index, k, room)
    if packing is None:
        return True, None
    while (total := _union(packing).bit_count()) > least:
        smaller = _least_packing(index, k, total - 1)
        if smaller is None:
            break
        packing = smaller
    leftover = full_mask(K.m) & ~_union(packing)
    blocks = list(packing)
    if s == 1:
        blocks[0] |= leftover
    else:
        rest = list(iter_singletons(leftover))
        blocks += rest[: s - 2]
        blocks.append(_union(rest[s - 2:]))
    return False, _partition_witness(K, blocks)


def is_minimally_r_unavoidable(K: SimplicialComplex, r: int) -> bool:
    """True iff K is r-unavoidable but no facet deletion is.

    Facet deletions are the maximal proper subcomplexes, and unavoidability
    is monotone under inclusion, so checking them decides minimality over all
    proper subcomplexes.  Deleting facet F turns F into a minimal non-face
    and keeps (a subset of) the old ones; since the old antichain packs no r
    disjoint members, the deletion loses unavoidability exactly when r-1
    pairwise disjoint old minimal non-faces avoid F.  The empty facet is
    skipped: deleting it would leave the void family, which has no faces and
    is never unavoidable here.
    """
    if not is_r_unavoidable(K, r)[0]:
        return False
    index = K.nonface_index
    for facet in K.facets:
        if facet and _least_packing(index, r - 1, K.m, index.avoiding(facet, index.every)) is None:
            return False
    return True


def hypergraph_partition_number(
    K: SimplicialComplex, H: Sequence[SubsetLike]
) -> tuple[int, frozenset[int]]:
    """Partition number restricted to partitions whose blocks all lie in H.

    Returns the least nu such that at every level nu' >= nu each partition of
    [m] into nu' blocks from H has a face block, together with the set of
    vacuous levels (those admitting no H-partition at all, always including
    m+1).  Levels with no H-partition satisfy the condition vacuously; since
    that makes the condition non-monotone in nu, the bare minimum alone would
    mislead, so the stable threshold is returned and the vacuous levels are
    surfaced explicitly.
    """
    if K.m > ORACLE_MAX_GROUND_SET:
        raise BudgetExceededError(
            f"hypergraph partition number limited to m <= {ORACLE_MAX_GROUND_SET}, got m = {K.m}")
    members = frozenset(as_mask(K.m, h) for h in H)
    if not members:
        raise ValueError("H must be nonempty")
    if 0 in members:
        raise ValueError("H members must be nonempty subsets")
    failing: list[int] = []
    vacuous: set[int] = {K.m + 1}
    for nu in range(1, K.m + 1):
        saw_h_partition = False
        violated = False
        for blocks in _set_partitions(K.m, nu):
            if not all(b in members for b in blocks):
                continue
            saw_h_partition = True
            if all(not K.is_face(b) for b in blocks):
                violated = True
                break
        if violated:
            failing.append(nu)
        elif not saw_h_partition:
            vacuous.add(nu)
    pi_h = failing[-1] + 1 if failing else 1
    return pi_h, frozenset(vacuous)
