"""Subsets of the ground set {1, ..., m} as machine-word bit masks.

Bit v-1 of a mask encodes vertex v, so subset operations are single integer
instructions: containment is ``a & ~b == 0``, disjointness ``a & b == 0``.
The hard library limit is m <= 63 so that masks stay machine words.

The canonical serialization of a subset lists its vertices in increasing
order; ``elements`` produces exactly that tuple.  The lexicographic order of
those tuples is the one order of subsets in this package: ``canonical`` owns
it, and every stored antichain, witness and facet list follows it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

MAX_GROUND_SET = 63

SubsetLike = Union[int, Iterable[int]]


def check_ground_set(m: int) -> None:
    if isinstance(m, bool) or not isinstance(m, int):
        raise TypeError(f"ground-set size must be an int, got {type(m).__name__}")
    if not 1 <= m <= MAX_GROUND_SET:
        raise ValueError(f"ground-set size must be in 1..{MAX_GROUND_SET}, got {m}")


def full_mask(m: int) -> int:
    return (1 << m) - 1


def as_mask(m: int, subset: SubsetLike) -> int:
    """Normalize ``subset`` (a bit mask or an iterable of 1-based vertices) to a mask.

    Raises ValueError when a vertex falls outside 1..m.
    """
    if isinstance(subset, bool) or isinstance(subset, (str, bytes)):
        raise TypeError("subset must be a bit mask or an iterable of vertices")
    if isinstance(subset, int):
        if subset < 0 or subset >> m:
            raise ValueError(f"mask {subset:#x} has vertices outside 1..{m}")
        return subset
    mask = 0
    for v in subset:
        if isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= m:
            raise ValueError(f"vertex {v!r} out of range 1..{m}")
        mask |= 1 << (v - 1)
    return mask


def elements(mask: int) -> tuple[int, ...]:
    """Vertices of a mask, increasing (the canonical order)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def canonical(masks: Iterable[int]) -> tuple[int, ...]:
    """The masks sorted as their ``elements`` tuples sort (the canonical order).

    A key writes vertices 1, 2, ... up to the highest as "0" (in) or "1" (out),
    "" for the empty mask.  A key that prefixes another is a subset's, with a
    prefix tuple.  Else the first difference is the least vertex v in one set
    only, the other has a larger vertex, and both orders put v's set first.
    """
    flip = str.maketrans("01", "10")
    return tuple(sorted(masks, key=lambda a: bin(a)[:1:-1].translate(flip) if a else ""))


def iter_singletons(mask: int) -> Iterator[int]:
    """Yield the one-bit masks of ``mask``, lowest vertex first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low
