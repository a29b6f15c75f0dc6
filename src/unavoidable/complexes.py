"""Immutable simplicial complexes on a ground set {1, ..., m}.

A complex is stored by its facets (inclusion-maximal faces) together with the
cached antichain of minimal non-faces computed at construction time.
:func:`from_facets` reads both antichains off the face indicator, one 2^m-bit
int down-closed by word-parallel subset transforms, when the facets given are
many for m (at least 2^m / 64, m <= 22); otherwise it keeps the maximal
facets pairwise and finds the minimal non-faces as the minimal transversals
of the facet complements (MMCS).  Sub-level complexes of measures are built
from their antichains too, without a face walk; see :func:`sublevel_complex`.
The two antichains support both membership routes:

    A is a face  <=>  A is contained in some facet
                 <=>  A contains no minimal non-face

Conventions:

* Subsets of the ground set are bit masks (see :mod:`unavoidable.bitsets`);
  every public operation also accepts iterables of 1-based vertices.
* The empty set is a face of every complex.  The void family (no faces at
  all) is never constructed; it appears only as the :data:`VOID` result
  marker of :func:`alexander_dual`.
* Vert(K) may be a proper subset of [m]; isolated ground-set elements are
  legal and count toward m everywhere.
* Stored antichains are sorted by :func:`~unavoidable.bitsets.canonical`,
  making equality structural and all output deterministic.
* The three measures, :class:`Measure`, :class:`GeometricMeasure` and
  :class:`WeightedHypergraph`, live here with :func:`sublevel_complex`.
  Their arithmetic is exact: weights and thresholds are
  :class:`fractions.Fraction`; float input is rejected.

All values are immutable after construction and every operation is a pure
function, so values may be shared freely across threads.  A complex memoizes
one derived value, the bitset index of its minimal non-faces that the packing
searches share (with their memo of least packings); each is a deterministic
function of the fields, so a race can only compute one of them twice.  The
same holds for the append-only memo of a WeightedHypergraph's values.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence, Union

from .bitsets import (
    MAX_GROUND_SET,
    SubsetLike,
    as_mask,
    canonical,
    check_ground_set,
    elements,
    full_mask,
    iter_singletons,
)
from .errors import BudgetExceededError

RationalLike = Union[int, str, Fraction]


def as_fraction(value: RationalLike) -> Fraction:
    """Exact rational conversion; floats are rejected to keep verdicts exact."""
    if isinstance(value, float):
        raise TypeError("floating point rejected; pass an int, Fraction, or 'p/q' string")
    if isinstance(value, bool):
        raise TypeError("boolean is not a rational value")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


class ScxFormatError(ValueError):
    """Malformed .scx complex file."""


class _Void:
    """Distinguished marker for the dual of the full simplex (a value, not an error)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "VOID"


VOID = _Void()


@dataclass(frozen=True)
class SimplicialComplex:
    """A simplicial complex over [m], held as sorted facet / minimal-non-face masks.

    Build instances with :func:`from_facets`; the raw constructor performs no
    validation or reduction.
    """

    m: int
    facets: tuple[int, ...]
    min_nonfaces: tuple[int, ...]

    def is_face(self, subset: SubsetLike) -> bool:
        """Membership via facet containment."""
        mask = as_mask(self.m, subset)
        return any(mask & ~facet == 0 for facet in self.facets)

    def is_face_via_nonfaces(self, subset: SubsetLike) -> bool:
        """Membership via minimal-non-face avoidance; must agree with :meth:`is_face`."""
        mask = as_mask(self.m, subset)
        return not any(nf & ~mask == 0 for nf in self.min_nonfaces)

    def __contains__(self, subset: SubsetLike) -> bool:
        return self.is_face(subset)

    def face_table(self) -> bytearray:
        """Byte A is 1 iff mask A is a face, for all 2^m masks (m <= SWEEP_MAX_GROUND_SET).

        The bytes are read off the 2^m-bit face indicator (see
        :func:`_face_indicator`): byte 8j+p is bit p of the indicator's byte j.
        """
        if self.m > SWEEP_MAX_GROUND_SET:
            raise BudgetExceededError(f"face tables support m <= {SWEEP_MAX_GROUND_SET}")
        packed = _face_indicator(self.m, self.facets).to_bytes(_indicator_bytes(self.m), "little")
        table = bytearray(len(packed) << 3)
        for p in range(8):
            table[p::8] = packed.translate(_BIT[p])
        del table[1 << self.m:]
        return table

    @cached_property
    def nonface_index(self) -> AntichainIndex:
        """Bitset index of the minimal non-faces, built on first use and then
        shared by every packing search on this complex."""
        return AntichainIndex.of(self.m, self.min_nonfaces)

    @property
    def vertices(self) -> tuple[int, ...]:
        """Vert(K): vertices that occur in some face; may be a proper subset of [m]."""
        used = 0
        for facet in self.facets:
            used |= facet
        return elements(used)

    @property
    def dim(self) -> int:
        """Dimension: largest facet size minus one (-1 for the complex {0})."""
        return max(facet.bit_count() for facet in self.facets) - 1

    def __repr__(self) -> str:
        shown = [set(elements(f)) or "{}" for f in self.facets[:8]]
        more = "" if len(self.facets) <= 8 else f", ... ({len(self.facets)} facets)"
        return f"SimplicialComplex(m={self.m}, facets={shown}{more})"


# _BIT[p] maps each byte to its bit p (0 or 1): a bytes.translate table.
_BIT = tuple(bytes(byte >> p & 1 for byte in range(256)) for p in range(8))


def _incidence_rows(m: int, masks: Sequence[int]) -> list[int]:
    # Row v has bit i set iff masks[i] contains vertex v+1, so one big-int AND
    # of rows intersects whole columns of the family at once.
    if len(masks) <= 32:
        # Rows of at most 32 bits: ORing in one bit at a time stays linear,
        # and beats the fixed cost of the 8m slices below.
        occ = [0] * m
        for i, mask in enumerate(masks):
            for low in iter_singletons(mask):
                occ[low.bit_length() - 1] |= 1 << i
        return occ
    # Larger families are transposed in bytes.  With 8 bytes per mask, the
    # slice [8q + k :: 64] holds byte k of masks q, q+8, q+16, ...; byte j
    # of row 8k+p gets bit p of the j-th of them at its bit q.
    data = struct.pack(f"<{len(masks)}Q", *masks)
    rows = []
    for v in range(m):
        k, bit = v >> 3, _BIT[v & 7]
        row = 0
        for q in range(8):
            row |= int.from_bytes(data[8 * q + k::64].translate(bit), "little") << q
        rows.append(row)
    return rows


@dataclass(frozen=True)
class AntichainIndex:
    """A family of masks as bitsets over its members: bit i stands for masks[i].

    ``rows[v]`` marks the members that contain vertex v+1, so the members
    disjoint from a set c are the AND of ``~rows[v]`` over the vertices of c
    (one AND-NOT with the OR of those rows).
    ``fits[s]`` marks the members with at most s vertices (s = 0..m).
    ``_packings`` is the memo of :mod:`unavoidable.partitions`; ``==``,
    ``hash`` and ``repr`` ignore it.
    """

    masks: tuple[int, ...]
    rows: tuple[int, ...]
    fits: tuple[int, ...]
    _packings: dict = field(init=False, default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, m: int, masks: Sequence[int]) -> AntichainIndex:
        by_size = [0] * (m + 1)
        for i, mask in enumerate(masks):
            by_size[mask.bit_count()] |= 1 << i
        return cls(tuple(masks), tuple(_incidence_rows(m, masks)),
                   tuple(accumulate(by_size, operator.or_)))

    @property
    def every(self) -> int:
        """The bitset of all members."""
        return (1 << len(self.masks)) - 1

    def avoiding(self, mask: int, live: int) -> int:
        """The members in the bitset ``live`` that are disjoint from ``mask``."""
        rows, hit = self.rows, 0
        while mask:
            low = mask & -mask
            hit |= rows[low.bit_length() - 1]
            mask ^= low
        return live & ~hit

    def span(self, live: int) -> int:
        """Number of vertices covered by the members in the bitset ``live``."""
        return sum(1 for row in self.rows if row & live)


def _maximal_antichain(masks: Iterable[int]) -> list[int]:
    # The AND of a mask's vertex rows marks the masks that contain it (all
    # masks for the empty one), so the mask is maximal iff only its own bit is left.
    uniq = canonical(set(masks))
    occ = _incidence_rows(max(uniq, default=0).bit_length(), uniq)
    every = (1 << len(uniq)) - 1
    out = []
    for i, a in enumerate(uniq):
        above = every
        for low in iter_singletons(a):
            above &= occ[low.bit_length() - 1]
        if above == 1 << i:
            out.append(a)
    return out


# Bytes of the 2^m-bit indicator of the masks that contain vertex i+1, for
# i < 3; from i = 3 on, the indicator runs of 2^i zero bits, then 2^i one
# bits, are whole bytes.
_LOW_VERTEX_BYTES = (b"\xaa", b"\xcc", b"\xf0")


def _indicator_bytes(m: int) -> int:
    return max(1, (1 << m) >> 3)


def _containing(m: int, i: int) -> int:
    # Bit A is set iff mask A contains vertex i+1 (A has bit i), for A < 2^m.
    if i < 3:
        block = _LOW_VERTEX_BYTES[i]
    else:
        half = 1 << (i - 3)
        block = bytes(half) + b"\xff" * half
    bits = int.from_bytes(block * ((1 << m) // (len(block) << 3) or 1), "little")
    return bits if m >= 3 else bits & ((1 << (1 << m)) - 1)


def _face_indicator(m: int, facets: Iterable[int]) -> int:
    # The down-closure of the facets as one 2^m-bit int: bit A is set iff
    # mask A lies in some facet.  Step i adds A - i for every marked A that
    # contains i, so after all m steps every subset of a facet is marked
    # (the subset zeta transform over OR, done a whole row of bits at a time:
    # Yates 1937; Bjorklund-Husfeldt-Kaski-Koivisto 2007).
    table = bytearray(_indicator_bytes(m))
    for facet in facets:
        table[facet >> 3] |= 1 << (facet & 7)
    faces = int.from_bytes(table, "little")
    for i in range(m):
        faces |= (faces & _containing(m, i)) >> (1 << i)
    return faces


_ONE = re.compile("1")


def _set_bits(bits: int) -> list[int]:
    # bin() reversed puts bit A at index A.
    return [one.start() for one in _ONE.finditer(bin(bits)[:1:-1])]


def _antichains_from_indicator(m: int, masks: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    # Facets and minimal non-faces from the face indicator, with about 4m
    # big-int operations on 2^m bits.  A face A is a facet unless A + i is a
    # face for some i not in A; a non-face A is minimal unless A - i is a
    # non-face for some i in A.  Shifting by 2^i lines A up with A + i (or
    # A - i), and the vertex indicator keeps the A that do not (or do)
    # contain i; the faces are down-closed and the non-faces up-closed, so
    # both marked sets lie inside the set they are removed from.
    faces = _face_indicator(m, masks)
    nonfaces = ((1 << (1 << m)) - 1) ^ faces
    below_a_face = above_a_nonface = 0
    for i in range(m):
        has_i = _containing(m, i)
        below_a_face |= (faces & has_i) >> (1 << i)
        above_a_nonface |= (nonfaces << (1 << i)) & has_i
    return (canonical(_set_bits(faces ^ below_a_face)),
            canonical(_set_bits(nonfaces ^ above_a_nonface)))


def _min_nonfaces_from_facets(m: int, facets: tuple[int, ...]) -> tuple[int, ...]:
    # A set is a non-face iff it meets every facet complement, so the minimal
    # non-faces are the minimal transversals of the complements.  They are
    # enumerated by MMCS (Murakami-Uno 2014): grow S depth first, branching on
    # the uncovered complement with the fewest candidate vertices; each member
    # of S keeps its critical complements (those S meets only in that member)
    # as a bitset over complement indices, and S stops growing as soon as a
    # member's critical set empties, since S is then no longer minimal.
    # The cost follows the number of facets and minimal non-faces, not 2^m.
    full = full_mask(m)
    edges = [full ^ facet for facet in facets]
    if 0 in edges:
        return ()  # full simplex: its empty complement has no transversal
    occ = _incidence_rows(m, edges)
    out: list[int] = []

    # `uncovered` (complement masks, for the branch choice) and `uncov` (their
    # index bitset, for the critical sets) hold the same complements.
    def grow(chosen: int, crit: list[int], uncovered: list[int], uncov: int, cand: int) -> None:
        if not uncovered:
            out.append(chosen)
            return
        branch = min((edge & cand for edge in uncovered), key=int.bit_count)
        # Each branch vertex leaves cand for its own subtree and returns for
        # the later ones, so every transversal is reached exactly once.
        cand &= ~branch
        for low in iter_singletons(branch):
            row = occ[low.bit_length() - 1]
            kept = [c & ~row for c in crit]
            if all(kept):
                kept.append(row & uncov)
                grow(chosen | low, kept, [e for e in uncovered if not e & low], uncov & ~row, cand)
            cand |= low

    grow(0, [], edges, (1 << len(edges)) - 1, full)
    return canonical(out)


def from_facets(m: int, facets: Iterable[SubsetLike]) -> SimplicialComplex:
    """Build a complex from generating faces.

    The input list is deduplicated and reduced to its maximal elements;
    minimal non-faces are computed and cached.  The complex {0} is given as
    the single empty facet; an empty facet list (the void family) is rejected.

    Both antichains come from one of two exact routes, chosen by a fixed cost
    rule.  With at least 2^m / 64 facets given and m <= SWEEP_MAX_GROUND_SET,
    they are read off the 2^m-bit face indicator in about 4m big-int
    operations (:func:`_antichains_from_indicator`).  Otherwise (few facets
    on a large ground set, or any m above the cap) the facets are reduced
    pairwise and the minimal non-faces enumerated by MMCS, whose cost follows
    the sizes of the two antichains, not 2^m.
    """
    check_ground_set(m)
    masks = [as_mask(m, f) for f in facets]
    if not masks:
        raise ValueError("facet list is empty: the void complex cannot be represented "
                         "(give the complex {0} as the single empty facet)")
    if m <= SWEEP_MAX_GROUND_SET and len(masks) << 6 >= 1 << m:
        return SimplicialComplex(m, *_antichains_from_indicator(m, masks))
    maximal = tuple(_maximal_antichain(masks))
    return SimplicialComplex(m, maximal, _min_nonfaces_from_facets(m, maximal))


def _complex(m: int, facets: Iterable[int], nonfaces: Iterable[int]) -> SimplicialComplex:
    # Both antichains are already known; only their order is set here.
    return SimplicialComplex(m, canonical(facets), canonical(nonfaces))


def alexander_dual(K: SimplicialComplex):
    """The complex {A : [m] \\ A is not a face of K}, or VOID when K is the full simplex.

    Facets of the dual are complements of minimal non-faces, and minimal
    non-faces of the dual are complements of facets; for non-full K the dual
    of the dual is K itself.
    """
    full = full_mask(K.m)
    if not K.min_nonfaces:
        return VOID
    return _complex(K.m, (full ^ nf for nf in K.min_nonfaces), (full ^ facet for facet in K.facets))


def is_self_dual(K: SimplicialComplex) -> bool:
    """True iff for every subset A exactly one of A, [m]\\A is a face.

    Checked by the antichain bijection: complements of facets must be exactly
    the minimal non-faces.
    """
    full = full_mask(K.m)
    return {full ^ facet for facet in K.facets} == set(K.min_nonfaces)


def join(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; K2's vertices are relabeled to {m1+1, ..., m1+m2}.

    Facets are the unions of a facet from each factor, and the face count
    (including the empty face) is multiplicative.
    """
    m = K1.m + K2.m
    if m > MAX_GROUND_SET:
        raise ValueError(f"join ground set {m} exceeds the {MAX_GROUND_SET}-vertex limit")
    shift = K1.m
    facets = [f1 | (f2 << shift) for f1 in K1.facets for f2 in K2.facets]
    # Minimal non-faces of a join are the minimal non-faces of the factors:
    # a subset splits over the two blocks, and it is a face iff both parts are.
    nonfaces = list(K1.min_nonfaces) + [nf << shift for nf in K2.min_nonfaces]
    return _complex(m, facets, nonfaces)


def delete_facet(K: SimplicialComplex, facet: SubsetLike) -> SimplicialComplex:
    """The complex whose faces are faces(K) minus the given facet.

    Deleting the empty facet (possible only for the complex {0}) would leave
    the void family and is rejected.
    """
    mask = as_mask(K.m, facet)
    if mask not in K.facets:
        raise ValueError(f"{elements(mask)} is not a facet")
    if mask == 0:
        raise ValueError("deleting the empty face would leave the void family")
    # The other facets stay maximal; a shrunken copy survives unless some
    # other facet already contains it (two shrunken copies never nest).
    others = [f for f in K.facets if f != mask]
    new_facets = others + [
        sub for sub in (mask ^ bit for bit in iter_singletons(mask))
        if not any(sub & ~g == 0 for g in others)
    ]
    # The deleted facet becomes a minimal non-face; old minimal non-faces
    # survive unless they strictly contain it.
    new_nonfaces = [mask] + [nf for nf in K.min_nonfaces if mask & ~nf != 0]
    return _complex(K.m, new_facets, new_nonfaces)


@dataclass(frozen=True)
class Measure:
    """Additive measure on [m]: non-negative rational weights with positive total.

    ``value(A)`` is the weight sum over A; a probability measure has total 1.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        ws = tuple(as_fraction(w) for w in self.weights)
        if not ws:
            raise ValueError("a measure needs at least one weight")
        if len(ws) > MAX_GROUND_SET:
            raise ValueError(f"at most {MAX_GROUND_SET} weights supported")
        if any(w < 0 for w in ws):
            raise ValueError("weights must be non-negative")
        if sum(ws) <= 0:
            raise ValueError("total mass must be positive")
        object.__setattr__(self, "weights", ws)

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def is_probability(self) -> bool:
        return self.total == 1

    @cached_property
    def _integer_weights(self) -> tuple[tuple[int, ...], int]:
        # The weights as integers over their lcm D, so that value() adds ints.
        D = math.lcm(*(w.denominator for w in self.weights))
        return tuple(w.numerator * (D // w.denominator) for w in self.weights), D

    def value(self, subset: SubsetLike) -> Fraction:
        mask = as_mask(self.m, subset)
        ws, D = self._integer_weights
        total = 0
        while mask:
            low = mask & -mask
            mask ^= low
            total += ws[low.bit_length() - 1]
        return Fraction(total, D)

    @classmethod
    def uniform(cls, m: int) -> "Measure":
        check_ground_set(m)
        return cls(tuple(Fraction(1, m) for _ in range(m)))

    @classmethod
    def counting(cls, m: int, support: Iterable[int]) -> "Measure":
        """Normalized counting measure on [m] supported by the given set."""
        check_ground_set(m)
        support_mask = as_mask(m, support)
        size = support_mask.bit_count()
        if size == 0:
            raise ValueError("support must be nonempty")
        w = [Fraction(1, size) if support_mask >> i & 1 else Fraction(0) for i in range(m)]
        return cls(tuple(w))


@dataclass(frozen=True)
class GeometricMeasure:
    """Pointwise minimum of finitely many additive measures on the same [m]."""

    components: tuple[Measure, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("at least one component measure required")
        if len({mu.m for mu in comps}) != 1:
            raise ValueError("component measures must share the ground set")
        object.__setattr__(self, "components", comps)

    @property
    def m(self) -> int:
        return self.components[0].m

    def value(self, subset: SubsetLike) -> Fraction:
        mask = as_mask(self.m, subset)
        return min(mu.value(mask) for mu in self.components)

    @property
    def total(self) -> Fraction:
        return self.value(full_mask(self.m))


SWEEP_MAX_GROUND_SET = 22
WH_MAX_FAMILY = 4096


class WeightedHypergraph:
    """Distinct nonempty subsets of [m] with non-negative rational weights.

    ``value(A)`` is the induced superadditive measure: the largest total
    weight of pairwise disjoint members inside A, or 0 when no member fits.
    It branches on the least vertex v of A: either v is left uncovered, or
    it is covered by a member inside A whose least vertex is v.  So

        nu(A) = max(nu(A - v), max of omega(M) + nu(A - M) over such M),

    with the members bucketed by least vertex and the zero-weight ones
    dropped (they never beat nu(A - v)).  Evaluation memoizes over subsets;
    the hard caps m <= 22 and at most 4096 members keep that tractable.
    """

    __slots__ = ("m", "members", "omega", "_by_low", "_memo")

    def __init__(self, m: int, members: Sequence[SubsetLike], omega: Sequence[RationalLike]):
        check_ground_set(m)
        if m > SWEEP_MAX_GROUND_SET:
            raise BudgetExceededError(f"weighted hypergraphs support m <= {SWEEP_MAX_GROUND_SET}")
        masks = [as_mask(m, x) for x in members]
        weights = [as_fraction(w) for w in omega]
        if len(masks) != len(weights):
            raise ValueError("family and weight list lengths differ")
        if len(masks) > WH_MAX_FAMILY:
            raise BudgetExceededError(f"at most {WH_MAX_FAMILY} family members supported")
        if any(mask == 0 for mask in masks):
            raise ValueError("family members must be nonempty")
        if len(set(masks)) != len(masks):
            raise ValueError("duplicate family members are forbidden")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        paired = dict(zip(masks, weights))  # the masks are distinct
        by_low: list[list[tuple[int, Fraction]]] = [[] for _ in range(m)]
        for mask, w in zip(masks, weights):
            if w:
                by_low[(mask & -mask).bit_length() - 1].append((mask, w))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "members", canonical(masks))
        object.__setattr__(self, "omega", tuple(paired[mask] for mask in self.members))
        object.__setattr__(self, "_by_low", tuple(tuple(bucket) for bucket in by_low))
        object.__setattr__(self, "_memo", {0: Fraction(0)})

    def __setattr__(self, name, value):
        raise AttributeError("WeightedHypergraph is immutable")

    def value(self, subset: SubsetLike) -> Fraction:
        return self._nu(as_mask(self.m, subset))

    def _nu(self, mask: int) -> Fraction:
        memo = self._memo
        hit = memo.get(mask)
        if hit is not None:
            return hit
        low = mask & -mask
        best = self._nu(mask ^ low)
        for member, weight in self._by_low[low.bit_length() - 1]:
            if member & ~mask == 0:
                cand = weight + self._nu(mask ^ member)
                if cand > best:
                    best = cand
        memo[mask] = best
        return best

    @property
    def total(self) -> Fraction:
        return self.value(full_mask(self.m))

    def __repr__(self) -> str:
        return f"WeightedHypergraph(m={self.m}, members={len(self.members)})"


def _threshold_antichains(mu: Measure, threshold: Fraction) -> tuple[list[int], list[int]]:
    # The facets (maximal A with w(A) <= T) and the minimal non-faces (minimal
    # A with w(A) > T) in one depth-first pass.  The weights and T are
    # integers over one common denominator, and vertices are decided
    # heaviest first.  A branch ends as soon as all remaining vertices fit:
    # their union is its one maximal completion, and a facet, because the
    # last vertex u left out was left out where the rest did not all fit, so
    # w(A) + w(u) > T, and every vertex left out earlier weighs at least w(u).
    # A vertex that does not fit is the lightest of chosen plus itself, so
    # that set minus any one vertex weighs at most T: a minimal non-face.
    D = math.lcm(threshold.denominator, *(w.denominator for w in mu.weights))
    order = sorted(range(mu.m), key=lambda i: -mu.weights[i])
    ws = [mu.weights[i].numerator * (D // mu.weights[i].denominator) for i in order]
    bits = [1 << i for i in order]
    suffix = list(accumulate(reversed(ws), initial=0))[::-1]
    rest = list(accumulate(reversed(bits), operator.or_, initial=0))[::-1]
    T = threshold.numerator * (D // threshold.denominator)
    facets: list[int] = []
    nonfaces: list[int] = []

    def grow(k: int, chosen: int, weight: int) -> None:
        if weight + suffix[k] <= T:
            facets.append(chosen | rest[k])
            return
        w = ws[k]
        if weight + w <= T:
            grow(k + 1, chosen | bits[k], weight + w)
        else:
            nonfaces.append(chosen | bits[k])
        grow(k + 1, chosen, weight)

    grow(0, 0, 0)
    return facets, nonfaces


def sublevel_complex(nu, beta: RationalLike) -> SimplicialComplex:
    """The sub-level complex {A : nu(A) <= beta} of one of the three measures.

    Comparisons are exact, and every construction is refused for
    m > SWEEP_MAX_GROUND_SET; any other type of ``nu`` raises TypeError.

    * A :class:`Measure` gives a threshold complex.  Its weights and beta are
      scaled to integers over one common denominator, and both antichains
      are enumerated directly by one depth-first pass over the vertices,
      heaviest first, with a suffix-sum cut (Peled-Simeone 1985): the facets
      are the maximal sets of weight at most beta, the minimal non-faces the
      minimal sets of weight above it.  No face is walked and no
      dualization runs.
    * A :class:`GeometricMeasure` gives the union of its components'
      threshold complexes, built from their facets.
    * A :class:`WeightedHypergraph` gives the Alexander dual of the complex
      generated by the complements of the unions of disjoint positive-weight
      members above beta, grown depth first from the empty set while faces.
      This reaches every minimal non-face N: N is the union of a disjoint
      family of weight nu(N) > beta whose proper sub-unions are all faces.
    """
    threshold = as_fraction(beta)
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    if nu.m > SWEEP_MAX_GROUND_SET:
        raise BudgetExceededError(f"sub-level sweeps support m <= {SWEEP_MAX_GROUND_SET}")
    if isinstance(nu, Measure):
        return _complex(nu.m, *_threshold_antichains(nu, threshold))
    if isinstance(nu, GeometricMeasure):
        return from_facets(nu.m, [facet for mu in nu.components
                                  for facet in _threshold_antichains(mu, threshold)[0]])
    if not isinstance(nu, WeightedHypergraph):
        raise TypeError(f"no sub-level complex for {type(nu).__name__}")
    # A family weighs at most nu of its union: nu runs only when that is not enough.
    members = [(mask, w) for mask, w in zip(nu.members, nu.omega) if w]
    full, seen, above = full_mask(nu.m), {0}, []

    def grow(union: int, weight: Fraction) -> None:
        for mask, w in members:
            cand = union | mask
            if mask & union or cand in seen:
                continue
            seen.add(cand)
            if (total := weight + w) > threshold or nu.value(cand) > threshold:
                above.append(full ^ cand)
            else:
                grow(cand, total)

    grow(0, Fraction(0))
    return alexander_dual(from_facets(nu.m, above)) if above else _complex(nu.m, [full], [])


# --- .scx text format ------------------------------------------------------
#
# First non-comment line:  m <int>
# Each following non-comment line: one facet, space-separated 1-based vertex
# indices in increasing order; a line containing only "-" is the empty facet.
# "#" starts a comment.  parse_scx(format_scx(K)) == K, and format_scx
# reproduces canonical files byte for byte.

_BIT_OF = (1).__lshift__  # vertex v -> 1 << v, so a facet's mask is their sum >> 1


def format_scx(K: SimplicialComplex) -> str:
    lines = [f"m {K.m}"]
    for facet in K.facets:
        lines.append(" ".join(str(v) for v in elements(facet)) if facet else "-")
    return "\n".join(lines) + "\n"


def parse_scx(text: str) -> SimplicialComplex:
    m: int | None = None
    top = 0  # the highest vertex whose mask is built here: m, if m is a legal ground set
    # Masks, except that a line with a vertex outside 1..top keeps its vertex
    # list, for from_facets to reject with the message as_mask gives.
    facets: list[SubsetLike] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if m is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "m":
                raise ScxFormatError(f"line {lineno}: expected header 'm <int>', got {line!r}")
            try:
                m = int(parts[1])
            except ValueError:
                raise ScxFormatError(f"line {lineno}: bad ground-set size {parts[1]!r}") from None
            top = m if m <= MAX_GROUND_SET else 0
            continue
        if line == "-":
            facets.append(0)
            continue
        try:
            verts = list(map(int, line.split()))
        except ValueError:
            raise ScxFormatError(f"line {lineno}: facet must be integers, got {line!r}") from None
        if sorted(set(verts)) != verts:
            raise ScxFormatError(f"line {lineno}: vertices must be strictly increasing")
        # Increasing, so the first and last vertex bound the rest.
        facets.append(sum(map(_BIT_OF, verts)) >> 1 if 1 <= verts[0] and verts[-1] <= top
                      else verts)
    if m is None:
        raise ScxFormatError("missing 'm <int>' header line")
    if not facets:
        raise ScxFormatError("no facet lines (the complex {0} is written as a single '-')")
    try:
        return from_facets(m, facets)
    except (TypeError, ValueError) as exc:
        raise ScxFormatError(str(exc)) from None
