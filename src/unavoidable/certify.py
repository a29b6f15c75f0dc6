"""Machine-checkable certificates for non-embeddability criteria.

Each certifier re-verifies its hypotheses computationally (prime-power
decomposition by trial division, unavoidability through the partition
engine) and evaluates the conclusion inequality in exact integers; a
certificate is emitted only when every check passes.  Non-prime-power r
yields an abstention rather than a refusal: the criteria are silent there,
and the conclusions can genuinely fail.

Equivariant index lower bounds are reported as integers derived from the
verified hypotheses; no index of any space is ever computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .complexes import SimplicialComplex
from .partitions import (
    is_r_unavoidable,
    is_rs_unavoidable,
    max_disjoint_min_nonfaces,
)

CERTIFIED = "certified"
NOT_CERTIFIED = "not_certified"
ABSTAINED = "abstained"

PRIME_POWER_LIMIT = 1 << 32


@dataclass(frozen=True)
class PrimePower:
    """r = p^k with p prime and k >= 1."""

    r: int
    p: int
    k: int


def prime_power(r: int) -> Optional[PrimePower]:
    """Decompose r = p^k by trial division, or None when r is not a prime power."""
    if not isinstance(r, int) or isinstance(r, bool) or r < 2:
        raise ValueError("r must be an integer >= 2")
    if r > PRIME_POWER_LIMIT:
        raise ValueError(f"r must be at most {PRIME_POWER_LIMIT}")
    p = None
    d = 2
    while d * d <= r:
        if r % d == 0:
            p = d
            break
        d += 1
    if p is None:
        return PrimePower(r=r, p=r, k=1)
    k = 0
    rest = r
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        return None
    return PrimePower(r=r, p=p, k=k)


@dataclass(frozen=True)
class FactorCheck:
    """Recomputed unavoidability evidence for one complex.

    ``max_disjoint_nonfaces`` is the exact packing number of the minimal
    non-face antichain; unavoidability holds exactly when it is below r (for
    the plain check) and the violating partition, when present, shows why it
    fails.
    """

    m: int
    r: int
    s: Optional[int]
    unavoidable: bool
    max_disjoint_nonfaces: int
    violating_partition: Optional[tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class Inequality:
    lhs: int
    rhs: int
    holds: bool
    text: str


@dataclass(frozen=True)
class DimensionForm:
    """Equivalent 2-fold form of the join inequality: d <= sum(m_i) - s - 2."""

    max_dim: int
    holds: bool
    agrees: bool


@dataclass(frozen=True, kw_only=True)
class Certificate:
    kind: str  # join_nonembeddable | single_nonembeddable | index_join_bound | index_product_bound
    r: int
    prime_power: Optional[PrimePower] = None
    d: Optional[int] = None
    s: Optional[int] = None
    factors: tuple[FactorCheck, ...] = ()
    inequality: Optional[Inequality] = None
    bound: Optional[int] = None
    dimension_form: Optional[DimensionForm] = None
    verdict: str
    reasons: tuple[str, ...] = ()
    conclusion: Optional[str] = None


def exit_code(cert: Certificate) -> int:
    return {CERTIFIED: 0, NOT_CERTIFIED: 3, ABSTAINED: 4}[cert.verdict]


def _check_factor(K: SimplicialComplex, r: int, s: Optional[int]) -> FactorCheck:
    d_max, _ = max_disjoint_min_nonfaces(K)
    ok, witness = is_r_unavoidable(K, r) if s is None else is_rs_unavoidable(K, r, s)
    return FactorCheck(
        m=K.m,
        r=r,
        s=s,
        unavoidable=ok,
        max_disjoint_nonfaces=d_max,
        violating_partition=None if witness is None else witness.blocks,
    )


def _abstention(kind: str, r: int, d: Optional[int], s: Optional[int]) -> Certificate:
    return Certificate(
        kind=kind, r=r, d=d, s=s,
        verdict=ABSTAINED,
        reasons=(f"r = {r} is not a prime power; the criterion is silent there "
                 "and its conclusion can genuinely fail",),
    )


def _index_bound(kind: str, space: str, K: SimplicialComplex, r: int, s: Optional[int],
                 bound: int) -> Certificate:
    pp = prime_power(r)
    if pp is None:
        return _abstention(kind, r, None, s)
    check = _check_factor(K, r, s)
    if not check.unavoidable:
        label = f"{r}-unavoidable" if s is None else f"({r},{s})-unavoidable"
        return Certificate(
            kind=kind, r=r, prime_power=pp, s=s, factors=(check,),
            verdict=ABSTAINED,
            reasons=(f"hypothesis failed: the complex is not {label}",),
        )
    return Certificate(
        kind=kind, r=r, prime_power=pp, s=s, factors=(check,), bound=bound,
        verdict=CERTIFIED,
        conclusion=f"the equivariant index of the {r}-fold deleted {space} is at least {bound}",
    )


def index_bound_deleted_join(K: SimplicialComplex, r: int, s: Optional[int] = None) -> Certificate:
    """Lower bound m - r (or m - r + s - 1) for the equivariant index of the
    r-fold deleted join of an r-unavoidable (resp. (r,s)-unavoidable) complex.

    With r equal to the partition number this is m - pi(K).  Hypothesis
    failures abstain; no bound is reported unverified.
    """
    bound = K.m - r if s is None else K.m - r + s - 1
    return _index_bound("index_join_bound", "join", K, r, s, bound)


def index_bound_deleted_product(K: SimplicialComplex, r: int, s: Optional[int] = None) -> Certificate:
    """Lower bound m - 2r + 1 (or m - 2r + s) for the equivariant index of the
    r-fold deleted product; hypotheses as for the deleted join."""
    bound = K.m - 2 * r + 1 if s is None else K.m - 2 * r + s
    return _index_bound("index_product_bound", "product", K, r, s, bound)


def certify_join_nonembeddable(
    factors: Sequence[SimplicialComplex], r: int, d: int
) -> Certificate:
    """Certify that the join of r-unavoidable factors admits no map to R^d
    without a global r-fold point, via (r-1)(d+s+1)+1 <= m_1+...+m_s.

    All hypotheses are checked computationally: prime-power r, every factor
    r-unavoidable, and the inequality in exact integers.  For r = 2 the
    equivalent dimension form d <= sum(m_i) - s - 2 is reported and its
    agreement checked.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    if d < 0:
        raise ValueError("dimension must be non-negative")
    s = len(factors)
    pp = prime_power(r)
    if pp is None:
        return _abstention("join_nonembeddable", r, d, s)
    checks = tuple(_check_factor(K, r, None) for K in factors)
    total_m = sum(K.m for K in factors)
    lhs = (r - 1) * (d + s + 1) + 1
    ineq = Inequality(
        lhs=lhs, rhs=total_m, holds=lhs <= total_m,
        text=f"(r-1)(d+s+1)+1 = {lhs} <= {total_m} = m_1+...+m_{s}",
    )
    dimension_form = None
    if r == 2:
        max_dim = total_m - s - 2
        holds = d <= max_dim
        agrees = holds == ineq.holds
        if not agrees:
            raise RuntimeError("the two forms of the r=2 inequality disagree")
        dimension_form = DimensionForm(max_dim=max_dim, holds=holds, agrees=agrees)
    reasons = []
    for idx, check in enumerate(checks):
        if not check.unavoidable:
            reasons.append(f"factor {idx + 1} is not {r}-unavoidable")
    if not ineq.holds:
        reasons.append(f"inequality fails: {ineq.text}")
    certified = not reasons
    return Certificate(
        kind="join_nonembeddable", r=r, prime_power=pp, d=d, s=s, factors=checks,
        inequality=ineq, dimension_form=dimension_form,
        verdict=CERTIFIED if certified else NOT_CERTIFIED,
        reasons=tuple(reasons),
        conclusion=(
            f"no continuous map of the join into R^{d} avoids a global {r}-fold point "
            "among pairwise vertex-disjoint faces" if certified else None),
    )


def certify_single_nonembeddable(K: SimplicialComplex, r: int, d: int) -> Certificate:
    """Certify that every continuous map of K into R^d has r pairwise disjoint
    faces with intersecting images, via m >= (r-1)(d+2)+1 for r-unavoidable K
    on a ground set of size m (isolated ground-set elements count)."""
    if d < 0:
        raise ValueError("dimension must be non-negative")
    pp = prime_power(r)
    if pp is None:
        return _abstention("single_nonembeddable", r, d, None)
    check = _check_factor(K, r, None)
    lhs = (r - 1) * (d + 2) + 1
    ineq = Inequality(
        lhs=lhs, rhs=K.m, holds=lhs <= K.m,
        text=f"(r-1)(d+2)+1 = {lhs} <= {K.m} = m",
    )
    reasons = []
    if not check.unavoidable:
        reasons.append(f"the complex is not {r}-unavoidable")
    if not ineq.holds:
        reasons.append(f"inequality fails: {ineq.text}")
    certified = not reasons
    return Certificate(
        kind="single_nonembeddable", r=r, prime_power=pp, d=d, factors=(check,),
        inequality=ineq,
        verdict=CERTIFIED if certified else NOT_CERTIFIED,
        reasons=tuple(reasons),
        conclusion=(
            f"every continuous map into R^{d} sends some {r} pairwise disjoint faces "
            "to a common point" if certified else None),
    )
