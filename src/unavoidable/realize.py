"""Realizability of unavoidable complexes by exact measures.

Three measure families, all defined in :mod:`unavoidable.complexes`, feed
sub-level constructions:

* additive :class:`~unavoidable.complexes.Measure` (weights on vertices),
* :class:`WeightedHypergraph` measures: the best total weight of a pairwise
  disjoint subfamily packed inside a set (superadditive by construction),
* :class:`~unavoidable.complexes.GeometricMeasure`: pointwise minima of
  additive measures.

Linear realizability of K at level r asks for a probability measure with
mu(facet) <= 1/r and mu(minimal non-face) > 1/r.  That strict system is
feasible exactly when the margin LP

    maximize eps  s.t.  sum mu = 1, mu >= 0,
                        mu(F) <= 1/r,  mu(N) >= 1/r + eps

has positive optimum.  The LP is solved exactly in rationals through its
dual (m+1 rows instead of one row per facet and non-face), and every verdict
is checked once, exactly: an optimal witness is scaled to integers over one
common denominator and must be a probability, keep every facet at most 1/r
and reach the optimum on its lightest non-face (a zero duality gap, which
bounds every non-face); an infeasible outcome must come with a valid
nonnegative combination of constraints that is contradictory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bitsets import elements
from .complexes import (
    Measure,
    RationalLike,
    SimplicialComplex,
    WH_MAX_FAMILY,
    WeightedHypergraph,
    as_fraction,
    is_self_dual,
    sublevel_complex,
)
from .errors import BudgetExceededError
from .lp import maximize
from .partitions import is_r_unavoidable

DEFAULT_LP_CONSTRAINT_CAP = 100_000
_DUAL_NOTE_LIMIT = 24  # weights listed in a dual note; the rest are only counted

ZERO = Fraction(0)
ONE = Fraction(1)


def superadditive_sublevel(nu, r: int) -> SimplicialComplex:
    """The sub-level complex {A : nu(A) <= nu([m]) / r} of a superadditive measure.

    ``nu`` is any of Measure, WeightedHypergraph, or GeometricMeasure.  The
    result is always r-unavoidable: blocks of a partition cannot all exceed
    the threshold, or superadditivity would push nu([m]) past itself.
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    alpha = nu.total
    if alpha <= 0:
        raise ValueError("total mass must be positive")
    K = sublevel_complex(nu, alpha / r)
    if not is_r_unavoidable(K, r)[0]:
        raise RuntimeError("sub-level complex of a superadditive measure is not r-unavoidable")
    return K


def pi_upper_bound(alpha: RationalLike, beta: RationalLike) -> int:
    """ceil(alpha / beta): an upper bound for the partition number of any
    sub-level complex of a superadditive measure with total alpha at level beta."""
    a = as_fraction(alpha)
    b = as_fraction(beta)
    if b <= 0:
        raise ValueError("beta must be positive")
    return math.ceil(a / b)


@dataclass(frozen=True)
class LpVerdict:
    """Outcome of a realizability LP.

    ``feasible`` means realizable: the witness satisfies every constraint
    with strict margin at least ``margin`` > 0 under exact arithmetic.
    ``margin`` is the exact optimal slack (None when the constraint system
    itself is contradictory, or vacuously unconstrained); on non-realizable
    outcomes ``infeasibility_note`` summarizes the optimal dual weights.
    """

    feasible: bool
    witness: Optional[Measure]
    margin: Optional[Fraction]
    infeasibility_note: Optional[str]


def _dual_note(upper: Sequence[int], lower: Sequence[int], y: Sequence[Fraction]) -> str:
    """The nonzero weights of a dual vector or Farkas ray (y1, y2, u_F..., v_N...)
    of the margin LP, labelled by the constraint each one multiplies."""
    nf = len(upper)
    labels = [("total-mass", y[0] - y[1])] if y[0] != y[1] else []
    labels += [(f"facet {elements(fs)}", w) for fs, w in zip(upper, y[2:2 + nf]) if w]
    labels += [(f"non-face {elements(ns)}", w) for ns, w in zip(lower, y[2 + nf:]) if w]
    shown = [f"{label} x {weight}" for label, weight in labels[:_DUAL_NOTE_LIMIT]]
    if len(labels) > _DUAL_NOTE_LIMIT:
        shown.append(f"... ({len(labels) - _DUAL_NOTE_LIMIT} more)")
    return "; ".join(shown)


def _solve_margin_lp(m: int, upper: Sequence[int], lower: Sequence[int], r: int,
                     cap: int = DEFAULT_LP_CONSTRAINT_CAP) -> LpVerdict:
    """Solve  max eps : sum mu = 1, mu >= 0, mu(F) <= 1/r, mu(N) >= 1/r + eps.

    Solved through the LP dual, whose rows number m+1.  The verdict is
    feasible with witness mu when eps > 0; otherwise its note lists the exact
    dual weights (margin <= 0) or Farkas weights (contradictory system).
    Both are verified here, so callers need not re-check them.
    """
    if not lower:
        raise ValueError("margin LP needs at least one lower (non-face) constraint")
    if len(upper) + len(lower) + 1 > cap:
        raise BudgetExceededError(
            f"LP would have {len(upper) + len(lower) + 1} constraints, cap is {cap}")
    inv_r = Fraction(1, r)
    nf, nn = len(upper), len(lower)
    # Dual variables: y1, y2 (split of the free total-mass multiplier),
    # u_F >= 0 per upper set, v_N >= 0 per lower set.
    objective = [-ONE, ONE] + [-inv_r] * nf + [inv_r] * nn
    rows = []
    for i in range(m):
        bit = 1 << i
        coeffs = [1, -1]
        coeffs += [1 if fs & bit else 0 for fs in upper]
        coeffs += [-1 if ns & bit else 0 for ns in lower]
        rows.append((coeffs, ">=", 0))
    rows.append(([0, 0] + [0] * nf + [1] * nn, "==", 1))
    res = maximize(objective, rows)

    if res.status == "optimal":
        eps = -res.objective
        mu = tuple(-d for d in res.duals[:m])
        # mu = w / D in integers: a probability, every upper set at most 1/r,
        # and the least lower set at exactly 1/r + eps (zero duality gap),
        # which bounds every lower set.
        D = math.lcm(*(x.denominator for x in mu))
        w = [x.numerator * (D // x.denominator) for x in mu]

        def weight(mask: int) -> int:
            return sum(w[v - 1] for v in elements(mask))

        if any(x < 0 for x in w) or sum(w) != D:
            raise RuntimeError("LP postcondition failed: recovered measure is not a probability")
        if any(r * weight(fs) > D for fs in upper):
            raise RuntimeError("LP postcondition failed: an upper constraint is violated")
        if Fraction(min(weight(ns) for ns in lower), D) - inv_r != eps:
            raise RuntimeError("LP postcondition failed: duality gap is nonzero")
        if eps > 0:
            return LpVerdict(True, Measure(mu), eps, None)
        return LpVerdict(False, None, eps,
                         f"optimal margin {eps} <= 0: the listed dual weights cap the margin; "
                         + _dual_note(upper, lower, res.x))

    if res.status == "unbounded":
        ray = res.ray
        y1d, y2d = ray[0], ray[1]
        ud = ray[2:2 + nf]
        vd = ray[2 + nf:]
        # Verify the Farkas combination exactly before reporting it.
        if any(w < 0 for w in ray):
            raise RuntimeError("LP postcondition failed: Farkas ray has negative weights")
        if sum(vd, ZERO) != 0:
            raise RuntimeError("LP postcondition failed: Farkas ray touches the margin row")
        for i in range(m):
            bit = 1 << i
            lhs = y1d - y2d
            lhs += sum(w for fs, w in zip(upper, ud) if fs & bit)
            lhs -= sum(w for ns, w in zip(lower, vd) if ns & bit)
            if lhs < 0:
                raise RuntimeError("LP postcondition failed: Farkas ray is not dual-feasible")
        drop = y1d - y2d + inv_r * (sum(ud, ZERO) - sum(vd, ZERO))
        if drop >= 0:
            raise RuntimeError("LP postcondition failed: Farkas ray does not improve")
        return LpVerdict(False, None, None,
                         "constraint system is contradictory: the listed nonnegative "
                         "combination of constraints sums to an impossibility; "
                         + _dual_note(upper, lower, ray))

    raise RuntimeError(f"margin LP ended in unexpected status {res.status!r}")


def is_linearly_realizable(K: SimplicialComplex, r: int, *,
                           max_constraints: int = DEFAULT_LP_CONSTRAINT_CAP) -> LpVerdict:
    """Decide whether K equals the 1/r sub-level complex of some probability measure.

    Equality holds iff every facet weighs at most 1/r and every minimal
    non-face strictly more, so the verdict is the sign of the optimal margin.
    Complexes that are not r-unavoidable are never realizable and
    short-circuit without solving.
    """
    unavoidable, _ = is_r_unavoidable(K, r)
    if not unavoidable:
        return LpVerdict(False, None, None,
                         f"not {r}-unavoidable, so no probability measure can realize it "
                         f"(sub-level complexes at 1/{r} always are)")
    if not K.min_nonfaces:
        return LpVerdict(False, None, None,
                         "the full simplex is never realizable: the whole ground set is a face "
                         f"of weight 1 > 1/{r}")
    return _solve_margin_lp(K.m, [f for f in K.facets if f], K.min_nonfaces, r,
                            cap=max_constraints)


def linear_subcomplex_witness(K: SimplicialComplex, r: int, *,
                              max_constraints: int = DEFAULT_LP_CONSTRAINT_CAP) -> LpVerdict:
    """Relaxed LP dropping facet constraints: find a probability measure whose
    1/r sub-level complex is contained in K (and is then itself r-unavoidable).

    Feasible whenever every minimal non-face can be pushed strictly above
    1/r; a complex without non-faces is trivially feasible.
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    if not K.min_nonfaces:
        return LpVerdict(True, Measure.uniform(K.m), None, None)
    verdict = _solve_margin_lp(K.m, (), K.min_nonfaces, r, cap=max_constraints)
    if verdict.margin is None:  # cannot happen: eps is free in the primal
        raise RuntimeError("relaxed margin LP reported infeasible")
    if verdict.feasible:
        sub = sublevel_complex(verdict.witness, Fraction(1, r))
        if not all(K.is_face(f) for f in sub.facets):
            raise RuntimeError("relaxed LP witness: sub-level complex not inside K")
        if not is_r_unavoidable(sub, r)[0]:
            raise RuntimeError("relaxed LP witness: sub-level complex is not r-unavoidable")
    return verdict


def wh_realization_check(K: SimplicialComplex, r: int, F: WeightedHypergraph) -> bool:
    """Test K = {A : nu_F(A) <= nu_F([m]) / r}.

    Both sides are down-sets (nu_F is monotone), so they are equal exactly
    when every facet of K is at most the threshold and every minimal
    non-face of K is above it: |facets| + |minimal non-faces| evaluations.
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    if F.m != K.m:
        raise ValueError("ground sets differ")
    alpha = F.total
    if alpha <= 0:
        raise ValueError("total weighted-hypergraph mass is zero")
    threshold = alpha / r
    return (all(F.value(facet) <= threshold for facet in K.facets)
            and all(F.value(nf) > threshold for nf in K.min_nonfaces))


def selfdual_wh_realization(K: SimplicialComplex) -> WeightedHypergraph:
    """The canonical weighted-hypergraph realization of a self-dual complex.

    Weights are the indicator of non-faces over all nonempty subsets.  No set
    contains two disjoint non-faces (self-dual complexes admit no such pair),
    so the induced measure is the indicator itself, total 1, and the 1/2
    sub-level complex is exactly K.
    """
    if not is_self_dual(K):
        raise ValueError("complex is not self-dual")
    if (1 << K.m) - 1 > WH_MAX_FAMILY:
        raise BudgetExceededError(
            f"canonical realization enumerates all subsets; needs m <= {WH_MAX_FAMILY.bit_length() - 1}")
    omega = [ZERO if face else ONE for face in K.face_table()[1:]]
    out = WeightedHypergraph(K.m, range(1, 1 << K.m), omega)
    if not wh_realization_check(K, 2, out):
        raise RuntimeError("canonical weighted hypergraph does not realize the complex")
    return out


def prune_zero_weights(F: WeightedHypergraph) -> WeightedHypergraph:
    """Drop zero-weight members; the induced measure is unchanged."""
    keep = [(member, w) for member, w in zip(F.members, F.omega) if w != 0]
    return WeightedHypergraph(F.m, [m_ for m_, _ in keep], [w for _, w in keep])


# --- JSON wire formats -----------------------------------------------------
#
# Weighted hypergraph: {"m": int, "family": [[ints]], "omega": ["p/q", ...]}
# Measure:             {"weights": ["p/q", ...]}


def weights_to_json(F: WeightedHypergraph) -> dict:
    return {
        "m": F.m,
        "family": [list(elements(member)) for member in F.members],
        "omega": [str(w) for w in F.omega],
    }


def weights_from_json(obj: dict) -> WeightedHypergraph:
    if not isinstance(obj, dict):
        raise ValueError('weights must be a JSON object with keys "m", "family" and "omega"')
    try:
        m, family, omega = obj["m"], obj["family"], obj["omega"]
    except KeyError as exc:
        raise ValueError(f"weights object is missing key {exc}") from None
    # The wire format lists each member's vertices; a bare int would be read
    # as a bit mask by the constructor.
    if not isinstance(family, list) or not all(isinstance(member, list) for member in family):
        raise ValueError('"family" must be a list of vertex lists, e.g. [[1, 2], [3]]')
    # A string would be read as one weight per character.
    if not isinstance(omega, list):
        raise ValueError('"omega" must be a list of weights, e.g. ["1/2", "1"]')
    return WeightedHypergraph(m, family, omega)


def measure_to_json(mu: Measure) -> dict:
    return {"weights": [str(w) for w in mu.weights]}


def measure_from_json(obj: dict) -> Measure:
    if not isinstance(obj, dict):
        raise ValueError('a measure must be a JSON object with the key "weights"')
    try:
        weights = obj["weights"]
    except KeyError as exc:
        raise ValueError(f"measure object is missing key {exc}") from None
    if not isinstance(weights, list):  # a string would be read one weight per character
        raise ValueError('"weights" must be a list of weights, e.g. ["1/2", "1/2"]')
    return Measure(tuple(weights))
