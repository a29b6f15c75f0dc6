"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every expected value is exact; the per-criterion wall-clock
budgets are asserted as part of the criterion.
"""

import json
import random
import time
from fractions import Fraction

from unavoidable import (
    GeometricMeasure,
    Measure,
    WeightedHypergraph,
    certify_join_nonembeddable,
    contains_clique,
    deleted_join_faces,
    from_facets,
    index_bound_deleted_join,
    is_admissible,
    is_linearly_realizable,
    is_minimally_r_unavoidable,
    is_r_unavoidable,
    is_self_dual,
    join,
    linear_subcomplex_witness,
    partition_number,
    partition_number_oracle,
    points,
    prune_zero_weights,
    ramsey_complex,
    random_selfdual,
    selfdual_wh_realization,
    skeleton,
    sublevel_complex,
    superadditive_sublevel,
    pi_upper_bound,
    wh_realization_check,
)
from unavoidable.bitsets import full_mask
from unavoidable.cli import run as cli_run

from oracles import named_small_examples, random_complex


class _Criterion:
    def __init__(self, name: str, budget_s: float):
        self.name = name
        self.budget = budget_s
        self.start = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.start
        ok = elapsed < self.budget
        print(f"[acceptance] {self.name}: "
              f"{'PASS' if ok else 'FAIL (over budget)'} ({elapsed:.2f}s < {self.budget:.0f}s)")
        assert ok, f"{self.name} exceeded its {self.budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_oracle_equivalence():
    crit = _Criterion("1 oracle equivalence (200 random m<=8 + named examples)", 30)
    rng = random.Random(20160321)
    for i in range(200):
        K = random_complex(rng, rng.randint(1, 8), max_facets=7)
        assert partition_number(K) == partition_number_oracle(K), (i, K)
    named = named_small_examples()
    named.append(ramsey_complex(5, contains_clique(3))[0])
    for seed in range(6):
        named.append(random_selfdual(3 + seed, seed))
    for K in named:
        if K.m <= 12:
            assert partition_number(K) == partition_number_oracle(K), K
    crit.done()


def test_criterion_2_skeleton_family():
    crit = _Criterion("2 self-dual skeleton family n=1..4", 5)
    for n in range(1, 5):
        K = skeleton(n, 2 * n + 3)
        assert is_self_dual(K), n
        assert partition_number(K) == 2, n
        assert is_minimally_r_unavoidable(K, 2), n
        cert = index_bound_deleted_join(K, 2)
        assert cert.verdict == "certified"
        assert cert.bound == 2 * n + 1, n
    crit.done()


def test_criterion_3_point_set_joins():
    crit = _Criterion("3 join-of-point-sets certificates", 5)
    assert partition_number(points(5)) == 3
    cert = certify_join_nonembeddable([points(5)] * 3, 3, 3)
    assert cert.verdict == "certified"
    assert (cert.inequality.lhs, cert.inequality.rhs) == (15, 15)
    for n in range(1, 9):
        cert = certify_join_nonembeddable([points(4), points(n), points(n)], 3, 3)
        assert cert.verdict == "not_certified", n
        if n <= 5:
            assert not cert.inequality.holds
            assert all(f.unavoidable for f in cert.factors)
            assert any("inequality" in reason for reason in cert.reasons)
        else:
            assert cert.inequality.holds
            assert not all(f.unavoidable for f in cert.factors)
            assert any("not 3-unavoidable" in reason for reason in cert.reasons)
    crit.done()


def test_criterion_4_ramsey_suite():
    crit = _Criterion("4 Ramsey suite (exhaustive colorings + LP)", 60)
    clique3 = contains_clique(3)
    assert is_admissible(6, clique3, 2) is True  # 2^15 colorings
    assert is_admissible(5, clique3, 2) is False  # 2^10 colorings
    L, _ = ramsey_complex(6, clique3)
    via_packing = is_r_unavoidable(L, 2)[0]
    via_admissibility = is_admissible(6, clique3, 2, allow_empty_classes=False)
    assert via_packing is True
    assert via_admissibility is True
    assert via_packing == via_admissibility
    verdict = is_linearly_realizable(L, 2)
    assert not verdict.feasible
    assert verdict.margin is None or verdict.margin <= 0
    # The relaxed LP pins the averaging contradiction: best achievable margin
    # is 6/15 - 1/2 = -1/10, the two-disjoint-triangle non-faces being tight.
    relaxed = linear_subcomplex_witness(L, 2)
    assert not relaxed.feasible
    assert relaxed.margin == Fraction(-1, 10)
    crit.done()


def _random_wh(rng: random.Random, m: int, max_members: int = 8) -> WeightedHypergraph:
    members: set[int] = set()
    for _ in range(rng.randint(1, max_members)):
        mask = rng.getrandbits(m)
        if mask:
            members.add(mask)
    if not members:
        members.add(1)
    omega = [Fraction(rng.randint(0, 8), rng.randint(1, 5)) for _ in members]
    return WeightedHypergraph(m, sorted(members), omega)


def test_criterion_5_realizability_suite():
    crit = _Criterion("5 realizability suite", 120)
    rng = random.Random(55)

    # superadditivity: 1000 random (family, weights) disjoint-pair trials
    for _ in range(1000):
        m = rng.randint(1, 10)
        F = _random_wh(rng, m, max_members=6)
        a = rng.getrandbits(m)
        b = rng.getrandbits(m) & ~a
        assert F.value(a | b) >= F.value(a) + F.value(b)

    # singleton families reduce to the additive measure, exhaustively
    for m in range(1, 11):
        weights = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(m)]
        F = WeightedHypergraph(m, [[i] for i in range(1, m + 1)], weights)
        for mask in range(1 << m):
            additive = sum(weights[i] for i in range(m) if mask >> i & 1)
            assert F.value(mask) == additive

    # sub-level complexes of superadditive measures are always r-unavoidable,
    # and the ceiling bound on the partition number is never violated
    for _ in range(40):
        m = rng.randint(2, 8)
        F = _random_wh(rng, m)
        alpha = F.total
        if alpha == 0:
            continue
        r = rng.choice([2, 3, 4])
        K = superadditive_sublevel(F, r)
        assert is_r_unavoidable(K, r)[0]
        beta = alpha * Fraction(rng.randint(1, 5), 5)
        K_beta = from_facets(m, [mask for mask in range(1 << m) if F.value(mask) <= beta])
        assert partition_number(K_beta) <= pi_upper_bound(alpha, beta)

    # canonical realization verifies on 50 random self-dual complexes (m <= 7)
    for seed in range(50):
        K = random_selfdual(2 + seed % 6, seed)
        F = selfdual_wh_realization(K)
        assert wh_realization_check(K, 2, F)

    # pruning zero weights preserves the measure, exhaustively (m <= 10)
    for _ in range(25):
        m = rng.randint(1, 10)
        F = _random_wh(rng, m, max_members=5)
        pruned = prune_zero_weights(F)
        for mask in range(1 << m):
            assert F.value(mask) == pruned.value(mask)

    # min-of-two-measures identity on the full (p < q <= 8, r in {2,3}) grid
    for q in range(2, 9):
        for p in range(1, q):
            nu = GeometricMeasure((Measure.uniform(q), Measure.counting(q, range(1, p + 1))))
            for r in (2, 3):
                K = superadditive_sublevel(nu, r)
                u1 = sublevel_complex(nu.components[0], Fraction(1, r))
                u2 = sublevel_complex(nu.components[1], Fraction(1, r))
                union = from_facets(q, list(u1.facets) + list(u2.facets))
                assert K == union, (p, q, r)
    crit.done()


def test_criterion_6_deleted_join_counts():
    crit = _Criterion("6 deleted-join counts", 60)
    for m in range(1, 11):
        full = from_facets(m, [full_mask(m)])
        for r in (2, 3):
            counts = deleted_join_faces(full, r)
            assert sum(counts) == (r + 1) ** m - 1, (m, r)

    rng = random.Random(66)
    for _ in range(12):
        m1 = rng.randint(1, 5)
        m2 = rng.randint(1, min(5, 10 - m1))
        K1, K2 = random_complex(rng, m1), random_complex(rng, m2)
        r = rng.choice([2, 3])
        p1 = [1] + list(deleted_join_faces(K1, r))
        p2 = [1] + list(deleted_join_faces(K2, r))
        pj = [1] + list(deleted_join_faces(join(K1, K2), r))
        prod = [0] * (len(p1) + len(p2) - 1)
        for i, a in enumerate(p1):
            for j, b in enumerate(p2):
                prod[i + j] += a * b
        while len(prod) > len(pj):
            assert prod[-1] == 0
            prod.pop()
        assert prod == pj, (K1, K2, r)
    crit.done()


def test_criterion_7_lp_soundness():
    crit = _Criterion("7 LP soundness on 100 realizable instances", 30)
    rng = random.Random(77)
    for i in range(100):
        m = rng.randint(3, 8)
        r = rng.choice([2, 3])
        raw = [Fraction(rng.randint(1, 9)) for _ in range(m)]
        total = sum(raw)
        mu = Measure(tuple(w / total for w in raw))
        K = sublevel_complex(mu, Fraction(1, r))
        verdict = is_linearly_realizable(K, r)
        assert verdict.feasible, (i, K, r)
        witness = verdict.witness
        inv_r = Fraction(1, r)
        for facet in K.facets:
            assert witness.value(facet) <= inv_r
        for nf in K.min_nonfaces:
            assert witness.value(nf) > inv_r
            assert witness.value(nf) >= inv_r + verdict.margin
        assert sublevel_complex(witness, inv_r) == K
    crit.done()


def test_criterion_8_deterministic_reports(tmp_path, capsys):
    crit = _Criterion("8 byte-identical JSON reports", 60)
    points5 = str(tmp_path / "points5.scx")
    skel15 = str(tmp_path / "skel15.scx")
    assert cli_run(["gen", "points", "--m", "5", "-o", points5]) == 0
    assert cli_run(["gen", "skeleton", "--k", "1", "--m", "5", "-o", skel15]) == 0
    capsys.readouterr()
    golden = [
        ["--json", "pi", points5, "--check", "3", "--check", "3:2"],
        ["--json", "analyze", skel15, "--r", "2"],
        ["--json", "dual", skel15],
        ["--json", "realize", points5, "--r", "3"],
        ["--json", "realize", skel15, "--r", "2", "--relaxed"],
        ["--json", "wh", skel15, "--canonical"],
        ["--json", "gen", "ramsey", "--n", "5", "--clique", "3", "--check-admissible"],
        ["--json", "gen", "selfdual", "--m", "6", "--seed", "11"],
        ["--json", "join", points5, points5],
        ["--json", "deljoin", points5, "--r", "2"],
        ["--json", "certify", "--r", "3", "--d", "3", points5, points5, points5],
        ["--json", "certify", "--single", "--r", "2", "--d", "2", skel15],
    ]
    for argv in golden:
        outputs = []
        for _ in range(2):
            cli_run(argv)
            captured = capsys.readouterr().out
            obj = json.loads(captured)
            obj.pop("timings", None)
            outputs.append(json.dumps(obj, sort_keys=False))
        assert len(set(outputs)) == 1, argv
    crit.done()
