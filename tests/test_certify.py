"""Certificates: prime powers, index bounds, non-embeddability criteria."""

import random
from dataclasses import asdict

import pytest

from unavoidable import (
    certify_join_nonembeddable,
    certify_single_nonembeddable,
    from_facets,
    index_bound_deleted_join,
    index_bound_deleted_product,
    partition_number,
    points,
    prime_power,
    skeleton,
)
from unavoidable.certify import ABSTAINED, CERTIFIED, NOT_CERTIFIED, exit_code

from oracles import random_complex


def test_prime_power_examples():
    assert prime_power(4) == prime_power(4).__class__(r=4, p=2, k=2)
    assert (prime_power(3).p, prime_power(3).k) == (3, 1)
    assert prime_power(6) is None
    assert prime_power(8).k == 3
    assert prime_power(97).p == 97
    assert prime_power(12) is None
    with pytest.raises(ValueError):
        prime_power(1)
    with pytest.raises(ValueError, match="at most"):
        prime_power(2 ** 32 + 1)


def test_certifiers_reject_bad_arguments():
    with pytest.raises(ValueError, match="factor"):
        certify_join_nonembeddable([], 2, 1)
    with pytest.raises(ValueError, match="dimension"):
        certify_join_nonembeddable([points(5)], 2, -1)
    with pytest.raises(ValueError, match="dimension"):
        certify_single_nonembeddable(points(5), 2, -1)


# --- index bounds ------------------------------------------------------------------

def test_index_join_bound_examples():
    for n in (1, 2, 3, 4):
        cert = index_bound_deleted_join(skeleton(n, 2 * n + 3), 2)
        assert cert.verdict == CERTIFIED
        assert cert.bound == 2 * n + 1

    cert = index_bound_deleted_join(points(5), 3)
    assert cert.bound == 2

    cert = index_bound_deleted_join(points(4), 3, s=2)
    assert cert.verdict == CERTIFIED and cert.bound == 4 - 3 + 2 - 1 == 2


def test_index_join_bound_abstains():
    assert index_bound_deleted_join(points(5), 6).verdict == ABSTAINED
    cert = index_bound_deleted_join(points(6), 3)  # not 3-unavoidable
    assert cert.verdict == ABSTAINED
    assert cert.bound is None
    assert cert.factors[0].violating_partition is not None


def test_index_join_bound_at_pi_equals_m_minus_pi():
    rng = random.Random(123)
    seen = 0
    while seen < 25:
        K = random_complex(rng, rng.randint(2, 8))
        pi = partition_number(K)
        if pi < 2 or prime_power(pi) is None:
            continue
        seen += 1
        cert = index_bound_deleted_join(K, pi)
        assert cert.verdict == CERTIFIED
        assert cert.bound == K.m - pi


def test_index_product_bound_examples():
    cert = index_bound_deleted_product(skeleton(1, 7), 3)
    assert cert.verdict == CERTIFIED
    assert cert.bound == 7 - 6 + 1 == 2

    # m = (r-1)(d+2)+1 gives bound (r-1)d
    for r, d in ((2, 2), (3, 1), (3, 3)):
        m = (r - 1) * (d + 2) + 1
        K = points(m) if partition_number(points(m)) <= r else skeleton(1, m)
        if partition_number(K) > r:
            continue
        cert = index_bound_deleted_product(K, r)
        assert cert.bound == (r - 1) * d

    assert index_bound_deleted_product(points(5), 6).verdict == ABSTAINED


# --- join criterion -----------------------------------------------------------------

def test_join_of_three_point_sets_certified():
    cert = certify_join_nonembeddable([points(5)] * 3, 3, 3)
    assert cert.verdict == CERTIFIED
    assert (cert.inequality.lhs, cert.inequality.rhs) == (15, 15)
    assert all(f.unavoidable for f in cert.factors)
    assert all(f.max_disjoint_nonfaces == 2 for f in cert.factors)
    assert exit_code(cert) == 0


def test_mixed_point_set_join_never_certified():
    for n in range(1, 9):
        cert = certify_join_nonembeddable([points(4), points(n), points(n)], 3, 3)
        assert cert.verdict == NOT_CERTIFIED
        assert exit_code(cert) == 3
        if n <= 5:
            assert any("inequality" in reason for reason in cert.reasons)
            assert all(f.unavoidable for f in cert.factors)
        else:
            assert cert.inequality.holds
            assert any("not 3-unavoidable" in reason for reason in cert.reasons)


def test_single_factor_skeleton_r2():
    for n in (1, 2, 3):
        cert = certify_join_nonembeddable([skeleton(n, 2 * n + 3)], 2, 2 * n)
        assert cert.verdict == CERTIFIED
        assert cert.dimension_form is not None
        assert cert.dimension_form.agrees


def test_join_criterion_abstains_on_non_prime_power():
    cert = certify_join_nonembeddable([points(5)] * 3, 6, 3)
    assert cert.verdict == ABSTAINED
    assert exit_code(cert) == 4
    assert cert.factors == ()


def test_join_criterion_monotone_in_dimension():
    rng = random.Random(321)
    for _ in range(20):
        factors = [random_complex(rng, rng.randint(2, 5)) for _ in range(rng.randint(1, 3))]
        r = rng.choice([2, 3, 4])
        d = rng.randint(0, 6)
        cert = certify_join_nonembeddable(factors, r, d)
        if cert.verdict == CERTIFIED:
            for smaller in range(d):
                assert certify_join_nonembeddable(factors, r, smaller).verdict == CERTIFIED


def test_two_fold_forms_agree_on_random_grid():
    rng = random.Random(322)
    for _ in range(40):
        factors = [random_complex(rng, rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
        d = rng.randint(0, 8)
        cert = certify_join_nonembeddable(factors, 2, d)
        assert cert.dimension_form is not None
        assert cert.dimension_form.agrees


# --- single-complex criterion ----------------------------------------------------------

def test_single_criterion_examples():
    cert = certify_single_nonembeddable(skeleton(1, 7), 3, 1)
    assert cert.verdict == CERTIFIED
    assert (cert.inequality.lhs, cert.inequality.rhs) == (7, 7)

    cert = certify_single_nonembeddable(points(5), 3, 1)
    assert cert.verdict == NOT_CERTIFIED
    assert not cert.inequality.holds

    cert = certify_single_nonembeddable(skeleton(1, 5), 2, 2)
    assert cert.verdict == CERTIFIED


def test_single_criterion_counts_isolated_vertices():
    # ground-set size m matters, not just the support of the faces
    K = from_facets(7, [[1], [2], [3], [4], [5]])  # vertices 6, 7 isolated
    cert = certify_single_nonembeddable(K, 3, 1)
    assert cert.inequality.rhs == 7
    assert cert.factors[0].m == 7


def test_no_certificate_without_verified_hypotheses():
    rng = random.Random(99)
    for _ in range(30):
        K = random_complex(rng, rng.randint(2, 6))
        r = rng.choice([2, 3, 4, 6])
        d = rng.randint(0, 4)
        cert = certify_single_nonembeddable(K, r, d)
        if cert.verdict == CERTIFIED:
            assert prime_power(r) is not None
            assert cert.factors[0].unavoidable
            assert cert.inequality.holds


def test_certificate_json_shape():
    cert = certify_join_nonembeddable([points(5)] * 3, 3, 3)
    obj = asdict(cert)
    assert obj["kind"] == "join_nonembeddable"
    assert obj["verdict"] == "certified"
    assert obj["prime_power"] == {"r": 3, "p": 3, "k": 1}
    assert obj["inequality"]["lhs"] == 15
    assert len(obj["factors"]) == 3
    assert obj["factors"][0]["max_disjoint_nonfaces"] == 2
