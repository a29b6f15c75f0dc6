"""The four benchmark workloads: seeded inputs, task lists and expected results.

Every task is one ``unavoidable`` command line, run in-process with
``--json``.  Expected results come from closed forms where a family has one,
and otherwise from small routines in this file that share no code with the
package.  ``build`` is the set-up the benchmark times: it generates the
inputs from the seed through the package's own generators and writes the
``.scx`` files.  Re-verifying those inputs is a separate, untimed step
(``Workload.input_checks``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable, Optional

from unavoidable import (
    Measure,
    SimplicialComplex,
    contains_clique,
    elements,
    format_scx,
    from_facets,
    is_self_dual,
    partition_number,
    points,
    ramsey_complex,
    random_selfdual,
    skeleton,
    sublevel_complex,
)

# The seed relabels vertices and orders the tasks; the complexes themselves
# are fixed up to isomorphism, so that runs on different seeds do the same
# work.  Self-dual complexes come from random_selfdual(m, FIXED_SEED).
FIXED_SEED = 0


class Mismatch(Exception):
    """A command's output differs from the expected result."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


@dataclass(frozen=True)
class Task:
    """One command line, its expected exit code and a check of its ``results``."""

    argv: tuple[str, ...]
    check: Callable[[dict], None]
    exit_code: int = 0


@dataclass
class Workload:
    tasks: list[Task]
    # Untimed re-verification of the generated inputs: (label, check).
    input_checks: list[tuple[str, Callable[[], None]]] = field(default_factory=list)
    # Commands run once, untimed, only to check their output.
    check_tasks: list[Task] = field(default_factory=list)


def _mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << (v - 1)
    return out


def _contained(mask: int, facets) -> bool:
    return any(mask & ~facet == 0 for facet in facets)


def _relabel(K: SimplicialComplex, rng: random.Random) -> SimplicialComplex:
    """An isomorphic copy of K under a seeded permutation of its vertices."""
    image = rng.sample(range(K.m), K.m)

    def move(mask: int) -> int:
        return sum(1 << image[v - 1] for v in elements(mask))

    return SimplicialComplex(K.m, tuple(sorted(map(move, K.facets), key=elements)),
                             tuple(sorted(map(move, K.min_nonfaces), key=elements)))


# --- checks shared by several workloads ------------------------------------


def _check_partition_witness(witness: dict, m: int, r: int, s: Optional[int],
                             is_face: Callable[[int], bool]) -> None:
    blocks = [_mask(b) for b in witness["blocks"]]
    union = 0
    for b in blocks:
        _expect(b != 0 and b & union == 0, "witness blocks are empty or overlap")
        union |= b
    _expect(union == (1 << m) - 1, "witness blocks do not cover [m]")
    _expect(len(blocks) == r, f"witness has {len(blocks)} blocks, expected {r}")
    flags = [not is_face(b) for b in blocks]
    _expect(witness["offending"] == flags, "witness offending flags are wrong")
    _expect(sum(flags) >= r - (s or 1) + 1, "witness partition has too many face blocks")


def _check_pi(results: dict, m: int, pi: int, is_min_nonface: Callable[[int], bool],
              is_face: Callable[[int], bool], checks: tuple = ()) -> None:
    _expect(results["pi"] == pi, f"pi = {results['pi']}, expected {pi}")
    _expect(results["D"] == pi - 1, "D != pi - 1")
    blocks = [_mask(b) for b in results["witness_blocks"]]
    _expect(len(blocks) == pi - 1, "packing witness has the wrong size")
    union = 0
    for b in blocks:
        _expect(is_min_nonface(b), f"{elements(b)} is not a minimal non-face")
        _expect(b & union == 0, "packing witness members overlap")
        union |= b
    _expect(results["leftover"] == list(elements(((1 << m) - 1) & ~union)), "wrong leftover")
    _expect(len(results["r_checks"]) == len(checks), "wrong number of r checks")
    for got, (r, s, verdict) in zip(results["r_checks"], checks):
        _expect((got["r"], got["s"], got["verdict"]) == (r, s, verdict),
                f"({r},{s}) check: {got['verdict']}, expected {verdict}")
        if verdict:
            _expect(got["witness"] is None, "unavoidable verdict carries a witness")
        else:
            _check_partition_witness(got["witness"], m, r, s, is_face)


def _check_realize(results: dict, r: int, *, feasible: bool, facets=(), nonfaces=(),
                   margin: Optional[Fraction] = None, at_least: Optional[Fraction] = None,
                   note: Optional[str] = None) -> None:
    _expect(results["feasible"] is feasible, f"feasible = {results['feasible']}")
    if not feasible:
        _expect(results["witness"] is None, "infeasible verdict carries a witness")
        _expect(results["margin"] is None, f"margin = {results['margin']}, expected none")
        _expect((results["note"] or "").startswith(note), f"note: {results['note']!r}")
        return
    eps = Fraction(results["margin"])
    _expect(eps > 0, "feasible verdict with a non-positive margin")
    if margin is not None:
        _expect(eps == margin, f"margin = {eps}, expected {margin}")
    if at_least is not None:
        _expect(eps >= at_least, f"margin = {eps}, below the generating measure's {at_least}")
    mu = Measure(tuple(Fraction(w) for w in results["witness"]))
    _expect(mu.total == 1, "witness is not a probability measure")
    level = Fraction(1, r)
    _expect(all(mu.value(f) <= level for f in facets), "witness puts a facet above 1/r")
    _expect(min(mu.value(n) for n in nonfaces) - level == eps,
            "the margin is not attained on the minimal non-faces")


def _check_equal(expected: dict) -> Callable[[dict], None]:
    def check(results: dict) -> None:
        for key, value in expected.items():
            _expect(results.get(key) == value, f"{key} = {results.get(key)!r}, expected {value!r}")
    return check


def _check_selfdual_input(K: SimplicialComplex) -> Callable[[], None]:
    def check() -> None:
        _expect(is_self_dual(K), "generated complex is not self-dual")
        _expect(partition_number(K) == 2, "self-dual complex with pi != 2")
    return check


def deleted_join_fvector(m: int, facets, r: int) -> tuple[int, ...]:
    """f-vector of the r-fold deleted join, counted without the package.

    Counts ordered r-tuples of pairwise disjoint faces by total size, by
    summing over submasks; each generating function is packed into one
    integer, 64 bits per coefficient.
    """
    slot = 64
    size = 1 << m
    face = [_contained(mask, facets) for mask in range(size)]
    level = [1] * size  # tuples of length 0 inside each mask
    for _ in range(r):
        nxt = [0] * size
        for mask in range(size):
            total, sub = 0, mask
            while True:
                if face[sub]:
                    total += level[mask ^ sub] << (slot * sub.bit_count())
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            nxt[mask] = total
        level = nxt
    packed, coeffs = level[size - 1] >> slot, []  # drop the all-empty tuple
    while packed:
        coeffs.append(packed & ((1 << slot) - 1))
        packed >>= slot
    return tuple(coeffs)


def minimal_transversals(edges) -> list[int]:
    """Minimal sets meeting every edge (Berge's method), sorted lexicographically."""
    current = [0]
    for edge in edges:
        grown = set()
        for t in current:
            if t & edge:
                grown.add(t)
            else:
                bits = edge
                while bits:
                    low = bits & -bits
                    bits ^= low
                    grown.add(t | low)
        current = [t for t in grown if not any(u != t and u & ~t == 0 for u in grown)]
    return sorted(current, key=elements)


def _max_packing(sets) -> int:
    best = 0

    def grow(start: int, used: int, size: int) -> None:
        nonlocal best
        best = max(best, size)
        for i in range(start, len(sets)):
            if not sets[i] & used:
                grow(i + 1, used | sets[i], size + 1)

    grow(0, 0, 0)
    return best


# --- packing -----------------------------------------------------------------
#
# Cheap antichains whose cost is the packing search behind pi and the
# unavoidability checks.


def _skeleton_facts(k: int, m: int, r: Optional[int]) -> dict:
    pi = m // (k + 2) + 1
    out = {"m": m, "num_facets": comb(m, k + 1), "num_min_nonfaces": comb(m, k + 2),
           "pi": pi, "self_dual": m == 2 * k + 3, "r": r, "unavoidable": None,
           "minimally_unavoidable": None, "witness": None}
    if r is not None:
        ok = pi <= r
        out["unavoidable"] = ok
        out["minimally_unavoidable"] = ok and (r - 1) * (k + 2) <= m - (k + 1)
    return out


def _skeleton_pi_check(k: int, m: int, checks: tuple) -> Callable[[dict], None]:
    def check(results: dict) -> None:
        _check_pi(results, m, m // (k + 2) + 1, lambda b: b.bit_count() == k + 2,
                  lambda b: b.bit_count() <= k + 1, checks)
    return check


def _certify_check(verdict: str, lhs: int, rhs: int,
                   factors: list[tuple[bool, int]]) -> Callable[[dict], None]:
    def check(results: dict) -> None:
        _expect(results["verdict"] == verdict, f"verdict {results['verdict']}, expected {verdict}")
        ineq = results["inequality"]
        _expect((ineq["lhs"], ineq["rhs"], ineq["holds"]) == (lhs, rhs, lhs <= rhs),
                f"inequality {ineq['lhs']} <= {ineq['rhs']}, expected {lhs} <= {rhs}")
        got = [(f["unavoidable"], f["max_disjoint_nonfaces"]) for f in results["factors"]]
        _expect(got == factors, f"factor checks {got}, expected {factors}")
    return check


def _packing(rng: random.Random, write: Callable[[str, str], str]) -> Workload:
    tasks = []
    for m in range(9, 13):
        path = write(f"skeleton-2-{m}", format_scx(skeleton(2, m)))
        # 3 disjoint 4-sets need 12 vertices; for (4,2) they must fit in m-1.
        checks = ((3, None, m < 12), (4, 2, m < 13))
        tasks.append(Task(("pi", "--check", "3", "--check", "4:2", path),
                          _skeleton_pi_check(2, m, checks)))
        if m == 11:
            tasks.append(Task(("analyze", "--r", "3", path),
                              _check_equal(_skeleton_facts(2, 11, 3))))
    for k in (1, 2, 3):
        m = 2 * k + 3
        path = write(f"skeleton-{k}-{m}", format_scx(skeleton(k, m)))
        tasks.append(Task(("analyze", "--r", "2", path), _check_equal(_skeleton_facts(k, m, 2))))
        # van Kampen-Flores: skeleton(k, 2k+3) has no embedding in R^{2k}.
        tasks.append(Task(("certify", "--single", "--r", "2", "--d", str(2 * k), path),
                          _certify_check("certified", 2 * k + 3, m, [(True, 1)])))
    point_files = {m: write(f"points-{m}", format_scx(points(m))) for m in range(4, 13)}
    for m in range(8, 13):
        tasks.append(Task(("pi", point_files[m]), _skeleton_pi_check(0, m, ())))
    # The point-set joins of acceptance criterion 3: (r-1)(d+s+1)+1 = 15.
    tasks.append(Task(("certify", "--r", "3", "--d", "3", *[point_files[5]] * 3),
                      _certify_check("certified", 15, 15, [(True, 2)] * 3)))
    for n in range(4, 9):
        factors = [(True, 2)] + [(n <= 5, n // 2)] * 2
        tasks.append(Task(("certify", "--r", "3", "--d", "3", point_files[4], point_files[n],
                           point_files[n]),
                          _certify_check("not_certified", 15, 4 + 2 * n, factors), exit_code=3))
    return Workload(tasks)


# --- realize -----------------------------------------------------------------
#
# Exact LPs: large ones on skeletons and self-dual complexes, and many small
# ones on sub-level complexes of fixed random measures, which set the median.

SUBLEVEL_SIZES = (6, 7, 8, 9)
SUBLEVEL_PER_SIZE = 3


def _realize_task(path: str, r: int, K: SimplicialComplex, **expect) -> Task:
    def check(results: dict) -> None:
        _check_realize(results, r, feasible=True, facets=K.facets, nonfaces=K.min_nonfaces,
                       **expect)
    return Task(("realize", "--r", str(r), path), check)


def _realize(rng: random.Random, write: Callable[[str, str], str]) -> Workload:
    tasks, input_checks, check_tasks = [], [], []
    for k in (1, 2, 3):
        m = 2 * k + 3
        K = skeleton(k, m)
        path = write(f"skeleton-{k}-{m}", format_scx(K))
        tasks.append(_realize_task(path, 2, K, margin=Fraction(1, 4 * k + 6)))
    # The relaxed LP drops the facet rows; averaging over 5-sets still caps
    # the margin at 5/9 - 1/2.
    tasks.append(Task(("realize", "--r", "2", "--relaxed", path),
                      lambda res, nonfaces=K.min_nonfaces: _check_realize(
                          res, 2, feasible=True, nonfaces=nonfaces, margin=Fraction(1, 18))))
    # Bland's rule makes these LPs cost up to twice as much under one
    # relabeling as under another, so they are not relabeled.
    for m in (9, 10, 11):
        K = random_selfdual(m, FIXED_SEED)
        path = write(f"selfdual-{m}", format_scx(K))
        tasks.append(_realize_task(path, 2, K))
        input_checks.append((f"selfdual-{m}", _check_selfdual_input(K)))
    K6, _ = ramsey_complex(6, contains_clique(3))
    path = write("k6-triangles", format_scx(K6))
    tasks.append(Task(("realize", "--r", "2", path),
                      lambda res: _check_realize(res, 2, feasible=False,
                                                 note="constraint system is contradictory")))

    def relaxed_k6(results: dict) -> None:
        # Best margin 6/15 - 1/2: two disjoint triangles are tight.
        _expect(results["feasible"] is False and results["margin"] == "-1/10",
                f"relaxed K_6 margin {results['margin']}, expected -1/10")
    check_tasks.append(Task(("realize", "--r", "2", "--relaxed", path), relaxed_k6))
    K = points(5)
    path = write("points-5", format_scx(K))
    tasks.append(_realize_task(path, 3, K, margin=Fraction(1, 15)))
    for m in SUBLEVEL_SIZES:
        for i in range(SUBLEVEL_PER_SIZE):
            for r in (2, 3):
                draw = random.Random(f"measure-{m}-{i}-{r}")
                weights = [draw.randint(1, 12) for _ in range(m)]
                mu = Measure(tuple(Fraction(w, sum(weights)) for w in weights))
                K = sublevel_complex(mu, Fraction(1, r))
                # mu itself realizes K, so the optimum is at least mu's margin.
                own = min(mu.value(n) for n in K.min_nonfaces) - Fraction(1, r)
                K = _relabel(K, rng)
                path = write(f"sublevel-{m}-{i}-{r}", format_scx(K))
                tasks.append(_realize_task(path, r, K, at_least=own))
    return Workload(tasks, input_checks, check_tasks)


# --- selfdual ------------------------------------------------------------------
#
# Many-facet complexes: the face walk in complexes, the sub-level sweep in
# generators, deleted-join sweeps and the canonical weighted realization.


def _wh_expected(K: SimplicialComplex) -> dict:
    members = sorted(range(1, 1 << K.m), key=elements)
    return {"m": K.m, "family": [list(elements(s)) for s in members],
            "omega": ["0" if _contained(s, K.facets) else "1" for s in members]}


def _deljoin_check(K: SimplicialComplex, r: int) -> Callable[[dict], None]:
    expected = {}

    def check(results: dict) -> None:
        if not expected:
            f = list(deleted_join_fvector(K.m, K.facets, r))
            expected.update(f_vector=f, total=sum(f))
        _check_equal(expected)(results)
    return check


def _selfdual(rng: random.Random, write: Callable[[str, str], str]) -> Workload:
    tasks, input_checks, bases = [], [], {}

    def selfdual_file(name: str, m: int) -> tuple[str, SimplicialComplex]:
        if m not in bases:
            bases[m] = random_selfdual(m, FIXED_SEED)
        K = _relabel(bases[m], rng)
        input_checks.append((name, _check_selfdual_input(K)))
        return write(name, format_scx(K)), K

    for m in range(11, 15):
        path, K = selfdual_file(f"selfdual-{m}", m)
        tasks.append(Task(("gen", "selfdual", "--m", str(m), "--seed", str(FIXED_SEED)),
                          _check_equal({"scx": format_scx(bases[m])})))
        tasks.append(Task(("dual", path), _check_equal({"void": False, "scx": format_scx(K)})))
        tasks.append(Task(("analyze", "--r", "2", path), _check_equal({
            "m": m, "num_facets": len(K.facets), "num_min_nonfaces": len(K.facets), "pi": 2,
            "self_dual": True, "r": 2, "unavoidable": True, "minimally_unavoidable": True,
            "witness": None})))
    for m, r in ((10, 2), (11, 2), (9, 3)):
        path, K = selfdual_file(f"deljoin-{m}", m)
        tasks.append(Task(("deljoin", "--r", str(r), path), _deljoin_check(K, r)))
    K = skeleton(2, 7)
    path = write("skeleton-2-7", format_scx(K))
    tasks.append(Task(("deljoin", "--r", "3", path), _deljoin_check(K, 3)))
    for m in (8, 9, 10):
        path, K = selfdual_file(f"wh-{m}", m)
        tasks.append(Task(("wh", "--canonical", path), _check_equal(_wh_expected(K))))
    # R(3,3) = 6: every 2-coloring of K_6 has a monochromatic triangle.
    K6, _ = ramsey_complex(6, contains_clique(3))
    tasks.append(Task(("gen", "ramsey", "--n", "6", "--clique", "3", "--check-admissible"),
                      _check_equal({"scx": format_scx(K6), "admissible": True,
                                    "edges": [list(e) for e in combinations(range(1, 7), 2)]})))
    return Workload(tasks, input_checks)


# --- sparse ----------------------------------------------------------------------
#
# Few facets on a large ground set: the antichain is tiny but the face walk
# behind every parse covers about 2^m faces.  The facets miss pairwise
# disjoint vertex sets of the sizes below, so every file has a known shape
# and the seed only chooses the vertices.  No set is a single vertex, so no
# file is 2-unavoidable and realize and certify take their short paths.

SPARSE_SHAPES = ((16, (2,)), (16, (2, 2, 2, 2)), (17, (3,)), (17, (2, 4)), (18, (4,)),
                 (19, (4,)))


def _sparse_pi_check(m: int, D: int, nonfaces, facets) -> Callable[[dict], None]:
    members = set(nonfaces)

    def check(results: dict) -> None:
        _check_pi(results, m, D + 1, members.__contains__, lambda b: _contained(b, facets))
    return check


def _sparse(rng: random.Random, write: Callable[[str, str], str]) -> Workload:
    tasks, input_checks = [], []
    for m, sizes in SPARSE_SHAPES:
        chosen = rng.sample(range(1, m + 1), sum(sizes))
        missing, start = [], 0
        for size in sizes:
            missing.append(_mask(chosen[start:start + size]))
            start += size
        full = (1 << m) - 1
        K = from_facets(m, [full ^ miss for miss in missing])
        name = f"sparse-{m}-{'-'.join(map(str, sizes))}"
        path = write(name, format_scx(K))
        nonfaces = minimal_transversals(missing)
        facets = sorted((full ^ miss for miss in missing), key=elements)
        dual_text = format_scx(SimplicialComplex(
            m, tuple(sorted((full ^ n for n in nonfaces), key=elements)), ()))
        D = min(sizes)
        tasks.append(Task(("pi", path), _sparse_pi_check(m, D, nonfaces, facets)))
        tasks.append(Task(("dual", path), _check_equal({"void": False, "scx": dual_text})))
        tasks.append(Task(("realize", "--r", "2", path), lambda res: _check_realize(
            res, 2, feasible=False, note="not 2-unavoidable")))
        tasks.append(Task(("certify", "--single", "--r", "2", "--d", "1", path),
                          _certify_check("not_certified", 4, m, [(False, D)]), exit_code=3))

        def same_antichain(K=K, nonfaces=nonfaces, D=D) -> None:
            _expect(list(K.min_nonfaces) == nonfaces,
                    "minimal non-faces differ from the minimal transversals")
            _expect(_max_packing(nonfaces) == D, "packing number differs from the closed form")
        input_checks.append((name, same_antichain))
    return Workload(tasks, input_checks)


_BUILDERS = {"packing": _packing, "realize": _realize, "selfdual": _selfdual, "sparse": _sparse}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, directory: Path) -> Workload:
    """Generate the inputs of one workload into ``directory``; same seed, same files."""
    def write(stem: str, text: str) -> str:
        path = directory / f"{stem}.scx"
        path.write_text(text, encoding="utf-8")
        return str(path)

    rng = random.Random(f"{name}:{seed}")
    workload = _BUILDERS[name](rng, write)
    rng.shuffle(workload.tasks)
    return workload
