import itertools
import random

import pytest

from macaulay.errors import UsageError
from macaulay.grading import (
    POT,
    TOP,
    BlockGrading,
    CoarseModuleGrading,
    RefinementMap,
    SyzygyGrading,
    TermModuleGrading,
    TermOrderGrading,
    TotalDegreeGrading,
    degrevlex_key,
    syzygy_refinement,
    total_refinement,
    verify_monoid_order,
)
from macaulay.macbasis import buchberger_algorithm
from macaulay.polymod import ModuleElement, degree_of


def test_compare_examples(total2, drl2):
    drl = TermOrderGrading.degrevlex(2)
    lex = TermOrderGrading.lex(2)
    assert drl.key((2, 0)) < drl.key((1, 2))
    assert lex.key((2, 0)) > lex.key((1, 2))
    assert TotalDegreeGrading(2).key(4) == TotalDegreeGrading(2).key(4)
    assert total2.key(2) < total2.key(3)
    assert drl2.key((0, (2, 0))) > drl2.key((0, (0, 2)))


def test_incomparable_shapes(total2):
    with pytest.raises(UsageError):
        total2.key((1, 1))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TermModuleGrading(TermOrderGrading.degrevlex(2), 1, tie="x"), "tie order must be"),
        (lambda: BlockGrading(3, (5,)), "kept variable index out of range"),
        (lambda: TermOrderGrading([[1, 0], [1]]), "rows must have equal length"),
    ],
)
def test_malformed_gradings_are_refused(build, message):
    with pytest.raises(UsageError, match=message):
        build()


@pytest.mark.parametrize("tie", [POT, TOP])
def test_memoized_keys_still_refuse_malformed_degrees(tie):
    # a malformed degree is refused on every call, not only on the first
    spec = TermModuleGrading(TermOrderGrading.degrevlex(2), 2, tie=tie)
    for bad in ([0, (1, 0)], (0, [1, 0]), (0, (1, 0, 0)), ("0", (1, 0)), (0,), None):
        for _ in range(3):
            with pytest.raises(UsageError):
                spec.key(bad)
    want = (-1, (3, -2)) if tie == POT else ((3, -2), -1)
    assert spec.key((1, (1, 2))) == want and spec.key((1, (1, 2))) == want


def test_verify_monoid_order_examples():
    assert verify_monoid_order(TermOrderGrading.degrevlex(3)).passed
    assert verify_monoid_order(TotalDegreeGrading(2)).passed
    bad = TermOrderGrading([[-1, 0], [0, 1]])
    report = verify_monoid_order(bad)
    assert not report.passed
    assert any("positive" in f or "zero" in f for f in report.failures)
    singular = TermOrderGrading([[1, 1], [2, 2]])
    assert not verify_monoid_order(singular).passed


def _order_fails_in_box(grading, top=8):
    """Brute force over [0..top]^d: two distinct exponent vectors with equal
    keys, or a nonzero one whose key is at most the key of 0?"""
    zero = grading.key(grading.zero())
    seen = set()
    for exps in itertools.product(range(top + 1), repeat=grading.nvars):
        key = grading.key(exps)
        if key in seen or (any(exps) and key <= zero):
            return True
        seen.add(key)
    return False


def test_exact_order_check_matches_brute_force():
    # every 2x2 weight matrix with entries in -2..2, then seeded 3x3 ones;
    # with entries this small a kernel vector or a non-positive column shows
    # inside the box, so the box search decides the same question
    matrices = [[row[:2], row[2:]] for row in itertools.product(range(-2, 3), repeat=4)]
    rng = random.Random(28)
    matrices += [[[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)] for _ in range(300)]
    verdicts = set()
    for rows in matrices:
        grading = TermOrderGrading(rows)
        passed = verify_monoid_order(grading).passed
        assert passed == (not _order_fails_in_box(grading)), rows
        verdicts.add((len(rows), passed))
    assert verdicts == {(2, True), (2, False), (3, True), (3, False)}


def _count_rank_checks(monkeypatch):
    """The list of grading.rref calls made from now on."""
    from macaulay import grading

    calls = []
    rref = grading.rref

    def counting(*args, **kwargs):
        calls.append(args)
        return rref(*args, **kwargs)

    monkeypatch.setattr(grading, "rref", counting)
    return calls


def test_weight_matrix_checked_once(monkeypatch):
    # the exact rank test runs once per grading, when its verdict is first
    # read, and every build gives its own grading object with the same verdict
    calls = _count_rank_checks(monkeypatch)
    built = [TermOrderGrading.degrevlex(3) for _ in range(3)]
    built += [TermOrderGrading([[1, 1], [2, 2]]) for _ in range(2)]
    assert len({id(g) for g in built}) == 5
    for _ in range(2):
        assert [g.structural_failures for g in built] == [()] * 3 + [("weight matrix is singular over Q",)] * 2
        assert len(calls) == 5
    assert TermOrderGrading([[1, 0, 0], [0, 1, 0]]).structural_failures == ("weight matrix is not square",)


def test_rank_check_waits_for_the_verdict(monkeypatch, total2, circle_pair):
    # building a weight-matrix grading runs no elimination; nor does a
    # completion whose syzygy route builds a degrevlex grading for its inner
    # completion, where nothing reads that grading's verdict
    calls = _count_rank_checks(monkeypatch)
    weighted = TermOrderGrading([[1, 2], [0, -1]])
    buchberger_algorithm(circle_pair, total2)
    assert calls == []
    assert verify_monoid_order(weighted).passed
    assert len(calls) == 1


def _key_sign(spec, a, b):
    """-1, 0 or 1 as the key of a is below, equal to or above the key of b."""
    ka, kb = spec.key(a), spec.key(b)
    return (ka > kb) - (ka < kb)


def test_strict_total_order_sampled():
    rng = random.Random(1)
    for spec in (TermOrderGrading.degrevlex(3), TermOrderGrading.lex(3), BlockGrading(3, (0,))):
        degs = [spec.degree(tuple(rng.randrange(0, 4) for _ in range(3))) for _ in range(30)]
        for a in degs:
            for b in degs:
                assert _key_sign(spec, a, b) == -_key_sign(spec, b, a)
                if _key_sign(spec, a, b) == 0:
                    assert a == b
        for a in degs:
            for b in degs:
                for c in degs:
                    if _key_sign(spec, a, b) >= 0 and _key_sign(spec, b, c) >= 0:
                        assert _key_sign(spec, a, c) >= 0


def test_block_grading():
    block = BlockGrading(2, (1,))  # keep x2, drop x1
    assert block.degree((0, 2)) == (2, 0)
    assert block.degree((2, 0)) == (0, 2)
    assert block.key((5, 0)) < block.key((0, 1))  # dropped weight decides first
    assert block.key((0, 0)) < block.key((1, 0))
    mons = block.monomials((1, 1))
    assert mons == [(1, 1)]
    assert verify_monoid_order(block).passed
    # interleaved blocks: the monomials still come degrevlex descending, the
    # order a graded component's basis takes them in
    mons = BlockGrading(4, (0, 2)).monomials((2, 2))
    assert len(mons) == 9 and mons == sorted(mons, key=degrevlex_key, reverse=True)


def test_apply_refinement_examples():
    fine = TermModuleGrading(TermOrderGrading.degrevlex(2), 1)
    coarse = CoarseModuleGrading(TotalDegreeGrading(2), 1)
    refmap = total_refinement(fine, coarse)
    assert refmap.module_map((0, (2, 3))) == 5
    assert refmap.module_map((0, (0, 0))) == 0
    assert refmap.ring_map((2, 3)) == 5
    assert refmap.verify().passed

    syz = SyzygyGrading(coarse, (2, 4))
    assert syz.degree_of_term(0, (0, 2)) == 4
    assert syz.degree_of_term(1, (0, 0)) == 4
    sref = syzygy_refinement(syz)
    assert sref.module_map((0, (0, 2))) == 4
    assert sref.verify().passed


def test_refinement_with_a_wrong_ring_map_fails_verify():
    fine = TermModuleGrading(TermOrderGrading.degrevlex(2), 1)
    coarse = CoarseModuleGrading(TotalDegreeGrading(2), 1)
    # the module map is right, so only the ring map can fail
    wrong = RefinementMap(fine, coarse, ring_map=lambda v: 0, module_map=total_refinement(fine, coarse).module_map)
    report = wrong.verify()
    assert not report.passed and report.failures[0].startswith("ring map fails at")


def test_enumerate_multipliers_examples(total2, drl2):
    assert total2.multipliers(2, 3) == [(1, 0), (0, 1)]
    assert total2.multipliers(4, 3) == []
    assert drl2.multipliers((0, (2, 0)), (0, (2, 2))) == [(0, 2)]


def test_multipliers_against_probe(R2, total2, drl2):
    # r is a valid multiplier iff multiplying a homogeneous probe lands on target
    rng = random.Random(2)
    for spec in (total2, drl2):
        for _ in range(40):
            exps = (rng.randrange(0, 3), rng.randrange(0, 3))
            probe = ModuleElement.from_polynomial(R2.monomial(exps))
            source = degree_of(probe, spec)
            target_exps = (rng.randrange(0, 5), rng.randrange(0, 5))
            target = spec.degree_of_term(0, target_exps)
            mults = spec.multipliers(source, target)
            for r in mults:
                moved = probe.mul_term(r)
                assert degree_of(moved, spec) == target
            # exhaustive converse at small degrees
            for cand_a in range(0, 5):
                for cand_b in range(0, 5):
                    r = (cand_a, cand_b)
                    moved = probe.mul_term(r)
                    if degree_of(moved, spec) == target:
                        assert r in mults


def test_translation_invariance_sampled():
    rng = random.Random(3)
    for spec in (TotalDegreeGrading(3), TermOrderGrading.degrevlex(3), BlockGrading(3, (0, 1))):
        for _ in range(100):
            a = spec.degree(tuple(rng.randrange(0, 4) for _ in range(3)))
            b = spec.degree(tuple(rng.randrange(0, 4) for _ in range(3)))
            c = spec.degree(tuple(rng.randrange(0, 4) for _ in range(3)))
            assert _key_sign(spec, a, b) == _key_sign(spec, spec.add(a, c), spec.add(b, c))


def test_pot_and_top_tie_breaks():
    drl = TermOrderGrading.degrevlex(2)
    pot = TermModuleGrading(drl, 2, tie="pot")
    top = TermModuleGrading(drl, 2, tie="top")
    lo = pot.degree_of_term(1, (5, 0))
    hi = pot.degree_of_term(0, (1, 0))
    assert pot.key(hi) > pot.key(lo)  # position first
    assert top.key(hi) < top.key(lo)  # degree first
    assert top.key(top.degree_of_term(0, (1, 0))) > top.key(top.degree_of_term(1, (1, 0)))


def test_shifted_component_monomials():
    spec = CoarseModuleGrading(TotalDegreeGrading(2), 2, shifts=(0, 1))
    mons = spec.component_monomials(1)
    assert set(mons) == {(0, (1, 0)), (0, (0, 1)), (1, (0, 0))}


def test_syzygy_grading_components():
    coarse = CoarseModuleGrading(TotalDegreeGrading(2), 1)
    syz = SyzygyGrading(coarse, (2, 4))
    mons = set(syz.component_monomials(4))
    assert mons == {(1, (0, 0)), (0, (2, 0)), (0, (1, 1)), (0, (0, 2))}
