import json
import random
import re
import time

import pytest

from oracles import (
    classic_buchberger,
    ideals_equal,
    lex_key,
    raw_poly,
    slice_dimension,
)

from macaulay.apps import (
    EliminationSpec,
    HomogenizationContext,
    dehomogenize,
    eliminate,
    hilbert_function,
    homogenize,
    schreyer_syzygy_basis,
    verify_homogenization_equivalence,
)
from macaulay.cli import main, parse_problem
from macaulay.errors import UsageError
from macaulay.grading import BlockGrading, CoarseModuleGrading, SyzygyGrading, TotalDegreeGrading
from macaulay.macbasis import buchberger_algorithm, interreduce, leading_syzygy_generators
from macaulay.polymod import ModuleElement, PolyRing, degree_of, is_homogeneous, leading_form
from macaulay.reduction import Reducer, dot
from macaulay.symmetry import random_element


# ---------------------------------------------------------------------------
# elimination


def test_eliminate_example(R2, el):
    gens = [el("x1^2 + x2^2 - 1"), el("x1 - x2")]
    out = eliminate(gens, EliminationSpec(R2, ["x2"]))
    assert out == [el("x2^2 - 1/2")]
    # lex oracle: eliminate x1 from the same ideal
    oracle = classic_buchberger([raw_poly(g.polys[0]) for g in gens], lex_key)
    oracle_kept = [p for p in oracle if all(m[0] == 0 for m in p)]
    assert ideals_equal([raw_poly(m.polys[0]) for m in out], oracle_kept)


def test_eliminate_keep_all(R2, el, circle_pair):
    out = eliminate(circle_pair, EliminationSpec(R2, ["x1", "x2"]))
    assert ideals_equal(
        [raw_poly(m.polys[0]) for m in out],
        [raw_poly(g.polys[0]) for g in circle_pair],
    )


def test_eliminate_no_relation(R2, el):
    assert eliminate([el("x1")], EliminationSpec(R2, ["x2"])) == []


def test_eliminate_membership_and_leading_forms(R2, el):
    gens = [el("x1^2 + x2^2 - 1"), el("x1 - x2")]
    elim = EliminationSpec(R2, ["x2"])
    spec = CoarseModuleGrading(elim.grading, 1)
    basis = buchberger_algorithm(gens, spec)
    reducer = Reducer(list(basis.elements), spec)
    out = eliminate(gens, elim)
    for m in out:
        assert elim.uses_only_kept(m)
        ok, _ = reducer.reduces_to_zero(m)
        assert ok
        # the leading-form intersection law, sampled on the output
        lf = leading_form(m, spec).element
        sub = reducer.w_space(leading_form(m, spec).degree)
        from macaulay.gradlin import vector_of

        assert sub.contains(vector_of(lf, sub.ambient, R2.field))


def test_eliminate_unknown_variable(R2):
    with pytest.raises(UsageError):
        EliminationSpec(R2, ["zz"])
    # a kept variable is a name or an int index, and nothing is coerced to one
    for item in (1.7, True, None):
        with pytest.raises(UsageError, match=re.escape(repr(item))):
            EliminationSpec(R2, [item])
    assert EliminationSpec(R2, [1]).kept == EliminationSpec(R2, ["x2"]).kept == (1,)


def test_eliminate_rank_two_module(R2):
    # intersection of a rank-2 submodule with vectors over the kept subring
    m1 = ModuleElement(R2, (R2.parse("x2"), R2.parse("0")))
    m2 = ModuleElement(R2, (R2.parse("x1"), R2.parse("x1")))
    out = eliminate([m1, m2], EliminationSpec(R2, ["x2"]))
    assert out == [m1]

    n1 = ModuleElement(R2, (R2.parse("x1"), R2.parse("x2")))
    n2 = ModuleElement(R2, (R2.parse("0"), R2.parse("x1")))
    assert eliminate([n1, n2], EliminationSpec(R2, ["x2"])) == []


def test_eliminate_twisted_cubic(Q):
    R3 = PolyRing(Q, ("x1", "x2", "x3"))
    el3 = lambda s: ModuleElement.from_polynomial(R3.parse(s))
    gens = [el3("x2 - x1^2"), el3("x3 - x1^3")]
    out = eliminate(gens, EliminationSpec(R3, ["x2", "x3"]))
    assert [str(m) for m in out] == ["x2^3 - x3^2"]
    oracle = classic_buchberger([raw_poly(g.polys[0]) for g in gens], lex_key)
    oracle_kept = [p for p in oracle if all(m[0] == 0 for m in p)]
    assert ideals_equal([raw_poly(m.polys[0]) for m in out], oracle_kept)


KATSURA3 = """\
ring q: x y z
grading order degrevlex
gen x + 2*y + 2*z - 1
gen x^2 + 2*y^2 + 2*z^2 - x
gen 2*x*y + 2*y*z - y
"""


def test_cli_eliminate_katsura3_keep_z(tmp_path, capsys):
    # the elimination route's inner completions stay small enough to finish
    path = tmp_path / "katsura3.mac"
    path.write_text(KATSURA3, encoding="utf-8")
    assert main(["eliminate", str(path), "--keep", "z", "--format", "json"]) == 0
    problem = parse_problem(KATSURA3)
    ring = problem.ring
    out = [raw_poly(ring.parse(e["element"])) for e in json.loads(capsys.readouterr().out)["elements"]]
    assert out
    assert all(m[0] == 0 and m[1] == 0 for p in out for m in p)
    oracle = classic_buchberger([raw_poly(g.polys[0]) for g in problem.generators], lex_key)
    oracle_kept = [p for p in oracle if all(m[0] == 0 and m[1] == 0 for m in p)]
    assert ideals_equal(out, oracle_kept)


# ---------------------------------------------------------------------------
# syzygy bases


def test_schreyer_koszul(R2, el, total2):
    basis = buchberger_algorithm([el("x1"), el("x2")], total2)
    syz = schreyer_syzygy_basis(basis)
    assert list(syz.elements) == [ModuleElement(R2, (R2.parse("x2"), R2.parse("-x1")))]
    assert syz.certificate.holds


def test_schreyer_hbasis(R2, el, total2, circle_pair):
    basis = buchberger_algorithm(circle_pair, total2)
    syz = schreyer_syzygy_basis(basis)
    assert list(syz.elements) == [
        ModuleElement(R2, (R2.parse("x1^2*x2^2 - 1"), R2.parse("-x1^2 - x2^2 + 1")))
    ]
    for s in syz.elements:
        assert dot(s, circle_pair).is_zero()
    assert syz.certificate.holds
    # a random syzygy reduces to zero against the computed basis
    rng = random.Random(18)
    reducer = Reducer(list(syz.elements), syz.spec)
    for _ in range(10):
        r = random_element(R2, 1, rng, max_degree=3, terms=3).polys[0]
        candidate = syz.elements[0].action(r)
        ok, _ = reducer.reduces_to_zero(candidate)
        assert ok


def test_schreyer_single_element(el, total2):
    basis = buchberger_algorithm([el("x1^2 - x2")], total2)
    syz = schreyer_syzygy_basis(basis)
    assert syz.elements == ()
    with pytest.raises(UsageError, match="empty basis"):
        schreyer_syzygy_basis(buchberger_algorithm([], total2))


def test_schreyer_rank_two_term_order(R2):
    from macaulay.grading import TermModuleGrading, TermOrderGrading

    spec = TermModuleGrading(TermOrderGrading.degrevlex(2), 2, tie="pot")
    gens = [
        ModuleElement(R2, (R2.parse("x1"), R2.parse("x2"))),
        ModuleElement(R2, (R2.parse("x2"), R2.parse("x1"))),
    ]
    basis = buchberger_algorithm(gens, spec)
    syz = schreyer_syzygy_basis(basis)
    assert [str(m) for m in syz.elements] == ["[x2, -x1, 1]"]
    assert all(dot(s, list(basis.elements)).is_zero() for s in syz.elements)
    assert syz.certificate.holds
    # one more step resolves freely: the single syzygy has no relations
    assert schreyer_syzygy_basis(syz).elements == ()


def test_schreyer_exactness_on_c4(R2, total2, c4_triple):
    basis = buchberger_algorithm(c4_triple, total2)
    syz = schreyer_syzygy_basis(basis)
    for s in syz.elements:
        assert dot(s, list(basis.elements)).is_zero()
    assert syz.certificate.holds
    assert isinstance(syz.spec, SyzygyGrading)


def test_schreyer_cyclic4_total_degree(Q):
    # the lifts are certified by their leading forms: no criterion runs on the
    # syzygies, whose elimination route over R^4 + R^75 once ran out of memory
    ring = PolyRing(Q, ("a", "b", "c", "d"))
    spec = CoarseModuleGrading(TotalDegreeGrading(4), 1)
    texts = ("a + b + c + d", "a*b + b*c + c*d + d*a", "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1")
    gens = [ModuleElement.from_polynomial(ring.parse(t)) for t in texts]
    basis = interreduce(buchberger_algorithm(gens, spec), spec)
    start = time.perf_counter()
    syz = schreyer_syzygy_basis(basis)
    elapsed = time.perf_counter() - start
    X = list(basis.elements)
    assert len(syz) == 10 and all(dot(t, X).is_zero() for t in syz)
    lfs = [leading_form(m, spec).element for m in X]
    assert [leading_form(t, syz.spec).element for t in syz] == leading_syzygy_generators(lfs, spec)
    assert syz.certificate.holds and elapsed < 1.0


# ---------------------------------------------------------------------------
# Hilbert functions


def test_hilbert_examples(R2, el, total2):
    table = hilbert_function([el("x1^2"), el("x1*x2")], total2, [3])
    assert table.values == (3,)
    table = hilbert_function([el("x1^2 + x2^2")], total2, [2])
    assert table.values == (1,)
    table = hilbert_function([el("x1^2")], total2, [0])
    assert table.values == (0,)


def test_hilbert_requires_homogeneous(el, total2):
    with pytest.raises(UsageError):
        hilbert_function([el("x1^2 - 1")], total2, [2])


def test_hilbert_requires_total_degree(el, drl2):
    # homogeneous generators under a grading that is not total degree: the
    # grading is named, not the generators
    gens = [el("x1^2 + x2^2"), el("x1*x2")]
    for spec in (drl2, CoarseModuleGrading(BlockGrading(2, (0,)), 1)):
        with pytest.raises(UsageError, match="hilbert requires the total-degree grading"):
            hilbert_function(gens, spec, [0, 1, 2])


def test_hilbert_against_brute_force(Q):
    R3 = PolyRing(Q, ("x1", "x2", "x3"))
    spec = CoarseModuleGrading(TotalDegreeGrading(3), 1)
    fixtures = [
        ["x1^2", "x1*x2"],
        ["x1^2 - x2^2", "x2*x3"],
        ["x1^3", "x2^2"],
        ["x1*x2 - x3^2", "x1^2"],
        ["x1", "x2", "x3"],
    ]
    degrees = list(range(0, 9))
    for gens_text in fixtures:
        gens = [ModuleElement.from_polynomial(R3.parse(t)) for t in gens_text]
        table = hilbert_function(gens, spec, degrees)
        raw = [raw_poly(g.polys[0]) for g in gens]
        expected = tuple(slice_dimension(raw, 3, b) for b in degrees)
        assert table.values == expected


def test_hilbert_zero_module(R2, total2):
    table = hilbert_function([], total2, [0, 1, 2])
    assert table.values == (0, 0, 0)


def test_hilbert_rank_two_with_shifts(R2):
    # N = R + R(-1); M generated by (x1, 0) and (0, 1), both homogeneous of
    # degree 1; M_b splits per component, so dim M_b = 2b in two variables
    spec = CoarseModuleGrading(TotalDegreeGrading(2), 2, shifts=(0, 1))
    gens = [
        ModuleElement(R2, (R2.parse("x1"), R2.parse("0"))),
        ModuleElement(R2, (R2.parse("0"), R2.parse("1"))),
    ]
    table = hilbert_function(gens, spec, [0, 1, 2, 3, 4])
    assert table.values == (0, 2, 4, 6, 8)


# ---------------------------------------------------------------------------
# homogenization


def test_homogenize_examples(R2, el):
    ctx = HomogenizationContext(R2, "t")
    T = ctx.target

    h = homogenize(el("x2^2 - x1"), ctx)
    assert h == ModuleElement.from_polynomial(T.parse("x2^2 - x1*t"))

    already = el("x1^2 + x1*x2")
    assert homogenize(already, ctx) == ModuleElement.from_polynomial(T.parse("x1^2 + x1*x2"))

    assert dehomogenize(homogenize(el("x2^2 - x1"), ctx), ctx) == el("x2^2 - x1")
    assert dehomogenize(ModuleElement.from_polynomial(T.parse("t^3")), ctx) == el("1")
    # a Polynomial stands for its rank-one element, and zero maps to zero
    assert homogenize(R2.parse("x2^2 - x1"), ctx) == h
    assert dehomogenize(T.parse("t^3"), ctx) == el("1")
    assert homogenize(el("0"), ctx) == ModuleElement.from_polynomial(T.parse("0"))
    assert dehomogenize(ModuleElement.from_polynomial(T.parse("0")), ctx) == el("0")


def test_homogenize_with_shifts(Q):
    T = PolyRing(Q, ("x1",))
    ctx = HomogenizationContext(T, "t", shifts=(0, 1), rank=2)
    m = ModuleElement(T, (T.parse("x1"), T.parse("1")))
    h = homogenize(m, ctx)
    # degrees: component 1 carries shift 1, so deg m = 1; t-powers balance it
    target = ctx.target_grading()
    assert is_homogeneous(h, target)
    assert dehomogenize(h, ctx) == m
    # an element homogeneous for the shifted grading scales by t^max(shifts)
    hom = ModuleElement(T, (T.parse("x1"), T.parse("1")))
    assert degree_of(hom, ctx.coarse) == 1
    assert h == ModuleElement(ctx.target, (ctx.target.parse("x1*t"), ctx.target.parse("t")))


@pytest.mark.parametrize("shift", [[1, 0], (1,), 1.0, True, "1", None])
def test_homogenization_shifts_are_integers(Q, shift):
    # a total-degree grading has one integer shift per component: a term
    # order's list shift, a float or a bool is refused by name, where a list
    # shift died adding itself to an int
    T = PolyRing(Q, ("x1", "x2"))
    with pytest.raises(UsageError, match=re.escape(f"shift {shift!r} must be an integer")):
        HomogenizationContext(T, "t", shifts=(0, shift), rank=2)
    assert HomogenizationContext(T, "t", shifts=(0, -1), rank=2).shifts == (0, -1)


def test_homogenize_round_trip_random(R2):
    rng = random.Random(19)
    ctx = HomogenizationContext(R2, "t")
    for _ in range(100):
        m = random_element(R2, 1, rng, max_degree=6, terms=5)
        h = homogenize(m, ctx)
        assert dehomogenize(h, ctx) == m
        if not m.is_zero():
            assert is_homogeneous(h, ctx.target_grading())


def test_homogenized_membership(R2, el, circle_pair):
    # members homogenize into the module generated by the homogenized basis
    ctx = HomogenizationContext(R2, "t")
    hgens = homogenize(circle_pair, ctx)
    target = ctx.target_grading()
    hbasis = buchberger_algorithm(hgens, target)
    reducer = Reducer(list(hbasis.elements), target)
    rng = random.Random(20)
    for _ in range(20):
        r1 = random_element(R2, 1, rng, max_degree=2, terms=2).polys[0]
        r2 = random_element(R2, 1, rng, max_degree=2, terms=2).polys[0]
        member = circle_pair[0].action(r1) + circle_pair[1].action(r2)
        if member.is_zero():
            continue
        ok, _ = reducer.reduces_to_zero(homogenize(member, ctx))
        assert ok


def test_verify_homogenization_equivalence(R2, el, circle_pair):
    ctx = HomogenizationContext(R2, "t")
    assert verify_homogenization_equivalence(circle_pair, ctx).holds
    assert verify_homogenization_equivalence([el("x2^2 - x1")], ctx).holds
    # a pair that fails the criterion reports its witness
    bad = [el("x1^2 + x2"), el("x1^2")]
    result = verify_homogenization_equivalence(bad, ctx)
    assert not result.holds
    assert result.witness.remainder == el("x2")


def test_homogenize_validations(R2, el):
    with pytest.raises(UsageError):
        HomogenizationContext(R2, "x1")
    ctx = HomogenizationContext(R2, "t")
    with pytest.raises(UsageError):
        homogenize(ModuleElement.from_polynomial(ctx.target.parse("t")), ctx)
    with pytest.raises(UsageError, match="element does not match"):
        dehomogenize(el("x1"), ctx)
    with pytest.raises(UsageError, match="generators do not match"):
        verify_homogenization_equivalence([ModuleElement.from_polynomial(ctx.target.parse("t"))], ctx)
