import random
import re
from fractions import Fraction

import pytest

from oracles import ideal_member, raw_poly

from macaulay import gradlin
from macaulay.coeff import PrimeField, RationalField
from macaulay.errors import MembershipError, UsageError
from macaulay.gradlin import ORTHOGONAL, PIVOT, GradedSubspace
from macaulay.grading import (
    POT,
    TOP,
    BlockGrading,
    CoarseModuleGrading,
    ModuleGrading,
    SyzygyGrading,
    TermModuleGrading,
    TermOrderGrading,
    TotalDegreeGrading,
)
from macaulay.polymod import ModuleElement, PolyRing, degree_of, homogeneous_components, leading_form
from macaulay.reduction import COMPLEMENT, Reducer, ReductionStep, dot, normal_form, reduces_to_zero
from macaulay.symmetry import random_element


def random_ideal_element(ring, gens, rng, max_degree=3):
    """A random polynomial combination of the generators."""
    acc = ModuleElement.from_terms(ring, gens[0].rank, {})
    for g in gens:
        coeff = random_element(ring, 1, rng, max_degree=max_degree, terms=3)
        acc = acc + g.action(coeff.polys[0])
    return acc


def test_span_step_example(el, total2, circle_pair):
    m = el("-x1^2*x2^2 + x1^2 + x2^2")
    reducer = Reducer(circle_pair, total2)
    step = reducer.span_step(m)
    assert step is not None
    m1, (degree, decomposition) = step
    assert degree == 4
    assert m1 == el("x1^2 + x2^2 - 1")
    step2 = reducer.span_step(m1)
    m2, (degree2, _) = step2
    assert degree2 == 2 and m2.is_zero()


def test_reduced_when_nothing_applies(el, total2):
    reducer = Reducer([el("x1")], total2)
    assert reducer.span_step(el("1")) is None
    assert reducer.complement_step(el("1")) is None


def test_normal_form_example(el, total2, circle_pair):
    nf, trace = normal_form(el("x1^4"), circle_pair, total2, policy=ORTHOGONAL)
    assert nf == el("1/2*x1^2 - 1/2*x2^2 - 1/2")
    assert [s.degree for s in trace.steps] == [4, 2]


def test_normal_form_of_member_is_zero(el, total2, circle_pair):
    nf, _ = normal_form(el("x2^4 - x2^2 + 1"), circle_pair, total2)
    assert nf.is_zero()
    # oracle: it really is a member
    assert ideal_member(raw_poly(el("x2^4 - x2^2 + 1").polys[0]), [raw_poly(g.polys[0]) for g in circle_pair])


def test_normal_form_fixed_point(el, total2, circle_pair):
    m = el("x1 + 5")  # no component touches any workspace
    nf, trace = normal_form(m, circle_pair, total2)
    assert nf == m and trace.steps == []


def test_reduces_to_zero_examples(el, total2, circle_pair):
    ok, _ = reduces_to_zero(el("-x1^2*x2^2 + x1^2 + x2^2"), circle_pair, total2)
    assert ok
    bad, trace = reduces_to_zero(el("1"), circle_pair, total2)
    assert not bad and trace.final == el("1")
    # oracle agrees 1 is outside the ideal
    assert not ideal_member(raw_poly(el("1").polys[0]), [raw_poly(g.polys[0]) for g in circle_pair])
    zero_ok, _ = reduces_to_zero(el("0"), circle_pair, total2)
    assert zero_ok


def test_trace_soundness(R2, total2, circle_pair):
    rng = random.Random(10)
    reducer = Reducer(circle_pair, total2)
    for _ in range(30):
        m = random_ideal_element(R2, circle_pair, rng)
        if m.is_zero():
            continue
        nf, trace = reducer.normal_form(m)
        rebuilt = nf + trace.representation_sum(circle_pair)
        assert rebuilt == m
        # multiplier degrees never exceed the input degree
        top = degree_of(m, total2)
        for idx, r in trace.representation.items():
            if r.is_zero():
                continue
            moved = circle_pair[idx].action(r)
            assert total2.key(degree_of(moved, total2)) <= total2.key(top)
        degs = [s.degree for s in trace.steps]
        for a, b in zip(degs, degs[1:]):
            assert total2.key(a) > total2.key(b)


def test_span_and_complement_agree_on_members(R2, total2, circle_pair):
    rng = random.Random(11)
    reducer = Reducer(circle_pair, total2)
    for _ in range(50):
        m = random_ideal_element(R2, circle_pair, rng)
        ok_span, _ = reducer.reduces_to_zero(m)
        nf, _ = reducer.normal_form(m)
        assert ok_span == nf.is_zero()
        assert ok_span  # combinations of the generators are members


def test_normal_form_linear_and_idempotent(R2, el, total2, circle_pair):
    rng = random.Random(12)
    field = R2.field
    reducer = Reducer(circle_pair, total2)
    for _ in range(25):
        m1 = random_element(R2, 1, rng, max_degree=5, terms=4)
        m2 = random_element(R2, 1, rng, max_degree=5, terms=4)
        a = field.from_int(rng.choice([-2, -1, 1, 2, 3]))
        b = field.from_int(rng.choice([-2, -1, 1, 2]))
        nf1, _ = reducer.normal_form(m1)
        nf2, _ = reducer.normal_form(m2)
        combo, _ = reducer.normal_form(m1.scale(a) + m2.scale(b))
        assert combo == nf1.scale(a) + nf2.scale(b)
        again, _ = reducer.normal_form(nf1)
        assert again == nf1


def test_determinism(R2, total2, circle_pair):
    rng = random.Random(13)
    m = random_ideal_element(R2, circle_pair, rng) + random_element(R2, 1, rng, max_degree=4)
    a = Reducer(circle_pair, total2).normal_form(m)
    b = Reducer(circle_pair, total2).normal_form(m)
    assert a[0] == b[0]
    assert [s for s in a[1].steps] == [s for s in b[1].steps]


def test_pivot_normal_form_value(el, total2, circle_pair):
    # hand reduction: x1^4 -> x1^2 - 1 (subtract x1^2 f1 - f2), then the pivot
    # complement of span{x1^2 + x2^2} keeps only the non-pivot monomial x2^2
    reducer = Reducer(circle_pair, total2, PIVOT)
    nf, _ = reducer.normal_form(el("x1^4"))
    assert nf == el("-x2^2")


def test_policies_agree_on_zero_outcomes(R2, total2, circle_pair):
    rng = random.Random(14)
    for policy in (ORTHOGONAL, PIVOT):
        reducer = Reducer(circle_pair, total2, policy)
        for _ in range(15):
            m = random_ideal_element(R2, circle_pair, rng)
            nf, _ = reducer.normal_form(m)
            assert nf.is_zero()


def test_reducer_validations(el, total2):
    with pytest.raises(UsageError):
        Reducer([], total2)
    with pytest.raises(UsageError):
        Reducer([el("0")], total2)
    # a grading over another number of variables would misread the exponents
    with pytest.raises(UsageError, match="numbers of variables"):
        Reducer([el("x1")], TermModuleGrading(TermOrderGrading.degrevlex(3), 1))


def test_dot(R2, el, circle_pair):
    coords = ModuleElement(R2, (R2.parse("x2^2"), R2.parse("-1")))
    combo = dot(coords, circle_pair)
    assert combo == el("x2^4 - x2^2 + 1")
    with pytest.raises(UsageError):
        dot(ModuleElement.from_polynomial(R2.parse("1")), circle_pair)


def _check_pinned_trace(reduce, X, m, steps, representation):
    _, trace = reduce(m)
    assert [(s.degree, s.multipliers) for s in trace.steps] == steps
    assert {i: str(r) for i, r in trace.representation.items()} == representation
    assert trace.final + trace.representation_sum(X) == m
    return trace


def test_pinned_orthogonal_trace(el, total2, circle_pair):
    reducer = Reducer(circle_pair, total2)
    m = el("x1^6 + x1^2*x2^4 - 3*x2^3 + x1")
    top = [(0, (4, 0), Fraction(1)), (0, (2, 2), Fraction(1)), (1, (2, 0), Fraction(-2))]
    trace = _check_pinned_trace(
        reducer.normal_form, circle_pair, m,
        [
            (6, tuple(top)),
            (4, ((0, (2, 0), Fraction(1)),)),
            (3, ((0, (0, 1), Fraction(-3, 2)),)),
            (2, ((0, (0, 0), Fraction(-1, 2)),)),
        ],
        {0: "x1^4 + x1^2*x2^2 + x1^2 - 3/2*x2 - 1/2", 1: "-2*x1^2"},
    )
    assert str(trace.final) == "3/2*x1^2*x2 - 3/2*x2^3 - 1/2*x1^2 + 1/2*x2^2 + x1 - 3/2*x2 - 1/2"
    # span steps stop at degree 3: -3*x2^3 is not in W_3
    trace = _check_pinned_trace(
        reducer.reduces_to_zero, circle_pair, m,
        [(6, tuple(top)), (4, ((0, (2, 0), Fraction(1)),))],
        {0: "x1^4 + x1^2*x2^2 + x1^2", 1: "-2*x1^2"},
    )
    assert str(trace.final) == "-3*x2^3 - x1^2 + x1"


def test_pinned_pivot_trace():
    field = PrimeField(32003)
    ring = PolyRing(field, ("x", "y", "z"))
    el3 = lambda s: ModuleElement.from_polynomial(ring.parse(s))
    drl3 = TermModuleGrading(TermOrderGrading.degrevlex(3), 1)
    X = [el3("x + 2*y + 2*z - 1"), el3("x^2 + 2*y^2 + 2*z^2 - x"), el3("2*x*y + 2*y*z - y")]
    m = el3("x^2*y + z^3")
    trace = _check_pinned_trace(
        Reducer(X, drl3).normal_form, X, m,
        [
            ((0, (2, 1, 0)), ((0, (1, 1, 0), 1),)),
            ((0, (1, 2, 0)), ((0, (0, 2, 0), 32001),)),
            ((0, (1, 1, 1)), ((0, (0, 1, 1), 32001),)),
            ((0, (1, 1, 0)), ((0, (0, 1, 0), 1),)),
        ],
        {0: "x*y + 32001*y^2 + 32001*y*z + y"},
    )
    assert str(trace.final) == "4*y^3 + 8*y^2*z + 4*y*z^2 + z^3 + 31999*y^2 + 31999*y*z + y"


def test_reducer_rejects_mismatched_element(R2, el, total2, circle_pair):
    reducer = Reducer(circle_pair, total2)
    with pytest.raises(UsageError):
        reducer.normal_form(ModuleElement(R2, (R2.parse("x1"), R2.parse("1"))))
    other = PolyRing(PrimeField(7), ("x1", "x2"))
    with pytest.raises(UsageError):
        reducer.reduces_to_zero(ModuleElement.from_polynomial(other.parse("1")))


def test_warm_reducer_traces_match_fresh(R2, total2, circle_pair, c4_triple):
    # cached W-spaces and projection columns must not change any step
    rng = random.Random(12)
    for X in (circle_pair, c4_triple):
        elements = [random_element(R2, 1, rng, max_degree=6) for _ in range(12)]
        for policy in (ORTHOGONAL, PIVOT):
            warm = Reducer(X, total2, policy)
            for m in elements:
                warm.normal_form(m)
                warm.reduces_to_zero(m)
            for m in reversed(elements):
                for run in ("normal_form", "reduces_to_zero"):
                    fresh_trace = getattr(Reducer(X, total2, policy), run)(m)[1]
                    warm_trace = getattr(warm, run)(m)[1]
                    assert warm_trace.steps == fresh_trace.steps
                    assert warm_trace.final == fresh_trace.final


def _assert_same_traces(warm, fresh, elements):
    for m in elements:
        for run in ("normal_form", "reduces_to_zero"):
            warm_trace = getattr(warm, run)(m)[1]
            fresh_trace = getattr(fresh, run)(m)[1]
            assert warm_trace.steps == fresh_trace.steps
            assert warm_trace.final == fresh_trace.final


@pytest.mark.parametrize("order", ["total", "degrevlex"])
def test_extended_reducer_traces_match_fresh(R2, el, total2, drl2, circle_pair, order):
    # extend and replace must drop every cached W-space a changed leading form reaches
    spec = total2 if order == "total" else drl2
    ys = [el("x1^3*x2 - x1*x2^3"), el("x2^3 - x1")]
    same_lead = el("x1^2 + x2^2 + x1 - 2")  # the leading form of circle_pair[0], a new tail
    # the first replacing form reaches fewer W-spaces than the one it replaces, the second more
    new_leads = [el("x1^5 - x2"), el("x1*x2 - x2 + 1")]
    rng = random.Random(5)
    elements = [random_element(R2, 1, rng, max_degree=6) for _ in range(12)]
    for policy in (ORTHOGONAL, PIVOT):
        warm = Reducer(circle_pair, spec, policy)
        for m in elements:
            warm.normal_form(m)
            warm.reduces_to_zero(m)
        lead_degrees = [degree_of(y, spec) for y in ys]
        # a term order reduces through first divisors, cached per degree where W-spaces are
        assert any(spec.multipliers(d, b) for d in lead_degrees for b in warm._cache)
        warm.extend(ys)
        X = circle_pair + ys
        _assert_same_traces(warm, Reducer(X, spec, policy), elements)
        for idx, y in ((0, same_lead), (1, new_leads[0]), (1, new_leads[1])):
            warm.replace(idx, y)
            X = X[:idx] + [y] + X[idx + 1 :]
            _assert_same_traces(warm, Reducer(X, spec, policy), elements)
        assert warm.X == X


def test_skip_reduces_against_the_others(R2, total2, c4_triple):
    # skip=idx gives the normal form against X without X[idx], traced in X's numbering
    rng = random.Random(9)
    elements = [random_element(R2, 1, rng, max_degree=6) for _ in range(8)] + c4_triple
    for policy in (ORTHOGONAL, PIVOT):
        reducer = Reducer(c4_triple, total2, policy)
        for idx in range(len(c4_triple)):
            rest = c4_triple[:idx] + c4_triple[idx + 1 :]
            for m in elements:
                nf, trace = reducer.normal_form(m, skip=idx)
                fresh_nf, fresh_trace = Reducer(rest, total2, policy).normal_form(m)
                assert nf == fresh_nf
                assert [len(s.multipliers) for s in trace.steps] == [
                    len(s.multipliers) for s in fresh_trace.steps
                ]
                assert all(i != idx for s in trace.steps for i, _, _ in s.multipliers)
                assert trace.final + trace.representation_sum(reducer.X) == m


class _Opaque(ModuleGrading):
    """A term-order module grading behind a type that is not ``TermModuleGrading``.

    It delegates every method, so a ``Reducer`` over it reduces through
    W-spaces where one over the wrapped grading reduces by first divisors.
    """

    def __init__(self, inner):
        self.inner, self.ring, self.rank, self.shifts = inner, inner.ring, inner.rank, inner.shifts

    def degree_of_term(self, comp, exps):
        return self.inner.degree_of_term(comp, exps)

    def key(self, degree):
        return self.inner.key(degree)

    def translate(self, deg, exps):
        return self.inner.translate(deg, exps)

    def multipliers(self, source, target):
        return self.inner.multipliers(source, target)

    def component_monomials(self, deg):
        return self.inner.component_monomials(deg)


def _holds_w_spaces(reducer):
    """Did the reducer settle its degrees against W-spaces, none by first divisor?"""
    return reducer._cache and all(isinstance(e, GradedSubspace) for e in reducer._cache.values())


def _assert_routes_agree(fast, slow, elements):
    for m in elements:
        runs = [("normal_form", {}), ("reduces_to_zero", {})]
        runs += [("normal_form", {"skip": idx}) for idx in range(len(fast.X))]
        for run, kwargs in runs:
            got, fast_trace = getattr(fast, run)(m, **kwargs)
            want, slow_trace = getattr(slow, run)(m, **kwargs)
            assert fast_trace.steps == slow_trace.steps
            assert fast_trace.final == slow_trace.final
            assert got == want  # the normal form, or the reduces-to-zero verdict


_WEIGHTED = ((1, 2, 1), (0, 0, -1), (0, -1, 0))


@pytest.mark.parametrize("field", [RationalField(), PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("order", ["degrevlex", "lex", "weighted"])
def test_divisor_route_matches_w_spaces(field, order):
    # under a term order, first-divisor reduction takes every step the
    # one-dimensional W-spaces take, with the same element and coefficient
    ring = PolyRing(field, ("x", "y", "z"))
    rows = {"degrevlex": TermOrderGrading.degrevlex(3), "lex": TermOrderGrading.lex(3),
            "weighted": TermOrderGrading(_WEIGHTED)}[order]
    rng = random.Random(f"{field!r} {order}")
    for rank, shifts, tie in ((1, None, POT), (2, ((0, 0, 0), (1, 0, 1)), POT), (2, ((0, 2, 0), (1, 0, 0)), TOP)):
        spec = TermModuleGrading(rows, rank, shifts, tie)

        def draw(max_degree):
            m = random_element(ring, rank, rng, max_degree=max_degree, terms=3)
            return m if not m.is_zero() else draw(max_degree)

        X = [draw(2) for _ in range(4)]
        elements = X + [draw(5) for _ in range(3)] + [random_ideal_element(ring, X, rng, 2) for _ in range(2)]
        fast, slow = Reducer(X, spec), Reducer(X, _Opaque(spec))
        _assert_routes_agree(fast, slow, elements)
        # the first added element repeats the leading monomial of X[1]
        ys, y = [X[1].scale(field.from_int(2)), draw(2)], draw(2)
        for reducer in (fast, slow):
            reducer.extend(ys)
        _assert_routes_agree(fast, slow, elements)
        for reducer in (fast, slow):
            reducer.replace(0, y)
        _assert_routes_agree(fast, slow, elements)
        # each took its own route: first divisors in one cache, W-spaces in the other
        assert fast._cache and not any(isinstance(e, GradedSubspace) for e in fast._cache.values())
        assert _holds_w_spaces(slow)


def test_removed_reducer_traces_match_fresh():
    # remove renumbers X, so no cached workspace or divisor may survive it
    ring = PolyRing(RationalField(), ("x", "y"))
    rng = random.Random(21)
    drl = TermModuleGrading(TermOrderGrading.degrevlex(2), 2)
    total = CoarseModuleGrading(TotalDegreeGrading(2), 2)

    def draw(max_degree):
        m = random_element(ring, 2, rng, max_degree=max_degree, terms=3)
        return m if not m.is_zero() else draw(max_degree)

    X = [draw(2) for _ in range(4)]
    # X[4] repeats the leading monomial of X[1]: once X[1] goes, X[4] divides in its place
    X.append(X[1].scale(ring.field.from_int(2)) + draw(1))
    elements = X + [draw(3) for _ in range(2)] + [random_ideal_element(ring, X, rng, 1)]
    routes = [(drl, None), (_Opaque(drl), None), (total, PIVOT), (total, ORTHOGONAL)]
    for spec, policy in routes:
        warm, kept = Reducer(X, spec, policy), list(X)
        for idx in (1, 0, len(X) - 3):
            _assert_routes_agree(warm, Reducer(kept, spec, policy), elements)
            warm.remove(idx)
            del kept[idx]
            assert warm.X == kept
        _assert_routes_agree(warm, Reducer(kept, spec, policy), elements)


def test_extend_keeps_the_cached_divisors():
    # an appended element is never the first divisor of a degree that has one:
    # extend drops only the degrees cached with none that its leading form reaches
    ring = PolyRing(RationalField(), ("x", "y"))
    drl = TermModuleGrading(TermOrderGrading.degrevlex(2), 1)
    el = lambda s: ModuleElement.from_polynomial(ring.parse(s))
    X = [el("2*x^2 + y"), el("3*x*y - 1")]
    elements = [el("x^3 + y^3 + x*y^2 + y^2 + 1"), el("x^2*y^2 - 5*y^4 + x"), el("7*y^3 - x*y")]
    warm = Reducer(X, drl)
    for m in elements:
        warm.normal_form(m)
    found = {b: e for b, e in warm._cache.items() if e is not None}
    y = el("2*y^2 - x")
    reached = [b for b, e in warm._cache.items() if e is None and drl.reaches(degree_of(y, drl), b)]
    assert found and reached
    warm.extend([y])
    assert all(warm._cache[b] is e for b, e in found.items())
    assert not any(b in warm._cache for b in reached)
    _assert_routes_agree(warm, Reducer(X + [y], drl), elements)


@pytest.mark.parametrize("field", [RationalField(), PrimeField(32003)], ids=["Q", "F32003"])
def test_stored_inverses_follow_the_mutators(field):
    # each element's leading-coefficient inverse is stored when it joins, so
    # a warm Reducer over leading coefficients other than 1 must keep the
    # inverses in step with X through extend, replace and remove
    ring = PolyRing(field, ("x", "y", "z"))
    rng = random.Random(f"inverses {field!r}")
    for rank, tie in ((1, POT), (2, POT), (2, TOP)):
        spec = TermModuleGrading(TermOrderGrading.degrevlex(3), rank, tie=tie)

        def draw(max_degree, lc):
            m = random_element(ring, rank, rng, max_degree=max_degree, terms=3)
            if m.is_zero():
                return draw(max_degree, lc)
            ((_, lc0),) = leading_form(m, spec).element.term_map().items()
            return m.scale(field.div(field.from_int(lc), lc0))

        X = [draw(2, lc) for lc in (2, 3, 1, 5)]
        elements = X + [draw(5, 1) for _ in range(4)] + [random_ideal_element(ring, X, rng, 2) for _ in range(2)]
        warm = Reducer(X, spec)
        _assert_routes_agree(warm, Reducer(X, spec), elements)
        # the added element shares X[1]'s leading monomial, and the first
        # replacement X[0]'s, with another leading coefficient
        X = X + [X[1].scale(field.from_int(7)), draw(2, 4)]
        warm.extend(X[-2:])
        _assert_routes_agree(warm, Reducer(X, spec), elements)
        for idx, y in ((0, X[0].scale(field.from_int(-2))), (2, draw(2, 6))):
            warm.replace(idx, y)
            X[idx] = y
            _assert_routes_agree(warm, Reducer(X, spec), elements)
        for idx in (1, 0):
            warm.remove(idx)
            del X[idx]
            _assert_routes_agree(warm, Reducer(X, spec), elements)
        assert warm.X == X


def _relation(m, X, spec, policy=None, skip=None):
    """Steps and end of the paper's reduction relation, from ``gradlin`` alone.

    Each step takes the largest degree b whose component offends: in span
    mode (``policy`` None) one lying in W_b(X), in complement mode one with a
    nonzero W-part.  It writes that part over the multiples of the leading
    forms and subtracts them; W_b is built afresh every time, without X[skip].
    """
    steps, current = [], m
    while True:
        for part in homogeneous_components(current, spec):
            sub = gradlin.w_space(X, part.degree, spec, skip=skip)
            terms = part.element.term_map()
            if policy is None:
                try:
                    decomposition = gradlin.decompose_in_w(terms, sub)
                except MembershipError:
                    continue
            else:
                decomposition = gradlin.project_complement(terms, sub, policy)[1]
            if decomposition:
                break
        else:
            return steps, current
        steps.append(ReductionStep(part.degree, tuple(decomposition)))
        for i, exps, c in decomposition:
            current = current - X[i].mul_term(exps, c)


def _coarse_gradings():
    drl = TermModuleGrading(TermOrderGrading.degrevlex(3), 1)
    # three syzygy coordinates of degrees y, x and xy under degrevlex: the
    # component of x*y*e_1 also holds x*e_2 and e_3
    drl_degrees = ((0, (0, 1, 0)), (0, (1, 0, 0)), (0, (1, 1, 0)))
    return {
        "total-shifted": CoarseModuleGrading(TotalDegreeGrading(3), 2, shifts=(0, 1)),
        "elim": CoarseModuleGrading(BlockGrading(3, (0,)), 2),
        "syzygy-total": SyzygyGrading(CoarseModuleGrading(TotalDegreeGrading(3), 1), (1, 2, 2)),
        "syzygy-degrevlex": SyzygyGrading(drl, drl_degrees),
    }


@pytest.mark.parametrize("policy", [ORTHOGONAL, PIVOT, "fp"])
@pytest.mark.parametrize("grading", sorted(_coarse_gradings()))
def test_one_pass_matches_the_relation(grading, policy):
    # the descending pass takes the relation's steps, in order, with its
    # multipliers, and ends where it ends; under these gradings a degree
    # holds several monomials, so every step goes through W_b
    field = PrimeField(32003) if policy == "fp" else RationalField()
    policy = PIVOT if policy == "fp" else policy
    ring = PolyRing(field, ("x", "y", "z"))
    spec = _coarse_gradings()[grading]
    rng = random.Random(f"{grading} {policy} {field!r}")

    def draw(max_degree):
        m = random_element(ring, spec.rank, rng, max_degree=max_degree, terms=4)
        return m if not m.is_zero() else draw(max_degree)

    X = [draw(2) for _ in range(3)]
    elements = [draw(4) for _ in range(4)] + [random_ideal_element(ring, X, rng, 2) for _ in range(3)]
    reducer = Reducer(X, spec, policy)
    for m in elements:
        nf, trace = reducer.normal_form(m)
        assert (trace.steps, nf) == _relation(m, X, spec, policy)
        ok, trace = reducer.reduces_to_zero(m)
        steps, final = _relation(m, X, spec)
        assert (trace.steps, trace.final, ok) == (steps, final, final.is_zero())
        for skip in range(len(X)):
            nf, trace = reducer.normal_form(m, skip=skip)
            assert (trace.steps, nf) == _relation(m, X, spec, policy, skip)
    assert _holds_w_spaces(reducer)


@pytest.mark.parametrize("policy", [ORTHOGONAL, PIVOT, "fp"])
@pytest.mark.parametrize("grading", sorted(_coarse_gradings()))
def test_tabled_normal_forms_match_the_pass(grading, policy):
    # a normal form summed from the monomial table is the pass's own, step
    # for step, whether its monomials are seen for the first time, the
    # second (their entries are filled) or later, or a mix of these
    field = PrimeField(32003) if policy == "fp" else RationalField()
    policy = PIVOT if policy == "fp" else policy
    ring = PolyRing(field, ("x", "y", "z"))
    spec = _coarse_gradings()[grading]
    rng = random.Random(f"tabled {grading} {policy} {field!r}")

    def draw(max_degree):
        m = random_element(ring, spec.rank, rng, max_degree=max_degree, terms=4)
        return m if not m.is_zero() else draw(max_degree)

    X = [draw(2) for _ in range(3)]
    first = [draw(4) for _ in range(4)]
    elements = first + [m + draw(4) for m in first]
    elements += [random_ideal_element(ring, X, rng, 2) for _ in range(2)]
    reducer, reference = Reducer(X, spec, policy), Reducer(X, spec, policy)
    sightings = []
    for _ in range(3):
        for m in elements:
            table = reducer._table
            kinds = {"first" if t not in table else "second" if table[t] is None else "table" for t in m.term_map()}
            sightings.append(kinds)
            nf, trace = reducer.normal_form(m)
            want = reference._reduce(m, COMPLEMENT)
            assert (trace.steps, nf) == (want.steps, want.final)
            assert trace.final + trace.representation_sum(X) == m
    assert set().union(*sightings) == {"first", "second", "table"}
    assert any(len(seen) > 1 for seen in sightings)
    # every input monomial was met at least twice, so each has its entry filled
    assert reducer._table and None not in reducer._table.values()
    assert _holds_w_spaces(reducer)


def test_replace_with_a_new_tail_clears_the_table(R2, el, total2, circle_pair):
    # the leading form, and so every W-space, stays; the normal forms change
    same_lead = el("x1^2 + x2^2 + x1 - 2")
    rng = random.Random(7)
    elements = [random_element(R2, 1, rng, max_degree=6) for _ in range(8)]
    for policy in (ORTHOGONAL, PIVOT):
        warm, old = Reducer(circle_pair, total2, policy), Reducer(circle_pair, total2, policy)
        for _ in range(2):
            for m in elements:
                warm.normal_form(m)
        assert warm._table
        cached = dict(warm._cache)
        warm.replace(0, same_lead)
        assert warm._cache == cached and not warm._table
        fresh = Reducer([same_lead, circle_pair[1]], total2, policy)
        assert any(fresh.normal_form(m)[0] != old.normal_form(m)[0] for m in elements)
        for _ in range(3):
            for m in elements:
                nf, trace = warm.normal_form(m)
                want = fresh._reduce(m, COMPLEMENT)
                assert (trace.steps, nf) == (want.steps, want.final)


def test_tabled_trace_outlives_a_change(R2, el, total2, circle_pair):
    # steps are merged when first read, from entries a later change does not touch
    rng = random.Random(8)
    elements = [random_element(R2, 1, rng, max_degree=6) for _ in range(6)]
    reducer, reference = Reducer(circle_pair, total2), Reducer(circle_pair, total2)
    for _ in range(2):
        for m in elements:
            reducer.normal_form(m)
    traces = [reducer.normal_form(m)[1] for m in elements]
    assert all("steps" not in vars(trace) for trace in traces)
    reducer.extend([el("x1*x2 - x2 + 1"), el("x2^3 - x1")])
    reducer.replace(0, el("x1^2 + x2^2 + x1 - 2"))
    reducer.remove(2)
    for m in elements:
        reducer.normal_form(m)
    for m, trace in zip(elements, traces):
        want = reference._reduce(m, COMPLEMENT)
        assert trace.X == circle_pair
        assert (trace.steps, trace.final) == (want.steps, want.final)
        assert trace.final + trace.representation_sum(trace.X) == m


def test_warm_normal_forms_run_no_pass(monkeypatch, R2, el, total2, drl2, c4_triple):
    # once every monomial has its entry, a normal form is a sum of entries;
    # skip, membership and the term-order route still run the pass
    rng = random.Random(10)
    elements = [random_element(R2, 1, rng, max_degree=6) for _ in range(10)]
    reducer, divisor = Reducer(c4_triple, total2), Reducer(c4_triple, drl2)
    for _ in range(2):
        for m in elements:
            reducer.normal_form(m)
    assert len(reducer._table) <= len(total2.term_entries)
    calls = []
    reduce = Reducer._reduce

    def counting(self, *args, **kwargs):
        calls.append(self)
        return reduce(self, *args, **kwargs)

    monkeypatch.setattr(Reducer, "_reduce", counting)
    for m in elements:
        reducer.normal_form(m)
    assert calls == []
    reducer.normal_form(elements[0], skip=0)
    reducer.reduces_to_zero(elements[0])
    for _ in range(3):
        divisor.normal_form(elements[0])
    assert calls == [reducer] * 2 + [divisor] * 3


_KATSURA3 = ("x + 2*y + 2*z - 1", "x^2 + 2*y^2 + 2*z^2 - x", "2*x*y + 2*y*z - y")


@pytest.mark.parametrize("skip", ["past the end", 5, 7, -1, True, False, 1.0, "0"])
@pytest.mark.parametrize("route", ["w-space", "divisor"])
def test_skip_must_be_an_index_into_x(R2, el, total2, circle_pair, route, skip):
    # a bool, a negative or too large int, or no int at all names no element
    # of X: it raises, where an index past the end raised IndexError and -1
    # or True were read as no skip or as 1
    if route == "w-space":
        X, spec, m = circle_pair, total2, el("x1^4 + x1*x2 - 3")
    else:
        ring = PolyRing(RationalField(), ("x", "y", "z"))
        X = [ModuleElement.from_polynomial(ring.parse(t)) for t in _KATSURA3]
        spec = TermModuleGrading(TermOrderGrading.degrevlex(3), 1)
        m = ModuleElement.from_polynomial(ring.parse("x^3 + y*z - 2"))
    if skip == "past the end":
        skip = len(X)
    reducer = Reducer(X, spec)
    with pytest.raises(UsageError, match=re.escape(repr(skip))):
        reducer.normal_form(m, skip=skip)
    with pytest.raises(UsageError, match=re.escape(repr(skip))):
        reducer.w_space(reducer.lf_parts[0].degree, skip=skip)
    # the last index is still taken, and reduces against the others
    nf, _ = reducer.normal_form(m, skip=len(X) - 1)
    assert nf == Reducer(X[:-1], spec).normal_form(m)[0]


def test_vanishing_inputs_teach_the_table_nothing(monkeypatch, R2, el, total2, circle_pair):
    # a combination that reduces to zero is reduced by pivot splits alone, so
    # its monomials are not tabled; a nonzero normal form's are, on their
    # second sighting
    rng = random.Random(12)
    members = [random_ideal_element(R2, circle_pair, rng) for _ in range(2)]
    assert not any(m.is_zero() for m in members)
    entries = []
    entry = Reducer._entry
    monkeypatch.setattr(Reducer, "_entry", lambda self, t: entries.append(t) or entry(self, t))
    reducer = Reducer(circle_pair, total2)
    for _ in range(2):
        for m in members:
            assert reducer.normal_form(m)[0].is_zero()
    assert reducer._table == {} and entries == []
    m = el("x1^3 + x1*x2^2 + x2")
    nf, _ = reducer.normal_form(m)
    assert not nf.is_zero()
    assert reducer._table == dict.fromkeys(m.term_map()) and entries == []
    assert reducer.normal_form(m)[0] == nf
    assert entries == list(m.term_map()) and None not in reducer._table.values()


def _warm(X, spec):
    """A Reducer whose table holds every monomial of its inputs, and those inputs."""
    rng = random.Random(13)
    elements = [random_element(X[0].ring, 1, rng) for _ in range(6)]
    reducer = Reducer(X, spec)
    for _ in range(2):
        for m in elements:
            reducer.normal_form(m)
    return reducer, elements


def test_table_entries_are_normal_forms_only(total2, circle_pair):
    # an entry is the monomial's normal form as (term, coeff) pairs: its
    # pass's steps are not kept
    reducer, _ = _warm(circle_pair, total2)
    reference = Reducer(circle_pair, total2)
    assert reducer._table and None not in reducer._table.values()
    for t, entry in reducer._table.items():
        unit = ModuleElement.from_terms(reducer.ring, 1, {t: reducer.field.one})
        assert entry == tuple(reference._reduce(unit, COMPLEMENT).final.term_map().items())


def test_first_read_of_a_tabled_trace_runs_the_pass_once(monkeypatch, total2, circle_pair):
    # a trace summed from the table runs the pass on its input when its
    # steps are first read, on the Reducer that made it, and never again
    reducer, elements = _warm(circle_pair, total2)
    reference = Reducer(circle_pair, total2)
    wants = [reference._reduce(m, COMPLEMENT) for m in elements]
    calls = []
    reduce = Reducer._reduce

    def counting(self, m, *args, **kwargs):
        calls.append((self, m))
        return reduce(self, m, *args, **kwargs)

    monkeypatch.setattr(Reducer, "_reduce", counting)
    for m, want in zip(elements, wants):
        nf, trace = reducer.normal_form(m)
        assert calls == [] and "steps" not in vars(trace) and nf == want.final
        steps = trace.steps
        assert calls == [(reducer, m)] and steps == want.steps
        assert trace.steps is steps and calls == [(reducer, m)]
        calls.clear()


@pytest.mark.parametrize("change", ["extend", "replace", "remove"])
def test_tabled_trace_replays_on_a_fresh_reducer_after_a_change(count_reducers, el, total2, c4_triple, change):
    # each mutator gives the Reducer a new X, so a trace taken before reads
    # its steps from a fresh Reducer over the X it numbers
    reducer, elements = _warm(c4_triple, total2)
    reference = Reducer(c4_triple, total2)
    wants = [reference._reduce(m, COMPLEMENT).steps for m in elements]
    traces = [reducer.normal_form(m)[1] for m in elements]
    if change == "extend":
        reducer.extend([el("x1*x2 - x2 + 1")])
    elif change == "replace":
        reducer.replace(0, el("x1^2 + x2^2 + x1 - 2"))
    else:
        reducer.remove(1)
    built = count_reducers()
    for m, trace, want in zip(elements, traces, wants):
        assert trace.steps == want
        (fresh,) = built
        assert fresh is not reducer and fresh.X == trace.X == c4_triple
        assert trace.final + trace.representation_sum(trace.X) == m
        built.clear()
