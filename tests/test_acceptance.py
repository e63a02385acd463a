"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 3 is marked as a strict expected failure: interreduction
collapses that basis to {x1^2 + x2^2 - 1, x1*x2} (the products x1*x2^2,
x1^2*x2, x1^2*x2^2, x1^3*x2 - x1*x2^3 of x1*x2 all reduce to zero, and any
two interreduced bases share one degree profile), so the six-element target
with profile {2: 2, 3: 2, 4: 2} is not an interreduced basis of this ideal.
"""

import random

import pytest

from oracles import classic_buchberger, ideals_equal, in_span, lex_key, raw_element_vectors, raw_poly, slice_dimension

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
from macaulay.coeff import PrimeField, RationalField
from macaulay.gradlin import PIVOT
from macaulay.grading import (
    CoarseModuleGrading,
    TermModuleGrading,
    TermOrderGrading,
    TotalDegreeGrading,
)
from macaulay.macbasis import (
    buchberger_algorithm,
    buchberger_criterion,
    degree_profile,
    interreduce,
)
from macaulay.polymod import ModuleElement, PolyRing, degree_of, is_homogeneous, leading_form
from macaulay.reduction import Reducer, dot
from macaulay.symmetry import (
    GroupAction,
    check_equivariant_normal_form,
    permutation_matrix,
    random_element,
    signed_permutation_matrix,
    span_is_invariant,
)


def report(number, ok, description):
    print(f"acceptance {number:>2}: {'pass' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def make_ring(field=None):
    return PolyRing(field or RationalField(), ("x1", "x2"))


def circle(ring):
    return [
        ModuleElement.from_polynomial(ring.parse("x1^2 + x2^2 - 1")),
        ModuleElement.from_polynomial(ring.parse("x1^2*x2^2 - 1")),
    ]


def c4_gens(ring):
    return [
        ModuleElement.from_polynomial(ring.parse("x1^2 + x2^2 - 1")),
        ModuleElement.from_polynomial(ring.parse("x1^2*x2^2")),
        ModuleElement.from_polynomial(ring.parse("x1^3*x2 - x1*x2^3")),
    ]


def total_spec():
    return CoarseModuleGrading(TotalDegreeGrading(2), 1)

def drl_spec():
    return TermModuleGrading(TermOrderGrading.degrevlex(2), 1)


def random_ideal_element(ring, gens, rng, max_degree=3):
    acc = ModuleElement.from_terms(ring, 1, {})
    for g in gens:
        acc = acc + g.action(random_element(ring, 1, rng, max_degree=max_degree, terms=3).polys[0])
    return acc


def _groebner_special_case(field, policy):
    ring = make_ring(field)
    gens = circle(ring)
    basis = interreduce(buchberger_algorithm(gens, drl_spec()), drl_spec(), policy)
    expected = [
        ModuleElement.from_polynomial(ring.parse("x1^2 + x2^2 - 1")),
        ModuleElement.from_polynomial(ring.parse("x2^4 - x2^2 + 1")),
    ]
    return list(basis.elements) == expected


def test_criterion_1_groebner_special_case():
    ok = _groebner_special_case(None, None)
    report(1, ok, "degrevlex basis of the twin-circle ideal matches bit-exactly")


def _hbasis_verification(field):
    ring = make_ring(field)
    gens = circle(ring)
    total_ok = buchberger_criterion(gens, total_spec()).holds
    drl_result = buchberger_criterion(gens, drl_spec())
    witness_ok = False
    if not drl_result.holds:
        lead = leading_form(drl_result.witness.remainder, drl_spec())
        witness_ok = str(lead.element) == "x2^4"
    return total_ok and not drl_result.holds and witness_ok


def test_criterion_2_hbasis_verification():
    ok = _hbasis_verification(None)
    report(2, ok, "total-degree criterion passes; degrevlex fails with x2^4 witness")


SIX_ELEMENT_TARGET = (
    "x1^2 + x2^2 - 1",
    "x1^2*x2^2",
    "x1^3*x2 - x1*x2^3",
    "x1*x2^2",
    "x1^2*x2",
    "x1*x2",
)


def _per_degree_span_equal(a, b, spec):
    pa = degree_profile(list(a), spec)
    pb = degree_profile(list(b), spec)
    if pa != pb:
        return False
    for degree in pa:
        ea = [m for m in a if degree_of(m, spec) == degree]
        eb = [m for m in b if degree_of(m, spec) == degree]
        support = sorted({k for m in ea + eb for k in m.term_map()})
        rows_a, _ = raw_element_vectors(ea, support)
        rows_b, _ = raw_element_vectors(eb, support)
        if not all(in_span(rows_a, v) for v in rows_b):
            return False
        if not all(in_span(rows_b, v) for v in rows_a):
            return False
    return True


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the six-element target is a valid Macaulay basis but not an interreduced "
        "one: x1*x2 belongs to the ideal, so interreduction collapses the basis to "
        "{x1^2 + x2^2 - 1, x1*x2} with degree profile {2: 2}"
    ),
)
def test_criterion_3_c4_reduced_basis():
    ring = make_ring()
    spec = total_spec()
    basis = interreduce(buchberger_algorithm(c4_gens(ring), spec), spec)
    target = [ModuleElement.from_polynomial(ring.parse(t)) for t in SIX_ELEMENT_TARGET]
    profile_ok = degree_profile(basis) == {2: 2, 3: 2, 4: 2}
    span_ok = _per_degree_span_equal(list(basis.elements), target, spec)
    report(3, profile_ok and span_ok, "reduced basis spans the six-element target per degree")


def test_criterion_3_supplement_true_behavior():
    # what the computation certifiably does on that input
    ring = make_ring()
    spec = total_spec()
    completed = buchberger_algorithm(c4_gens(ring), spec)
    target = [ModuleElement.from_polynomial(ring.parse(t)) for t in SIX_ELEMENT_TARGET]
    # the six-element target passes the criterion and generates the same ideal
    assert buchberger_criterion(target, spec).holds
    assert ideals_equal(
        [raw_poly(m.polys[0]) for m in completed.elements],
        [raw_poly(m.polys[0]) for m in target],
    )
    reduced = interreduce(completed, spec)
    expected = {
        ModuleElement.from_polynomial(ring.parse("x1^2 + x2^2 - 1")),
        ModuleElement.from_polynomial(ring.parse("x1*x2")),
    }
    assert set(reduced.elements) == expected
    assert degree_profile(reduced) == {2: 2}
    report("3b", True, "completion certifies; interreduction yields {x1^2+x2^2-1, x1*x2}")


def test_criterion_4_symmetry_of_spans():
    ring = make_ring()
    swap = GroupAction(ring, [permutation_matrix(2, (1, 2))])
    c4 = GroupAction(ring, [signed_permutation_matrix(2, [-2, 1])])
    ok = span_is_invariant(circle(ring), swap).invariant
    six = [ModuleElement.from_polynomial(ring.parse(t)) for t in SIX_ELEMENT_TARGET]
    ok = ok and span_is_invariant(six, c4).invariant
    broken = [
        ModuleElement.from_polynomial(ring.parse("x1^2 + x2^2 - 1")),
        ModuleElement.from_polynomial(ring.parse("x2^4 - x2^2 + 1")),
    ]
    ok = ok and not span_is_invariant(broken, swap).invariant
    report(4, ok, "span invariance: S2 yes, C4 yes, degrevlex basis no")


def test_criterion_5_equivariance():
    ring = make_ring()
    swap = GroupAction(ring, [permutation_matrix(2, (1, 2))])
    result = check_equivariant_normal_form(
        circle(ring), total_spec(), swap, samples=50, seed=23, max_degree=6
    )
    report(5, result.equivariant, "normal form commutes with the swap on 50 samples")


def _reduction_soundness(field, policy, samples=200):
    ring = make_ring(field)
    gens = circle(ring)
    spec = total_spec()
    reducer = Reducer(gens, spec, policy)
    rng = random.Random(29)
    checked = 0
    for _ in range(samples):
        m = random_ideal_element(ring, gens, rng)
        if m.is_zero():
            continue
        checked += 1
        ok_span, trace_span = reducer.reduces_to_zero(m)
        nf, trace_nf = reducer.normal_form(m)
        if not ok_span or not nf.is_zero():
            return False
        for trace in (trace_span, trace_nf):
            top = degree_of(m, spec)
            rebuilt = trace.final + trace.representation_sum(gens)
            if rebuilt != m:
                return False
            for idx, r in trace.representation.items():
                if not r.is_zero() and spec.key(degree_of(gens[idx].action(r), spec)) > spec.key(top):
                    return False
            degs = [s.degree for s in trace.steps]
            if any(spec.key(a) <= spec.key(b) for a, b in zip(degs, degs[1:])):
                return False
    return checked > samples // 2


def test_criterion_6_reduction_soundness():
    report(6, _reduction_soundness(None, None), "200 member reductions sound in both modes")


def _refinement_property(field):
    ring = make_ring(field)
    fixtures = [
        circle(ring),
        c4_gens(ring),
        [ModuleElement.from_polynomial(ring.parse("x1")), ModuleElement.from_polynomial(ring.parse("x2"))],
    ]
    for gens in fixtures:
        basis = buchberger_algorithm(gens, drl_spec(), None)
        if not buchberger_criterion(list(basis.elements), total_spec()).holds:
            return False
    return True


def test_criterion_7_refinement():
    report(7, _refinement_property(None), "every degrevlex basis passes the total-degree criterion")


def test_criterion_8_syzygies():
    ring = make_ring()
    spec = total_spec()
    ok = True
    for gens in (circle(ring), c4_gens(ring)):
        basis = buchberger_algorithm(gens, spec)
        syz = schreyer_syzygy_basis(basis)
        ok = ok and syz.certificate.holds
        ok = ok and all(dot(s, list(basis.elements)).is_zero() for s in syz.elements)

    koszul_basis = buchberger_algorithm(
        [ModuleElement.from_polynomial(ring.parse("x1")), ModuleElement.from_polynomial(ring.parse("x2"))],
        spec,
    )
    syz = schreyer_syzygy_basis(koszul_basis)
    expected = ModuleElement(ring, (ring.parse("x2"), ring.parse("-x1")))
    same_module = bool(syz.elements) and all(
        Reducer([expected], syz.spec).reduces_to_zero(s)[0] for s in syz.elements
    )
    same_module = same_module and Reducer(list(syz.elements), syz.spec).reduces_to_zero(expected)[0]
    ok = ok and same_module
    report(8, ok, "syzygy bases are exact, certified, and match the Koszul module")


def test_criterion_9_hilbert():
    Q = RationalField()
    R3 = PolyRing(Q, ("x1", "x2", "x3"))
    spec = CoarseModuleGrading(TotalDegreeGrading(3), 1)
    fixtures = [
        ["x1^2", "x1*x2"],
        ["x1^3", "x2^2", "x3^2"],
        ["x1*x2 - x3^2"],
        ["x1^2 - x2^2", "x2^2 - x3^2"],
        ["x1*x3", "x2^3 - x3^3"],
    ]
    degrees = list(range(0, 9))
    ok = True
    for gens_text in fixtures:
        gens = [ModuleElement.from_polynomial(R3.parse(t)) for t in gens_text]
        table = hilbert_function(gens, spec, degrees)
        raw = [raw_poly(g.polys[0]) for g in gens]
        expected = tuple(slice_dimension(raw, 3, b) for b in degrees)
        ok = ok and table.values == expected
    report(9, ok, "Hilbert values match brute-force slice dimensions on five ideals")


def test_criterion_10_elimination():
    ring = make_ring()
    gens = [
        ModuleElement.from_polynomial(ring.parse("x1^2 + x2^2 - 1")),
        ModuleElement.from_polynomial(ring.parse("x1 - x2")),
    ]
    out = eliminate(gens, EliminationSpec(ring, ["x2"]))
    target = [raw_poly(ring.parse("2*x2^2 - 1"))]
    ok = ideals_equal([raw_poly(m.polys[0]) for m in out], target)
    oracle = classic_buchberger([raw_poly(g.polys[0]) for g in gens], lex_key)
    oracle_kept = [p for p in oracle if all(m[0] == 0 for m in p)]
    ok = ok and ideals_equal([raw_poly(m.polys[0]) for m in out], oracle_kept)
    report(10, ok, "eliminate keeps exactly the ideal (2*x2^2 - 1), matching the lex oracle")


def test_criterion_11_homogenization():
    ring = make_ring()
    ctx = HomogenizationContext(ring, "t")
    rng = random.Random(31)
    ok = True
    for _ in range(100):
        m = random_element(ring, 1, rng, max_degree=6, terms=5)
        h = homogenize(m, ctx)
        ok = ok and dehomogenize(h, ctx) == m
        if not m.is_zero():
            ok = ok and is_homogeneous(h, ctx.target_grading())
    gens = circle(ring)
    ok = ok and verify_homogenization_equivalence(gens, ctx).holds
    target = ctx.target_grading()
    hbasis = buchberger_algorithm(homogenize(gens, ctx), target)
    reducer = Reducer(list(hbasis.elements), target)
    for _ in range(50):
        member = random_ideal_element(ring, gens, rng, max_degree=2)
        if member.is_zero():
            continue
        good, _ = reducer.reduces_to_zero(homogenize(member, ctx))
        ok = ok and good
    report(11, ok, "round trips, the H-basis certificate, and 50 membership samples")


def test_criterion_12_characteristic_p():
    field = PrimeField(32003)
    ok = _groebner_special_case(field, PIVOT)
    ok = ok and _hbasis_verification(field)
    ok = ok and _reduction_soundness(field, PIVOT, samples=200)
    ok = ok and _refinement_property(field)
    report(12, ok, "criteria 1, 2, 6, 7 hold over F_32003 with pivot complements")


def test_criterion_13_uniqueness():
    ring = make_ring()
    rng = random.Random(37)
    field = ring.field
    ok = True
    fixtures = [
        (circle(ring), drl_spec()),
        (circle(ring), total_spec()),
        (c4_gens(ring), total_spec()),
    ]
    for gens, spec in fixtures:
        reference = interreduce(buchberger_algorithm(gens, spec), spec)
        for _ in range(5):
            shuffled = list(gens)
            rng.shuffle(shuffled)
            scaled = [m.scale(field.from_int(rng.choice([1, 2, -1, 5, -3, 7]))) for m in shuffled]
            other = interreduce(buchberger_algorithm(scaled, spec), spec)
            ok = ok and degree_profile(other) == degree_profile(reference)
            ok = ok and _per_degree_span_equal(list(reference.elements), list(other.elements), spec)
    report(13, ok, "reduced bases from permuted/rescaled generators agree per degree")
