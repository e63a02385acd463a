import random
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import classic_buchberger, drl_key, ideals_equal, in_span, raw_element_vectors, raw_poly

from macaulay import macbasis
from macaulay.coeff import PrimeField, RationalField
from macaulay.errors import ResourceLimitError, UsageError
from macaulay.gradlin import ORTHOGONAL, PIVOT
from macaulay.grading import CoarseModuleGrading, TermModuleGrading, TermOrderGrading, TotalDegreeGrading
from macaulay.macbasis import (
    BuchbergerConfig,
    _canonical_positions,
    _distinct_normalized,
    _ExtendedOrder,
    _normalized,
    buchberger_algorithm,
    buchberger_criterion,
    degree_profile,
    interreduce,
    leading_syzygy_generators,
    lift_syzygy,
    monomial_syzygy_generators,
    normalize_element,
    syzygy_grading,
)
from macaulay.polymod import ModuleElement, PolyRing, is_homogeneous, leading_form
from macaulay.reduction import Reducer, dot


def test_monomial_syzygy_examples(R2, el):
    out = monomial_syzygy_generators([el("x1^2"), el("x1^2*x2^2")])
    assert len(out) == 1 and out[0] == ModuleElement(R2, (R2.parse("x2^2"), R2.parse("-1")))

    out = monomial_syzygy_generators([el("x1"), el("x2")])
    assert out == [ModuleElement(R2, (R2.parse("x2"), R2.parse("-x1")))]

    e1 = ModuleElement(R2, (R2.parse("x1"), R2.parse("0")))
    e2 = ModuleElement(R2, (R2.parse("0"), R2.parse("x2")))
    assert monomial_syzygy_generators([e1, e2]) == []

    with pytest.raises(UsageError):
        monomial_syzygy_generators([el("x1 + x2"), el("x1")])


def test_chain_criterion_drops_generated_pair(R2, el):
    # sigma(x1^2, x2^2) = x2 * sigma(x1^2, x1*x2) + x1 * sigma(x1*x2, x2^2)
    out = monomial_syzygy_generators([el("x1^2"), el("x1*x2"), el("x2^2")])
    assert out == [
        ModuleElement(R2, (R2.parse("x2"), R2.parse("-x1"), R2.parse("0"))),
        ModuleElement(R2, (R2.parse("0"), R2.parse("x2"), R2.parse("-x1"))),
    ]


def _all_lcm_pairs(terms, ring):
    """Every pairwise lcm syzygy of single-term elements, built directly."""
    infos = [next(iter(t.term_map().items())) for t in terms]
    field = ring.field
    out = []
    for i, ((ci, ei), ai) in enumerate(infos):
        for j, ((cj, ej), aj) in enumerate(infos):
            if j <= i or ci != cj:
                continue
            lcm = tuple(max(a, b) for a, b in zip(ei, ej))
            out.append(ModuleElement.from_terms(ring, len(terms), {
                (i, tuple(a - b for a, b in zip(lcm, ei))): field.inv(ai),
                (j, tuple(a - b for a, b in zip(lcm, ej))): field.neg(field.inv(aj)),
            }))
    return out


# small exponents, so that repeated leading monomials come up often
single_terms = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.tuples(*[st.integers(0, 2)] * 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool),
    ),
    min_size=2,
    max_size=7,
)


@pytest.mark.parametrize("rank", [1, 2])
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(items=single_terms)
def test_chain_criterion_keeps_generation(rank, items):
    ring = PolyRing(RationalField(), ("x", "y", "z"))
    spec = TermModuleGrading(TermOrderGrading.degrevlex(3), rank)
    terms = [ModuleElement.from_terms(ring, rank, {(comp % rank, exps): c}) for comp, exps, c in items]
    out = monomial_syzygy_generators(terms)
    full = _all_lcm_pairs(terms, ring)
    assert all(s in full for s in out)
    if not full:
        assert out == []
        return
    reducer = Reducer(out, syzygy_grading(spec, terms))
    for s in full:
        assert reducer.reduces_to_zero(s)[0]


def _beyond(s, since):
    """Is the syzygy nonzero on some element from index ``since`` on?"""
    return any(not p.is_zero() for p in s.polys[since:])


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(items=single_terms)
def test_new_pairs_are_the_filtered_pairs(items):
    # forming only the pairs (i, j) with j >= since gives exactly the pairs the
    # filter keeps, in the same order, on the lcm path and on the N-block path
    ring = PolyRing(RationalField(), ("x", "y", "z"))
    drl = TermModuleGrading(TermOrderGrading.degrevlex(3), 2)
    # component 0 is the N block, component 1 a coordinate component
    ext = _ExtendedOrder(syzygy_grading(TermModuleGrading(TermOrderGrading.degrevlex(3), 1), [
        ModuleElement.from_terms(ring, 1, {(0, (1, 0, 0)): 1})
    ]), 1)
    terms = [ModuleElement.from_terms(ring, 2, {(comp, exps): c}) for comp, exps, c in items]
    pairs = monomial_syzygy_generators(terms)
    canonical = {spec: leading_syzygy_generators(terms, spec) for spec in (drl, ext)}
    for since in range(len(terms) + 1):
        assert monomial_syzygy_generators(terms, since) == [s for s in pairs if _beyond(s, since)]
        for spec, gens in canonical.items():
            new = leading_syzygy_generators(terms, spec, since=since)
            assert [str(s) for s in new] == [str(s) for s in gens if _beyond(s, since)]


def _chain_pruned_pairs_reference(terms, since=0):
    """The earlier ``monomial_syzygy_generators``, which tests every term for every pair."""
    ring = terms[0].ring
    field = ring.field
    infos = []
    for t in terms:
        (comp, exps), coeff = next(iter(t.term_map().items()))
        infos.append((comp, exps, field.inv(coeff)))
    n = len(infos)
    out = []
    for i in range(n):
        ci, ei, inv_i = infos[i]
        for j in range(max(i + 1, since), n):
            cj, ej, inv_j = infos[j]
            if ci != cj:
                continue
            lcm = tuple(map(max, ei, ej))
            if any(
                k != i and k != j and ck == ci
                and all(a <= b for a, b in zip(ek, lcm))
                and tuple(map(max, ei, ek)) != lcm
                and tuple(map(max, ej, ek)) != lcm
                for k, (ck, ek, _) in enumerate(infos)
            ):
                continue
            out.append(ModuleElement.from_terms(ring, n, {
                (i, tuple(a - b for a, b in zip(lcm, ei))): inv_i,
                (j, tuple(a - b for a, b in zip(lcm, ej))): field.neg(inv_j),
            }))
    return out


@pytest.mark.parametrize("field", [RationalField(), PrimeField(32003)], ids=repr)
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(rank=st.integers(1, 3), items=st.lists(
    st.tuples(st.integers(0, 2), st.tuples(*[st.integers(0, 2)] * 3),
              st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool)),
    min_size=1, max_size=9,
))
def test_chain_pruned_pairs_match_the_reference(field, rank, items):
    # the per-component chain test gives the same pairs, in the same order,
    # with the same coefficients, for every since
    ring = PolyRing(field, ("x", "y", "z"))
    terms = [
        ModuleElement.from_terms(ring, rank, {(comp % rank, exps): field.div(
            field.from_int(c.numerator), field.from_int(c.denominator))})
        for comp, exps, c in items
    ]
    for since in range(len(terms) + 1):
        got = monomial_syzygy_generators(terms, since)
        assert got == _chain_pruned_pairs_reference(terms, since)
        assert all(not field.is_zero(c) for s in got for c in s.term_map().values())


def _rendered_pair_order(terms, spec, since, blocks=None):
    """The lcm pairs as ``leading_syzygy_generators`` ordered them before: each
    normalized, then sorted by the key of its lcm term and by its rendered text."""
    ring = terms[0].ring
    field = ring.field
    paired = [k for k, t in enumerate(terms) if blocks is None or next(iter(t.term_map()))[0] < blocks]
    pairs = _chain_pruned_pairs_reference([terms[k] for k in paired], bisect_left(paired, since)) if paired else []
    keyed = []
    for s in pairs:
        (i, u), c = min(s.term_map().items())
        s = ModuleElement.from_terms(ring, len(terms), {
            (paired[k], v): field.div(a, c) for (k, v), a in s.term_map().items()
        })
        ((comp, exps),) = terms[paired[i]].term_map()
        lcm = tuple(a + b for a, b in zip(exps, u))
        keyed.append((spec.key(spec.degree_of_term(comp, lcm)), str(s)))
    return [text for _, text in sorted(keyed)]


@pytest.mark.parametrize("field", [RationalField(), PrimeField(7)], ids=repr)
@pytest.mark.parametrize("kind", ["pot", "top", "coarse", "n_block"])
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(rank=st.integers(1, 3), items=st.lists(
    st.tuples(st.integers(0, 4), st.tuples(*[st.integers(0, 2)] * 3),
              st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool)),
    min_size=2, max_size=9,
))
def test_lcm_pairs_keep_the_rendered_order(field, kind, rank, items):
    # pairs built normalized and sorted by (lcm key, tie) come in the order
    # their rendered text gave, for every since; under the coarse grading
    # one lcm degree holds several lcm monomials, whose text breaks the tie
    ring = PolyRing(field, ("x", "y", "z"))
    drl = TermOrderGrading.degrevlex(3)
    blocks = None
    if kind == "coarse":
        spec = CoarseModuleGrading(TotalDegreeGrading(3), rank, (0, 1, 0)[:rank])
    elif kind == "n_block":
        # components below rank form the N block, the two after it are coordinates
        base = TermModuleGrading(drl, rank)
        probes = [ModuleElement.from_terms(ring, rank, {t: 1}) for t in ((0, (1, 0, 0)), (rank - 1, (0, 1, 0)))]
        spec = _ExtendedOrder(syzygy_grading(base, probes), rank)
        blocks = rank
    else:
        spec = TermModuleGrading(drl, rank, tie=kind)
    terms = [
        ModuleElement.from_terms(ring, spec.rank, {(comp % spec.rank, exps): field.div(
            field.from_int(c.numerator), field.from_int(c.denominator))})
        for comp, exps, c in items
    ]
    for since in range(len(terms) + 1):
        got = leading_syzygy_generators(terms, spec, since=since)
        assert [str(s) for s in got] == _rendered_pair_order(terms, spec, since, blocks)


def test_extended_order_keys_match_the_formula():
    # memoized keys, on first and on repeated sightings, are the block formula
    ring = PolyRing(RationalField(), ("x", "y", "z"))
    drl = TermModuleGrading(TermOrderGrading.degrevlex(3), 2, ((0, 0, 0), (1, 0, 2)))
    lfs = [ModuleElement.from_terms(ring, 2, {t: 1}) for t in ((0, (1, 0, 0)), (1, (0, 2, 1)), (0, (0, 1, 1)))]
    syz = syzygy_grading(drl, lfs)
    ext = _ExtendedOrder(syz, 2)
    ring_key = TermOrderGrading.degrevlex(3).key
    rng = random.Random(31)
    degrees = [(rng.randrange(ext.rank), tuple(rng.randrange(4) for _ in range(3))) for _ in range(300)]
    for i, u in degrees + degrees[::-1]:
        if i < 2:
            want = (1, None, ring_key(u), -i)
        else:
            comp, value = syz.basis_degree(i - 2)
            want = (0, (-comp, ring_key(tuple(map(sum, zip(value, u))))), ring_key(u), -i)
        assert ext.key((i, u)) == want


def test_monomial_syzygy_coefficient_correction(R2, el):
    out = monomial_syzygy_generators([el("2*x1^2"), el("3*x1*x2")])
    (syz,) = out
    combo = dot(syz, [el("2*x1^2"), el("3*x1*x2")])
    assert combo.is_zero()


def test_leading_syzygies_monomial_path(el, drl2):
    lfs = [el("x1^2"), el("x1^2*x2^2")]
    out = leading_syzygy_generators(lfs, drl2)
    assert len(out) == 1
    assert dot(out[0], lfs).is_zero()


def test_leading_syzygies_general_path(R2, el, total2):
    lfs = [el("x1^2 + x2^2"), el("x1^2*x2^2")]
    out = leading_syzygy_generators(lfs, total2)
    syzspec = syzygy_grading(total2, lfs)
    koszul = [ModuleElement(R2, (R2.parse("x1^2*x2^2"), R2.parse("-x1^2 - x2^2")))]
    for s in out:
        assert dot(s, lfs).is_zero()
        assert is_homogeneous(s, syzspec)
    # mutual generation against the coprime-pair syzygy; the output is only a
    # generating set, so membership in its span is tested against a completion
    for s in out:
        ok, _ = Reducer(koszul, syzspec).reduces_to_zero(s)
        assert ok
    completed = buchberger_algorithm(out, syzspec)
    for s in koszul:
        ok, _ = Reducer(list(completed.elements), syzspec).reduces_to_zero(s)
        assert ok


def test_leading_syzygies_single_element(el, total2):
    assert leading_syzygy_generators([el("x1^2 + x2^2")], total2) == []
    with pytest.raises(UsageError):
        leading_syzygy_generators([el("x1^2 + x2")], total2)


def test_leading_syzygies_refuse_zero_and_inhomogeneous_inputs(R2, el, total2, drl2):
    # the inputs' degrees come from the homogeneity scan, which refuses both
    zero = ModuleElement.from_terms(R2, 1, {})
    for spec in (total2, drl2):
        for bad in ([zero], [el("x1"), zero], [zero, el("x1")], [el("x1"), el("x1^2 + x2")]):
            with pytest.raises(UsageError, match="nonzero homogeneous"):
                leading_syzygy_generators(bad, spec)


def test_criterion_examples(el, total2, drl2, circle_pair):
    assert buchberger_criterion(circle_pair, total2).holds

    result = buchberger_criterion(circle_pair, drl2)
    assert not result.holds
    lead = leading_form(result.witness.remainder, drl2)
    assert lead.degree == (0, (0, 4)) and str(lead.element) == "x2^4"

    assert buchberger_criterion([el("x1^3 - x2")], total2).holds
    assert buchberger_criterion([], total2).holds
    with pytest.raises(UsageError, match="must be nonzero"):
        buchberger_criterion([el("x1"), el("0")], total2)


def test_product_criterion_is_rank_one_only(R2):
    # under POT degrevlex the leading monomials x1 e_0 and x2 e_0 of [x1, 1]
    # and [x2, 0] are coprime, yet their S-combination [0, x2] is irreducible
    spec = TermModuleGrading(TermOrderGrading.degrevlex(2), 2)
    X = [
        ModuleElement(R2, (R2.parse("x1"), R2.parse("1"))),
        ModuleElement(R2, (R2.parse("x2"), R2.parse("0"))),
    ]
    missing = ModuleElement(R2, (R2.parse("0"), R2.parse("x2")))
    result = buchberger_criterion(X, spec)
    assert not result.holds and result.witness.remainder == missing
    assert missing in buchberger_algorithm(X, spec).elements


@st.composite
def term_led_sets(draw):
    """Rank 1 or 2, then 2-3 nonzero elements of 1-3 terms over x, y, z.

    Four elements can complete to over a hundred, too slow for the all-pairs
    reference; with three, about half the inputs are bases already.
    """
    rank = draw(st.integers(1, 2))
    term = st.tuples(st.integers(0, rank - 1), st.tuples(*[st.integers(0, 2)] * 3))
    items = st.dictionaries(term, st.integers(-2, 2).filter(bool), min_size=1, max_size=3)
    return rank, draw(st.lists(items, min_size=2, max_size=3))


def _all_pairs_verdict(X, spec):
    """Does every pairwise lcm combination of X reduce to zero?  No criterion skips one."""
    reducer = Reducer(X, spec)
    lfs = [p.element for p in reducer.lf_parts]
    return all(reducer.reduces_to_zero(dot(s, X))[0] for s in _all_lcm_pairs(lfs, X[0].ring))


@pytest.mark.parametrize("tie", ["pot", "top"])
@pytest.mark.parametrize("order", ["degrevlex", "lex"])
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(case=term_led_sets())
def test_criterion_verdict_matches_all_pairs(order, tie, case):
    # the chain and product criteria change which pairs are reduced, never
    # the verdict, on bases and non-bases alike; completion's own pruning
    # leaves a set that the all-pairs reference accepts
    rank, items = case
    ring = PolyRing(RationalField(), ("x", "y", "z"))
    field = ring.field
    spec = TermModuleGrading(getattr(TermOrderGrading, order)(3), rank, tie=tie)
    X = [
        ModuleElement.from_terms(ring, rank, {t: field.from_int(c) for t, c in terms.items()})
        for terms in items
    ]
    assert buchberger_criterion(X, spec).holds == _all_pairs_verdict(X, spec)
    try:
        # a few inputs keep growing for many rounds (one rank-2 lex input
        # passes 1,500 unreduced elements in 8), too many for the reference
        basis = list(buchberger_algorithm(X, spec, BuchbergerConfig(max_iterations=5)).elements)
    except ResourceLimitError:
        return
    assert buchberger_criterion(basis, spec).holds and _all_pairs_verdict(basis, spec)


def test_buchberger_groebner_special_case(el, drl2, circle_pair):
    basis = buchberger_algorithm(circle_pair, drl2)
    red = interreduce(basis, drl2)
    assert list(red.elements) == [el("x1^2 + x2^2 - 1"), el("x2^4 - x2^2 + 1")]
    # matches the classical textbook loop bit for bit
    oracle = classic_buchberger([raw_poly(g.polys[0]) for g in circle_pair], drl_key)
    assert [raw_poly(m.polys[0]) for m in red.elements] == oracle


def test_buchberger_hbasis_fixed_point(total2, circle_pair):
    basis = buchberger_algorithm(circle_pair, total2)
    assert list(basis.elements) == circle_pair
    assert basis.certificate.holds


def test_buchberger_c4_completion(R2, el, total2, c4_triple):
    basis = buchberger_algorithm(c4_triple, total2)
    assert buchberger_criterion(list(basis.elements), total2).holds
    # the input generators are contained and every one reduces to zero
    for g in c4_triple:
        assert g in basis.elements
        ok, _ = Reducer(list(basis.elements), total2).reduces_to_zero(g)
        assert ok
    # completion finds the degree-2 element x1*x2
    assert el("x1*x2") in basis.elements
    # the full six-element set the construction reaches
    assert set(basis.elements) == {
        el("x1^2 + x2^2 - 1"),
        el("x1^2*x2^2"),
        el("x1^3*x2 - x1*x2^3"),
        el("x1^3 - x1*x2^2 - x1"),
        el("x1^2*x2 - x2^3 + x2"),
        el("x1*x2"),
    }
    # as ideals, the output equals the input (oracle cross-check)
    assert ideals_equal(
        [raw_poly(m.polys[0]) for m in basis.elements],
        [raw_poly(g.polys[0]) for g in c4_triple],
    )


def test_interreduce_examples(R2, el, drl2, total2, circle_pair):
    red = interreduce([el("x1"), el("x1 + x2")], drl2)
    assert set(red.elements) == {el("x1"), el("x2")}

    red = interreduce(circle_pair + [circle_pair[0]], total2)
    assert len(red.elements) == 2

    again = interreduce(list(red.elements), total2)
    assert list(again.elements) == list(red.elements)


def test_interreduced_circle_hbasis(el, total2, circle_pair):
    red = interreduce(circle_pair, total2)
    assert el("x1^2 + x2^2 - 1") in red.elements
    assert el("x1^4 - x1^2*x2^2 + x2^4 + 2") in red.elements
    assert degree_profile(red) == {2: 1, 4: 1}


def test_lift_syzygy_koszul(R2, el, total2, circle_pair):
    s = ModuleElement(R2, (R2.parse("x1^2*x2^2"), R2.parse("-x1^2 - x2^2")))
    t = lift_syzygy(s, circle_pair, total2)
    assert t == ModuleElement(R2, (R2.parse("x1^2*x2^2 - 1"), R2.parse("-x1^2 - x2^2 + 1")))
    assert dot(t, circle_pair).is_zero()
    syzspec = syzygy_grading(total2, [leading_form(m, total2).element for m in circle_pair])
    assert leading_form(t, syzspec).element == s


def test_lift_syzygy_monomial_case(R2, el, drl2):
    X = [el("x1^2 + x2^2 - 1"), el("x2^4 - x2^2 + 1")]
    lfs = [leading_form(m, drl2).element for m in X]
    (s,) = leading_syzygy_generators(lfs, drl2)
    t = lift_syzygy(s, X, drl2)
    assert dot(t, X).is_zero()
    syzspec = syzygy_grading(drl2, lfs)
    assert leading_form(t, syzspec).element == s


def test_lift_zero_syzygy(R2, el, total2, circle_pair):
    zero = ModuleElement.from_terms(R2, 2, {})
    assert lift_syzygy(zero, circle_pair, total2) == zero


def test_lift_requires_basis(R2, el, drl2, circle_pair):
    s = ModuleElement(R2, (R2.parse("x2^2"), R2.parse("-1")))
    with pytest.raises(UsageError):
        lift_syzygy(s, circle_pair, drl2)  # not a degrevlex basis


def test_degree_profile_examples(el, total2, drl2, circle_pair):
    red = interreduce(circle_pair, total2)
    assert degree_profile(red) == {2: 1, 4: 1}
    # a grading passed with a basis is used, as it is for a list of its elements
    assert degree_profile(red, drl2) == degree_profile(list(red), drl2) == {(0, (2, 0)): 1, (0, (4, 0)): 1}
    assert degree_profile([], total2) == {}
    with pytest.raises(UsageError, match="needs a grading"):
        degree_profile(list(red.elements))


def test_refinement_property(drl2, total2, circle_pair, c4_triple):
    # a degrevlex basis is also a basis for the coarser total grading
    for gens in (circle_pair, c4_triple):
        basis = buchberger_algorithm(gens, drl2)
        assert buchberger_criterion(list(basis.elements), total2).holds


def _per_degree_spans_equal(a, b, spec):
    da = degree_profile(list(a), spec)
    db = degree_profile(list(b), spec)
    if da != db:
        return False
    for degree in da:
        ea = [m for m in a if degree_profile([m], spec) == {degree: 1}]
        eb = [m for m in b if degree_profile([m], spec) == {degree: 1}]
        support = sorted({k for m in ea + eb for k in m.term_map()})
        rows_a, _ = raw_element_vectors(ea, support)
        rows_b, _ = raw_element_vectors(eb, support)
        if not all(in_span(rows_a, v) for v in rows_b):
            return False
        if not all(in_span(rows_b, v) for v in rows_a):
            return False
    return True


def test_uniqueness_under_generator_presentation(R2, total2, drl2, circle_pair, c4_triple):
    rng = random.Random(15)
    field = R2.field
    for gens, spec in ((circle_pair, total2), (c4_triple, total2), (circle_pair, drl2)):
        reference = interreduce(buchberger_algorithm(gens, spec), spec)
        for _ in range(3):
            shuffled = list(gens)
            rng.shuffle(shuffled)
            scaled = [m.scale(field.from_int(rng.choice([1, 2, -1, 5, -3]))) for m in shuffled]
            other = interreduce(buchberger_algorithm(scaled, spec), spec)
            assert degree_profile(other) == degree_profile(reference)
            assert _per_degree_spans_equal(reference.elements, other.elements, spec)


def test_same_degree_reduced_elements_are_orthogonal(total2, c4_triple):
    red = interreduce(buchberger_algorithm(c4_triple, total2), total2)
    by_degree = {}
    for m in red.elements:
        by_degree.setdefault(degree_profile([m], total2).popitem()[0], []).append(m)
    for group in by_degree.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                li = leading_form(group[i], total2).element.term_map()
                lj = leading_form(group[j], total2).element.term_map()
                inner = sum(Fraction(li[k]) * Fraction(lj[k]) for k in set(li) & set(lj))
                assert inner == 0


def test_resource_errors(total2, drl2, circle_pair, c4_triple):
    with pytest.raises(ResourceLimitError):
        buchberger_algorithm(c4_triple, total2, BuchbergerConfig(max_iterations=1))
    with pytest.raises(ResourceLimitError):
        buchberger_algorithm(circle_pair, drl2, BuchbergerConfig(degree_cap=2))


def test_normalization(el, total2):
    m = el("-3*x1^2 - 3*x2^2 + 3")
    assert normalize_element(m, total2) == el("x1^2 + x2^2 - 1")
    assert normalize_element(el("0"), total2) == el("0")


def test_zero_generators_dropped(el, total2):
    basis = buchberger_algorithm([el("0"), el("x1")], total2)
    assert list(basis.elements) == [el("x1")]
    empty = buchberger_algorithm([el("0")], total2)
    assert empty.elements == ()
    assert empty.certificate.holds


def test_rank_two_module_basis(R2):
    from macaulay.grading import TermModuleGrading, TermOrderGrading

    spec = TermModuleGrading(TermOrderGrading.degrevlex(2), 2, tie="pot")
    gens = [
        ModuleElement(R2, (R2.parse("x1"), R2.parse("x2"))),
        ModuleElement(R2, (R2.parse("x2"), R2.parse("x1"))),
    ]
    basis = buchberger_algorithm(gens, spec)
    assert buchberger_criterion(list(basis.elements), spec).holds
    reducer = Reducer(list(basis.elements), spec)
    # members of the submodule reduce to zero
    member = gens[0].mul_term((1, 0)) - gens[1].mul_term((0, 1))
    assert reducer.reduces_to_zero(member)[0]
    assert reducer.reduces_to_zero(ModuleElement(R2, (R2.parse("0"), R2.parse("x1^2 - x2^2"))))[0]
    # a vector outside the submodule does not
    outside = ModuleElement(R2, (R2.parse("1"), R2.parse("0")))
    assert not reducer.reduces_to_zero(outside)[0]


def test_three_variable_hbasis_completion(Q):
    from macaulay.grading import CoarseModuleGrading, TermModuleGrading, TermOrderGrading, TotalDegreeGrading
    from macaulay.polymod import PolyRing

    R3 = PolyRing(Q, ("x1", "x2", "x3"))
    el3 = lambda s: ModuleElement.from_polynomial(R3.parse(s))
    total3 = CoarseModuleGrading(TotalDegreeGrading(3), 1)
    gens = [el3("x1*x3^2 + x2"), el3("x2*x3^2 + x1")]
    hb = buchberger_algorithm(gens, total3)
    assert set(hb.elements) == {gens[0], gens[1], el3("x1^2 - x2^2")}
    assert buchberger_criterion(list(hb.elements), total3).holds
    red = interreduce(hb, total3)
    assert degree_profile(red) == {2: 1, 3: 2}
    # the degrevlex basis of the same ideal is degree compatible, so it also
    # passes the coarser criterion
    drl3 = TermModuleGrading(TermOrderGrading.degrevlex(3), 1)
    drlb = buchberger_algorithm(gens, drl3)
    assert buchberger_criterion(list(drlb.elements), total3).holds
    assert ideals_equal(
        [raw_poly(m.polys[0]) for m in hb.elements],
        [raw_poly(m.polys[0]) for m in drlb.elements],
    )


def test_cyclic3_degrevlex_known_basis(Q):
    from macaulay.grading import TermModuleGrading, TermOrderGrading
    from macaulay.polymod import PolyRing

    R3 = PolyRing(Q, ("x1", "x2", "x3"))
    el3 = lambda s: ModuleElement.from_polynomial(R3.parse(s))
    drl3 = TermModuleGrading(TermOrderGrading.degrevlex(3), 1)
    gens = [el3("x1 + x2 + x3"), el3("x1*x2 + x2*x3 + x3*x1"), el3("x1*x2*x3 - 1")]
    red = interreduce(buchberger_algorithm(gens, drl3), drl3)
    assert list(red.elements) == [
        el3("x1 + x2 + x3"),
        el3("x2^2 + x2*x3 + x3^2"),
        el3("x3^3 - 1"),
    ]
    oracle = classic_buchberger([raw_poly(g.polys[0]) for g in gens], drl_key)
    assert [raw_poly(m.polys[0]) for m in red.elements] == oracle


def test_lex_basis_of_circle_pair(R2, el, circle_pair):
    from macaulay.grading import TermModuleGrading, TermOrderGrading
    from oracles import lex_key

    lex2 = TermModuleGrading(TermOrderGrading.lex(2), 1)
    red = interreduce(buchberger_algorithm(circle_pair, lex2), lex2)
    assert set(red.elements) == {el("x1^2 + x2^2 - 1"), el("x2^4 - x2^2 + 1")}
    oracle = classic_buchberger([raw_poly(g.polys[0]) for g in circle_pair], lex_key)
    mine = sorted((raw_poly(m.polys[0]) for m in red.elements), key=str)
    assert mine == sorted(oracle, key=str)


def test_weighted_matrix_order_basis(el, circle_pair):
    from macaulay.grading import TermModuleGrading, TermOrderGrading

    weighted = TermModuleGrading(TermOrderGrading([[2, 1], [0, -1]]), 1)
    basis = buchberger_algorithm(circle_pair, weighted)
    assert buchberger_criterion(list(basis.elements), weighted).holds
    reducer = Reducer(list(basis.elements), weighted)
    for g in circle_pair:
        assert reducer.reduces_to_zero(g)[0]


def test_tiny_prime_fields(total2):
    from macaulay.coeff import PrimeField
    from macaulay.polymod import PolyRing

    for p in (2, 3):
        F = PrimeField(p)
        Rp = PolyRing(F, ("x1", "x2"))
        elp = lambda s: ModuleElement.from_polynomial(Rp.parse(s))
        gens = [elp("x1^2 + x2^2 - 1"), elp("x1^2*x2^2 - 1")]
        basis = buchberger_algorithm(gens, total2)
        assert buchberger_criterion(list(basis.elements), total2).holds
        reducer = Reducer(list(basis.elements), total2)
        assert all(reducer.reduces_to_zero(g)[0] for g in gens)


def test_c4_completion_over_prime_field(total2):
    from macaulay.coeff import PrimeField
    from macaulay.gradlin import PIVOT
    from macaulay.polymod import PolyRing

    F = PrimeField(32003)
    Rp = PolyRing(F, ("x1", "x2"))
    elp = lambda s: ModuleElement.from_polynomial(Rp.parse(s))
    gens = [elp("x1^2 + x2^2 - 1"), elp("x1^2*x2^2"), elp("x1^3*x2 - x1*x2^3")]
    basis = buchberger_algorithm(gens, total2, BuchbergerConfig(policy=PIVOT))
    assert len(basis.elements) == 6
    assert buchberger_criterion(list(basis.elements), total2).holds
    red = interreduce(basis, total2, PIVOT)
    assert set(red.elements) == {elp("x1*x2"), elp("x1^2 + x2^2 - 1")}
    assert degree_profile(red) == {2: 2}


def test_rank_two_coarse_hbasis(R2):
    from macaulay.grading import CoarseModuleGrading, TotalDegreeGrading

    spec = CoarseModuleGrading(TotalDegreeGrading(2), 2, shifts=(0, 1))
    gens = [
        ModuleElement(R2, (R2.parse("x1^2 - 1"), R2.parse("x2"))),
        ModuleElement(R2, (R2.parse("x2^2"), R2.parse("0"))),
    ]
    basis = buchberger_algorithm(gens, spec)
    assert buchberger_criterion(list(basis.elements), spec).holds
    reducer = Reducer(list(basis.elements), spec)
    for g in gens:
        assert reducer.reduces_to_zero(g)[0]


KATSURA3 = ("x + 2*y + 2*z - 1", "x^2 + 2*y^2 + 2*z^2 - x", "2*x*y + 2*y*z - y")


def _katsura3(Q):
    ring = PolyRing(Q, ("x", "y", "z"))
    return [ModuleElement.from_polynomial(ring.parse(t)) for t in KATSURA3]


def _record_criterion(monkeypatch):
    """(keywords, result, result on a fresh Reducer) of every criterion call through the module."""
    calls = []
    criterion = macbasis.buchberger_criterion

    def recording(X, spec, config=None, **kwargs):
        got = criterion(X, spec, config, **kwargs)
        calls.append((kwargs, got, criterion(X, spec, config)))
        return got

    monkeypatch.setattr(macbasis, "buchberger_criterion", recording)
    return calls


def test_interreduce_keeps_its_reducer_for_the_criterion(Q, count_reducers):
    drl3 = TermModuleGrading(TermOrderGrading.degrevlex(3), 1)
    completed = list(buchberger_algorithm(_katsura3(Q), drl3).elements)
    built = count_reducers()
    red = interreduce(completed, drl3)
    # one Reducer serves the one pass and the closing criterion (three before)
    assert len(built) == 1
    assert red.certificate == buchberger_criterion(list(red.elements), drl3) == (True, None)


def test_interreduce_certificate_matches_a_fresh_criterion(Q, monkeypatch):
    # a completion under this very grading passes its certificate on by
    # proof: no criterion runs, and the verdict is a fresh criterion's
    drl3 = TermModuleGrading(TermOrderGrading.degrevlex(3), 1)
    completed = buchberger_algorithm(_katsura3(Q), drl3)
    calls = _record_criterion(monkeypatch)
    red = interreduce(completed, drl3)
    assert calls == []
    assert red.certificate == buchberger_criterion(list(red.elements), drl3) == (True, None)

    # the generators alone are no basis: the criterion runs, and the failing
    # verdict, witness included, is the fresh Reducer's
    with pytest.raises(UsageError, match="requires a Macaulay basis"):
        interreduce(_katsura3(Q), drl3)
    (kwargs, got, fresh), = calls
    assert isinstance(kwargs["_reducer"], Reducer) and got == fresh and not got.holds


@pytest.mark.parametrize(
    "texts, reduced",
    [
        (["x1", "x1 + x2"], ["x1 + x2", "x1 - x2"]),
        (["x1^2 + x1*x2", "x2^2", "x1^2"], ["x1^2 + x1*x2", "x1^2 - x1*x2", "x2^2"]),
    ],
)
def test_interreduce_rebuilds_when_the_order_changes(el, total2, texts, reduced, monkeypatch, count_reducers):
    # 'x1' sorts before 'x1 + x2', but its reduction 'x1 - x2' sorts after it;
    # the expected bases are those of a fresh Reducer for every pass
    calls = _record_criterion(monkeypatch)
    built = count_reducers()
    red = interreduce([el(t) for t in texts], total2)
    assert [str(m) for m in red.elements] == reduced
    (kwargs, got, fresh), = calls
    assert got == fresh == red.certificate and got.holds
    # the pass Reducer was rebuilt once, for the new order, before the criterion
    assert built.index(kwargs["_reducer"]) == 1


def _interreduce_until_nothing_changes(elements, spec, policy=None):
    """(elements, certificate, passes) of interreduce as it was before its stop rule.

    The loop ends only after a pass that changes nothing at all, so it runs
    one confirmation pass after the last pass that changed some element.
    """
    parts = _distinct_normalized(elements, spec)
    elements, parts = list(parts), list(parts.values())
    reducer = None
    passes = 0
    for _ in range(100):
        order = _canonical_positions([spec.key(p.degree) for p in parts], elements)
        if order != list(range(len(order))):
            elements, parts = [elements[pos] for pos in order], [parts[pos] for pos in order]
            reducer = None
        if len(elements) < 2:
            break
        if reducer is None:
            reducer = Reducer(elements, spec, policy, parts=parts)
        passes += 1
        changed = False
        idx = 0
        while idx < len(elements):
            nf, _ = reducer.normal_form(elements[idx], skip=idx)
            if nf.is_zero():
                elements.pop(idx)
                parts.pop(idx)
                reducer.remove(idx)
                changed = True
                continue
            nf, part = _normalized(nf, spec)
            if nf != elements[idx]:
                elements[idx], parts[idx] = nf, part
                reducer.replace(idx, nf, part)
                changed = True
            idx += 1
        if not changed:
            break
    return elements, buchberger_criterion(elements, spec, _reducer=reducer), passes


CYCLIC4 = ("a + b + c + d", "a*b + b*c + c*d + d*a", "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1")
CYCLIC3 = ("x + y + z", "x*y + y*z + z*x", "x*y*z - 1")
C4 = ("x1^2 + x2^2 - 1", "x1^2*x2^2", "x1^3*x2 - x1*x2^3")
_Q, _FP = RationalField(), PrimeField(32003)

# name -> (variables, generators, field, total degree or degrevlex, policy, passes interreduce makes if pinned)
_FIXED_POINT_CASES = {
    "katsura3_q": ("x y z", KATSURA3, _Q, False, None, 1),
    "katsura3_fp": ("x y z", KATSURA3, _FP, False, None, None),
    "cyclic4_q": ("a b c d", CYCLIC4, _Q, False, None, None),
    "cyclic4_fp": ("a b c d", CYCLIC4, _FP, False, None, None),
    "c4_total_orthogonal": ("x1 x2", C4, _Q, True, ORTHOGONAL, None),
    "c4_total_pivot": ("x1 x2", C4, _Q, True, PIVOT, None),
    # a leading form changes in the first pass, so a second one must run
    "cyclic3_total_fp": ("x y z", CYCLIC3, _FP, True, None, 2),
}


@pytest.mark.parametrize("name", list(_FIXED_POINT_CASES))
def test_interreduce_stops_at_its_fixed_point(name, monkeypatch):
    # once a pass changes no leading form, every W_b and its complement are
    # final, so the loop that also runs the confirmation pass returns the same
    # elements in the same order, with the same certificate, one pass later
    names, texts, field, total, policy, passes = _FIXED_POINT_CASES[name]
    ring = PolyRing(field, tuple(names.split()))
    grading = TotalDegreeGrading(ring.nvars) if total else TermOrderGrading.degrevlex(ring.nvars)
    spec = (CoarseModuleGrading if total else TermModuleGrading)(grading, 1)
    gens = [ModuleElement.from_polynomial(ring.parse(t)) for t in texts]
    elements = list(buchberger_algorithm(gens, spec, BuchbergerConfig(policy=policy)))
    want, certificate, confirmed = _interreduce_until_nothing_changes(list(elements), spec, policy)
    skips = []
    normal_form = Reducer.normal_form

    def recording(self, m, skip=None):
        if skip is not None:  # the criterion's inner completions reduce with no skip
            skips.append(skip)
        return normal_form(self, m, skip)

    monkeypatch.setattr(Reducer, "normal_form", recording)
    got = interreduce(list(elements), spec, policy)
    monkeypatch.undo()
    assert list(got.elements) == want and got.certificate == certificate
    # a pass reduces X[0], X[1], ... in turn, and a drop repeats the index
    made = 1 + sum(b < a for a, b in zip(skips, skips[1:]))
    assert made in (confirmed - 1, confirmed)
    if passes is not None:
        # katsura-3's completion settles in its first pass, and the
        # confirmation pass is saved; cyclic-3's second pass changes nothing
        assert (made, confirmed) == (passes, 2)


@pytest.mark.parametrize("names, texts, total", [
    ("x y z", KATSURA3, False),
    ("x1 x2", C4, True),
], ids=["katsura3_degrevlex", "c4_total"])
def test_interreduce_reuses_the_completions_leading_parts(names, texts, total, monkeypatch):
    # a completion's elements are distinct and normalized, and its Reducer
    # held their leading parts: interreduce takes those under the same
    # grading object and gives what it gives on the bare element list
    ring = PolyRing(_Q, tuple(names.split()))

    def grading():
        if total:
            return CoarseModuleGrading(TotalDegreeGrading(ring.nvars), 1)
        return TermModuleGrading(TermOrderGrading.degrevlex(ring.nvars), 1)

    spec, other = grading(), grading()
    basis = buchberger_algorithm([ModuleElement.from_polynomial(ring.parse(t)) for t in texts], spec)
    # the calls under either outer grading; the criterion's syzygy work has its own
    calls = []
    distinct = macbasis._distinct_normalized

    def counting(elements, grading):
        if grading is spec or grading is other:
            calls.append(grading)
        return distinct(elements, grading)

    monkeypatch.setattr(macbasis, "_distinct_normalized", counting)
    got = interreduce(basis, spec)
    assert calls == []
    want = interreduce(list(basis.elements), spec)
    assert calls == [spec]
    assert list(got.elements) == list(want.elements)
    assert got.certificate.holds and want.certificate.holds
    # an equal grading that is another object normalizes the elements afresh
    assert list(interreduce(basis, other).elements) == list(want.elements)
    assert calls == [spec, other]


@pytest.mark.parametrize("field", [_Q, _FP], ids=repr)
def test_completion_and_interreduction_render_no_element(field, monkeypatch):
    # lcm pairs are ordered from their indices and coefficients, and
    # interreduce orders elements of distinct leading terms by degree alone
    def refuse(self):
        raise AssertionError("an element was rendered")

    for names, texts in (("x y z", KATSURA3), ("a b c d", CYCLIC4)):
        ring = PolyRing(field, tuple(names.split()))
        spec = TermModuleGrading(TermOrderGrading.degrevlex(ring.nvars), 1)
        gens = [ModuleElement.from_polynomial(ring.parse(t)) for t in texts]
        monkeypatch.setattr(ModuleElement, "__str__", refuse)
        red = interreduce(buchberger_algorithm(gens, spec), spec)
        monkeypatch.undo()
        assert red.certificate.holds


def test_cyclic3_total_degree_interreduce(Q):
    # the leading forms are not monomials, so the closing criterion takes the
    # elimination route: a nested completion over N + R^3
    R3 = PolyRing(Q, ("x", "y", "z"))
    el3 = lambda s: ModuleElement.from_polynomial(R3.parse(s))
    total3 = CoarseModuleGrading(TotalDegreeGrading(3), 1)
    gens = [el3("x + y + z"), el3("x*y + y*z + z*x"), el3("x*y*z - 1")]
    red = interreduce(gens, total3)
    assert degree_profile(red) == {1: 1, 2: 1, 3: 1}
    assert buchberger_criterion(list(red.elements), total3).holds
    assert ideals_equal(
        [raw_poly(m.polys[0]) for m in red.elements],
        [raw_poly(g.polys[0]) for g in gens],
    )
