"""Derandomized property tests: the reducer against the oracles, the grading
order keys against the three-way comparator formulas they replace, the
elimination-route order's degrees and multipliers against direct formulas,
every module grading's component monomials against the canonical order,
term-module degrees against the ring grading's degree-plus-shift, every
module grading's memo of monomial keys and degrees against direct
computation and leading forms and homogeneous parts against a brute-force
maximum and sort, the
elimination route's syzygies, fresh and resumed, against kernel dimensions,
resumed and fresh inner completions against each other, reduced
total-degree, degrevlex and lex bases against reordering and rescaling of
their inputs and against the textbook Buchberger oracle, normal
forms for linearity and idempotence, and the complement projections against
the raw generator rows."""

import itertools
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    classic_buchberger,
    classic_reduce,
    drl_key,
    ideal_member,
    in_span,
    lex_key,
    monomials_of_degree,
    rank_of,
    raw_element_vectors,
    raw_poly,
    rref_fractions,
)

from macaulay import macbasis
from macaulay.coeff import PrimeField, RationalField
from macaulay.grading import (
    BlockGrading,
    CoarseModuleGrading,
    ModuleGrading,
    SyzygyGrading,
    TermModuleGrading,
    TermOrderGrading,
    TotalDegreeGrading,
    degrevlex_key,
)
from macaulay.gradlin import ORTHOGONAL, PIVOT, component_monomials, project_complement, w_space
from macaulay.macbasis import (
    BuchbergerConfig,
    _ExtendedOrder,
    _InnerBasis,
    buchberger_algorithm,
    buchberger_criterion,
    canonical_order,
    interreduce,
    leading_syzygy_generators,
    normalize_element,
    syzygy_grading,
)
from macaulay.polymod import (
    ModuleElement,
    PolyRing,
    Polynomial,
    degree_of,
    homogeneous_components,
    is_homogeneous,
    leading_form,
)
from macaulay.reduction import Reducer, dot

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)

KATSURA3 = ("x + 2*y + 2*z - 1", "x^2 + 2*y^2 + 2*z^2 - x", "2*x*y + 2*y*z - y")

exponents = st.tuples(*[st.integers(0, 3)] * 3)
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
raw_polys = st.dictionaries(exponents, coefficients, max_size=5)


@pytest.fixture(scope="module")
def katsura():
    """(ring, reducer over the reduced katsura-3 basis, oracle Groebner basis)."""
    ring = PolyRing(RationalField(), ("x", "y", "z"))
    spec = TermModuleGrading(TermOrderGrading.degrevlex(3), 1)
    gens = [ModuleElement.from_polynomial(ring.parse(t)) for t in KATSURA3]
    basis = interreduce(buchberger_algorithm(gens, spec), spec)
    oracle = classic_buchberger([raw_poly(g.polys[0]) for g in gens], drl_key)
    # under a term order the reduced Macaulay basis is the reduced Groebner basis
    assert {frozenset(raw_poly(m.polys[0]).items()) for m in basis} == {
        frozenset(g.items()) for g in oracle
    }
    return ring, Reducer(list(basis.elements), spec), oracle


def _element(ring, raw):
    return ModuleElement.from_polynomial(Polynomial(ring, raw))


@PROPERTY
@given(raw=raw_polys)
def test_normal_form_matches_classic_remainder(katsura, raw):
    ring, reducer, oracle = katsura
    nf, trace = reducer.normal_form(_element(ring, raw))
    assert raw_poly(nf.polys[0]) == classic_reduce(raw, oracle, drl_key)
    assert trace.final + trace.representation_sum(reducer.X) == _element(ring, raw)


@PROPERTY
@given(multipliers=st.lists(raw_polys, min_size=3, max_size=3), extra=raw_polys)
def test_membership_matches_oracle(katsura, multipliers, extra):
    ring, reducer, oracle = katsura
    m = _element(ring, extra)
    for g, r in zip(reducer.X, multipliers):
        m = m + g.action(Polynomial(ring, r))
    ok, trace = reducer.reduces_to_zero(m)
    assert ok == ideal_member(raw_poly(m.polys[0]), oracle)
    assert trace.final + trace.representation_sum(reducer.X) == m


# ---------------------------------------------------------------------------
# order keys against the comparator formulas


def _sign(x):
    return (x > 0) - (x < 0)


def reference_compare(spec, a, b):
    """The three-way comparisons the gradings computed before they had keys."""
    if isinstance(spec, TotalDegreeGrading):
        return _sign(a - b)
    if isinstance(spec, TermOrderGrading):
        for row in spec.rows:
            w = sum(r * (x - y) for r, x, y in zip(row, a, b))
            if w != 0:
                return _sign(w)
        return 0
    if isinstance(spec, BlockGrading):
        if a[1] != b[1]:
            return _sign(a[1] - b[1])
        return _sign(a[0] - b[0])
    if isinstance(spec, CoarseModuleGrading):
        return reference_compare(spec.ring, a, b)
    # a TermModuleGrading with its own key, so it is matched first
    if isinstance(spec, _ExtendedOrder):
        (i, u), (j, v) = a, b
        bi, bj = int(i >= spec.base_rank), int(j >= spec.base_rank)
        if bi != bj:
            return 1 if bi < bj else -1
        if bi == 1:
            si = spec.syz.degree_of_term(i - spec.base_rank, u)
            sj = spec.syz.degree_of_term(j - spec.base_rank, v)
            c = reference_compare(spec.syz, si, sj)
            if c != 0:
                return c
        c = reference_compare(spec.ring, u, v)
        return c if c != 0 else _sign(j - i)
    if isinstance(spec, TermModuleGrading):
        if spec.tie == "pot":
            if a[0] != b[0]:
                return 1 if a[0] < b[0] else -1
            return reference_compare(spec.ring, a[1], b[1])
        c = reference_compare(spec.ring, a[1], b[1])
        return c if c != 0 else _sign(b[0] - a[0])
    if isinstance(spec, SyzygyGrading):
        return reference_compare(spec.base, a, b)
    raise TypeError(spec)


def _gradings():
    total = TotalDegreeGrading(3)
    drl = TermOrderGrading.degrevlex(3)
    weighted = TermOrderGrading([[2, 1, 3], [0, -1, 0], [1, 0, 0]])
    coarse = CoarseModuleGrading(total, 2, shifts=(0, 1))
    shifts = ((0, 0, 0), (1, 0, 0), (0, 0, 2))
    top = TermModuleGrading(weighted, 3, shifts=shifts, tie="top")
    syz_total = SyzygyGrading(coarse, (2, 3, 3))
    return {
        "total": total,
        "degrevlex": drl,
        "lex": TermOrderGrading.lex(3),
        "matrix": weighted,
        "block": BlockGrading(3, (0,)),
        "coarse": coarse,
        "coarse-block": CoarseModuleGrading(BlockGrading(3, (0,)), 2, shifts=((0, 0), (0, 1))),
        "pot": TermModuleGrading(drl, 3, shifts=shifts, tie="pot"),
        "top": top,
        "syzygy-coarse": syz_total,
        "syzygy-top": SyzygyGrading(top, ((0, (1, 1, 0)), (1, (1, 0, 0)), (2, (0, 0, 2)))),
        "extended": _ExtendedOrder(syz_total, 2),
    }


GRADINGS = _gradings()


# small exponents, so that equal monomials in different components (the
# tie-breaks) come up often
module_terms = st.lists(
    st.tuples(st.integers(0, 4), st.tuples(*[st.integers(0, 2)] * 3)), min_size=2, max_size=12
)


@pytest.mark.parametrize("name", sorted(GRADINGS))
@PROPERTY
@given(terms=module_terms)
def test_key_order_matches_reference_comparator(name, terms):
    spec = GRADINGS[name]
    if isinstance(spec, ModuleGrading):
        degrees = [spec.degree_of_term(comp % spec.rank, exps) for comp, exps in terms]
    else:
        degrees = [spec.degree(exps) for _, exps in terms]
    expected = sorted(degrees, key=cmp_to_key(lambda a, b: reference_compare(spec, a, b)))
    assert sorted(degrees, key=spec.key) == expected
    assert sorted(degrees, key=spec.key, reverse=True) == expected[::-1]
    for a in degrees:
        for b in degrees:
            ka, kb = spec.key(a), spec.key(b)
            assert (ka > kb) - (ka < kb) == reference_compare(spec, a, b)


# reference formulas for the structure of the elimination-route order, a
# module term order with zero shifts: a degree is (component, exponents) and
# holds exactly one module monomial


def prefold_degree_of_term(comp, exps):
    return (comp, tuple(exps))


def prefold_translate(deg, exps):
    comp, u = deg
    return (comp, tuple(a + b for a, b in zip(u, exps)))


def prefold_multipliers(source, target):
    if source[0] != target[0]:
        return []
    diff = tuple(a - b for a, b in zip(target[1], source[1]))
    return [diff] if all(v >= 0 for v in diff) else []


def prefold_component_monomials(deg):
    comp, u = deg
    return [(comp, u)] if all(v >= 0 for v in u) else []


@PROPERTY
@given(terms=module_terms)
def test_extended_order_matches_prefold_formulas(terms):
    spec = GRADINGS["extended"]
    assert spec.rank == 5
    degrees = [spec.degree_of_term(comp, exps) for comp, exps in terms]
    assert degrees == [prefold_degree_of_term(comp, exps) for comp, exps in terms]
    for a in degrees:
        assert spec.component_monomials(a) == prefold_component_monomials(a)
        for _, exps in terms:
            assert spec.translate(a, exps) == prefold_translate(a, exps)
        for b in degrees:
            assert spec.multipliers(a, b) == prefold_multipliers(a, b)


def prefold_canonical(mons):
    """The component basis order gradlin sorted into: no repeats, component ascending, degrevlex descending inside."""
    mons = sorted(set(mons), key=lambda t: degrevlex_key(t[1]), reverse=True)
    return sorted(mons, key=lambda t: t[0])


@pytest.mark.parametrize("name", sorted(n for n, spec in GRADINGS.items() if isinstance(spec, ModuleGrading)))
@PROPERTY
@given(terms=module_terms)
def test_component_monomials_come_canonical(name, terms):
    # every module grading lists a component's monomials in the canonical
    # order, once each, so gradlin takes the list as it is; each listed
    # monomial has the component's degree, and the term itself is listed
    spec = GRADINGS[name]
    for comp, exps in terms:
        term = (comp % spec.rank, exps)
        degree = spec.degree_of_term(*term)
        mons = spec.component_monomials(degree)
        assert mons == prefold_canonical(mons)
        assert term in mons
        assert all(spec.degree_of_term(*t) == degree for t in mons)
        assert component_monomials(spec, degree).monomials == tuple(mons)


@pytest.mark.parametrize("name", ["pot", "top", "extended"])
@PROPERTY
@given(terms=module_terms)
def test_term_module_degree_matches_ring_formula(name, terms):
    # the one-tuple degree equals the ring grading's degree plus the shift
    spec = GRADINGS[name]
    for comp, exps in terms:
        comp %= spec.rank
        expected = (comp, spec.ring.add(spec.ring.degree(exps), spec.shifts[comp]))
        assert spec.degree_of_term(comp, exps) == expected


@pytest.mark.parametrize("name", sorted(n for n, spec in GRADINGS.items() if isinstance(spec, ModuleGrading)))
@PROPERTY
@given(terms=module_terms)
def test_term_entries_match_degree_and_key(name, terms):
    # the grading's one memo holds each monomial's key and degree as computed
    # directly, and leading forms and homogeneous parts order terms by them
    spec = GRADINGS[name]
    ring = PolyRing(RationalField(), ("x", "y", "z"))
    terms = {(comp % spec.rank, exps): Fraction(k + 1) for k, (comp, exps) in enumerate(terms)}
    degrees = {}
    for t in terms:
        degree = degrees[t] = spec.degree_of_term(*t)
        assert spec.term_entry(t) == spec.term_entries[t] == (spec.key(degree), degree, t)
    m = ModuleElement.from_terms(ring, spec.rank, terms)
    top = max(degrees.values(), key=spec.key)
    lead = leading_form(m, spec)
    assert lead.degree == top
    assert dict(lead.element.term_map()) == {t: c for t, c in terms.items() if degrees[t] == top}
    by_key = sorted(set(degrees.values()), key=spec.key, reverse=True)
    assert [(p.degree, dict(p.element.term_map())) for p in homogeneous_components(m, spec)] == [
        (deg, {t: c for t, c in terms.items() if degrees[t] == deg}) for deg in by_key
    ]


# ---------------------------------------------------------------------------
# the elimination route generates every leading-form syzygy


@st.composite
def homogeneous_forms(draw, count=(2, 3)):
    """Rank, then 2-3 (or ``count``) homogeneous elements of degree 1-2 with 2-3 terms each."""
    rank = draw(st.integers(1, 2))
    forms = []
    for _ in range(draw(st.integers(*count))):
        d = draw(st.integers(1, 2))
        support = st.tuples(st.integers(0, rank - 1), st.sampled_from(monomials_of_degree(3, d)))
        terms = draw(st.dictionaries(support, st.integers(-3, 3).filter(bool), min_size=2, max_size=3))
        forms.append(terms)
    return rank, forms


def _graded_span_rank(elements, degrees, b):
    """Rank of the degree-b monomial multiples of homogeneous elements."""
    multiples = [
        m.mul_term(mono)
        for m, d in zip(elements, degrees)
        if d <= b
        for mono in monomials_of_degree(3, b - d)
    ]
    return rank_of(raw_element_vectors(multiples)[0]) if multiples else 0


def _forms(rank, forms):
    ring = PolyRing(RationalField(), ("x", "y", "z"))
    field = ring.field
    spec = CoarseModuleGrading(TotalDegreeGrading(3), rank)
    lfs = [
        ModuleElement.from_terms(ring, rank, {key: field.from_int(c) for key, c in terms.items()})
        for terms in forms
    ]
    return spec, lfs


def _assert_spans_the_kernel(out, lfs, spec, top=0):
    """Every multiple of a syzygy is one, so equal dimensions mean the
    syzygies span the whole kernel of sum R_{b - d_i} -> N_b, for b up to
    the generator degrees plus one, or ``top``."""
    syzspec = syzygy_grading(spec, lfs)
    lf_degrees = [degree_of(m, spec) for m in lfs]
    out_degrees = [degree_of(s, syzspec) for s in out]
    for b in range(max(lf_degrees + out_degrees + [top]) + 2):
        domain = sum(len(monomials_of_degree(3, b - d)) for d in lf_degrees if d <= b)
        kernel = domain - _graded_span_rank(lfs, lf_degrees, b)
        assert _graded_span_rank(out, out_degrees, b) == kernel


@PROPERTY
@given(case=homogeneous_forms())
def test_elimination_route_generates_the_syzygies(case):
    spec, lfs = _forms(*case)
    out = leading_syzygy_generators(lfs, spec)
    syzspec = syzygy_grading(spec, lfs)
    for s in out:
        assert is_homogeneous(s, syzspec)
        assert dot(s, lfs).is_zero()
    # since keeps the generators that involve an element from that index on, in order
    for since in range(1, len(lfs) + 1):
        assert leading_syzygy_generators(lfs, spec, since=since) == [
            s for s in out if any(not p.is_zero() for p in s.polys[since:])
        ]
    _assert_spans_the_kernel(out, lfs, spec)


def _check_resumed_route(lfs, spec, k, config=None):
    """Resume the inner basis of lfs[:k] with the rest appended and check the
    result; return the resumed inner basis."""
    n = len(lfs)
    inner = _InnerBasis()
    head = leading_syzygy_generators(lfs[:k], spec, _inner=inner)
    assert inner.n == k
    settled = inner.elements
    tail = leading_syzygy_generators(lfs, spec, config, since=k, _inner=inner)
    # the resumed basis extends the settled one, re-ranked into N + R^n
    assert inner.n == n
    assert [g.term_map() for g in inner.elements[: len(settled)]] == [g.term_map() for g in settled]
    assert all(g.rank == settled[0].rank + n - k for g in inner.elements)
    syzspec = syzygy_grading(spec, lfs)
    for s in tail:
        assert is_homogeneous(s, syzspec)
        assert dot(s, lfs).is_zero()
        assert any(i >= k for i, _ in s.term_map())
    # the prefix's generators and the resumed ones together generate the
    # syzygies of all; the fresh route generates (the property above), so
    # spanning up to its generator degrees proves it
    ring = lfs[0].ring
    out = [ModuleElement._wrap(ring, n, s.term_map()) for s in head] + tail
    fresh = leading_syzygy_generators(lfs, spec)
    top = max((degree_of(s, syzspec) for s in fresh), default=0)
    _assert_spans_the_kernel(out, lfs, spec, top)
    return inner


@settings(PROPERTY, max_examples=15)
@given(case=homogeneous_forms(count=(3, 4)), data=st.data())
def test_resumed_elimination_route_completes_the_syzygies(case, data):
    spec, lfs = _forms(*case)
    _check_resumed_route(lfs, spec, data.draw(st.integers(2, len(lfs) - 1)))


# rank 2, four forms: when the inner completion adjoined a round's normal
# forms only at the round's end, the resumed inner basis passed 380 elements
# here (the fresh one had 51), many of them sharing a leading term
CROWDED_FORMS = [
    {(0, (1, 1, 0)): -3, (0, (0, 2, 0)): 2, (1, (1, 1, 0)): -3},
    {(0, (2, 0, 0)): -2, (0, (0, 2, 0)): 3, (0, (1, 1, 0)): 1},
    {(1, (1, 0, 0)): 2, (1, (0, 0, 1)): -2, (0, (0, 1, 0)): 2},
    {(0, (1, 0, 0)): -3, (1, (1, 0, 0)): -1, (0, (0, 0, 1)): 2},
]


@pytest.mark.parametrize("k", [2, 3])
def test_resumed_inner_basis_stays_small(k):
    spec, lfs = _forms(2, CROWDED_FORMS)
    # five rounds finish it; the cap makes a regrowth fail fast
    inner = _check_resumed_route(lfs, spec, k, BuchbergerConfig(max_iterations=6))
    assert len(inner.elements) <= 20


TOTAL_DEGREE_PROBLEMS = {
    "c4": (("x1", "x2"), ("x1^2 + x2^2 - 1", "x1^2*x2^2", "x1^3*x2 - x1*x2^3")),
    "cyclic3": (("x", "y", "z"), ("x + y + z", "x*y + y*z + z*x", "x*y*z - 1")),
    "katsura3": (("x", "y", "z"), KATSURA3),
}


@pytest.mark.parametrize("name", sorted(TOTAL_DEGREE_PROBLEMS))
def test_resumed_inner_completion_keeps_reduced_bases(name, monkeypatch):
    names, texts = TOTAL_DEGREE_PROBLEMS[name]
    ring = PolyRing(RationalField(), names)
    spec = CoarseModuleGrading(TotalDegreeGrading(len(names)), 1)
    gens = [ModuleElement.from_polynomial(ring.parse(t)) for t in texts]
    original = macbasis.leading_syzygy_generators
    resumes = []

    def resuming(*args, _inner=None, **kwargs):
        resumes.append(_inner is not None and _inner.n == kwargs.get("since"))
        return original(*args, _inner=_inner, **kwargs)

    monkeypatch.setattr(macbasis, "leading_syzygy_generators", resuming)
    resumed = buchberger_algorithm(gens, spec)
    assert buchberger_criterion(list(resumed.elements), spec).holds
    reduced = interreduce(resumed, spec).elements
    # the reference runs every round's inner completion afresh
    monkeypatch.setattr(
        macbasis, "leading_syzygy_generators", lambda *args, _inner=None, **kwargs: original(*args, **kwargs)
    )
    fresh = buchberger_algorithm(gens, spec)
    monkeypatch.undo()
    assert buchberger_criterion(list(fresh.elements), spec).holds
    assert interreduce(fresh, spec).elements == reduced
    # C4 takes several elimination rounds, so there the resume was exercised
    assert any(resumes) == (name == "c4")


# ---------------------------------------------------------------------------
# reduced bases do not depend on the order or the scale of the inputs

INVARIANCE_PROBLEMS = {name: TOTAL_DEGREE_PROBLEMS[name] for name in ("c4", "katsura3")}


INVARIANCE_GRADINGS = {
    "total": lambda nvars: CoarseModuleGrading(TotalDegreeGrading(nvars), 1),
    "degrevlex": lambda nvars: TermModuleGrading(TermOrderGrading.degrevlex(nvars), 1),
    "lex": lambda nvars: TermModuleGrading(TermOrderGrading.lex(nvars), 1),
}


def _reduced_basis(name, grading, order, scales):
    names, texts = INVARIANCE_PROBLEMS[name]
    ring = PolyRing(RationalField(), names)
    spec = INVARIANCE_GRADINGS[grading](len(names))
    gens = [
        ModuleElement.from_polynomial(ring.parse(texts[i])).scale(c) for i, c in zip(order, scales)
    ]
    return interreduce(buchberger_algorithm(gens, spec), spec).elements


@pytest.fixture(scope="module")
def reference_bases():
    """The reduced basis of each problem and grading, from the generators as written.

    Under a term order it is the reduced Groebner basis, so it must equal the
    textbook Buchberger oracle's; completion skips pairs by criteria that
    depend on the generator order, which the invariance tests then vary.
    """
    out = {}
    for name, (names, texts) in INVARIANCE_PROBLEMS.items():
        ring = PolyRing(RationalField(), names)
        for grading in INVARIANCE_GRADINGS:
            basis = out[name, grading] = _reduced_basis(name, grading, (0, 1, 2), (1, 1, 1))
            if grading != "total":
                raws = [raw_poly(ring.parse(t)) for t in texts]
                oracle = classic_buchberger(raws, {"degrevlex": drl_key, "lex": lex_key}[grading])
                assert {frozenset(raw_poly(m.polys[0]).items()) for m in basis} == {
                    frozenset(g.items()) for g in oracle
                }
    return out


# total degree keeps the bare problem name as its id
INVARIANCE_CASES = [
    pytest.param(name, grading, id=name if grading == "total" else f"{name}-{grading}")
    for name in sorted(INVARIANCE_PROBLEMS)
    for grading in INVARIANCE_GRADINGS
]


@pytest.mark.parametrize("name, grading", INVARIANCE_CASES)
def test_reduced_basis_invariant_under_generator_order(reference_bases, name, grading):
    for order in itertools.permutations(range(3)):
        assert _reduced_basis(name, grading, order, (1, 1, 1)) == reference_bases[name, grading]


@pytest.mark.parametrize("name, grading", INVARIANCE_CASES)
@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(order=st.permutations(range(3)), scales=st.lists(coefficients, min_size=3, max_size=3))
def test_reduced_basis_invariant_under_rescaling(reference_bases, name, grading, order, scales):
    assert _reduced_basis(name, grading, order, scales) == reference_bases[name, grading]


# ---------------------------------------------------------------------------
# complement projections against the raw generator rows


@st.composite
def projection_cases(draw):
    """Rank, 1-3 homogeneous forms of degree 1-2, and a degree-b element, b in 1-3."""
    rank = draw(st.integers(1, 2))
    forms = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 2))
        support = st.tuples(st.integers(0, rank - 1), st.sampled_from(monomials_of_degree(3, d)))
        forms.append(draw(st.dictionaries(support, st.integers(-3, 3).filter(bool), min_size=1, max_size=4)))
    b = draw(st.integers(1, 3))
    support = st.tuples(st.integers(0, rank - 1), st.sampled_from(monomials_of_degree(3, b)))
    element = draw(st.dictionaries(support, st.integers(-4, 4).filter(bool), min_size=1, max_size=6))
    return rank, forms, b, element


def _projection_setup(case, field):
    rank, forms, b, element = case
    ring = PolyRing(field, ("x", "y", "z"))
    spec = CoarseModuleGrading(TotalDegreeGrading(3), rank)
    X = [
        ModuleElement.from_terms(ring, rank, {key: field.from_int(c) for key, c in terms.items()})
        for terms in forms
    ]
    m = ModuleElement.from_terms(ring, rank, {key: field.from_int(c) for key, c in element.items()})
    multiples = [
        x.mul_term(mono)
        for x, d in zip(X, (degree_of(x, spec) for x in X))
        if d <= b
        for mono in monomials_of_degree(3, b - d)
    ]
    return ring, rank, X, m, multiples, w_space(X, b, spec)


def _reexpanded(ring, rank, X, decomposition):
    acc = ModuleElement.from_terms(ring, rank, {})
    for idx, mult, c in decomposition:
        acc = acc + X[idx].mul_term(mult, c)
    return acc


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(case=projection_cases(), policy=st.sampled_from([PIVOT, ORTHOGONAL]))
def test_projection_matches_raw_rows_over_q(case, policy):
    ring, rank, X, m, multiples, sub = _projection_setup(case, RationalField())
    support = list(sub.ambient.monomials)
    kept, decomposition = project_complement(m.term_map(), sub, policy)
    w_part = m - ModuleElement.from_terms(ring, rank, kept)
    # the forms are homogeneous, so each is its own leading form
    assert _reexpanded(ring, rank, X, decomposition) == w_part
    raw_rows, _ = raw_element_vectors(multiples, support) if multiples else ([], support)
    if raw_rows:
        assert in_span(raw_rows, raw_element_vectors([w_part], support)[0][0])
    else:
        assert w_part.is_zero()
    kept_vec = raw_element_vectors([ModuleElement.from_terms(ring, rank, kept)], support)[0][0]
    if policy == ORTHOGONAL:
        assert all(sum(a * b for a, b in zip(row, kept_vec)) == 0 for row in raw_rows)
    else:
        pivots = rref_fractions(raw_rows)[1] if raw_rows else []
        assert all(kept_vec[p] == 0 for p in pivots)


@PROPERTY
@given(case=projection_cases())
def test_pivot_projection_laws_over_fp(case):
    ring, rank, X, m, _, sub = _projection_setup(case, PrimeField(32003))
    kept, decomposition = project_complement(m.term_map(), sub, PIVOT)
    pivot_monomials = {sub.ambient.monomials[p] for p in sub.pivots}
    assert not pivot_monomials & set(kept)
    assert _reexpanded(ring, rank, X, decomposition) == m - ModuleElement.from_terms(ring, rank, kept)


# ---------------------------------------------------------------------------
# interreduction against a fresh Reducer for every element


def _reference_interreduce(elements, spec, policy):
    """interreduce's fixed-point loop, reducing each element by a fresh Reducer over the others."""
    elements = [normalize_element(m, spec) for m in elements if not m.is_zero()]
    elements = list(dict.fromkeys(elements))
    for _ in range(100):
        elements = canonical_order(elements, spec)
        changed = False
        for idx in range(len(elements)):
            rest = elements[:idx] + elements[idx + 1 :]
            if not rest:
                continue
            nf, _ = Reducer(rest, spec, policy).normal_form(elements[idx])
            if nf.is_zero():
                elements.pop(idx)
                changed = True
                break
            nf = normalize_element(nf, spec)
            if nf != elements[idx]:
                elements[idx] = nf
                changed = True
        if not changed:
            return tuple(elements)
    raise AssertionError("reference interreduction did not stabilize")


@st.composite
def triangular_sets(draw):
    """Rank, then 2-4 homogeneous forms h_i of degree 1-3, each plus multiples of
    lower-degree forms: m_i = h_i + sum c x^a h_j with deg x^a h_j < deg h_i.

    The m_i generate the graded module the h_i do and have leading forms h_i,
    so they are a Macaulay basis, and reducing m_i visits degrees below its own.
    """
    rank = draw(st.integers(1, 2))
    forms = []
    for _ in range(draw(st.integers(2, 4))):
        d = draw(st.integers(1, 3))
        support = st.tuples(st.integers(0, rank - 1), st.sampled_from(monomials_of_degree(3, d)))
        forms.append((d, draw(st.dictionaries(support, st.integers(-3, 3).filter(bool), min_size=1, max_size=3))))
    lower = []
    for i, (d, _) in enumerate(forms):
        for j, (dj, _) in enumerate(forms):
            if dj < d and draw(st.booleans()):
                mono = draw(st.sampled_from(monomials_of_degree(3, draw(st.integers(0, d - dj - 1)))))
                lower.append((i, j, mono, draw(st.integers(-2, 2).filter(bool))))
    return rank, [terms for _, terms in forms], lower


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(case=triangular_sets(), policy=st.sampled_from([PIVOT, ORTHOGONAL]))
def test_interreduce_matches_fresh_reducer_reference(case, policy):
    rank, forms, lower = case
    ring = PolyRing(RationalField(), ("x", "y", "z"))
    spec = CoarseModuleGrading(TotalDegreeGrading(3), rank)
    field = ring.field
    hs = [
        ModuleElement.from_terms(ring, rank, {key: field.from_int(c) for key, c in terms.items()})
        for terms in forms
    ]
    ms = list(hs)
    for i, j, mono, c in lower:
        ms[i] = ms[i] + hs[j].mul_term(mono, field.from_int(c))
    expected = _reference_interreduce(ms, spec, policy)
    got = interreduce(ms, spec, policy).elements
    assert got == expected
    assert [str(m) for m in got] == [str(m) for m in expected]


@st.composite
def redundant_extras(draw):
    """Recipes for 1-4 elements lying in a basis' module: a duplicate, a
    scalar multiple, a sum of two members, or a monomial multiple of one."""
    recipes = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["duplicate", "scale", "sum", "multiple"]))
        i, j = draw(st.integers(0, 50)), draw(st.integers(0, 50))
        c = draw(st.integers(-3, 3).filter(bool))
        mono = draw(st.sampled_from(monomials_of_degree(3, draw(st.integers(1, 2)))))
        recipes.append((kind, i, j, c, mono))
    return recipes


def _extra(basis, recipe, field):
    kind, i, j, c, mono = recipe
    a, b = basis[i % len(basis)], basis[j % len(basis)]
    if kind == "duplicate":
        return a
    if kind == "scale":
        return a.scale(field.from_int(c))
    if kind == "sum":
        return a + b.scale(field.from_int(c))
    return a.mul_term(mono, field.from_int(c))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    case=triangular_sets(),
    recipes=redundant_extras(),
    order=st.sampled_from(["total", "degrevlex"]),
    policy=st.sampled_from([PIVOT, ORTHOGONAL]),
)
def test_interreduce_drops_like_the_restarting_reference(case, recipes, order, policy):
    """Members of the module added to a basis reduce to zero and are dropped
    within the pass; the result is the one a restart after every drop gives."""
    rank, forms, lower = case
    ring = PolyRing(RationalField(), ("x", "y", "z"))
    if order == "total":
        spec = CoarseModuleGrading(TotalDegreeGrading(3), rank)
    else:
        spec = TermModuleGrading(TermOrderGrading.degrevlex(3), rank)
    field = ring.field
    hs = [
        ModuleElement.from_terms(ring, rank, {key: field.from_int(c) for key, c in terms.items()})
        for terms in forms
    ]
    ms = list(hs)
    for i, j, mono, c in lower:
        ms[i] = ms[i] + hs[j].mul_term(mono, field.from_int(c))
    basis = list(buchberger_algorithm(ms, spec))
    inputs = basis + [_extra(basis, recipe, field) for recipe in recipes]
    expected = _reference_interreduce(inputs, spec, policy)
    got = interreduce(inputs, spec, policy).elements
    assert got == expected
    assert [str(m) for m in got] == [str(m) for m in expected]
    distinct = dict.fromkeys(normalize_element(m, spec) for m in inputs if not m.is_zero())
    if len(distinct) > len(basis):
        # a reduced basis has no more elements than any basis of its module
        assert len(got) < len(distinct)


# ---------------------------------------------------------------------------
# canonical order against sorting every element by its text, then by degree

_SMALL_MONOMIALS = [e for d in range(3) for e in monomials_of_degree(2, d)]


@PROPERTY
@given(
    rank=st.integers(1, 2),
    order=st.sampled_from(["total", "degrevlex"]),
    raws=st.lists(
        st.dictionaries(
            st.tuples(st.integers(0, 1), st.sampled_from(_SMALL_MONOMIALS)), coefficients, min_size=1, max_size=3
        ),
        max_size=12,
    ),
)
def test_canonical_order_matches_two_sorts(rank, order, raws):
    # six monomials of degree at most 2 per component: most degrees repeat
    ring = PolyRing(RationalField(), ("x", "y"))
    if order == "total":
        spec = CoarseModuleGrading(TotalDegreeGrading(2), rank)
    else:
        spec = TermModuleGrading(TermOrderGrading.degrevlex(2), rank)
    elements = [ModuleElement.from_terms(ring, rank, {(i % rank, e): c for (i, e), c in raw.items()}) for raw in raws]
    reference = sorted(sorted(elements, key=str), key=lambda m: spec.key(degree_of(m, spec)))
    got = canonical_order(elements, spec)
    assert [str(m) for m in got] == [str(m) for m in reference]
    assert got == reference


# ---------------------------------------------------------------------------
# normal forms are linear and idempotent


@pytest.fixture(scope="module")
def warm_reducers(reference_bases):
    """One Reducer per (problem, policy) over the reduced total-degree bases."""
    out = {}
    for name, (names, _) in INVARIANCE_PROBLEMS.items():
        spec = CoarseModuleGrading(TotalDegreeGrading(len(names)), 1)
        for policy in (PIVOT, ORTHOGONAL):
            out[name, policy] = Reducer(list(reference_bases[name, "total"]), spec, policy)
    return out


def _truncated(ring, raw):
    """A raw map over three variables as an element of ring, extra exponents dropped."""
    field = ring.field
    terms = {}
    for e, c in raw.items():
        key = (0, e[: ring.nvars])
        terms[key] = field.add(terms.get(key, field.zero), c)
    return ModuleElement.from_terms(ring, 1, terms)


@pytest.mark.parametrize("policy", [PIVOT, ORTHOGONAL])
@pytest.mark.parametrize("name", sorted(INVARIANCE_PROBLEMS))
@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(raw1=raw_polys, raw2=raw_polys, a=coefficients)
def test_normal_form_is_linear_and_idempotent(warm_reducers, name, policy, raw1, raw2, a):
    reducer = warm_reducers[name, policy]
    m1, m2 = _truncated(reducer.ring, raw1), _truncated(reducer.ring, raw2)
    nf1, _ = reducer.normal_form(m1)
    nf2, _ = reducer.normal_form(m2)
    combined, _ = reducer.normal_form(m1.scale(a) + m2)
    assert combined == nf1.scale(a) + nf2
    assert reducer.normal_form(nf1)[0] == nf1
    assert reducer.normal_form(combined)[0] == combined


# ---------------------------------------------------------------------------
# reduced degrevlex bases over Q, taken mod p, against the bases over F_p

MODP_PROBLEMS = {
    "c4": INVARIANCE_PROBLEMS["c4"],
    "katsura3": INVARIANCE_PROBLEMS["katsura3"],
    "cyclic3": TOTAL_DEGREE_PROBLEMS["cyclic3"],
}
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-5, 5).filter(bool), min_size=1, max_size=3
)


def _reduced_drl_terms(names, raws, field):
    """The reduced degrevlex basis of integer polynomials over a field, as a set of term maps."""
    ring = PolyRing(field, names)
    spec = TermModuleGrading(TermOrderGrading.degrevlex(len(names)), 1)
    gens = [_element(ring, {e: field.from_int(c) for e, c in raw.items()}) for raw in raws]
    basis = interreduce(buchberger_algorithm(gens, spec), spec)
    return [m.polys[0].terms for m in basis]


def _q_images_and_fp_basis(names, raws, p):
    """(images mod p of the reduced basis over Q, or None when p divides a
    denominator of it, and the reduced basis over F_p), as sets of term maps."""
    over_q = _reduced_drl_terms(names, raws, RationalField())
    over_p = {frozenset(terms.items()) for terms in _reduced_drl_terms(names, raws, PrimeField(p))}
    if any(c.denominator % p == 0 for terms in over_q for c in terms.values()):
        return None, over_p
    images = {
        frozenset((e, c.numerator * pow(c.denominator, -1, p) % p) for e, c in terms.items())
        for terms in over_q
    }
    return images, over_p


@pytest.mark.parametrize("p", [32003, 65521])
@pytest.mark.parametrize("name", sorted(MODP_PROBLEMS))
def test_reduced_basis_mod_p_of_known_problems(name, p):
    names, texts = MODP_PROBLEMS[name]
    ring = PolyRing(RationalField(), names)
    raws = [{e: int(c) for e, c in ring.parse(t).terms.items()} for t in texts]
    images, over_p = _q_images_and_fp_basis(names, raws, p)
    assert images == over_p


@pytest.mark.parametrize("p", [32003, 65521])
@PROPERTY
@given(raws=st.lists(small_polys, min_size=1, max_size=3))
def test_reduced_basis_mod_p_of_random_inputs(raws, p):
    images, over_p = _q_images_and_fp_basis(("x", "y"), raws, p)
    assume(images is not None)
    assert images == over_p
