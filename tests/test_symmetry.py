import random
from fractions import Fraction

import pytest

from macaulay.coeff import PrimeField, RationalField
from macaulay.errors import UsageError
from macaulay.gradlin import ORTHOGONAL
from macaulay.grading import CoarseModuleGrading, TermOrderGrading, TotalDegreeGrading
from macaulay.macbasis import buchberger_algorithm
from macaulay.polymod import ModuleElement, PolyRing
from macaulay.reduction import Reducer
from macaulay.symmetry import (
    EquivarianceReport,
    GroupAction,
    check_equivariant_normal_form,
    is_homogeneous_action,
    is_monomial_matrix,
    permutation_matrix,
    random_element,
    signed_permutation_matrix,
    span_is_invariant,
)


@pytest.fixture
def swap(R2):
    return GroupAction(R2, [permutation_matrix(2, (1, 2))])


@pytest.fixture
def c4(R2):
    return GroupAction(R2, [signed_permutation_matrix(2, [-2, 1])])


def test_act_examples(el, swap, c4):
    sym = el("x1^2*x2^2 - 1")
    assert swap.act(swap.generators[0], sym) == sym
    c = c4.generators[0]
    assert c4.act(c, el("x1*x2^2")) == el("-x1^2*x2")
    g3 = el("x1^3*x2 - x1*x2^3")
    assert c4.act(c, g3) == g3


def _product(g, h):
    n = len(g)
    return tuple(tuple(sum(g[i][k] * h[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def _powers(g, count):
    """g^0, ..., g^(count - 1) for an integer matrix g."""
    out = [tuple(tuple(int(i == j) for j in range(len(g))) for i in range(len(g)))]
    while len(out) < count:
        out.append(_product(g, out[-1]))
    return out


def test_action_axioms(R2, c4):
    g = c4.generators[0]
    elements = _powers(g, 4)
    identity = elements[0]
    assert len(set(elements)) == 4 and _product(g, elements[-1]) == identity
    m = random_element(R2, 1, random.Random(16), max_degree=4, terms=4)
    assert c4.act(identity, m) == m
    for g in elements:
        for h in elements:
            assert c4.act(g, c4.act(h, m)) == c4.act(_product(g, h), m)


def test_infinite_group_gets_an_invariance_verdict(R2, el):
    # x1 -> x1, x2 -> x1 + x2 generates an infinite group; the action keeps
    # the one generator, and that settles invariance
    shear = GroupAction(R2, [[[1, 1], [0, 1]]])
    assert len(shear.generators) == 1
    assert span_is_invariant([el("x1"), el("x2")], shear).invariant
    report = span_is_invariant([el("x2^2")], shear)
    assert not report.invariant
    assert report.witnesses[0].residual == el("x1^2 + 2*x1*x2")


def test_singular_matrix_rejected(R2):
    with pytest.raises(UsageError):
        GroupAction(R2, [[[1, 1], [1, 1]]])
    with pytest.raises(UsageError):
        GroupAction(R2, [[[0.5, 0], [0, 1]]])


@pytest.mark.parametrize("field", [RationalField(), PrimeField(7)], ids=["Q", "F7"])
def test_generator_entries_are_field_values(field):
    ring = PolyRing(field, ("x1", "x2"))
    action = GroupAction(ring, [[[Fraction(1, 2), 0], [Fraction(6, 3), -1]]])
    half = field.div(field.one, field.from_int(2))
    assert action.generators == (((half, 0), (2, field.from_int(-1))),)
    assert all(type(v) is int for v in action.generators[0][1])
    assert (half == 4) if isinstance(field, PrimeField) else (half == Fraction(1, 2))
    for bad in ("1", None, True, 1.0):
        with pytest.raises(UsageError) as err:
            GroupAction(ring, [[[bad, 0], [0, 1]]])
        assert repr(bad) in str(err.value)


def test_generator_entry_without_a_residue_is_refused():
    ring = PolyRing(PrimeField(7), ("x1", "x2"))
    with pytest.raises(UsageError) as err:
        GroupAction(ring, [[[Fraction(1, 7), 0], [0, 1]]])
    assert "Fraction(1, 7)" in str(err.value)


def test_is_homogeneous_action(R2, swap):
    assert is_homogeneous_action(swap, TotalDegreeGrading(2))
    assert not is_homogeneous_action(swap, TermOrderGrading.degrevlex(2))


def test_shear_homogeneity(R2):
    # a shear is linear, hence homogeneous for total degree, but it mixes monomials
    action = GroupAction(R2, [[[1, 1], [0, 1]]])
    assert is_homogeneous_action(action, TotalDegreeGrading(2))
    assert not is_homogeneous_action(action, TermOrderGrading.degrevlex(2))


def test_monomial_matrix_detection(Q):
    assert is_monomial_matrix(((Q.zero, Q.one), (Q.from_int(-1), Q.zero)), Q)
    assert not is_monomial_matrix(((Q.one, Q.one), (Q.zero, Q.one)), Q)


def test_span_invariance_examples(el, swap, c4, circle_pair, total2, c4_triple):
    assert span_is_invariant(circle_pair, swap).invariant

    degrevlex_basis = [el("x1^2 + x2^2 - 1"), el("x2^4 - x2^2 + 1")]
    report = span_is_invariant(degrevlex_basis, swap)
    assert not report.invariant
    failing = [w for w in report.witnesses if w.residual is not None]
    assert failing  # x1^4 - x1^2 + 1 has no expression in the span

    six = c4_triple + [el("x1*x2^2"), el("x1^2*x2"), el("x1*x2")]
    assert span_is_invariant(six, c4).invariant
    assert span_is_invariant(c4_triple, c4).invariant
    empty = span_is_invariant([], swap)
    assert empty.invariant and empty.witnesses == ()


def test_invariance_witness_coordinates(el, swap, c4, circle_pair, c4_triple):
    report = span_is_invariant(circle_pair, swap)
    for w in report.witnesses:
        assert w.coordinates is not None and w.residual is None
    # both elements are symmetric, so the coordinates are unit vectors
    assert report.witnesses[0].coordinates[0] == 1

    six = c4_triple + [el("x1*x2^2"), el("x1^2*x2"), el("x1*x2")]
    report = span_is_invariant(six, c4)
    assert len(report.witnesses) == len(six)
    for w in report.witnesses:
        image = c4.act(c4.generators[w.generator], six[w.element])
        combo = el("0")
        for c, m in zip(w.coordinates, six):
            combo = combo + m.scale(c)
        assert combo == image


def test_span_invariance_acts_once_per_witness(el, c4, c4_triple, monkeypatch):
    calls = []
    act = GroupAction.act

    def counting_act(self, mat, m):
        calls.append(m)
        return act(self, mat, m)

    monkeypatch.setattr(GroupAction, "act", counting_act)
    six = c4_triple + [el("x1*x2^2"), el("x1^2*x2"), el("x1*x2")]
    report = span_is_invariant(six, c4)
    assert report.invariant and len(report.witnesses) == 6
    assert calls == six


def test_ideal_invariance_under_action(el, total2, c4, c4_triple):
    basis = buchberger_algorithm(c4_triple, total2)
    reducer = Reducer(list(basis.elements), total2)
    for g in _powers(c4.generators[0], 4):
        for m in basis.elements:
            ok, _ = reducer.reduces_to_zero(c4.act(g, m))
            assert ok


def test_equivariant_normal_form_examples(el, total2, swap, circle_pair):
    report = check_equivariant_normal_form(circle_pair, total2, swap, samples=15, seed=17)
    assert report.equivariant

    reducer = Reducer(circle_pair, total2, ORTHOGONAL)
    sym = el("x1^2 + x2^2")  # fixed by the swap
    nf, _ = reducer.normal_form(sym)
    assert swap.act(swap.generators[0], nf) == nf

    member = el("x2^4 - x2^2 + 1")
    nf_m, _ = reducer.normal_form(member)
    nf_s, _ = reducer.normal_form(swap.act(swap.generators[0], member))
    assert nf_m.is_zero() and nf_s.is_zero()

    swapped_nf, _ = reducer.normal_form(el("x2^4"))
    base_nf, _ = reducer.normal_form(el("x1^4"))
    assert swapped_nf == swap.act(swap.generators[0], base_nf)
    assert base_nf == el("1/2*x1^2 - 1/2*x2^2 - 1/2")


def test_equivariance_preconditions(el, total2, drl2, swap, circle_pair, R2):
    rotationish = GroupAction(R2, [[[0, 1], [-1, 1]]])  # invertible, not monomial
    with pytest.raises(UsageError) as err:
        check_equivariant_normal_form(circle_pair, total2, rotationish, samples=2)
    assert "monomial" in str(err.value)
    shear = GroupAction(R2, [[[1, 1], [0, 1]]])
    with pytest.raises(UsageError, match="homogeneous group action"):
        check_equivariant_normal_form(circle_pair, drl2, shear, samples=2)


def _reference_report(X, spec, action, samples, seed):
    """The equivariance check on a fresh orthogonal Reducer."""
    reducer = Reducer(X, spec, ORTHOGONAL)
    rng = random.Random(seed)
    bad = []
    for _ in range(samples):
        m = random_element(action.ring, X[0].rank, rng)
        nf_m, _ = reducer.normal_form(m)
        for mat in action.generators:
            if reducer.normal_form(action.act(mat, m))[0] != action.act(mat, nf_m):
                bad.append((m, mat))
    return EquivarianceReport(not bad, samples, tuple(bad))


def test_equivariance_reuses_one_reducer_per_basis(el, total2, swap, c4, c4_triple, count_reducers):
    basis = list(buchberger_algorithm(c4_triple, total2).elements)
    # the swap does not fix the ideal of x1^2 - x2, so some samples fail
    lopsided = [el("x1^2 - x2")]
    cases = [(basis, c4, seed) for seed in (3, 4, 5)] + [(lopsided, swap, seed) for seed in (6, 7, 8)]
    expected = [_reference_report(X, total2, action, 6, seed) for X, action, seed in cases]
    assert expected[0].equivariant and not expected[3].equivariant

    built = count_reducers()
    got = [check_equivariant_normal_form(X, total2, action, samples=6, seed=seed) for X, action, seed in cases]
    assert got == expected
    # one Reducer per (action, basis, grading), whatever the seed
    assert len(built) == 2


def test_equivariance_rebuilds_for_another_basis_or_grading(R2, el, total2, c4, c4_triple, count_reducers):
    basis = list(buchberger_algorithm(c4_triple, total2).elements)
    other = [el("x1^2 + x2^2"), el("x1*x2")]
    same_degrees = CoarseModuleGrading(TotalDegreeGrading(2), 1)  # equal, but another object
    built = count_reducers()
    calls = [(basis, total2), (list(basis), total2), (other, total2), (basis, total2), (basis, same_degrees)]
    counts = []
    for X, spec in calls:
        report = check_equivariant_normal_form(X, spec, c4, samples=3, seed=11)
        assert report == _reference_report(X, spec, c4, 3, 11)
        counts.append(len(built))
    # each call builds the reference's Reducer; a new basis, the old one
    # again (the memo holds one entry) or a new grading object builds one more
    assert counts == [2, 3, 5, 7, 9]
    # another action keeps its own Reducer
    fresh = GroupAction(R2, c4.generators)
    check_equivariant_normal_form(basis, same_degrees, fresh, samples=3, seed=11)
    assert len(built) == 10


def test_group_acts_componentwise(R2, swap):
    m = ModuleElement(R2, (R2.parse("x1"), R2.parse("x2^2")))
    out = swap.act(swap.generators[0], m)
    assert out == ModuleElement(R2, (R2.parse("x2"), R2.parse("x1^2")))


def _substituted(action, mat, m):
    """The action through Polynomial.substitute, component by component."""
    images = action.variable_images(mat)
    return ModuleElement(m.ring, tuple(p.substitute(images) for p in m.polys))


def _typed_terms(m):
    return {t: (type(c), c) for t, c in m.term_map().items()}


@pytest.mark.parametrize("field", [RationalField(), PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("rank", [1, 2])
def test_monomial_action_matches_substitution(field, rank):
    # signed and scaled permutations relabel and rescale terms; the result is
    # the substitution's, coefficient types included
    ring = PolyRing(field, ("x", "y", "z"))
    action = GroupAction(ring, [permutation_matrix(3, (1, 2, 3))])
    rng = random.Random(rank)
    scales = [field.from_int(c) for c in (1, -1, 2, -3)]
    if isinstance(field, RationalField):
        scales.append(Fraction(-1, 2))
    for _ in range(40):
        perm = rng.sample(range(3), 3)
        mat = [[field.zero] * 3 for _ in range(3)]
        for j, i in enumerate(perm):
            mat[i][j] = rng.choice(scales)
        m = random_element(ring, rank, rng, max_degree=5, terms=6)
        assert _typed_terms(action.act(mat, m)) == _typed_terms(_substituted(action, mat, m))
    # a singular matrix whose images are single terms still sums colliding terms
    collapse = [[field.one, field.from_int(-1), field.zero], [field.zero] * 3, [field.zero, field.zero, field.one]]
    m = ModuleElement.from_polynomial(ring.parse("x + y + x*z + y*z + z^2"))
    assert action.act(collapse, m) == _substituted(action, collapse, m)
    assert action.act(collapse, m) == ModuleElement.from_polynomial(ring.parse("z^2"))


def test_reduced_bases_have_invariant_spans(total2, swap, c4, circle_pair, c4_triple):
    # the span of a computed reduced basis is invariant whenever the action
    # fixes the ideal and respects the grading and inner product
    from macaulay.macbasis import interreduce

    red_swap = interreduce(buchberger_algorithm(circle_pair, total2), total2)
    assert span_is_invariant(list(red_swap.elements), swap).invariant

    red_c4 = interreduce(buchberger_algorithm(c4_triple, total2), total2)
    assert span_is_invariant(list(red_c4.elements), c4).invariant


def test_non_monomial_action(R2, el):
    # x1 -> x2, x2 -> -x1 - x2 has order 3 and fixes x1^2 + x1*x2 + x2^2;
    # each image is a sum of terms, so the action substitutes
    rot = GroupAction(R2, [[[0, -1], [1, -1]]])
    g = rot.generators[0]
    for v in ("x1", "x2"):
        assert rot.act(g, rot.act(g, rot.act(g, el(v)))) == el(v)
    assert rot.act(g, el("x1")) != el("x1")
    f = R2.parse("x1^2 + x1*x2 + x2^2")
    assert rot.act(g, f) == f
    assert rot.act(g, R2.parse("x1*x2")) == R2.parse("-x1*x2 - x2^2")
    assert rot.act(g, el("x1*x2")) == el("-x1*x2 - x2^2")
    assert span_is_invariant([el("x1^2 + x1*x2 + x2^2")], rot).invariant
    assert not span_is_invariant([el("x1^2")], rot).invariant
