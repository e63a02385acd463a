import random
from fractions import Fraction

import pytest

from oracles import in_span, monomials_of_degree, rank_of, raw_element_vectors, rref_fractions

from macaulay.apps import EliminationSpec, eliminate
from macaulay.coeff import PrimeField, RationalField
from macaulay.errors import MembershipError, UsageError
from macaulay.gradlin import (
    ORTHOGONAL,
    PIVOT,
    GradedSubspace,
    check_policy,
    component_monomials,
    decompose_in_w,
    project_complement,
    vector_of,
    w_space,
)
from macaulay.grading import CoarseModuleGrading, TotalDegreeGrading
from macaulay.macbasis import buchberger_algorithm
from macaulay.polymod import ModuleElement, PolyRing, leading_form
from macaulay.reduction import Reducer
from macaulay.symmetry import random_element


def _dense(row, n):
    """A sparse {position: value} row as a dense list of n Fractions."""
    return [Fraction(row.get(p, 0)) for p in range(n)]


def test_component_monomials_examples(total2, drl2):
    basis = component_monomials(total2, 2)
    assert basis.monomials == ((0, (2, 0)), (0, (1, 1)), (0, (0, 2)))
    basis = component_monomials(drl2, (0, (1, 2)))
    assert basis.monomials == ((0, (1, 2)),)
    shifted = CoarseModuleGrading(TotalDegreeGrading(2), 2, shifts=(0, 1))
    basis = component_monomials(shifted, 1)
    assert basis.monomials == ((0, (1, 0)), (0, (0, 1)), (1, (0, 0)))


def test_w_space_single_quadric(el, total2):
    # oracle: the two degree-1 multiples of x1^2 + x2^2, row-reduced by hand
    sub = w_space([el("x1^2 + x2^2")], 3, total2)
    assert sub.dim == 2
    rows, support = raw_element_vectors(
        [el("x1^3 + x1*x2^2"), el("x1^2*x2 + x2^3")],
        support=[(0, m) for m in monomials_of_degree(2, 3)],
    )
    assert rank_of(rows) == 2
    member = vector_of(el("x1^3 + x1*x2^2"), sub.ambient, el("1").ring.field)
    assert sub.contains(member)


def test_w_space_circle_pair_degree_4(el, total2, circle_pair):
    sub = w_space(circle_pair, 4, total2)
    assert sub.dim == 4
    field = circle_pair[0].ring.field
    assert sub.contains(vector_of(el("x2^4"), sub.ambient, field))
    assert not sub.contains(vector_of(el("x1^3*x2"), sub.ambient, field))
    # oracle cross-check of the dimension
    gens = [el("x1^4 + x1^2*x2^2"), el("x1^3*x2 + x1*x2^3"), el("x1^2*x2^2 + x2^4"), el("x1^2*x2^2")]
    rows, _ = raw_element_vectors(gens, support=[(0, m) for m in monomials_of_degree(2, 4)])
    assert rank_of(rows) == 4


def test_w_space_below_all_degrees(el, total2, circle_pair):
    sub = w_space(circle_pair, 1, total2)
    assert sub.dim == 0


def test_project_complement_member_is_zero(el, total2, circle_pair):
    sub = w_space(circle_pair, 4, total2)
    member = el("x2^4").term_map()
    for policy in (ORTHOGONAL, PIVOT):
        kept, decomposition = project_complement(member, sub, policy)
        assert kept == {}
        assert decomposition == decompose_in_w(member, sub)


def test_project_complement_examples(el, total2):
    sub = w_space([el("x1^2 + x2^2")], 2, total2)
    ortho, ortho_w = project_complement(el("x1^2").term_map(), sub, ORTHOGONAL)
    assert ortho == el("1/2*x1^2 - 1/2*x2^2").term_map()
    assert ortho_w == [(0, (0, 0), Fraction(1, 2))]
    pivot, pivot_w = project_complement(el("x1^2").term_map(), sub, PIVOT)
    assert pivot == el("-x2^2").term_map()
    assert pivot_w == [(0, (0, 0), Fraction(1))]


def test_projection_idempotent_linear(R2, el, total2, circle_pair):
    rng = random.Random(8)
    field = R2.field
    sub = w_space(circle_pair, 4, total2)
    basis = sub.ambient
    lf_parts = [leading_form(m, total2) for m in circle_pair]

    def project(v, policy):
        return ModuleElement.from_terms(R2, 1, project_complement(v.term_map(), sub, policy)[0])

    for policy in (ORTHOGONAL, PIVOT):
        for _ in range(25):
            coeffs = [field.from_int(rng.randrange(-3, 4)) for _ in basis.monomials]
            v = ModuleElement.from_terms(R2, 1, dict(zip(basis.monomials, coeffs)))
            kept, decomposition = project_complement(v.term_map(), sub, policy)
            pv = ModuleElement.from_terms(R2, 1, kept)
            assert project(pv, policy) == pv
            w = v - pv
            assert w.is_zero() or sub.contains(vector_of(w, basis, field))
            # the one elimination also writes the W-part in the leading forms
            assert decomposition == decompose_in_w(w.term_map(), sub)
            rebuilt = ModuleElement.from_terms(R2, 1, {})
            for idx, mult, c in decomposition:
                rebuilt = rebuilt + lf_parts[idx].element.mul_term(mult, c)
            assert rebuilt == w
            v2 = random_element(R2, 1, rng, max_degree=0, terms=1).mul_term((2, 2))
            pv2 = project(v2, policy)
            psum = project(v + v2, policy)
            assert psum == pv + pv2


def test_orthogonal_needs_char_zero():
    F = PrimeField(7)
    Rp = PolyRing(F, ("x1", "x2"))
    spec = CoarseModuleGrading(TotalDegreeGrading(2), 1)
    elt = ModuleElement.from_polynomial(Rp.parse("x1^2 + x2^2"))
    sub = w_space([elt], 2, spec)
    with pytest.raises(UsageError):
        project_complement(elt.term_map(), sub, ORTHOGONAL)
    with pytest.raises(UsageError, match="unknown complement policy 'bogus'"):
        check_policy("bogus", RationalField())
    kept, decomposition = project_complement(elt.term_map(), sub, PIVOT)
    assert kept == {} and decomposition == [(0, (0, 0), 1)]


def test_decompose_examples(el, total2, circle_pair):
    sub = w_space([el("x1^2 + x2^2")], 3, total2)
    assert decompose_in_w(el("x1^3 + x1*x2^2").term_map(), sub) == [(0, (1, 0), Fraction(1))]

    sub4 = w_space(circle_pair, 4, total2)
    got = decompose_in_w(el("x2^4").term_map(), sub4)
    assert got == [(0, (0, 2), Fraction(1)), (1, (0, 0), Fraction(-1))]

    assert decompose_in_w(el("0").term_map(), sub4) == []


def test_decompose_membership_error(el, total2, circle_pair):
    sub = w_space(circle_pair, 4, total2)
    with pytest.raises(MembershipError):
        decompose_in_w(el("x1^3*x2").term_map(), sub)


def test_decompose_reexpands(R2, total2, circle_pair):
    rng = random.Random(9)
    field = R2.field
    lf_parts = [leading_form(m, total2) for m in circle_pair]
    for degree in (4, 5, 6):
        sub = w_space(circle_pair, degree, total2)
        for _ in range(10):
            coeffs = [field.from_int(rng.randrange(-2, 3)) for _ in range(sub.dim)]
            v = ModuleElement.from_terms(R2, 1, {})
            for c, row in zip(coeffs, sub.rows):
                for pos, val in row.items():
                    term = ModuleElement.from_terms(
                        R2, 1, {sub.ambient.monomials[pos]: field.mul(c, val)}
                    )
                    v = v + term
            rebuilt = ModuleElement.from_terms(R2, 1, {})
            for idx, mult, c in decompose_in_w(v.term_map(), sub):
                rebuilt = rebuilt + lf_parts[idx].element.mul_term(mult, c)
            assert rebuilt == v


def test_rref_shape(R2, total2, circle_pair):
    field = R2.field
    for degree in (4, 5, 6, 7):
        sub = w_space(circle_pair, degree, total2)
        assert sub.dim <= sub.ambient.dim
        assert sub.pivots == sorted(sub.pivots)
        for k, (row, piv) in enumerate(zip(sub.rows, sub.pivots)):
            assert row[piv] == field.one
            # sparse rows store no zeros, so a cleared pivot column is absent
            assert not any(field.is_zero(v) for v in row.values())
            for other_piv in sub.pivots[:k] + sub.pivots[k + 1 :]:
                assert other_piv not in row
        # independence via the oracle
        assert rank_of([_dense(row, sub.ambient.dim) for row in sub.rows]) == sub.dim


def test_w_space_matches_oracle_span(el, total2, circle_pair):
    sub = w_space(circle_pair, 5, total2)
    gens5 = [
        el("x1^5 + x1^3*x2^2"),
        el("x1^4*x2 + x1^2*x2^3"),
        el("x1^3*x2^2 + x1*x2^4"),
        el("x1^2*x2^3 + x2^5"),
        el("x1^3*x2^2"),
        el("x1^2*x2^3"),
    ]
    rows, support = raw_element_vectors(gens5, support=[(0, m) for m in monomials_of_degree(2, 5)])
    assert sub.dim == rank_of(rows)
    for row in sub.rows:
        assert in_span(rows, _dense(row, sub.ambient.dim))


def test_projection_cache_is_transparent(R2, total2, circle_pair, c4_triple):
    # the per-column maps fill lazily; what is cached must not change any result
    rng = random.Random(11)
    for X in (circle_pair, c4_triple):
        for degree in (4, 5):
            basis = w_space(X, degree, total2).ambient
            elements = []
            for _ in range(6):
                coeffs = [R2.field.from_int(rng.randrange(-3, 4)) for _ in basis.monomials]
                elements.append({m: c for m, c in zip(basis.monomials, coeffs) if c})
            # one warm subspace serves both policies, as a Reducer's cached W-space can
            warm = w_space(X, degree, total2)
            for policy in (ORTHOGONAL, PIVOT, ORTHOGONAL):
                fresh = [project_complement(t, w_space(X, degree, total2), policy) for t in elements]
                first = [project_complement(t, warm, policy) for t in elements]
                # again, in reverse order, after every column has been seen
                again = [project_complement(t, warm, policy) for t in reversed(elements)]
                assert first == fresh
                assert again[::-1] == fresh
                assert [list(kept) for kept, _ in again[::-1]] == [list(kept) for kept, _ in fresh]
                for t, (kept, decomposition) in zip(elements, fresh):
                    member = ModuleElement.from_terms(R2, 1, t) - ModuleElement.from_terms(R2, 1, kept)
                    assert decompose_in_w(member.term_map(), warm) == decomposition


def _orthogonal_split_all_columns(sub, svec):
    """The orthogonal split of every column, dense: kept = v - R^T G^-1 R v.

    The combination is C^T G^-1 R v, for the echelon rows R, their
    combinations C and the Gram matrix G = R R^T, with G inverted by the
    oracle's own elimination; it returns what ``GradedSubspace.split``
    returns, (position, value) and (generator index, value) pairs.
    """
    n = sub.ambient.dim
    v = [Fraction(0)] * n
    for p, c in svec:
        v[p] = Fraction(c)
    rows = [_dense(row, n) for row in sub.rows]
    d = len(rows)
    coeffs = []
    if rows:
        gram = [[sum(a * b for a, b in zip(u, w)) for w in rows] for u in rows]
        echelon, _ = rref_fractions([gram[i] + [Fraction(i == j) for j in range(d)] for i in range(d)])
        rv = [sum(a * b for a, b in zip(row, v)) for row in rows]
        coeffs = [sum(a * b for a, b in zip(inv_row[d:], rv)) for inv_row in echelon]
    kept = [v[p] - sum(c * row[p] for c, row in zip(coeffs, rows)) for p in range(n)]
    combo = {}
    for c, row_combo in zip(coeffs, sub.combos):
        for g, w in row_combo.items():
            combo[g] = combo.get(g, 0) + c * w
    return [(p, x) for p, x in enumerate(kept) if x], sorted((g, x) for g, x in combo.items() if x)


def _sparse_w_spaces(rng, ambient):
    """Raw rows of seeded sparse W-spaces of one component, from W = 0 to W = N_b.

    Every space but W = 0 repeats a row and adds a dependent one, so the
    echelon form drops rows and the combinations have more than one term.
    """
    n = ambient.dim

    def sparse_row():
        row = {}
        while not row:
            row = {p: rng.choice((-3, -2, -1, 1, 2, 3)) for p in rng.sample(range(n), rng.randint(1, 3))}
        return row

    def with_dependents(rows):
        a, b = rng.sample(rows, 2) if len(rows) > 1 else (rows[0], rows[0])
        both = {p: a.get(p, 0) + 2 * b.get(p, 0) for p in a.keys() | b.keys()}
        return rows + [dict(a), {p: c for p, c in both.items() if c}]

    spaces = [[]]
    for size in (1, 2, n // 2, n - 1):
        spaces.append(with_dependents([sparse_row() for _ in range(size)]))
    units = [{p: 1} for p in range(n)]
    spaces.append(with_dependents([sparse_row() for _ in range(3)] + units))
    return spaces


@pytest.mark.parametrize("nvars, degree", [(2, 3), (3, 2), (3, 3)])
def test_orthogonal_split_of_the_pivot_remainder_matches_the_all_column_split(nvars, degree):
    # the orthogonal projection fixes the pivot split's W-part, so only the
    # remainder on the non-pivot columns needs the orthogonal map: the result
    # equals the split of every column, and no pivot column is ever stored
    field = RationalField()
    ambient = component_monomials(CoarseModuleGrading(TotalDegreeGrading(nvars), 1), degree)
    n = ambient.dim
    rng = random.Random(f"pivot remainder {nvars} {degree}")
    saw_full = saw_zero = False
    for raw_rows in _sparse_w_spaces(rng, ambient):
        gens = [(k, ()) for k in range(len(raw_rows))]
        sub = GradedSubspace(ambient, field, gens, raw_rows)
        saw_zero |= sub.dim == 0
        saw_full |= sub.dim == n
        free = [p for p in range(n) if p not in sub.pivots]

        def vector(support):
            return {p: field.from_int(rng.randint(-4, 4)) for p in support}

        def member():
            acc = {}
            for row in raw_rows:
                c = rng.randint(-2, 2)
                for p, v in row.items():
                    acc[p] = acc.get(p, 0) + c * v
            return acc

        inside = [member() for _ in range(3)]
        outside = [vector(rng.sample(free, min(len(free), 3))) for _ in range(3)]
        mixed = [{p: a.get(p, 0) + b.get(p, 0) for p in a.keys() | b.keys()} for a, b in zip(inside, outside)]
        mixed += [vector(rng.sample(range(n), min(n, 4))) for _ in range(3)]
        cases = [{p: c for p, c in v.items() if c} for v in inside + outside + mixed]
        warm = GradedSubspace(ambient, field, gens, raw_rows)
        for svec in cases + cases[::-1]:
            want_kept, want_combo = _orthogonal_split_all_columns(sub, list(svec.items()))
            want = ({ambient.monomials[p]: c for p, c in want_kept}, [(*gens[g], c) for g, c in want_combo])
            terms = {ambient.monomials[p]: c for p, c in svec.items()}
            fresh = GradedSubspace(ambient, field, gens, raw_rows)
            for got in (project_complement(terms, fresh, ORTHOGONAL), project_complement(terms, warm, ORTHOGONAL)):
                assert got == want
                assert list(got[0]) == list(want[0])
            assert not set(fresh._columns[ORTHOGONAL]) & set(fresh.pivots)
        assert not set(warm._columns[ORTHOGONAL]) & set(warm.pivots)
        # inputs inside W keep nothing after the pivot split: no Gram inverse
        members = GradedSubspace(ambient, field, gens, raw_rows)
        for svec in inside:
            project_complement({ambient.monomials[p]: c for p, c in svec.items() if c}, members, ORTHOGONAL)
        assert "gram_inverse" not in vars(members) and not members._columns[ORTHOGONAL]
    assert saw_zero and saw_full


_CYCLIC3 = ("x + y + z", "x*y + y*z + z*x", "x*y*z - 1")


@pytest.mark.parametrize("run", ["complete", "eliminate"])
def test_vanishing_combinations_invert_no_gram_matrix(monkeypatch, run):
    # cyclic-3 is an H-basis under total degree, and every combination its
    # completion and its elimination reduce vanishes: each step is a pivot
    # split, so no W-space inverts its Gram matrix
    ring = PolyRing(RationalField(), ("x", "y", "z"))
    gens = [ModuleElement.from_polynomial(ring.parse(t)) for t in _CYCLIC3]
    total3 = CoarseModuleGrading(TotalDegreeGrading(3), 1)
    inverses = []
    gram_inverse = GradedSubspace.gram_inverse.func
    monkeypatch.setattr(GradedSubspace, "gram_inverse", property(lambda sub: inverses.append(sub) or gram_inverse(sub)))
    if run == "complete":
        assert list(buchberger_algorithm(gens, total3).elements) == gens
    else:
        assert [str(m) for m in eliminate(gens, EliminationSpec(ring, ["z"]))] == ["z^3 - 1"]
    assert inverses == []
    # the count is live: a normal form that keeps a remainder inverts one
    Reducer(gens, total3).normal_form(ModuleElement.from_polynomial(ring.parse("x^2 + y")))
    assert inverses
