import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macaulay.coeff import PrimeField, RationalField
from macaulay.errors import ParseError, UsageError
from macaulay.grading import (
    CoarseModuleGrading,
    TermModuleGrading,
    TermOrderGrading,
    TotalDegreeGrading,
)
from macaulay.polymod import (
    ModuleElement,
    PolyRing,
    Polynomial,
    degree_of,
    homogeneous_components,
    leading_form,
    parse_element,
    render_element,
)
from macaulay.symmetry import random_element


def test_arith_examples(R2, el):
    f1 = el("x1^2 + x2^2 - 1")
    assert f1 + el("1") == el("x1^2 + x2^2")
    prod = R2.parse("x2^2") * R2.parse("x1^2 + x2^2 - 1")
    assert prod == R2.parse("x1^2*x2^2 + x2^4 - x2^2")
    assert (f1 - f1).is_zero()


def test_rank_mismatch(R2):
    a = ModuleElement(R2, (R2.parse("x1"), R2.parse("x2")))
    b = ModuleElement.from_polynomial(R2.parse("x1"))
    with pytest.raises(UsageError):
        a + b


def test_homogeneous_components_examples(R2, el, total2, drl2):
    f1 = el("x1^2 + x2^2 - 1")
    parts = homogeneous_components(f1, total2)
    assert [(p.degree, str(p.element)) for p in parts] == [(2, "x1^2 + x2^2"), (0, "-1")]

    f2 = el("x1^2*x2^2 - 1")
    parts = homogeneous_components(f2, drl2)
    assert [(p.degree, str(p.element)) for p in parts] == [
        ((0, (2, 2)), "x1^2*x2^2"),
        ((0, (0, 0)), "-1"),
    ]

    pair = ModuleElement(R2, (R2.parse("x1"), R2.parse("x2")))
    coarse = CoarseModuleGrading(TotalDegreeGrading(2), 2)
    parts = homogeneous_components(pair, coarse)
    assert len(parts) == 1 and parts[0].degree == 1 and parts[0].element == pair

    assert homogeneous_components(el("0"), total2) == []


def test_leading_form_examples(el, total2, drl2):
    assert leading_form(el("x1^2*x2^2 - 1"), total2).degree == 4
    lf = leading_form(el("x1^2 + x2^2 - 1"), drl2)
    assert lf.degree == (0, (2, 0)) and str(lf.element) == "x1^2"
    lf2 = leading_form(el("x1^2 + x2^2 - 1"), total2)
    assert lf2.degree == 2 and str(lf2.element) == "x1^2 + x2^2"
    with pytest.raises(UsageError):
        leading_form(el("0"), total2)


def test_components_sum_to_element(R2, total2, drl2):
    rng = random.Random(4)
    for spec in (total2, drl2):
        for _ in range(50):
            m = random_element(R2, 1, rng, max_degree=5, terms=6)
            parts = homogeneous_components(m, spec)
            acc = ModuleElement.from_terms(R2, 1, {})
            for p in parts:
                acc = acc + p.element
            assert acc == m
            degrees = [p.degree for p in parts]
            assert len(set(degrees)) == len(degrees)


def test_degree_action_monotone(R2, total2, drl2):
    rng = random.Random(5)
    for spec in (total2, drl2):
        for _ in range(40):
            m = random_element(R2, 1, rng, max_degree=4, terms=3)
            if m.is_zero():
                continue
            exps = (rng.randrange(0, 3), rng.randrange(0, 3))
            moved = m.mul_term(exps)
            assert degree_of(moved, spec) == spec.translate(degree_of(m, spec), exps)


def test_refined_degree_law(R2):
    fine = TermModuleGrading(TermOrderGrading.degrevlex(2), 1)
    coarse = CoarseModuleGrading(TotalDegreeGrading(2), 1)
    rng = random.Random(6)
    for _ in range(50):
        m = random_element(R2, 1, rng, max_degree=6, terms=5)
        if m.is_zero():
            continue
        assert degree_of(m, coarse) == sum(degree_of(m, fine)[1])


def test_parse_print_round_trip(R2, R3):
    rng = random.Random(7)
    for ring in (R2, R3):
        for _ in range(60):
            m = random_element(ring, 1, rng, max_degree=6, terms=5)
            assert ring.parse(str(m.polys[0])) == m.polys[0]


def test_parse_module_element(R2):
    m = parse_element(R2, 2, "[x1 + 1, x2^3 - 2]")
    assert str(m) == "[x1 + 1, x2^3 - 2]"
    again = parse_element(R2, 2, render_element(m))
    assert again == m
    with pytest.raises(ParseError):
        parse_element(R2, 2, "x1 + 1")
    with pytest.raises(ParseError):
        parse_element(R2, 3, "[x1, x2]")


def test_parse_errors_carry_position(R2):
    with pytest.raises(ParseError) as err:
        R2.parse("x1 + x3")
    assert "x3" in str(err.value) and "col 6" in str(err.value)
    with pytest.raises(ParseError):
        R2.parse("x1^")
    with pytest.raises(ParseError):
        R2.parse("x1^x2")
    with pytest.raises(ParseError):
        R2.parse("")
    assert R2.parse("2 x1 x2") == R2.parse("2*x1*x2")  # juxtaposition multiplies


def test_only_ascii_digits_are_numbers(R2):
    # superscript and other non-ASCII digits pass str.isdigit but are no numbers
    with pytest.raises(ParseError, match="malformed exponent"):
        R2.parse("x1^\u00b2")
    with pytest.raises(ParseError, match="unknown variable"):
        R2.parse("x1\u00b2")
    with pytest.raises(ParseError, match="unexpected character") as err:
        R2.parse("x1 + \u0663")
    assert "col 6" in str(err.value)
    with pytest.raises(ParseError) as err:
        R2.parse("x1 +\n  x3")
    assert "line 2, col 3" in str(err.value)


def test_fraction_coefficients_parse(R2):
    p = R2.parse("1/2*x1 - 3/4")
    assert str(p) == "1/2*x1 - 3/4"


def test_mixed_ring_guard(Q):
    A = PolyRing(Q, ("x1", "x2"))
    B = PolyRing(Q, ("y1", "y2"))
    with pytest.raises(UsageError):
        A.parse("x1") + B.parse("y1")


def test_canonical_term_order(R2):
    p = R2.parse("x2^2 + x1^2 + x1*x2")
    assert str(p) == "x1^2 + x1*x2 + x2^2"


# The term-map layout against a per-component reference: a tuple of
# Polynomials, combined component by component.

QR2 = PolyRing(RationalField(), ("x1", "x2"))
small_exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
# zero coefficients are drawn on purpose: no layout may store them
raw_component = st.dictionaries(small_exps, st.integers(-3, 3), max_size=4)


def _reference(raw):
    return tuple(Polynomial(QR2, {m: Fraction(c) for m, c in d.items()}) for d in raw)


def _element(raw):
    terms = {(i, m): Fraction(c) for i, d in enumerate(raw) for m, c in d.items()}
    return ModuleElement.from_terms(QR2, len(raw), terms)


def _matches(m, ref):
    assert m.rank == len(ref) and m.polys == ref
    assert m == ModuleElement(QR2, ref) and hash(m) == hash(ModuleElement(QR2, ref))
    assert dict(m.term_map()) == {(i, e): c for i, p in enumerate(ref) for e, c in p.terms.items()}
    assert all(c != 0 for c in m.term_map().values())
    assert list(m.terms()) == [((i, e), c) for i, p in enumerate(ref) for e, c in p.sorted_terms()]
    text = str(ref[0]) if len(ref) == 1 else "[" + ", ".join(map(str, ref)) + "]"
    assert str(m) == text
    assert m.is_zero() == all(p.is_zero() for p in ref)


@st.composite
def element_pairs(draw):
    rank = draw(st.integers(1, 3))
    return [draw(st.lists(raw_component, min_size=rank, max_size=rank)) for _ in range(2)]


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(
    pair=element_pairs(),
    r=raw_component,
    c=st.integers(-2, 2),
    exps=small_exps,
    coeff=st.sampled_from([None, Fraction(-1), Fraction(3, 2)]),
)
def test_term_map_layout_matches_componentwise_reference(pair, r, c, exps, coeff):
    a, b = _element(pair[0]), _element(pair[1])
    ra, rb = _reference(pair[0]), _reference(pair[1])
    ring_elt = _reference([r])[0]
    _matches(a, ra)
    _matches(a + b, tuple(p + q for p, q in zip(ra, rb)))
    _matches(a - b, tuple(p - q for p, q in zip(ra, rb)))
    _matches(-a, tuple(-p for p in ra))
    _matches(a.scale(Fraction(c)), tuple(p * QR2.constant(Fraction(c)) for p in ra))
    _matches(a.mul_term(exps, coeff), tuple(p * QR2.monomial(exps, coeff) for p in ra))
    _matches(a.action(ring_elt), tuple(ring_elt * p for p in ra))
    assert [a.component(i) for i in range(a.rank)] == list(ra)
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)


def test_term_map_is_read_only(R2):
    m = ModuleElement(R2, (R2.parse("x1"), R2.parse("x2")))
    with pytest.raises(TypeError):
        m.term_map()[(0, (1, 0))] = 5
    with pytest.raises(TypeError):
        del m.term_map()[(1, (0, 1))]
    assert str(m) == "[x1, x2]"


def test_rank_is_part_of_equality(R2):
    zero1, zero2 = ModuleElement.from_terms(R2, 1, {}), ModuleElement.from_terms(R2, 2, {})
    assert zero1 != zero2 and zero2 == ModuleElement(R2, (R2.zero(), R2.zero()))
    assert ModuleElement(R2, (R2.parse("x1"), R2.zero())).component(1).is_zero()


# ---------------------------------------------------------------------------
# substitution against one product per unit of every exponent


def _substitute_by_products(p, images):
    """x_j -> images[j], one polynomial product per unit of every exponent."""
    target = images[0].ring
    out = target.zero()
    for m, c in p.sorted_terms():
        part = target.constant(c)
        for j, e in enumerate(m):
            for _ in range(e):
                part = part * images[j]
        out = out + part
    return out


def _random_polynomial(ring, rng, max_degree=4, terms=6):
    fld = ring.field
    data = {}
    for _ in range(rng.randrange(terms + 1)):
        exps = tuple(rng.randrange(max_degree + 1) for _ in range(ring.nvars))
        data[exps] = fld.add(data.get(exps, fld.zero), fld.from_int(rng.randrange(-5, 6)))
    return Polynomial(ring, data)


def _determinant(mat):
    if len(mat) == 1:
        return mat[0][0]
    return sum(
        (-1) ** j * mat[0][j] * _determinant([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j in range(len(mat))
    )


def _linear_images(ring, mat):
    """x_j -> sum_i mat[i][j] x_i, as GroupAction applies a generator matrix."""
    n = ring.nvars
    unit = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    return [Polynomial(ring, {unit[i]: ring.field.from_int(mat[i][j]) for i in range(n)}) for j in range(n)]


def _random_matrix(rng, n, p):
    """A random integer matrix, invertible mod p (or over Q for p = 0), not monomial."""
    while True:
        mat = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
        det = _determinant(mat)
        monomial = all(sum(1 for v in row if v) == 1 for row in mat)
        if det != 0 and (p == 0 or det % p) and not monomial:
            return mat


def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    mat = [[0] * n for _ in range(n)]
    for j, i in enumerate(perm):
        mat[i][j] = rng.choice((-1, 1))
    return mat


@pytest.mark.parametrize("field", [RationalField(), PrimeField(32003), PrimeField(7)], ids=repr)
def test_substitute_matches_repeated_products(field):
    rng = random.Random(14)
    p = field.characteristic
    for names in (("x1", "x2"), ("x1", "x2", "x3")):
        ring = PolyRing(field, names)
        for _ in range(25):
            poly = _random_polynomial(ring, rng)
            for mat in (_random_matrix(rng, ring.nvars, p), _signed_permutation(rng, ring.nvars)):
                images = _linear_images(ring, mat)
                assert poly.substitute(images) == _substitute_by_products(poly, images)
            # general images: nonlinear, into a ring with other variables
            target = PolyRing(field, ("y1", "y2"))
            images = [_random_polynomial(target, rng, max_degree=2, terms=3) for _ in names]
            assert poly.substitute(images) == _substitute_by_products(poly, images)
