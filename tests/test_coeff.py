import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macaulay.coeff import MR_BOUND, PrimeField, RationalField, field_from_spec, is_prime, rref
from macaulay.errors import UsageError
from macaulay.grading import TermModuleGrading, TermOrderGrading
from macaulay.macbasis import buchberger_algorithm, interreduce
from macaulay.polymod import ModuleElement, PolyRing


def test_fraction_addition_exact():
    Q = RationalField()
    assert Q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_prime_field_inverse():
    F = PrimeField(7)
    assert F.div(F.one, 5) == 3
    assert F.mul(5, 3) == 1


def test_division_by_zero():
    Q = RationalField()
    F = PrimeField(7)
    with pytest.raises(ZeroDivisionError):
        Q.div(Q.one, Q.zero)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 7)


# the least strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_prime_validation():
    with pytest.raises(UsageError):
        PrimeField(6)
    with pytest.raises(UsageError):
        PrimeField(1)
    PrimeField(2)
    PrimeField(32003)
    assert is_prime(32003)
    assert not is_prime(32001)
    assert PSI_12 == 399165290221 * 798330580441 and MR_BOUND == PSI_13
    assert not is_prime(PSI_12)
    with pytest.raises(UsageError, match="is not prime"):
        PrimeField(PSI_12)
    # 2^89 - 1 is prime, but above the bound the test proves nothing
    for p in (PSI_13, 2**89 - 1):
        with pytest.raises(UsageError, match=f"at or above {PSI_13}, the bound"):
            PrimeField(p)
    assert PrimeField(2**61 - 1).characteristic == 2**61 - 1


def test_is_prime_matches_trial_division():
    for n in range(20000):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1)))


@pytest.mark.parametrize("field", [RationalField(), PrimeField(7), PrimeField(32003)])
def test_field_axioms_random(field):
    rng = random.Random(0)

    def sample():
        while True:
            a = field.from_int(rng.randrange(-50, 50))
            return a

    for _ in range(200):
        a, b, c = sample(), sample(), sample()
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero
        if not field.is_zero(a):
            assert field.mul(a, field.inv(a)) == field.one


def test_canonical_forms():
    Q = RationalField()
    v = Q.div(Q.from_int(4), Q.from_int(6))
    assert (v.numerator, v.denominator) == (2, 3)
    w = Q.parse("-3/9")
    assert (w.numerator, w.denominator) == (-1, 3)
    F = PrimeField(7)
    assert F.from_int(-1) == 6
    assert F.parse("-1") == 6
    assert 0 <= F.mul(6, 6) < 7


def test_field_binary_ops():
    Q = RationalField()
    assert Q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert Q.div(Fraction(1), Fraction(2)) == Fraction(1, 2)


def test_field_from_spec():
    assert field_from_spec("q") == RationalField()
    assert field_from_spec("fp:32003") == PrimeField(32003)
    with pytest.raises(UsageError):
        field_from_spec("fp:32001")
    with pytest.raises(UsageError):
        field_from_spec("r64")


def test_render_parse_round_trip():
    Q = RationalField()
    for text in ("5/6", "-7", "0", "22/7"):
        assert Q.render(Q.parse(text)) == text
    F = PrimeField(32003)
    assert F.render(F.parse("32004")) == "1"


def test_prime_field_reads_a_fraction_as_a_quotient():
    F = PrimeField(7)
    assert F.parse("1/2") == 4 and F.parse("-3/5") == F.div(F.from_int(-3), 5)
    assert F.parse("14/2") == 0
    # the literal's own denominator decides, not the reduced fraction's
    for text in ("3/14", "1/0", "7/14"):
        with pytest.raises(UsageError) as err:
            F.parse(text)
        assert repr(text) in str(err.value)


def _canonical(v):
    """Is v in Q's canonical form: an int, or a Fraction that is not whole?"""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


# whole values come both as ints and as Fractions of denominator 1
rationals = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=6),
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(a=rationals, b=rationals)
def test_rational_ops_are_fraction_arithmetic_in_canonical_form(a, b):
    Q = RationalField()
    fa, fb = Fraction(a), Fraction(b)
    results = [(Q.add(a, b), fa + fb), (Q.sub(a, b), fa - fb), (Q.mul(a, b), fa * fb)]
    if fb:
        results += [(Q.div(a, b), fa / fb), (Q.inv(b), 1 / fb)]
    canon = Q.parse(str(a))
    results += [(canon, fa), (Q.neg(canon), -fa)]
    for got, want in results:
        assert got == want and _canonical(got)
        assert (type(got) is int) == (want.denominator == 1)


def test_rational_canonical_examples():
    Q = RationalField()
    assert (Q.zero, Q.one, Q.from_int(7)) == (0, 1, 7)
    for got, want in ((Q.parse("6/3"), 2), (Q.parse("-4"), -4), (Q.inv(-1), -1), (Q.div(3, 3), 1)):
        assert type(got) is int and got == want
    half = Q.inv(2)
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert type(Q.add(half, half)) is int and type(Q.mul(Q.neg(half), 4)) is int


def test_elements_from_whole_fractions_equal_elements_from_ints():
    ring = PolyRing(RationalField(), ("x", "y"))
    a = ModuleElement.from_terms(ring, 2, {(0, (1, 0)): Fraction(3), (1, (0, 2)): Fraction(-1, 2)})
    b = ModuleElement.from_terms(ring, 2, {(0, (1, 0)): 3, (1, (0, 2)): Fraction(-1, 2)})
    assert a == b and hash(a) == hash(b) and str(a) == str(b)


@pytest.mark.parametrize("gens", [
    ("x + 2*y + 2*z - 1", "x^2 + 2*y^2 + 2*z^2 - x", "2*x*y + 2*y*z - y"),
    ("x + y + z + w", "x*y + y*z + z*w + w*x", "x*y*z + y*z*w + z*w*x + w*x*y", "x*y*z*w - 1"),
], ids=["katsura3", "cyclic4"])
def test_completion_over_q_keeps_canonical_coefficients(gens):
    ring = PolyRing(RationalField(), ("x", "y", "z", "w"))
    spec = TermModuleGrading(TermOrderGrading.degrevlex(4), 1)
    basis = buchberger_algorithm([ModuleElement.from_polynomial(ring.parse(g)) for g in gens], spec)
    for elements in (basis.elements, interreduce(basis, spec).elements):
        assert all(_canonical(c) for m in elements for c in m.term_map().values())


# ---------------------------------------------------------------------------
# sparse rref against dense Gauss-Jordan


def _dense_rref(rows, field):
    """Dense Gauss-Jordan on lists, with an n x n identity of combinations.

    The pivot is the first row from r on that is nonzero in the lowest
    column any such row has; every entry, zeros included, is scaled and
    eliminated.
    """
    n = len(rows)
    work = [list(r) for r in rows]
    combos = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, n) if not field.is_zero(work[i][c])), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        combos[r], combos[piv] = combos[piv], combos[r]
        inv = field.inv(work[r][c])
        work[r] = [field.mul(inv, v) for v in work[r]]
        combos[r] = [field.mul(inv, v) for v in combos[r]]
        for i in range(n):
            if i != r and not field.is_zero(work[i][c]):
                f = work[i][c]
                work[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(work[i], work[r])]
                combos[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(combos[i], combos[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots, combos[:r]


def _random_sparse_matrix(rng, field):
    """Dense rows with few nonzeros, some zero rows, repeats and multiples."""
    nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 10)
    density = rng.choice((0.15, 0.3, 0.6))
    rows = [
        [field.from_int(rng.randrange(-4, 5)) if rng.random() < density else field.zero for _ in range(ncols)]
        for _ in range(nrows)
    ]
    for _ in range(rng.randrange(3)):
        kind = rng.randrange(3)
        if kind == 0:
            row = [field.zero] * ncols
        elif kind == 1:
            row = list(rng.choice(rows))
        else:
            scale = field.from_int(rng.choice((-3, -1, 2, 5)))
            row = [field.mul(scale, v) for v in rng.choice(rows)]
        rows.insert(rng.randrange(len(rows) + 1), row)
    return rows


def _sparse(row, field):
    return {j: v for j, v in enumerate(row) if not field.is_zero(v)}


def _densify(row, n, field):
    assert not any(field.is_zero(v) for v in row.values())
    assert all(0 <= j < n for j in row)
    return [row.get(j, field.zero) for j in range(n)]


@pytest.mark.parametrize("field", [RationalField(), PrimeField(32003), PrimeField(7)], ids=repr)
def test_rref_matches_dense_reference(field):
    rng = random.Random(14)
    for _ in range(150):
        dense = _random_sparse_matrix(rng, field)
        n, ncols = len(dense), len(dense[0])
        sparse = [_sparse(row, field) for row in dense]
        snapshot = [dict(row) for row in sparse]
        want_rows, want_pivots, want_combos = _dense_rref(dense, field)
        rows, pivots, combos = rref(sparse, field)
        assert sparse == snapshot  # the input is not touched
        assert pivots == want_pivots
        assert [_densify(row, ncols, field) for row in rows] == want_rows
        assert [_densify(combo, n, field) for combo in combos] == want_combos
        # each combination applied to the raw rows gives its echelon row
        for row, combo in zip(rows, combos):
            applied = {}
            for i, c in combo.items():
                for j, v in sparse[i].items():
                    applied[j] = field.add(applied.get(j, field.zero), field.mul(c, v))
            assert {j: v for j, v in applied.items() if not field.is_zero(v)} == row
        # stored zeros are ignored
        padded = [{**row, ncols: field.zero} for row in sparse]
        assert rref(padded, field) == (rows, pivots, combos)


@pytest.mark.parametrize("field", [RationalField(), PrimeField(32003)], ids=repr)
def test_rref_edge_cases(field):
    assert rref([], field) == ([], [], [])
    # zero rows only: no pivot, every row dropped
    assert rref([{}, {}], field) == ([], [], [])
    # duplicate rows: the second cancels against the first
    two, three = field.from_int(2), field.from_int(3)
    rows, pivots, combos = rref([{1: two, 4: three}, {1: two, 4: three}, {}], field)
    assert pivots == [1]
    assert rows == [{1: field.one, 4: field.div(three, two)}]
    assert combos == [{0: field.inv(two)}]
