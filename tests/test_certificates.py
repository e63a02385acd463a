"""The certificates interreduction and Schreyer lifting give by proof, against
a fresh run of the criterion.

``interreduce`` passes on the certificate of a ``MacaulayBasis`` under the
same grading object, and ``schreyer_syzygy_basis`` certifies its lifts by
checking their leading forms; neither runs the criterion.  Here the fresh
criterion is the oracle: on seeded random completions over Q and F_p, of
rank 1 and 2, with shifts, and on every golden ``basis`` and ``syzygy``
case, it must give the verdict the proof gave.  Inputs the proof does not
cover must still run the criterion.
"""

import random

import pytest
from test_golden import CASES

from macaulay import apps, macbasis
from macaulay.apps import schreyer_syzygy_basis
from macaulay.cli import parse_problem
from macaulay.coeff import PrimeField, RationalField
from macaulay.errors import UsageError
from macaulay.grading import CoarseModuleGrading, TermModuleGrading, TermOrderGrading, TotalDegreeGrading
from macaulay.macbasis import (
    BuchbergerConfig,
    CriterionResult,
    MacaulayBasis,
    buchberger_algorithm,
    buchberger_criterion,
    interreduce,
    leading_syzygy_generators,
)
from macaulay.polymod import ModuleElement, PolyRing, leading_form
from macaulay.reduction import dot
from macaulay.symmetry import random_element

SEEDS = range(30)
KATSURA3 = ("x + 2*y + 2*z - 1", "x^2 + 2*y^2 + 2*z^2 - x", "2*x*y + 2*y*z - y")


@pytest.fixture
def criterion_calls(monkeypatch):
    """The X of every criterion run the library makes; the tests' own name is left unwrapped."""
    calls = []

    def recording(X, spec, config=None, **kwargs):
        calls.append(list(X))
        return buchberger_criterion(X, spec, config, **kwargs)

    monkeypatch.setattr(macbasis, "buchberger_criterion", recording)
    monkeypatch.setattr(apps, "buchberger_criterion", recording)
    return calls


def _random_input(seed, field, rank):
    """(grading, generators): total degree or degrevlex in 2-3 variables, with
    shifts, and 2-3 random generators of degree at most 3."""
    rng = random.Random(seed)
    nvars = rng.choice((2, 3))
    ring = PolyRing(field, ("x", "y", "z")[:nvars])
    if rng.random() < 0.5:
        spec = CoarseModuleGrading(TotalDegreeGrading(nvars), rank, [rng.randrange(3) for _ in range(rank)])
    else:
        shifts = [tuple(rng.randrange(2) for _ in range(nvars)) for _ in range(rank)]
        spec = TermModuleGrading(TermOrderGrading.degrevlex(nvars), rank, shifts, tie=rng.choice(("pot", "top")))
    return spec, [random_element(ring, rank, rng, max_degree=3, terms=3) for _ in range(rng.randrange(2, 4))]


def _assert_lifts(basis, calls):
    """The Schreyer lifts of a basis: syzygies of it, led by the generators of
    Syz(lf X), and certified as a fresh criterion certifies them, with no run.
    Taken on the basis's own Reducer, they are those of a fresh Reducer."""
    spec = basis.spec
    syz = schreyer_syzygy_basis(basis)
    bare = MacaulayBasis(basis.elements, spec, basis.policy, False, basis.certificate)
    assert syz.elements == schreyer_syzygy_basis(bare).elements
    assert calls == []
    X = list(basis.elements)
    lfs = [leading_form(m, spec).element for m in X]
    assert [leading_form(t, syz.spec).element for t in syz] == leading_syzygy_generators(lfs, spec)
    assert all(dot(t, X).is_zero() for t in syz)
    assert buchberger_criterion(list(syz.elements), syz.spec) == syz.certificate == (True, None)
    return syz


def _assert_proved_verdicts(basis, calls):
    """interreduce's certificate of a completion agrees with a fresh criterion,
    with no run, and so do the lifts of the completion, as ``syzygy`` takes them."""
    red = interreduce(basis, basis.spec)
    assert calls == []
    assert red.certificate == buchberger_criterion(list(red.elements), basis.spec) == (True, None)
    return red, _assert_lifts(basis, calls)


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("field", [RationalField(), PrimeField(32003)], ids=repr)
def test_proved_verdicts_match_a_fresh_criterion(field, rank, criterion_calls):
    sizes = []
    for seed in SEEDS:
        spec, gens = _random_input(seed, field, rank)
        basis = buchberger_algorithm(gens, spec, BuchbergerConfig(max_iterations=8))
        red, syz = _assert_proved_verdicts(basis, criterion_calls)
        sizes.append((len(basis), len(red), len(syz), len(_assert_lifts(red, criterion_calls))))
    # the seeds reach completions that interreduction shrinks and lifts of several syzygies
    assert any(b > r for b, r, _, _ in sizes) and sum(s >= 3 for _, _, _, s in sizes) >= 5


@pytest.mark.parametrize("name", sorted(n for n, (_, args) in CASES.items() if args[0] in ("basis", "syzygy")))
def test_proved_verdicts_on_the_golden_cases(name, criterion_calls):
    # the completion both commands start from, under the case's grading
    text, args = CASES[name]
    problem = parse_problem(text)
    if "--grading" in args:
        problem.grading_decl = args[args.index("--grading") + 1]
    spec = problem.grading()
    _assert_proved_verdicts(buchberger_algorithm(problem.generators, spec), criterion_calls)


def test_unproved_inputs_still_run_the_criterion(criterion_calls):
    ring = PolyRing(RationalField(), ("x", "y", "z"))
    spec = TermModuleGrading(TermOrderGrading.degrevlex(3), 1)
    gens = [ModuleElement.from_polynomial(ring.parse(t)) for t in KATSURA3]
    basis = buchberger_algorithm(gens, spec)
    want = interreduce(basis, spec).elements
    assert criterion_calls == []

    # a hand-built basis whose certificate fails: the criterion decides, and
    # on the generators alone it fails
    failing = CriterionResult(False, None)
    with pytest.raises(UsageError, match="requires a Macaulay basis"):
        interreduce(MacaulayBasis(gens, spec, None, False, failing), spec)
    assert len(criterion_calls) == 1
    red = interreduce(MacaulayBasis(basis.elements, spec, None, False, failing), spec)
    assert red.elements == want and red.certificate.holds and len(criterion_calls) == 2

    # an equal grading that is another object proves nothing about this one
    other = TermModuleGrading(TermOrderGrading.degrevlex(3), 1)
    red = interreduce(basis, other)
    assert red.elements == want and red.certificate.holds and len(criterion_calls) == 3

    # lifting is the criterion on X: the generators alone do not lift
    with pytest.raises(UsageError, match="cannot lift"):
        schreyer_syzygy_basis(MacaulayBasis(gens, spec, None, False, failing))
    assert len(criterion_calls) == 3
