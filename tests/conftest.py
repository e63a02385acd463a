import pytest

from macaulay.coeff import PrimeField, RationalField
from macaulay.grading import (
    CoarseModuleGrading,
    TermModuleGrading,
    TermOrderGrading,
    TotalDegreeGrading,
)
from macaulay.polymod import ModuleElement, PolyRing
from macaulay.reduction import Reducer


@pytest.fixture
def Q():
    return RationalField()


@pytest.fixture
def F7():
    return PrimeField(7)


@pytest.fixture
def R2(Q):
    return PolyRing(Q, ("x1", "x2"))


@pytest.fixture
def R3(Q):
    return PolyRing(Q, ("x1", "x2", "x3"))


@pytest.fixture
def el(R2):
    return lambda s: ModuleElement.from_polynomial(R2.parse(s))


@pytest.fixture
def total2():
    return CoarseModuleGrading(TotalDegreeGrading(2), 1)


@pytest.fixture
def drl2():
    return TermModuleGrading(TermOrderGrading.degrevlex(2), 1)


@pytest.fixture
def circle_pair(el):
    """The running example: x1^2 + x2^2 - 1 and x1^2 x2^2 - 1."""
    return [el("x1^2 + x2^2 - 1"), el("x1^2*x2^2 - 1")]


@pytest.fixture
def c4_triple(el):
    return [el("x1^2 + x2^2 - 1"), el("x1^2*x2^2"), el("x1^3*x2 - x1*x2^3")]


@pytest.fixture
def count_reducers(monkeypatch):
    """Call to start counting: returns a list that gains every Reducer built from then on."""

    def start():
        built = []
        init = Reducer.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Reducer, "__init__", counting_init)
        return built

    return start
