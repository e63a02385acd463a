"""Applications: elimination, syzygy bases, Hilbert functions, homogenization.

Elimination runs completion under the two-block grading that weighs kept and
dropped variables separately and compares dropped weight first; the basis
elements free of dropped variables generate the intersection with the kept
subring.  Hilbert functions of graded submodules are evaluated through the
leading-form module of a basis for a refining term order, one degree at a
time, by counting the module monomials some leading monomial divides.
Homogenization balances degrees with a distinguished variable t and is
inverse to setting t = 1.
"""

import operator
from typing import NamedTuple

from .errors import UsageError
from .grading import (
    BlockGrading,
    CoarseModuleGrading,
    TermModuleGrading,
    TermOrderGrading,
    TotalDegreeGrading,
    _compositions,
)
from .macbasis import (
    CriterionResult,
    MacaulayBasis,
    _lift,
    buchberger_algorithm,
    buchberger_criterion,
    leading_syzygy_generators,
    lift_syzygy,  # noqa: F401  (re-exported: part of this module's namespace)
    syzygy_grading,
)
from .polymod import (
    ModuleElement,
    PolyRing,
    Polynomial,
    degree_of,
    is_homogeneous,
    leading_form,
)
from .reduction import Reducer


# ---------------------------------------------------------------------------
# elimination


class EliminationSpec:
    """Kept-variable selection plus the induced two-block ring grading.

    Each kept variable is a name of the ring or an ``int`` index (not a bool).
    """

    def __init__(self, ring: PolyRing, keep):
        kept = []
        for item in keep:
            if isinstance(item, str):
                if item not in ring.names:
                    raise UsageError(f"unknown variable {item!r}")
                kept.append(ring.names.index(item))
            elif isinstance(item, int) and not isinstance(item, bool):
                kept.append(item)
            else:
                raise UsageError(f"kept variable {item!r} is neither a name nor an index")
        self.kept = tuple(sorted(set(kept)))
        self.grading = BlockGrading(ring.nvars, self.kept)

    def uses_only_kept(self, m: ModuleElement) -> bool:
        dropped = self.grading.dropped
        return all(exps[j] == 0 for _, exps in m.term_map() for j in dropped)


def eliminate(generators, elim: EliminationSpec, config=None):
    """Generators of the intersection with the subring on the kept variables.

    Completes the input to a Macaulay basis under the elimination grading and
    keeps the elements free of dropped variables; that subset is a basis of
    the intersection for the restricted grading.
    """
    generators = [g for g in generators if not g.is_zero()]
    if not generators:
        return []
    rank = generators[0].rank
    spec = CoarseModuleGrading(elim.grading, rank)
    basis = buchberger_algorithm(generators, spec, config)
    return [m for m in basis.elements if elim.uses_only_kept(m)]


# ---------------------------------------------------------------------------
# syzygy bases


def schreyer_syzygy_basis(basis: MacaulayBasis, config=None) -> MacaulayBasis:
    """A Macaulay basis of Syz(m_1, ..., m_n) from a basis X = {m_i}.

    Each homogeneous generator of the leading-form syzygies is lifted through
    a reduction of its combination to zero, all against one Reducer over X.
    The leading forms of the lifted set are those generators, so they
    generate Syz(lf m_1, ..., lf m_n), and the lifted set is then a Macaulay
    basis of the full syzygy module under the syzygy grading; the criterion
    certificate checks this before the basis is returned.
    """
    X = list(basis.elements)
    spec = basis.spec
    if not X:
        raise UsageError("cannot take syzygies of an empty basis")
    parts = [leading_form(m, spec) for m in X]
    lf_elements = [p.element for p in parts]
    syzspec = syzygy_grading(spec, lf_elements)
    sygens = leading_syzygy_generators(lf_elements, spec, config)
    for s in sygens:
        if not is_homogeneous(s, syzspec):
            raise UsageError("leading-form syzygy generators must be homogeneous")
    reducer = Reducer(X, spec, parts=parts)
    lifted = [t for t in (_lift(s, reducer) for s in sygens) if not t.is_zero()]
    certificate = buchberger_criterion(lifted, syzspec) if lifted else CriterionResult(True, None)
    if not certificate.holds:
        raise UsageError("lifted syzygies failed the criterion; input was not a Macaulay basis")
    return MacaulayBasis(tuple(lifted), syzspec, basis.policy, False, certificate)


# ---------------------------------------------------------------------------
# Hilbert functions


class HilbertTable(NamedTuple):
    degrees: tuple
    values: tuple


def default_fine_grading(coarse: CoarseModuleGrading) -> TermModuleGrading:
    """Degrevlex refinement of a total-degree module grading, shifts preserved."""
    d = coarse.ring.nvars
    shifts = tuple(
        tuple(s if k == 0 else 0 for k in range(d)) for s in coarse.shifts
    )
    return TermModuleGrading(TermOrderGrading.degrevlex(d), coarse.rank, shifts, tie="top")


def hilbert_function(generators, coarse: CoarseModuleGrading, degrees, config=None) -> HilbertTable:
    """dim M_b for each requested degree of a graded submodule M.

    The grading must be total degree, and all generators homogeneous for it.
    Dimensions are read off the leading-form module of a Macaulay basis under
    the refining term order: dim M_b equals the sum over the fiber of b of
    the workspace dimensions, one per module monomial of degree b.  Each such
    workspace sits in a single module monomial, so it has dimension 1 when
    some leading monomial divides that monomial and 0 otherwise.  Counting
    needs no order: each component's exponents are enumerated unsorted and
    tested against the leading exponents of that component.
    """
    if not isinstance(coarse.ring, TotalDegreeGrading):
        raise UsageError("hilbert requires the total-degree grading")
    generators = [g for g in generators if not g.is_zero()]
    for g in generators:
        if not is_homogeneous(g, coarse):
            raise UsageError("hilbert_function needs homogeneous generators")
    fine = default_fine_grading(coarse)
    # component -> leading exponents, the fine degree's value minus its shift
    leads = [[] for _ in range(coarse.rank)]
    if generators:
        for m in buchberger_algorithm(generators, fine, config).elements:
            comp, value = degree_of(m, fine)
            leads[comp].append(tuple(map(operator.sub, value, fine.shifts[comp])))
    ring_grading = coarse.ring
    values = []
    for b in degrees:
        dim = 0
        for comp, shift in enumerate(coarse.shifts):
            residual = ring_grading.sub(b, shift)
            if residual is None or not leads[comp]:
                continue
            for exps in _compositions(residual, ring_grading.nvars):
                dim += any(all(map(operator.le, lead, exps)) for lead in leads[comp])
        values.append(dim)
    return HilbertTable(tuple(degrees), tuple(values))


# ---------------------------------------------------------------------------
# homogenization


class HomogenizationContext:
    """Source ring T, homogenizing variable t, and the target shifts."""

    def __init__(self, source_ring: PolyRing, var: str = "t", shifts=None, rank: int = 1):
        if var in source_ring.names:
            raise UsageError(f"homogenizing variable {var!r} already exists")
        self.source = source_ring
        self.target = PolyRing(source_ring.field, source_ring.names + (var,))
        self.rank = rank
        self.shifts = tuple(shifts) if shifts is not None else (0,) * rank
        if len(self.shifts) != rank:
            raise UsageError("one shift per component required")
        for s in self.shifts:
            if not isinstance(s, int) or isinstance(s, bool):
                raise UsageError(f"homogenization shift {s!r} must be an integer")
        self.coarse = CoarseModuleGrading(TotalDegreeGrading(source_ring.nvars), rank, self.shifts)

    def target_grading(self) -> CoarseModuleGrading:
        return CoarseModuleGrading(TotalDegreeGrading(self.target.nvars), self.rank, self.shifts)


def homogenize(m, ctx: HomogenizationContext):
    """Degree-balance with t; lists map elementwise.

    Every term (i, a) of m acquires t to the power
    max(shifts) + deg m - shift_i - |a|, making the image homogeneous of
    degree max(shifts) + deg m in the shifted target grading.
    """
    if isinstance(m, (list, tuple)):
        return [homogenize(x, ctx) for x in m]
    if isinstance(m, Polynomial):
        m = ModuleElement.from_polynomial(m)
    if m.ring != ctx.source or m.rank != ctx.rank:
        raise UsageError("element does not match the homogenization context")
    if m.is_zero():
        return ModuleElement.from_terms(ctx.target, ctx.rank, {})
    deg = degree_of(m, ctx.coarse)
    top = max(ctx.shifts) + deg
    out = {}
    for (i, exps), c in m.term_map().items():
        tpow = top - ctx.shifts[i] - sum(exps)
        out[(i, exps + (tpow,))] = c
    return ModuleElement.from_terms(ctx.target, ctx.rank, out)


def dehomogenize(m, ctx: HomogenizationContext):
    """Set t = 1, componentwise; lists map elementwise."""
    if isinstance(m, (list, tuple)):
        return [dehomogenize(x, ctx) for x in m]
    if isinstance(m, Polynomial):
        m = ModuleElement.from_polynomial(m)
    if m.ring != ctx.target or m.rank != ctx.rank:
        raise UsageError("element does not match the homogenization context")
    field = ctx.source.field
    out = {}
    for (i, exps), c in m.term_map().items():
        key = (i, exps[:-1])
        prev = out.get(key, field.zero)
        out[key] = field.add(prev, c)
    return ModuleElement.from_terms(ctx.source, ctx.rank, out)


def verify_homogenization_equivalence(generators, ctx: HomogenizationContext, config=None) -> CriterionResult:
    """Certify the total-degree criterion for generators over the source ring.

    When it holds, the homogenized generators generate the homogenized module;
    the reported witness explains a failure otherwise.
    """
    generators = [
        ModuleElement.from_polynomial(g) if isinstance(g, Polynomial) else g
        for g in generators
    ]
    for g in generators:
        if g.ring != ctx.source or g.rank != ctx.rank:
            raise UsageError("generators do not match the homogenization context")
    return buchberger_criterion([g for g in generators if not g.is_zero()], ctx.coarse, config)
