"""Macaulay bases: the Buchberger criterion, completion, and syzygy lifting.

A finite generating set X is a Macaulay basis when the leading forms of X
generate the full leading-form submodule.  The working characterization is
Buchberger's: fix a homogeneous generating set of the syzygies of the leading
forms; X is a basis iff every such syzygy, applied to X itself, reduces to
zero.  Completion repeatedly adjoins normal forms of the failing combinations
until the criterion holds.  Each round it reduces only the generators that
involve an element adjoined in the round before: a syzygy supported on the
older elements lies in their syzygy module, whose generators were reduced
when it was current.  The work is incremental: one ``Reducer`` serves the
whole completion and is extended after each adjoin, keeping every cached
workspace that no new leading form reaches, and on the lcm path only the
pairs with an adjoined element are formed at all (Gebauer and Moeller's
"new pairs only").  Interreduction keeps one ``Reducer`` per pass over the
set and leaves the element being reduced out only at its own degree, the one
workspace it can change.

Syzygies of leading forms are produced two ways.  When every leading form is
a single term, the pairwise lcm combinations generate (the classical S-pairs),
and Buchberger's chain criterion drops the pairs that two pairs of strictly
smaller lcm already generate.  Otherwise the generators are found by
elimination: inside N + R^n, complete the elements (lf m_i, e_i) under a
block term order that ranks every N-monomial above every coordinate
monomial and refines the induced syzygy grading on the coordinate block, but
form only the pairs of elements led in the N block.  The N-led elements end
as a Groebner basis of the module the lf m_i generate, their coordinates
record how each is built from the lf m_i, and the reductions of their
S-pairs leave behind elements with vanishing N-part: by Schreyer's theorem
these generate Syz(lf m_1, ..., lf m_n).  They are a generating set, not a
basis of the syzygy module, which is all the criterion needs.  Since the
block order is a term order, the inner computation only ever needs the
S-pair path and terminates.
"""

import operator
from bisect import bisect_left
from typing import NamedTuple

from .errors import ResourceLimitError, UsageError
from .grading import (
    SyzygyGrading,
    TermModuleGrading,
    TermOrderGrading,
)
from .gradlin import default_policy, vector_of
from .polymod import (
    ModuleElement,
    degree_of,
    homogeneous_components,
    is_homogeneous,
    leading_form,
)
from .reduction import Reducer, dot


class BuchbergerConfig(NamedTuple):
    max_iterations: int = 64
    degree_cap: int | None = None
    policy: str | None = None


class CriterionWitness(NamedTuple):
    syzygy: ModuleElement
    combination: ModuleElement
    remainder: ModuleElement


class CriterionResult(NamedTuple):
    holds: bool
    witness: CriterionWitness | None


class MacaulayBasis:
    """A certified Macaulay basis of the submodule its elements generate."""

    def __init__(self, elements, spec, policy, reduced, certificate):
        self.elements = tuple(elements)
        self.spec = spec
        self.policy = policy
        self.reduced = reduced
        self.certificate = certificate

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        tag = "reduced " if self.reduced else ""
        return f"<{tag}MacaulayBasis of {len(self.elements)} elements>"


def normalize_element(m: ModuleElement, spec) -> ModuleElement:
    """Scale so the canonical first term of the leading form has coefficient 1."""
    if m.is_zero():
        return m
    lf = leading_form(m, spec).element
    (_, _), coeff = next(iter(lf.terms()))
    field = m.ring.field
    if coeff == field.one:
        return m
    return m.scale(field.inv(coeff))


def _syntactic_degree(m: ModuleElement) -> int:
    return max((sum(exps) for (_, exps), _ in m.terms()), default=0)


def canonical_order(elements, spec):
    """Ascending by degree, ties broken by the rendered text."""
    elements = sorted(elements, key=str)
    return sorted(elements, key=lambda m: spec.key(degree_of(m, spec)))


# ---------------------------------------------------------------------------
# syzygies of leading forms


def monomial_syzygy_generators(terms):
    """Pairwise lcm syzygies of single-term module elements, chain-pruned.

    Pairs in different free-module components cancel nothing and contribute
    no generator.  Coefficients are corrected so the combination vanishes.
    The pair (i, j) is dropped when a third element k of the same component
    has lm_k dividing lcm(i, j) while lcm(i, k) and lcm(j, k) are proper
    divisors of it (Buchberger's chain criterion): then sigma_ij is a
    monomial combination of sigma_ik and sigma_kj.  Each dropped pair is
    generated by pairs of strictly smaller lcm under divisibility, so by
    induction on the lcm the returned pairs still generate the syzygies.
    """
    return _lcm_syzygies(terms, 0)


def _lcm_syzygies(terms, since):
    """The pairs (i, j) of ``monomial_syzygy_generators(terms)`` with j >= since.

    Only those pairs are formed, in the same order; the chain criterion still
    looks at every term.
    """
    if not terms:
        return []
    infos = []
    ring = None
    for t in terms:
        items = list(t.term_map().items())
        if len(items) != 1:
            raise UsageError("monomial syzygies need single-term elements")
        (comp, exps), coeff = items[0]
        infos.append((comp, exps, coeff))
        ring = t.ring
    field = ring.field
    n = len(infos)
    out = []
    for i in range(n):
        ci, ei, coef_i = infos[i]
        for j in range(max(i + 1, since), n):
            cj, ej, coef_j = infos[j]
            if ci != cj:
                continue
            lcm = tuple(map(max, ei, ej))
            if any(
                k != i and k != j and ck == ci
                and all(map(operator.le, ek, lcm))
                and tuple(map(max, ei, ek)) != lcm
                and tuple(map(max, ej, ek)) != lcm
                for k, (ck, ek, _) in enumerate(infos)
            ):
                continue
            syz = ModuleElement.from_terms(
                ring,
                n,
                {
                    (i, tuple(map(operator.sub, lcm, ei))): field.inv(coef_i),
                    (j, tuple(map(operator.sub, lcm, ej))): field.neg(field.inv(coef_j)),
                },
            )
            out.append(syz)
    return out


class _ExtendedOrder(TermModuleGrading):
    """Block term order on N + R^n eliminating the N-part.

    A degrevlex module term order with zero shifts and a different key:
    degrees, translation, multipliers and component monomials are the ones
    of ``TermModuleGrading``.  Every monomial of the first ``base_rank``
    components outranks every coordinate monomial, so elements led by a
    coordinate monomial have no N-part at all.  Inside the coordinate block
    the order refines the syzygy grading (degree first, degrevlex and
    position to break ties), so the extracted elements split into
    homogeneous syzygies, which together form a generating set.
    """

    def __init__(self, syz: SyzygyGrading, base_rank: int):
        super().__init__(TermOrderGrading.degrevlex(syz.ring.nvars), base_rank + syz.rank)
        self.syz = syz
        self.base_rank = base_rank

    def key(self, degree):
        # (block, syzygy key, degrevlex key, -component): the N block ranks
        # first and has no syzygy degree; the lower component index ranks higher
        i, u = degree
        if i < self.base_rank:
            return (1, None, self.ring.key(u), -i)
        syz_degree = self.syz.degree_of_term(i - self.base_rank, u)
        return (0, self.syz.key(syz_degree), self.ring.key(u), -i)

    def n_block_syzygies(self, terms, since=0):
        """The lcm syzygies of the single terms led in the N block.

        Terms in coordinate components are never paired: their pairs would
        complete the syzygy module itself, which the generating set does not
        need.  Each pair is returned over all the terms, zero elsewhere.
        Only the pairs that involve a term from index ``since`` on are formed.
        """
        paired = [i for i, t in enumerate(terms) if next(iter(t.term_map()))[0] < self.base_rank]
        ring = terms[0].ring
        out = []
        for s in _lcm_syzygies([terms[i] for i in paired], bisect_left(paired, since)):
            polys = [ring.zero()] * len(terms)
            for i, p in zip(paired, s.polys):
                polys[i] = p
            out.append(ModuleElement(ring, polys))
        return out


def syzygy_grading(spec, lf_elements) -> SyzygyGrading:
    """The grading of coordinate space over the degrees of the given forms."""
    return SyzygyGrading(spec, tuple(degree_of(m, spec) for m in lf_elements))


def _split_homogeneous(elements, spec):
    out = []
    for m in elements:
        for part in homogeneous_components(m, spec):
            cand = normalize_element(part.element, spec)
            if cand not in out:
                out.append(cand)
    return out


def leading_syzygy_generators(lf_elements, spec, config=None, *, since=0):
    """A homogeneous generating set of Syz(lf m_1, ..., lf m_n).

    Inputs must be homogeneous.  Single-term inputs take the lcm fast path;
    otherwise the elimination method runs, whose inner completion pairs only
    the elements led in the N block.  The result generates the syzygies but
    is in general not a basis of them for the syzygy grading.  Every
    returned generator is homogeneous for the syzygy grading over the input
    degrees, because the graded pieces of a syzygy of homogeneous elements
    are again syzygies.

    With ``since`` > 0 only the generators that involve an element from
    index ``since`` on are returned, in the same canonical order.  The lcm
    path forms only those pairs; the elimination path filters its result.
    """
    lf_elements = list(lf_elements)
    for m in lf_elements:
        if m.is_zero() or not is_homogeneous(m, spec):
            raise UsageError("leading-form syzygies need nonzero homogeneous inputs")
    if len(lf_elements) <= 1:
        return []
    syzspec = syzygy_grading(spec, lf_elements)
    if all(len(m.term_map()) == 1 for m in lf_elements):
        if isinstance(spec, _ExtendedOrder):
            gens = spec.n_block_syzygies(lf_elements, since)
        else:
            gens = _lcm_syzygies(lf_elements, since)
        return canonical_order([normalize_element(s, syzspec) for s in gens], syzspec)

    ring = lf_elements[0].ring
    field = ring.field
    r = lf_elements[0].rank
    n = len(lf_elements)
    ext = _ExtendedOrder(syzspec, r)
    zero_exps = (0,) * ring.nvars
    extended = []
    for i, m in enumerate(lf_elements):
        terms = dict(m.term_map().items())
        terms[(r + i, zero_exps)] = field.one
        extended.append(ModuleElement.from_terms(ring, r + n, terms))
    inner = BuchbergerConfig(max_iterations=(config.max_iterations if config else 64))
    basis = buchberger_algorithm(extended, ext, inner)
    raw = []
    for g in basis.elements:
        if all(g.polys[k].is_zero() for k in range(r)):
            raw.append(ModuleElement(ring, g.polys[r:]))
    gens = canonical_order(_split_homogeneous(raw, syzspec), syzspec)
    return [s for s in gens if not all(p.is_zero() for p in s.polys[since:])]


# ---------------------------------------------------------------------------
# criterion and completion


def buchberger_criterion(X, spec, config=None) -> CriterionResult:
    """Does every leading-form syzygy of X, applied to X, reduce to zero?"""
    X = list(X)
    if not X:
        return CriterionResult(True, None)
    if any(m.is_zero() for m in X):
        raise UsageError("criterion inputs must be nonzero")
    lf_parts = [leading_form(m, spec) for m in X]
    if all(p.element == m for p, m in zip(lf_parts, X)):
        # homogeneous generators span a graded submodule, whose leading forms
        # are the generators themselves: the criterion holds outright
        return CriterionResult(True, None)
    sygens = leading_syzygy_generators([p.element for p in lf_parts], spec, config)
    reducer = Reducer(X, spec)
    for s in sygens:
        v = dot(s, X)
        if v.is_zero():
            continue
        ok, trace = reducer.reduces_to_zero(v)
        if not ok:
            return CriterionResult(False, CriterionWitness(s, v, trace.final))
    return CriterionResult(True, None)


def buchberger_algorithm(generators, spec, config=None) -> MacaulayBasis:
    """Complete a generating set to a Macaulay basis.

    Each round takes a homogeneous syzygy generating set of the current
    leading forms, reduces to a normal form against the frozen set every
    combination whose syzygy involves an element adjoined in the round
    before, and adjoins the nonzero results.  A syzygy supported on
    X[:since], the elements before that round's adjoin, lies in the syzygy
    module of their leading forms, which don't change; the generators of that
    module were reduced when it was current, and their normal forms are now
    in X, so each has a lower-degree representation over X and so does every
    combination of them.  Every adjoined element has its leading form outside
    the old workspace, so the leading-form submodule grows strictly and the
    loop halts; the iteration cap only guards against runaway inputs.

    One ``Reducer`` serves every round.  Its leading forms feed the syzygy
    generation, and after each adjoin ``Reducer.extend`` drops only the
    workspaces a new leading form reaches; the others keep the same
    generators in the same order, so every normal form is the one a fresh
    Reducer over the grown set would give.
    """
    config = config or BuchbergerConfig()
    gens = [g for g in generators if not g.is_zero()]
    policy = config.policy
    if gens:
        field = gens[0].ring.field
        policy = policy if policy is not None else default_policy(field)
    X = []
    for g in gens:
        ng = normalize_element(g, spec)
        if ng not in X:
            X.append(ng)
    if not X:
        return MacaulayBasis((), spec, policy, True, CriterionResult(True, None))

    reducer = Reducer(X, spec, policy)
    since = 0
    for _ in range(config.max_iterations):
        lfs = [p.element for p in reducer.lf_parts]
        sygens = leading_syzygy_generators(lfs, spec, config, since=since)
        added = []
        for s in sygens:
            v = dot(s, X)
            if v.is_zero():
                continue
            nf, _ = reducer.normal_form(v)
            if nf.is_zero():
                continue
            nf = normalize_element(nf, spec)
            if nf in added:
                continue
            if config.degree_cap is not None and _syntactic_degree(nf) > config.degree_cap:
                raise ResourceLimitError("degree cap exceeded", partial=tuple(X + added))
            added.append(nf)
        if not added:
            return MacaulayBasis(tuple(X), spec, policy, False, CriterionResult(True, None))
        for y in added:
            part = leading_form(y, spec)
            sub = reducer.w_space(part.degree)
            if sub.contains(vector_of(part.element, sub.ambient, y.ring.field)):
                raise AssertionError("normal form left its leading form inside the workspace")
        since = len(X)
        X.extend(added)
        reducer.extend(added)
    raise ResourceLimitError("iteration cap exceeded", partial=tuple(X))


def interreduce(basis_or_elements, spec, policy=None) -> MacaulayBasis:
    """Reduce every element against the others until a fixed point.

    Elements that reduce to zero are dropped; survivors are normalized.  The
    result generates the same submodule with the same leading-form submodule
    and is certified against the criterion before being returned.
    """
    if isinstance(basis_or_elements, MacaulayBasis):
        elements = list(basis_or_elements.elements)
        policy = policy if policy is not None else basis_or_elements.policy
    else:
        elements = list(basis_or_elements)
    elements = [normalize_element(m, spec) for m in elements if not m.is_zero()]
    deduped = []
    for m in elements:
        if m not in deduped:
            deduped.append(m)
    elements = deduped

    for _ in range(100):
        elements = canonical_order(elements, spec)
        if len(elements) < 2:
            break
        reducer = Reducer(elements, spec, policy)
        changed = False
        for idx in range(len(elements)):
            nf, _ = reducer.normal_form(elements[idx], skip=idx)
            if nf.is_zero():
                # the order changes, and with it the pivot rows: a new pass
                elements.pop(idx)
                changed = True
                break
            nf = normalize_element(nf, spec)
            if nf != elements[idx]:
                elements[idx] = nf
                reducer.replace(idx, nf)
                changed = True
        if not changed:
            break
    else:
        raise ResourceLimitError("interreduction did not stabilize", partial=tuple(elements))

    certificate = buchberger_criterion(elements, spec)
    if not certificate.holds:
        raise UsageError("interreduce requires a Macaulay basis")
    return MacaulayBasis(tuple(elements), spec, policy, True, certificate)


def lift_syzygy(s: ModuleElement, X, spec) -> ModuleElement:
    """Lift a homogeneous syzygy of the leading forms to a syzygy of X.

    Reduces the combination sum s_i m_i to zero and subtracts the recorded
    representation; the result t satisfies sum t_i m_i = 0 with leading form s.
    """
    X = list(X)
    v = dot(s, X)
    return s if v.is_zero() else _lift(s, v, Reducer(X, spec))


def _lift(s, v, reducer):
    """s minus the representation over reducer.X of v = sum s_i m_i, reduced to zero."""
    ok, trace = reducer.reduces_to_zero(v)
    if not ok:
        raise UsageError("cannot lift: the set does not satisfy the criterion")
    ring = s.ring
    coords = [trace.representation.get(i, ring.zero()) for i in range(len(reducer.X))]
    return s - ModuleElement(ring, coords)


def degree_profile(basis_or_elements, spec=None):
    """Multiset of element degrees as a mapping degree -> count."""
    if isinstance(basis_or_elements, MacaulayBasis):
        elements = basis_or_elements.elements
        spec = basis_or_elements.spec
    else:
        elements = list(basis_or_elements)
        if spec is None:
            raise UsageError("degree_profile needs a grading for a raw element list")
    profile = {}
    for m in elements:
        d = degree_of(m, spec)
        profile[d] = profile.get(d, 0) + 1
    return profile
