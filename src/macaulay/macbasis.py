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
whole completion, and each normal form joins it as soon as it is found,
keeping every cached workspace that its leading form does not reach, so
the later combinations of the same round reduce against it too; on the lcm
path only the pairs with an adjoined element are formed at all (Gebauer
and Moeller's "new pairs only"), each built once, normalized, and put in
canonical order from its lcm's key and its indices, unrendered
(``canonical_order``).  Interreduction of a completion under the same
grading object takes its elements and their leading parts from the
completion's ``Reducer`` as they are.  Interreduction keeps one ``Reducer``
from pass to pass while the canonical order holds, hands the last one to
the closing criterion, and leaves the element being reduced out only at
its own degree, the one workspace it can change.  An element that reduces
to zero leaves the set and the ``Reducer`` at once, and the same pass goes
on with the next element.  Interreduction ends after a pass that changes
no leading form: each W_b(X), and the complement either policy fixes for
it, depends on the leading forms alone, and an element that reduces to
zero has its leading form in the W of the others, so dropping it changes
no W_b.  A further pass would leave every element as it is (a reduced
Groebner basis is one whose elements are each in normal form with respect
to the others: Cox, Little and O'Shea, section 2.7).

Syzygies of leading forms are produced two ways.  When every leading form is
a single term, the pairwise lcm combinations generate (the classical S-pairs),
and Buchberger's chain criterion drops the pairs that two pairs of strictly
smaller lcm already generate.  The generating set keeps every other pair,
since callers outside completion need all of it.  Only where pairs are
about to be reduced do two more tests skip some (``_combinations``):
Buchberger's product criterion, in the criterion and in completion, and
Gebauer and Moeller's M and F tests, in completion on every lcm path, the
elimination route's inner completions included.

Otherwise the generators are found by
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
S-pair path and terminates.  There it matters most that a normal form
joins the ``Reducer`` at once: reduced only against the set as the round
began, one round can adjoin many elements with the same leading term, and
their pairs multiply.

A completion on the elimination route needs these syzygies in every round,
and the inner basis of one round is where the next one starts: appending
the components e_y of the adjoined y changes the order key of no old
monomial, so the old inner basis keeps its leading terms and its settled
pairs in N + R^n.  The completion carries it from round to round, appends
only the new (lf y, e_y) and resumes the inner completion on the pairs that
involve them.
"""

import operator
from typing import NamedTuple

from .errors import ResourceLimitError, UsageError
from .grading import (
    SyzygyGrading,
    TermModuleGrading,
    TermOrderGrading,
)
from .polymod import (
    HomogeneousPart,
    ModuleElement,
    _canonical_key,
    _leading_terms,
    _render_term,
    _term_degrees,
    degree_of,
    homogeneous_components,
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

    # completion's leading parts of its distinct, normalized elements, for interreduce
    _lf_parts = None

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
    return m if m.is_zero() else _normalized(m, spec)[0]


def _normalized(m, spec):
    """(m normalized, its leading part), from one pass over the terms of nonzero m."""
    top, lead = _leading_terms(m, spec)
    _, coeff = max(lead.items(), key=_canonical_key)
    field = m.ring.field
    if coeff != field.one:
        inv = field.inv(coeff)
        m = m.scale(inv)
        lead = {t: field.mul(inv, c) for t, c in lead.items()}
    return m, HomogeneousPart(top, ModuleElement._wrap(m.ring, m.rank, lead))


def _distinct_normalized(elements, spec):
    """{normalized element: its leading part} over the nonzero elements, first seen first."""
    parts = {}
    for m in elements:
        if not m.is_zero():
            m, part = _normalized(m, spec)
            parts.setdefault(m, part)
    return parts


def _syntactic_degree(m: ModuleElement) -> int:
    return max((sum(exps) for _, exps in m.term_map()), default=0)


def _canonical_positions(keys, elements):
    """Positions of the elements ascending by key, equal keys by rendered text.

    Only elements of equal key are rendered, to compare with each other.
    """
    groups = {}
    for pos, k in enumerate(keys):
        groups.setdefault(k, []).append(pos)
    out = []
    for k in sorted(groups):
        group = groups[k]
        out.extend(sorted(group, key=lambda pos: str(elements[pos])) if len(group) > 1 else group)
    return out


def canonical_order(elements, spec):
    """Ascending by degree, ties broken by the rendered text.

    ``_lcm_pairs`` gives its normalized pairs x^u e_i + c x^w e_j, i < j,
    this order unrendered: by the key of the lcm term, then by (-i, 0, j)
    if c renders with a leading '-' and by (-i, 1, -j) otherwise.  Of two
    pairs of equal degree, the one with the larger i shows '0' where the
    other shows x^u, and with equal i and x^u, the one with the smaller j
    shows c x^w where the other shows '0'.  Under a module term order the
    degree fixes x^u for each i; under any other grading the text of x^u
    breaks the tie after -i.
    """
    elements = list(elements)
    keys = [spec.key(degree_of(m, spec)) for m in elements]
    return [elements[pos] for pos in _canonical_positions(keys, elements)]


# ---------------------------------------------------------------------------
# syzygies of leading forms


def monomial_syzygy_generators(terms, since=0):
    """Pairwise lcm syzygies of single-term module elements, chain-pruned.

    The pairs of ``_lcm_pairs``, ordered by (i, j), each scaled so that its
    e_i term has the inverse of lc_i as coefficient: the pair (i, j) is
    x^u e_i / lc_i - x^w e_j / lc_j with x^u lm_i = x^w lm_j = lcm.
    """
    if not terms:
        return []
    field = terms[0].ring.field
    out = []
    for s in _lcm_pairs(terms, since):
        i = min(s.term_map())[0]
        out.append(s.scale(field.inv(next(iter(terms[i].term_map().values())))))
    return out


def _lcm_pairs(terms, since=0, spec=None, blocks=None):
    """The chain-pruned lcm pairs (i, j), i < j, j >= since, of single terms, built normalized.

    The pair is x^u e_i - (lc_i / lc_j) x^w e_j, x^u lm_i = x^w lm_j = lcm,
    led by x^u e_i with coefficient 1.  Only terms of one component below
    ``blocks`` (all if None) are paired: pairs across components cancel
    nothing.  Buchberger's chain criterion drops (i, j) when a term k of the
    component, old or new, has lm_k dividing the lcm while lcm(i, k) and
    lcm(j, k) are proper divisors of it: sigma_ij is then a monomial
    combination of sigma_ik and sigma_kj, so by induction on the lcm the
    kept pairs still generate.  Each j's lcms with its component are formed
    once.  Without ``spec`` the pairs are ordered by (i, j); with it, in
    canonical order by the rule ``canonical_order`` states, unrendered.
    """
    ring = terms[0].ring
    field = ring.field
    one = field.one
    n = len(terms)
    leads, comps = [], {}
    for k, t in enumerate(terms):
        items = list(t.term_map().items())
        if len(items) != 1:
            raise UsageError("monomial syzygies need single-term elements")
        (comp, exps), coeff = items[0]
        leads.append(coeff)
        if blocks is None or comp < blocks:
            comps.setdefault(comp, []).append((k, exps))
    if spec is not None:
        entries, fill = spec.term_entries, spec.term_entry
        by_key = isinstance(spec, TermModuleGrading)
    keyed = []
    for comp, same in comps.items():
        for j, ej in same:
            if j < since:
                continue
            lcms = [tuple(map(max, ej, ek)) for _, ek in same]
            lc = leads[j]
            neg_inv = field.neg(lc if lc == one else field.inv(lc))
            for pos, (i, ei) in enumerate(same):
                if i >= j:
                    break
                lcm = lcms[pos]
                if any(
                    k != i and k != j
                    and all(map(operator.le, ek, lcm))
                    and lcms[q] != lcm
                    and tuple(map(max, ei, ek)) != lcm
                    for q, (k, ek) in enumerate(same)
                ):
                    continue
                u = tuple(map(operator.sub, lcm, ei))
                c = neg_inv if leads[i] == one else field.mul(leads[i], neg_inv)
                # both coefficients are nonzero, so there is nothing to filter
                s = ModuleElement._wrap(ring, n, {(i, u): one, (j, tuple(map(operator.sub, lcm, ej))): c})
                if spec is None:
                    keyed.append(((i, j), s))
                    continue
                text = "" if by_key else _render_term(ring, u, one, True)
                tie = (-i, text, 0, j) if field.render(c).startswith("-") else (-i, text, 1, -j)
                keyed.append((((entries.get((comp, lcm)) or fill((comp, lcm)))[0], tie), s))
    keyed.sort(key=operator.itemgetter(0))
    return [s for _, s in keyed]


class _ExtendedOrder(TermModuleGrading):
    """Block term order on N + R^n eliminating the N-part.

    A degrevlex module term order with zero shifts and a different key:
    degrees, translation, multipliers and component monomials are the ones
    of ``TermModuleGrading``, and each monomial's key is kept in the
    grading's memo, as for every module grading.  Every monomial of the
    first ``base_rank`` components outranks every coordinate monomial, so
    elements led by a coordinate monomial have no N-part at all.  Inside the
    coordinate block the order refines the syzygy grading (degree first,
    degrevlex and position to break ties), so the extracted elements split
    into homogeneous syzygies, which together form a generating set.
    """

    def __init__(self, syz: SyzygyGrading, base_rank: int):
        super().__init__(TermOrderGrading.degrevlex(syz.ring.nvars), base_rank + syz.rank)
        self.syz = syz
        self.base_rank = base_rank

    def _key(self, degree):
        # (block, syzygy key, degrevlex key, -component): the N block ranks
        # first and has no syzygy degree; the lower component index ranks higher
        i, u = degree
        if i < self.base_rank:
            return (1, None, self.ring.key(u), -i)
        return (0, self.syz.term_entry((i - self.base_rank, u))[0], self.ring.key(u), -i)


def syzygy_grading(spec, lf_elements) -> SyzygyGrading:
    """The grading of coordinate space over the degrees of the given forms."""
    return SyzygyGrading(spec, (degree_of(m, spec) for m in lf_elements))


class _InnerBasis:
    """One outer completion's last elimination-route inner basis, over N + R^n.

    ``buchberger_algorithm`` owns one and hands it to each round's
    ``leading_syzygy_generators``, which resumes it when n is that round's
    ``since`` and stores the grown basis back.
    """

    __slots__ = ("n", "elements")

    def __init__(self):
        self.n, self.elements = None, ()


def leading_syzygy_generators(lf_elements, spec, config=None, *, since=0, _inner=None):
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
    path forms only those pairs.  The elimination path keeps the coordinate
    elements that involve such an index; when ``_inner``, the caller's
    ``_InnerBasis``, holds the inner basis over the first ``since`` inputs,
    it resumes that basis with the rest appended instead of completing all
    n afresh, so only the pairs with a new element are formed.  ``_inner``
    then holds the grown basis.
    """
    lf_elements = list(lf_elements)
    degrees = []
    for m in lf_elements:
        # the one degree of each input's terms, or a refusal
        found = _term_degrees(m, spec)
        if len(found) != 1:
            raise UsageError("leading-form syzygies need nonzero homogeneous inputs")
        degrees += found
    if len(lf_elements) <= 1:
        return []
    if all(len(m.term_map()) == 1 for m in lf_elements):
        # under the elimination order pairs of coordinate terms would complete
        # the syzygy module itself, so only the N block is paired
        blocks = spec.base_rank if isinstance(spec, _ExtendedOrder) else None
        return _lcm_pairs(lf_elements, since, spec, blocks)

    ring = lf_elements[0].ring
    field = ring.field
    r = lf_elements[0].rank
    n = len(lf_elements)
    syzspec = SyzygyGrading(spec, degrees)
    ext = _ExtendedOrder(syzspec, r)
    # the last round's inner basis lies in N + R^since; re-ranked, every
    # monomial keeps its order key, so its leading terms and settled pairs hold
    resume = _inner is not None and _inner.n == since
    settled = []
    if resume:
        settled = [ModuleElement._wrap(ring, r + n, g.term_map()) for g in _inner.elements]
    zero_exps = (0,) * ring.nvars
    extended = list(settled)
    for i in range(since if resume else 0, n):
        terms = dict(lf_elements[i].term_map())
        terms[(r + i, zero_exps)] = field.one
        extended.append(ModuleElement.from_terms(ring, r + n, terms))
    inner = BuchbergerConfig(max_iterations=(config or BuchbergerConfig()).max_iterations)
    basis = buchberger_algorithm(extended, ext, inner, _settled=len(settled))
    if _inner is not None:
        _inner.n, _inner.elements = n, basis.elements
    raw = []
    # a settled element has coordinates below since only: the filter below drops it
    for g in basis.elements[len(settled):]:
        terms = g.term_map()
        if all(i >= r for i, _ in terms):
            raw.append(ModuleElement._wrap(ring, n, {(i - r, u): c for (i, u), c in terms.items()}))
    parts = (part.element for g in raw for part in homogeneous_components(g, syzspec))
    gens = canonical_order(_distinct_normalized(parts, syzspec), syzspec)
    return [s for s in gens if any(i >= since for i, _ in s.term_map())]


# ---------------------------------------------------------------------------
# criterion and completion


def _combinations(sygens, lfs, spec, X, since=0):
    """(s, dot(s, X)) for each syzygy s of the leading forms lfs that must be reduced.

    A zero combination is never yielded.  On the lcm path two tests skip a
    pair before it is applied to X:

    - the product criterion (Buchberger 1979) skips a pair of coprime leading
      monomials.  It holds in rank 1 under a term order only: there f and g
      with tails f' and g' have the lower-degree representation
      (g f' - f g') / (lc f lc g) of their S-combination, but in rank >= 2 a
      tail may lie in another component, and under POT degrevlex [x, 1] and
      [y, 0] leave the irreducible [0, y];
    - Gebauer and Moeller's M and F tests skip the pair (i, j) with
      i < since when an earlier pair (k, j), k < since, was not skipped by
      them and lcm(k, j) divides lcm(i, j): then sigma_ij is a monomial
      combination of sigma_ik, which is settled (``buchberger_algorithm``:
      X[:since] predates the round's adjoin), and sigma_kj, which the round
      handles.  Each skipped pair depends only on pairs before it, so the
      argument closes by induction along the round.  With since = 0, as in
      the criterion, they never fire.  Their B test, on pairs kept from one
      round to the next, has nothing to prune: no pair outlives its round.
    """
    lcm_path = all(len(m.term_map()) == 1 for m in lfs)
    # the leading exponents the product criterion reads, where it holds
    product = lcm_path and spec.rank == 1 and isinstance(spec, TermModuleGrading)
    coprime = [next(iter(m.term_map()))[1] for m in lfs] if product else None
    # j -> lcm(k, j) / lm_j for each earlier pair (k, j), k < since, the M and F tests kept
    kept = {}
    for s in sygens:
        if lcm_path:
            (i, u), (j, w) = sorted(s.term_map())
            if i < since:
                earlier = kept.setdefault(j, [])
                if any(all(map(operator.le, e, w)) for e in earlier):
                    continue
                earlier.append(w)
            if coprime is not None and u == coprime[j]:
                continue
        v = dot(s, X)
        if not v.is_zero():
            yield s, v


def buchberger_criterion(X, spec, config=None, *, _reducer=None) -> CriterionResult:
    """Does every leading-form syzygy of X, applied to X, reduce to zero?

    Pairs the product criterion covers are skipped (``_combinations``).
    ``_reducer``, if given, is a ``Reducer`` over exactly X under ``spec``,
    which the criterion uses instead of building one.  Its policy does not
    matter: the criterion only takes span steps, which split by the pivot
    policy whatever the Reducer's.
    """
    X = list(X)
    if not X:
        return CriterionResult(True, None)
    if any(m.is_zero() for m in X):
        raise UsageError("criterion inputs must be nonzero")
    reducer = _reducer if _reducer is not None else Reducer(X, spec)
    lfs = [p.element for p in reducer.lf_parts]
    if lfs == X:
        # homogeneous generators span a graded submodule, whose leading forms
        # are the generators themselves: the criterion holds outright
        return CriterionResult(True, None)
    sygens = leading_syzygy_generators(lfs, spec, config)
    for s, v in _combinations(sygens, lfs, spec, X):
        ok, trace = reducer.reduces_to_zero(v)
        if not ok:
            return CriterionResult(False, CriterionWitness(s, v, trace.final))
    return CriterionResult(True, None)


def buchberger_algorithm(generators, spec, config=None, *, _settled=0) -> MacaulayBasis:
    """Complete a generating set to a Macaulay basis.

    Each round takes a homogeneous syzygy generating set of the current
    leading forms, reduces to a normal form every combination whose syzygy
    involves an element adjoined in the round before, and adjoins each
    nonzero result at once, so that the later ones of the round reduce
    against it; the syzygies still index the set as the round began.  A
    syzygy supported on X[:since], the elements before that round's adjoin,
    lies in the syzygy module of their leading forms, which don't change;
    the generators of that module were reduced when it was current, and
    their normal forms are now in X, so each has a lower-degree
    representation over X and so does every combination of them: such a
    syzygy is settled.  Every adjoined element
    has its leading form outside the workspace of the elements before it,
    so the leading-form submodule grows strictly and the loop halts; the
    iteration cap only guards against runaway inputs.  On the lcm path
    ``_combinations`` skips more pairs before they are reduced.

    One ``Reducer`` serves every round.  Its leading forms feed the syzygy
    generation, and on each adjoin ``Reducer.extend`` drops only the
    workspaces the new leading form reaches; the others keep the same
    generators in the same order, so every normal form is the one a fresh
    Reducer over the grown set would give.  Each element's leading part is
    found once, when it is normalized, and handed to the Reducer.

    On the elimination route the round's inner completion is the last
    round's resumed (``_InnerBasis``, held here for the whole run).  That
    resumed run is this function again: with ``_settled`` > 0 the first
    ``_settled`` generators are a finished completion, whose pairs are
    settled, and the run starts as if they had just been completed, with
    ``since`` at ``_settled``.
    """
    config = config or BuchbergerConfig()
    parts = _distinct_normalized(generators, spec)
    X = list(parts)
    if not X:
        return MacaulayBasis((), spec, config.policy, True, CriterionResult(True, None))

    reducer = Reducer(X, spec, config.policy, parts=parts.values())
    policy = reducer.policy
    since = _settled
    inner = _InnerBasis()
    for _ in range(config.max_iterations):
        lfs = [p.element for p in reducer.lf_parts]
        sygens = leading_syzygy_generators(lfs, spec, config, since=since, _inner=inner)
        added = []
        for _, v in _combinations(sygens, lfs, spec, X, since):
            nf, _ = reducer.normal_form(v)
            if nf.is_zero():
                continue
            nf, part = _normalized(nf, spec)
            if config.degree_cap is not None and _syntactic_degree(nf) > config.degree_cap:
                raise ResourceLimitError("degree cap exceeded", partial=tuple(X + added))
            # lf nf lies in W_b(X) exactly when a span step exists at b
            if reducer.span_step(part.element) is not None:
                raise AssertionError("normal form left its leading form inside the workspace")
            added.append(nf)
            reducer.extend([nf], [part])
        if not added:
            basis = MacaulayBasis(tuple(X), spec, policy, False, CriterionResult(True, None))
            basis._lf_parts = tuple(reducer.lf_parts)
            return basis
        since = len(X)
        X.extend(added)
    raise ResourceLimitError("iteration cap exceeded", partial=tuple(X))


def interreduce(basis_or_elements, spec, policy=None) -> MacaulayBasis:
    """Reduce every element against the others until a fixed point.

    Each pass reduces the elements in canonical order against one
    ``Reducer``.  An element that reduces to zero is dropped from the list
    and from the Reducer (``Reducer.remove``), and the pass continues with
    the element that moves into its place; survivors are normalized.  A
    pass that changes no leading form ends the loop: every workspace and its
    complement are then final (see the module docstring), so each element
    is in normal form with respect to the others and another pass would
    change nothing.  The canonical order is still restored, since a new tail
    can move an element among those of its degree.  The Reducer, which
    ``replace`` and ``remove`` keep as if built on the current list, carries
    over to the next pass while the canonical order stays the same, and is
    rebuilt only when it changes.  Under a term order the result is the
    reduced Groebner basis, which is unique whatever order the drops came
    in.  The result generates the same submodule with the same leading-form
    submodule and is certified against the criterion before being returned,
    on the last pass's Reducer, or a fresh one if the closing reorder moved
    an element; the certificate covers exactly the returned elements under
    ``spec``.  A completion under this very ``spec`` object hands over its
    leading parts, and its elements are not normalized again.
    """
    parts = None
    if isinstance(basis_or_elements, MacaulayBasis):
        elements = list(basis_or_elements.elements)
        policy = policy if policy is not None else basis_or_elements.policy
        if basis_or_elements.spec is spec and basis_or_elements._lf_parts is not None:
            parts = list(basis_or_elements._lf_parts)
    else:
        elements = list(basis_or_elements)
    if parts is None:
        parts = _distinct_normalized(elements, spec)
        elements, parts = list(parts), list(parts.values())

    reducer = None
    settled = False
    for _ in range(100):
        order = _canonical_positions([spec.key(p.degree) for p in parts], elements)
        if order != list(range(len(order))):
            elements, parts = [elements[pos] for pos in order], [parts[pos] for pos in order]
            reducer = None
        if settled or len(elements) < 2:
            break
        if reducer is None:
            reducer = Reducer(elements, spec, policy, parts=parts)
        settled = True
        idx = 0
        while idx < len(elements):
            nf, _ = reducer.normal_form(elements[idx], skip=idx)
            if nf.is_zero():
                # the pass goes on with the next element, now at this index
                elements.pop(idx)
                parts.pop(idx)
                reducer.remove(idx)
                continue
            nf, part = _normalized(nf, spec)
            if nf != elements[idx]:
                settled = settled and part.element == parts[idx].element
                elements[idx], parts[idx] = nf, part
                reducer.replace(idx, nf, part)
            idx += 1
    else:
        raise ResourceLimitError("interreduction did not stabilize", partial=tuple(elements))

    certificate = buchberger_criterion(elements, spec, _reducer=reducer)
    if not certificate.holds:
        raise UsageError("interreduce requires a Macaulay basis")
    return MacaulayBasis(tuple(elements), spec, policy, True, certificate)


def lift_syzygy(s: ModuleElement, X, spec) -> ModuleElement:
    """Lift a homogeneous syzygy of the leading forms to a syzygy of X.

    Reduces the combination sum s_i m_i to zero and subtracts the recorded
    representation; the result t satisfies sum t_i m_i = 0 with leading form s.
    """
    return _lift(s, Reducer(X, spec))


def _lift(s, reducer):
    """s minus the coordinates over reducer.X of sum s_i m_i, reduced to zero."""
    v = dot(s, reducer.X)
    if v.is_zero():
        return s
    ok, trace = reducer.reduces_to_zero(v)
    if not ok:
        raise UsageError("cannot lift: the set does not satisfy the criterion")
    return s - trace.coordinates


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
