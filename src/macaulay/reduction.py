"""The generalized reduction algorithm over graded modules.

Reduction against a finite set X works degree by degree.  In span mode a step
finds the largest degree b carrying a nonzero homogeneous component of m that
lies inside the workspace W_b(X) and subtracts the witnessing combination of
elements of X, killing that component.  In complement mode the step instead
projects the component onto the fixed complement of W_b(X), subtracting only
the W-part; the result is a normal form once every component sits inside its
complement.  Both relations terminate because the offending degree strictly
decreases and the degree monoid is well ordered.

A step at degree b changes m only in degree b and below: the leading forms of
the subtracted multiples cancel the W-part of the degree-b component, and
their tails land strictly lower.  So the components are visited in one
descending pass.  ``Reducer`` keeps the element as one mutable term map
``{(component, exponents): coeff}`` beside a key-sorted list of its live
terms, pops the terms of the highest live degree together, settles that
degree, and adds each subtracted generator's tail straight into the map; only
the final result is built as a ``ModuleElement``.  Only degrees actually
appearing in m are inspected (a zero component is never offending), which
realizes the maximal-degree selection without enumerating the degree monoid.

Under a module term order (``TermModuleGrading``, the elimination route's
order included) every graded component N_b is one module monomial, so W_b(X)
is 0 or all of N_b, and the pass is classical division (Cox, Little and
O'Shea, section 2.3): a term is reduced by the first X[i] whose leading
monomial divides it, with multiplier coeff / lc(X[i]).  That is what the
workspace route computes there too: in a one-dimensional component span and
complement steps coincide, both complement policies are the identity on
W_b = N_b, and the echelon form of the rows [c_1], [c_2], ... pivots on the
first row, whose combination is the inverse of c_1.  So under these
gradings the pass settles each degree, one term, by its first divisor,
cached per degree instead of a workspace, and every trace and final element
is the one the workspace route gives.  Each element's inverse leading
coefficient is computed once, when it joins X, and an element appended to
X is never the first divisor of a degree that already has one, so
``extend`` drops only the degrees cached as having none.

Steps are fully deterministic: the multipliers come from echelon
back-substitution in a fixed generator order, so identical inputs produce
identical traces.  A trace records only each step's degree and multipliers;
the coordinates of the representation, the intermediate elements and their
snapshot hashes are replayed from those records on demand.  The coordinates
are one element over X, the multipliers summed term by term: no (index,
monomial) pair repeats, because a multiplier x^u of X[i] fixes the degree of
its step and the pass settles each degree once.

Complement-mode reduction is k-linear.  With X and the fixed complement of
every W_b(X) chosen, each step is a fixed linear map of the component it
settles, so NF(sum c_t t) = sum c_t NF(t).  Faugere, Gianni, Lazard and
Mora (1993) tabulate monomial normal forms on the same ground.  So a
``Reducer`` under a grading that is not a module term order keeps a table
{module monomial t: NF(t)}.  The entry of t is marked seen after a normal
form whose input has t as a term and whose result is nonzero, and filled
the next time t is a term of an input, by the pass run on t alone; so the
table holds no more monomials than the grading's memo of monomial degrees
(``ModuleGrading.term_entries``).  An input whose normal form is zero, as
most of completion's combinations are, marks nothing: each step of its pass
meets a component that lies in W_b, which the pivot split settles alone, so
that pass is as cheap as a pass gets, while an entry for each of its
monomials would cost a projection of that monomial alone.  A normal form
sums the entries of its known monomials and runs one ordinary pass over the
unseen ones.  Its trace carries no steps: they are the pass's on the input,
and the pass runs when they are first read.  Any change to X changes normal
forms, a new tail behind the same leading form included, so ``extend``,
``replace`` and ``remove`` clear the table.  Under a module term order a
step is one cached divisor lookup, and completion changes X after every
adjoin: no table.
"""

from bisect import insort
from functools import cached_property
from operator import add, le, sub
from typing import NamedTuple

from .errors import MembershipError, UsageError
from .gradlin import (
    decompose_in_w,
    default_policy,
    check_policy,
    project_complement,
    w_space,
)
from .grading import TermModuleGrading
from .polymod import ModuleElement, leading_form, linear_combination

SPAN = "span"
COMPLEMENT = "complement"
_UNSEEN = object()


def _snapshot(m: ModuleElement) -> str:
    # imported here: hashlib maps OpenSSL, about 3.5 MB resident, and most runs hash nothing
    import hashlib

    return hashlib.sha256(str(m).encode()).hexdigest()[:16]


class ReductionStep(NamedTuple):
    degree: object
    multipliers: tuple  # ((element index, exponents, coefficient), ...)


class ReductionTrace:
    """Step log of one reduction run.

    ``coordinates`` is the coordinate element over X with input = final +
    dot(coordinates, X) bit-exactly: the step multipliers, each (index,
    monomial) pair once.  ``representation`` reads the accumulated ring
    multiplier r_i of each X[i] off it.  Both, and the per-step snapshots,
    are computed from the step records when first asked for.

    A normal form summed from a Reducer's monomial table comes with no
    ``steps`` but with that ``reducer``.  Its steps are those of the
    complement-mode pass on the input, and the first read runs that pass: on
    the Reducer itself while its X is the trace's (every mutator assigns a
    new list), and on a fresh Reducer over the trace's X otherwise.
    """

    def __init__(self, X, initial: ModuleElement, final, steps=None, reducer=None):
        self.X = X
        self.ring = initial.ring
        self.initial = initial
        self.final = final
        if steps is not None:
            self.steps = steps
        self._reducer = reducer

    @cached_property
    def steps(self):
        reducer = self._reducer
        if reducer.X is not self.X:
            reducer = Reducer(self.X, reducer.spec, reducer.policy)
        return reducer._reduce(self.initial, COMPLEMENT).steps

    @cached_property
    def coordinates(self) -> ModuleElement:
        terms = {(idx, exps): c for step in self.steps for idx, exps, c in step.multipliers}
        return ModuleElement.from_terms(self.ring, len(self.X), terms)

    @cached_property
    def representation(self):
        coords = self.coordinates
        return {i: coords.component(i) for i in dict.fromkeys(i for i, _ in coords.term_map())}

    def replay(self):
        """Yield the element after each step, rebuilt from the input."""
        current = self.initial
        for step in self.steps:
            for idx, exps, coeff in step.multipliers:
                current = current - self.X[idx].mul_term(exps, coeff)
            yield current

    def snapshots(self):
        """Short hash of the element after each step."""
        return [_snapshot(m) for m in self.replay()]

    def representation_sum(self, X) -> ModuleElement:
        return dot(self.coordinates, X)


class Reducer:
    """Reduction engine bound to a set X, one grading, one policy.

    One descending pass (``_reduce``) serves every grading and both modes.
    It settles a degree against W_b(X), or, under a module term order, by
    the degree's first divisor: the element and coefficient the one-row
    echelon form of W_b would pick (see the module docstring).  One cache
    keeps, per degree, whichever of the two the Reducer's grading settles
    by; ``w_space`` still builds W_b on request under a term order, uncached.
    Each module monomial's sort entry comes from the grading's memo
    (``term_entries``); it depends on the grading alone.  Under a term order
    each element's inverse leading coefficient is stored as it joins.  X
    can grow through ``extend`` and have one element swapped through
    ``replace``; either drops only the cached degrees that an added or
    removed leading form reaches, and ``extend`` under a term order only
    those cached with no divisor.  Every other workspace keeps the very same
    generator multiples in the same order, so its echelon form, and every
    step taken against it, does not change.  ``remove`` drops one element
    and every cached degree, since the entries number X by position.

    Warm normal forms under a grading that is not a module term order come
    from a table of monomial normal forms (see the module docstring), which
    each of the three mutators clears; their traces run the pass only if
    their steps are read.
    """

    def __init__(self, X, spec, policy=None, parts=None):
        X = list(X)
        if not X:
            raise UsageError("reduction needs a nonempty set")
        self.spec = spec
        self.ring = X[0].ring
        self.rank = X[0].rank
        if spec.ring.nvars != self.ring.nvars:
            raise UsageError("the grading and the reduction set have different numbers of variables")
        self.field = self.ring.field
        self.policy = policy if policy is not None else default_policy(self.field)
        check_policy(self.policy, self.field)
        # W_b is 0 or N_b: span and complement steps coincide
        self._by_divisor = isinstance(spec, TermModuleGrading)
        self.X = []
        self.lf_parts = []
        # each element's terms below its leading form: (component, exponents, coeff)
        self.tails = []
        # under a term order, each leading coefficient's inverse, field.one itself if 1
        self._invs = []
        # degree -> W_b, or under a term order its first divisor entry
        self._cache = {}
        # module monomial -> its normal form's (term, coeff) pairs, or None if seen once
        self._table = {}
        self.extend(X, parts)

    def _split(self, m, part=None):
        """(leading-form part, tail, inverse leading coefficient) of a reduction-set element, validated.

        ``part`` is m's leading part when the caller has it already.
        """
        if m.is_zero():
            raise UsageError("reduction set must not contain zero")
        self._check(m)
        if part is None:
            part = leading_form(m, self.spec)
        lead = part.element.term_map()
        tail = [(i, exps, c) for (i, exps), c in m.term_map().items() if (i, exps) not in lead]
        inv = None
        if self._by_divisor:
            (lc,) = lead.values()
            # stored as field.one itself, so that a step can skip the product
            inv = self.field.one if lc == self.field.one else self.field.inv(lc)
        return part, tail, inv

    def _forget(self, degree, appended=False):
        """Drop the cached degrees a leading form of this degree reaches (only None entries if appended, by divisor)."""
        spare = appended and self._by_divisor
        for b in [b for b, e in self._cache.items() if (e is None or not spare) and self.spec.reaches(degree, b)]:
            del self._cache[b]

    def extend(self, ys, parts=None):
        """Append elements to X, as if the Reducer had been built on X + ys.

        ``parts``, if given, are the leading parts of ys, in the same order.
        """
        ys = list(ys)
        parts = [None] * len(ys) if parts is None else list(parts)
        for part, tail, inv in [self._split(y, part) for y, part in zip(ys, parts, strict=True)]:
            self._forget(part.degree, appended=True)
            self.lf_parts.append(part)
            self.tails.append(tail)
            self._invs.append(inv)
        # a new list, so traces taken earlier keep the X they index
        self.X = self.X + ys
        self._table.clear()

    def replace(self, idx, y, part=None):
        """Put y in place of X[idx], as if the Reducer had been built that way.

        ``part``, if given, is the leading part of y.
        """
        part, tail, self._invs[idx] = self._split(y, part)
        old = self.lf_parts[idx]
        if part.element != old.element:
            self._forget(old.degree)
            self._forget(part.degree)
        self.lf_parts[idx] = part
        self.tails[idx] = tail
        self.X = self.X[:idx] + [y] + self.X[idx + 1 :]
        # a new tail behind the same leading form changes normal forms too
        self._table.clear()

    def remove(self, idx):
        """Drop X[idx], as if the Reducer had been built without it; the cache numbers X, so it is cleared."""
        del self.lf_parts[idx]
        del self.tails[idx]
        del self._invs[idx]
        self.X = self.X[:idx] + self.X[idx + 1 :]
        self._cache.clear()
        self._table.clear()

    def w_space(self, degree, skip=None):
        """W_b(X), or W_b without X[skip]; built afresh where X[skip] reaches b or the cache holds divisors."""
        if skip is not None:
            self._check_skip(skip)
        if self._by_divisor or (skip is not None and self.spec.reaches(self.lf_parts[skip].degree, degree)):
            return w_space(self.X, degree, self.spec, self.lf_parts, skip=skip)
        sub = self._cache.get(degree)
        if sub is None:
            sub = w_space(self.X, degree, self.spec, self.lf_parts)
            self._cache[degree] = sub
        return sub

    def _divisor(self, degree, start=0):
        """(index, multiplier, inverse leading coefficient) of the first divisor from X[start] on.

        Under a module term order a degree is (component, exponents + shift),
        and x^u * X[i] reaches it when the components agree and u, the
        difference of the exponents, is nonnegative.  None if no X[i] does.
        """
        comp, value = degree
        for idx in range(start, len(self.lf_parts)):
            lead_comp, lead_value = self.lf_parts[idx].degree
            if lead_comp == comp and all(map(le, lead_value, value)):
                return idx, tuple(map(sub, value, lead_value)), self._invs[idx]
        return None

    def _check_skip(self, skip):
        """Reject a ``skip`` that is not an index into X: a bool, a negative int or one past the end."""
        if not isinstance(skip, int) or isinstance(skip, bool) or not 0 <= skip < len(self.X):
            raise UsageError(f"skip must be an index into the {len(self.X)} elements of X, not {skip!r}")

    def _check(self, m):
        if (m.ring is not self.ring and m.ring != self.ring) or m.rank != self.rank:
            raise UsageError("element and reduction set have mismatched ring or rank")

    def _reduce(self, m, mode, skip=None):
        """One descending pass over the terms of m; returns the trace.

        Terms sit in one flat map, and ``live`` holds their (key, degree,
        term) entries from the grading's memo in key order.  The pass pops
        the highest live degree and settles it: a one-monomial degree (under
        a module term order) by its first divisor, the first after X[skip]
        when that is X[skip]; any other degree, whose live terms are popped
        together, against W_b.
        """
        self._check(m)
        by_divisor = self._by_divisor
        field = self.field
        mul, one, is_zero = field.mul, field.one, field.is_zero
        entries, fill = self.spec.term_entries, self.spec.term_entry
        terms = dict(m.term_map())
        live = sorted(entries.get(t) or fill(t) for t in terms)
        cache = self._cache
        steps = []
        rest = {}
        while live:
            _, degree, t = live.pop()
            if by_divisor:
                c = terms.pop(t)
                if is_zero(c):
                    continue
                entry = cache.get(degree, _UNSEEN)
                if entry is _UNSEEN:
                    entry = cache[degree] = self._divisor(degree)
                if entry is not None and entry[0] == skip:
                    entry = self._divisor(degree, skip + 1)
                if entry is None:
                    rest[t] = c
                    continue
                idx, mult, inv = entry
                decomposition = ((idx, mult, c if inv is one else mul(c, inv)),)
            else:
                component = [t]
                while live and live[-1][1] == degree:
                    component.append(live.pop()[2])
                component = {t: c for t in component if not is_zero(c := terms.pop(t))}
                if not component:
                    continue
                sub = self.w_space(degree, skip)
                if mode == SPAN:
                    try:
                        decomposition = decompose_in_w(component, sub)
                    except MembershipError:
                        rest.update(component)
                        continue
                else:
                    kept, decomposition = project_complement(component, sub, self.policy)
                    rest.update(kept)
                    if not decomposition:
                        continue
            steps.append(ReductionStep(degree, tuple(decomposition)))
            # the leading forms cancel what the step removes; the tails land lower
            for idx, mult, q in decomposition:
                nq = field.neg(q)
                for i, exps, tc in self.tails[idx]:
                    term = (i, tuple(map(add, exps, mult)))
                    old = terms.get(term)
                    if old is None:
                        insort(live, entries.get(term) or fill(term))
                        terms[term] = mul(nq, tc)
                    else:
                        terms[term] = field.add(old, mul(nq, tc))
        return ReductionTrace(self.X, m, ModuleElement._wrap(self.ring, self.rank, rest), steps)

    def _entry(self, t):
        """The normal form (term, coeff) pairs of the module monomial t, from the pass on t alone."""
        unit = ModuleElement._wrap(self.ring, self.rank, {t: self.field.one})
        return tuple(self._reduce(unit, COMPLEMENT).final.term_map().items())

    def _tabled(self, m):
        """The complement-mode pass on m, summed from the table where m's monomials are known.

        A monomial seen before since X last changed takes its entry, filled
        now if this is its second sighting; the unseen ones are reduced
        together in one pass, and marked seen only if m's normal form is
        nonzero.
        """
        self._check(m)
        table = self._table
        hits, fresh = [], {}
        for t, c in m.term_map().items():
            entry = table.get(t, _UNSEEN)
            if entry is _UNSEEN:
                fresh[t] = c
                continue
            if entry is None:
                entry = table[t] = self._entry(t)
            hits.append((c, entry))
        trace = self._summed(m, hits, fresh) if hits else self._reduce(m, COMPLEMENT)
        if fresh and not trace.final.is_zero():
            table.update(dict.fromkeys(fresh))
        return trace

    def _summed(self, m, hits, fresh):
        """The trace of m from its monomials' (coefficient, entry) ``hits`` and one pass on the ``fresh`` rest."""
        field = self.field
        mul, add = field.mul, field.add
        acc = {}
        if fresh:
            rest = ModuleElement._wrap(self.ring, self.rank, fresh)
            acc.update(self._reduce(rest, COMPLEMENT).final.term_map())
        for c, nf in hits:
            for t, v in nf:
                v = mul(c, v)
                acc[t] = add(acc[t], v) if t in acc else v
        is_zero = field.is_zero
        final = {t: v for t, v in acc.items() if not is_zero(v)}
        return ReductionTrace(self.X, m, ModuleElement._wrap(self.ring, self.rank, final), reducer=self)

    def _first_step(self, m, mode):
        trace = self._reduce(m, mode)
        if not trace.steps:
            return None
        step = trace.steps[0]
        return next(trace.replay()), (step.degree, list(step.multipliers))

    def span_step(self, m):
        """One -> step: kill the largest nonzero component lying in its W_b.

        Returns (m', (degree, decomposition)) or None when m is span-reduced.
        """
        return self._first_step(m, SPAN)

    def complement_step(self, m):
        """One => step: project the largest offending component onto W_b(X)^c."""
        return self._first_step(m, COMPLEMENT)

    def normal_form(self, m, skip=None):
        """Iterate => steps to the fixed point; returns (normal form, trace).

        With ``skip`` an index into X, reduce against X without X[skip]; the
        trace still numbers elements by their place in X.  ``skip`` must be
        an ``int``, not a ``bool``, with 0 <= skip < len(X).  Without
        ``skip``, and under a grading that is not a module term order, the
        answer is summed from the monomial table (``_tabled``), and the
        trace's steps are the pass's, run when first read.  A monomial is
        marked seen only in an input whose normal form is nonzero, and tabled
        when met again: an input that reduces to zero is settled by pivot
        splits alone.
        """
        if skip is not None:
            self._check_skip(skip)
        if skip is not None or self._by_divisor:
            trace = self._reduce(m, COMPLEMENT, skip)
        else:
            trace = self._tabled(m)
        return trace.final, trace

    def reduces_to_zero(self, m):
        """Iterate -> steps; True iff the closure reaches zero."""
        trace = self._reduce(m, SPAN)
        return trace.final.is_zero(), trace


def normal_form(m, X, spec, policy=None):
    return Reducer(X, spec, policy).normal_form(m)


def reduces_to_zero(m, X, spec):
    return Reducer(X, spec).reduces_to_zero(m)


def dot(coordinates: ModuleElement, X) -> ModuleElement:
    """Evaluate a coordinate vector against a tuple of module elements.

    Each term s * x^u * e_i of the coordinates adds s * x^u * X[i] into one
    term map; no partial products are built as elements.
    """
    if coordinates.rank != len(X):
        raise UsageError("coordinate rank must match the number of elements")
    ring = X[0].ring if X else coordinates.ring
    parts = ((s, u, X[i]) for (i, u), s in coordinates.term_map().items())
    return linear_combination(ring, X[0].rank if X else 1, parts)
