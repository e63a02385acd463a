"""Exact linear algebra inside graded components of a free module.

A graded component N_b has the module monomials of degree b as a canonical
ordered basis.  The workspace W_b(X), spanned by all monomial multiples of the
leading forms of X that land in degree b, is kept as a reduced row-echelon
matrix over that basis, with bookkeeping that expresses every echelon row as a
combination of the original generator multiples: membership tests, canonical
complements and explicit decompositions all come from the same elimination.
Each multiple is a row of a few nonzeros, read straight off its term map, so
the matrix, its echelon rows and their combinations are all kept sparse, as
``{position: value}`` and ``{generator index: value}`` maps without zeros,
and the elimination (``coeff.rref``) visits only stored entries.

Two complement policies are supported.  The pivot-canonical complement (the
span of the non-pivot monomials) exists in every characteristic.  The
monomial-orthogonal complement, taken with respect to the inner product that
makes the module monomials orthonormal, needs characteristic zero; it is the
choice that is invariant under signed permutations of the variables.

The echelon basis of a workspace is fixed, so each complement projection is a
fixed linear map of the component, and so is the map to generator
coefficients.  A workspace stores these maps column by column, sparse and
filled the first time a column is met: column j holds the W-part of the unit
vector e_j and its combination over the generator multiples.  Under the pivot
policy that is the echelon row pivoting at j, or nothing; under the
orthogonal policy it is G^-1 applied to column j of the rows, with the Gram
matrix G inverted once per workspace.  Projecting, decomposing and testing
membership then cost one pass over the terms an element has.

Both policies split an element by the pivot map first, v = w + k, with w in
W and k on the non-pivot columns; that is the pivot policy's answer.  The
orthogonal projection P is linear and P(w) = w, so the orthogonal split of v
is w plus that of k.  And w's orthogonal combination is its pivot one: G^-1
applied to the rows' products with w gives w's coordinates on the echelon
rows, which the fully reduced echelon form reads at the pivots.  So the
orthogonal map is stored for non-pivot columns only, and a workspace whose
inputs all lie in W never inverts its Gram matrix.  For n ambient
monomials, g generator multiples and a d-dimensional W, the echelon rows and
combinations store at most d * (n + g) entries, the pivot columns are the
echelon rows themselves, and the orthogonal columns store at most
(n - d) * (n + g); the bounds count nonzeros only.

Projections and decompositions take a homogeneous element as its term map
``{(component, exponents): coeff}``, the form the reduction loop keeps.
"""

from functools import cached_property
from operator import add
from typing import NamedTuple

from .coeff import rref
from .errors import MembershipError, UsageError
from .polymod import ModuleElement, leading_form

PIVOT = "pivot-canonical"
ORTHOGONAL = "monomial-orthogonal"


def default_policy(field) -> str:
    return ORTHOGONAL if field.characteristic == 0 else PIVOT


def check_policy(policy, field):
    if policy not in (PIVOT, ORTHOGONAL):
        raise UsageError(f"unknown complement policy {policy!r}")
    if policy == ORTHOGONAL and field.characteristic != 0:
        raise UsageError("monomial-orthogonal complements need characteristic zero")


class ComponentBasis(NamedTuple):
    """Ordered monomial basis of one graded component N_b."""

    monomials: tuple
    index: dict

    @property
    def dim(self):
        return len(self.monomials)


def component_monomials(spec, degree) -> ComponentBasis:
    # the grading lists them in canonical order: component ascending, degrevlex descending inside
    mons = tuple(spec.component_monomials(degree))
    return ComponentBasis(mons, {m: k for k, m in enumerate(mons)})


def vector_of(element: ModuleElement, basis: ComponentBasis, field):
    """Coordinates of a homogeneous element over the component basis."""
    vec = [field.zero] * basis.dim
    for pos, c in _positions(element.term_map(), basis):
        vec[pos] = c
    return vec


class GradedSubspace:
    """Echelonized subspace of one graded component, with generator bookkeeping.

    ``gens`` labels the raw rows whose span this is (for a W-space, the
    generator multiples (element index, multiplier exponents)).  The raw
    rows, the echelon ``rows`` and their ``combos`` are sparse, as ``rref``
    takes and returns them: row k is a ``{position: value}`` map over the
    ambient basis, and ``combos[k]`` a ``{generator index: value}`` map that
    expresses it in the raw rows.

    Both complement projections are kept as per-column maps: the first time a
    policy meets ambient column j, the W-part of the unit vector e_j and its
    combination over ``gens`` are stored as (position, value) and (generator
    index, value) pairs.  A split then costs one pass over the nonzero terms
    of its input.  ``project_complement`` hands the orthogonal map only the
    pivot split's remainder, so for n ambient columns, g generators and
    dimension d its columns hold at most (n - d) * (n + g) entries.
    """

    def __init__(self, ambient: ComponentBasis, field, gens, raw_rows):
        self.ambient = ambient
        self.field = field
        self.gens = tuple(gens)
        self.rows, self.pivots, self.combos = rref(raw_rows, field)
        self._columns = {PIVOT: {}, ORTHOGONAL: {}}

    @property
    def dim(self):
        return len(self.rows)

    def split(self, svec, policy):
        """Split a sparse vector [(position, value)] along W and its complement.

        Returns ``(kept, combo)``: ``kept`` is the part in the policy's fixed
        complement as (position, value) pairs in position order, and ``combo``
        writes the rest, which lies in W, over ``gens`` as (generator index,
        value) pairs in generator order; zero entries are dropped from both.
        """
        field = self.field
        if not self.rows:
            return sorted((j, v) for j, v in svec if not field.is_zero(v)), []
        columns = self._columns[policy]
        mul, add, one = field.mul, field.add, field.one
        kept = dict(svec)
        combo = {}
        for j, v in svec:
            column = columns.get(j)
            if column is None:
                column = columns[j] = self._column(policy, j)
            wpart, wcombo = column
            for pos, w in wpart:
                prod = v if w is one else mul(v, w)
                kept[pos] = field.sub(kept[pos], prod) if pos in kept else field.neg(prod)
            for g, w in wcombo:
                prod = v if w is one else mul(v, w)
                combo[g] = add(combo[g], prod) if g in combo else prod
        is_zero = field.is_zero
        return (
            sorted((j, v) for j, v in kept.items() if not is_zero(v)),
            sorted((g, c) for g, c in combo.items() if not is_zero(c)),
        )

    def _column(self, policy, j):
        """(W-part of e_j, its combination over gens), both as sparse pairs.

        Entries equal to one are stored as ``field.one`` itself, so that a
        split can skip those products (most pivot-row entries are one).
        """
        field = self.field
        if policy == PIVOT:
            # the echelon form is fully reduced, so only the row pivoting at j sees e_j
            if j not in self.pivots:
                return (), ()
            k = self.pivots.index(j)
            column = sorted(self.rows[k].items()), sorted(self.combos[k].items())
        else:
            # c = G^-1 (column j of the rows); the W-part is sum c_k row_k
            rhs = [(l, row[j]) for l, row in enumerate(self.rows) if j in row]
            coeffs = [_dot(rhs, inv_row, field) for inv_row in self.gram_inverse]
            column = _combine(coeffs, self.rows, field), _combine(coeffs, self.combos, field)
        one = field.one
        return tuple(tuple((p, one if v == one else v) for p, v in pairs) for pairs in column)

    def contains(self, vec) -> bool:
        """Is the dense coordinate vector ``vec`` (see ``vector_of``) in the span?"""
        is_zero = self.field.is_zero
        kept, _ = self.split([(p, v) for p, v in enumerate(vec) if not is_zero(v)], PIVOT)
        return not kept

    @cached_property
    def gram_inverse(self):
        """Inverse of the Gram matrix of the echelon rows (characteristic 0).

        The rows are independent, so over a field of characteristic zero the
        Gram matrix is invertible and its echelon form is the identity; the
        combination matrix of that elimination is the inverse, one sparse
        ``{row index: value}`` map per row of G^-1.
        """
        field = self.field
        rows = self.rows
        gram = [{l: _dot(u.items(), v, field) for l, v in enumerate(rows)} for u in rows]
        _, _, inverse = rref(gram, field)
        return inverse


def _dot(pairs, vec, field):
    """sum a * vec[p] over the (position, a) pairs, for a sparse map ``vec``."""
    acc = field.zero
    for p, a in pairs:
        if p in vec:
            acc = field.add(acc, field.mul(a, vec[p]))
    return acc


def _combine(coeffs, vectors, field):
    """sum coeffs[k] * vectors[k], for sparse maps, as (position, value) pairs."""
    acc = {}
    for c, vec in zip(coeffs, vectors):
        if field.is_zero(c):
            continue
        for p, v in vec.items():
            prod = field.mul(c, v)
            acc[p] = field.add(acc[p], prod) if p in acc else prod
    return tuple(sorted((p, v) for p, v in acc.items() if not field.is_zero(v)))


def w_space(X, degree, spec, lf_parts=None, skip=None) -> GradedSubspace:
    """The span of degree-matching monomial multiples of the leading forms of X.

    ``skip`` leaves out the element with that index; the generators keep the
    indices of X.
    """
    if not X:
        raise UsageError("w_space needs at least one element")
    ring = X[0].ring
    field = ring.field
    if lf_parts is None:
        lf_parts = [leading_form(m, spec) for m in X]
    ambient = component_monomials(spec, degree)
    index = ambient.index
    gens = []
    raw_rows = []
    for idx, part in enumerate(lf_parts):
        if idx == skip:
            continue
        terms = part.element.term_map()
        for mult in spec.multipliers(part.degree, degree):
            gens.append((idx, mult))
            # the row of x^mult * (leading form), read off the shifted terms
            raw_rows.append({index[i, tuple(map(add, m, mult))]: c for (i, m), c in terms.items()})
    return GradedSubspace(ambient, field, gens, raw_rows)


def project_complement(terms, sub: GradedSubspace, policy: str):
    """Split a homogeneous element into its complement part and its W-part.

    Returns ``(kept, decomposition)``: ``kept`` is the component in the fixed
    complement of W as a term map without zero coefficients, in ambient
    order, and ``decomposition`` writes ``element - kept``, which lies in W,
    like ``decompose_in_w`` does.  Pivot-canonical: eliminate the pivot
    coordinates, leaving the span of the non-pivot monomials.
    Monomial-orthogonal: subtract the orthogonal projection onto W, taken
    of what the pivot split keeps (see the module docstring).
    """
    field = sub.field
    check_policy(policy, field)
    kept, combo = sub.split(_positions(terms, sub.ambient), PIVOT)
    if kept and policy == ORTHOGONAL:
        kept, extra = sub.split(kept, ORTHOGONAL)
        acc = dict(combo)
        for g, c in extra:
            acc[g] = field.add(acc[g], c) if g in acc else c
        combo = sorted((g, c) for g, c in acc.items() if not field.is_zero(c))
    monomials = sub.ambient.monomials
    return {monomials[p]: c for p, c in kept}, _generator_terms(sub, combo)


def _positions(terms, basis: ComponentBasis):
    """A term map as a sparse vector [(position, coeff)] over the component basis."""
    index = basis.index
    try:
        return [(index[key], c) for key, c in terms.items()]
    except KeyError:
        raise UsageError("element has a term outside the graded component") from None


def _generator_terms(sub: GradedSubspace, combo):
    """[(element index, multiplier exponents, coefficient)] for a sparse combo over sub.gens."""
    gens = sub.gens
    return [(*gens[g], c) for g, c in combo]


def decompose_in_w(terms, sub: GradedSubspace):
    """Write a member of W, given as a term map, as sum of c * x^a * (leading form of X[i]).

    Returns [(element index, multiplier exponents, coefficient)] in generator
    enumeration order; raises MembershipError if the element is outside W.
    """
    kept, combo = sub.split(_positions(terms, sub.ambient), PIVOT)
    if kept:
        raise MembershipError("element does not lie in the workspace W_b(X)")
    return _generator_terms(sub, combo)
