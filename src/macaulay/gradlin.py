"""Exact linear algebra inside graded components of a free module.

A graded component N_b has the module monomials of degree b as a canonical
ordered basis.  The workspace W_b(X), spanned by all monomial multiples of the
leading forms of X that land in degree b, is kept as a reduced row-echelon
matrix over that basis, with bookkeeping that expresses every echelon row as a
combination of the original generator multiples: membership tests, canonical
complements and explicit decompositions all come from the same elimination.

Two complement policies are supported.  The pivot-canonical complement (the
span of the non-pivot monomials) exists in every characteristic.  The
monomial-orthogonal complement, taken with respect to the inner product that
makes the module monomials orthonormal, needs characteristic zero; it is the
choice that is invariant under signed permutations of the variables.  Its
Gram system is inverted once per workspace, the first time a projection
needs it.

Projections and decompositions take a homogeneous element as its term map
``{(component, exponents): coeff}``, the form the reduction loop keeps.
"""

from functools import cached_property
from typing import NamedTuple

from .coeff import rref
from .errors import MembershipError, UsageError
from .grading import degrevlex_key
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
    # canonical order: component ascending, degrevlex descending inside
    mons = sorted(set(spec.component_monomials(degree)), key=lambda t: degrevlex_key(t[1]), reverse=True)
    mons = tuple(sorted(mons, key=lambda t: t[0]))
    return ComponentBasis(mons, {m: k for k, m in enumerate(mons)})


def vector_of(element: ModuleElement, basis: ComponentBasis, field):
    """Coordinates of a homogeneous element over the component basis."""
    return _vector(element.term_map(), basis, field)


def _vector(terms, basis: ComponentBasis, field):
    vec = [field.zero] * basis.dim
    for key, c in terms.items():
        pos = basis.index.get(key)
        if pos is None:
            raise UsageError("element has a term outside the graded component")
        vec[pos] = c
    return vec


class GradedSubspace:
    """Echelonized subspace of one graded component, with generator bookkeeping.

    ``gens`` labels the raw rows whose span this is (for a W-space, the
    generator multiples (element index, multiplier exponents)); ``combos``
    expresses each echelon row in those rows.
    """

    def __init__(self, ambient: ComponentBasis, field, gens, raw_rows):
        self.ambient = ambient
        self.field = field
        self.gens = tuple(gens)
        self.rows, self.pivots, self.combos = rref(raw_rows, field)

    @property
    def dim(self):
        return len(self.rows)

    def reduce_vector(self, vec):
        """Eliminate pivot coordinates; returns (residue, combo over gens)."""
        field = self.field
        residue = list(vec)
        combo = [field.zero] * len(self.gens)
        for row, piv, rcombo in zip(self.rows, self.pivots, self.combos):
            c = residue[piv]
            if field.is_zero(c):
                continue
            residue = [field.sub(v, field.mul(c, w)) for v, w in zip(residue, row)]
            combo = [field.add(v, field.mul(c, w)) for v, w in zip(combo, rcombo)]
        return residue, combo

    def contains(self, vec) -> bool:
        residue, _ = self.reduce_vector(vec)
        return all(self.field.is_zero(v) for v in residue)

    @cached_property
    def gram_inverse(self):
        """Inverse of the Gram matrix of the echelon rows (characteristic 0).

        The rows are independent, so over a field of characteristic zero the
        Gram matrix is invertible and its echelon form is the identity; the
        combination matrix of that elimination is the inverse.
        """
        field = self.field
        gram = [[_dot(u, v, field) for v in self.rows] for u in self.rows]
        _, _, inverse = rref(gram, field)
        return inverse


def w_space(X, degree, spec, lf_parts=None) -> GradedSubspace:
    """The span of degree-matching monomial multiples of the leading forms of X."""
    if not X:
        raise UsageError("w_space needs at least one element")
    ring = X[0].ring
    field = ring.field
    if lf_parts is None:
        lf_parts = [leading_form(m, spec) for m in X]
    ambient = component_monomials(spec, degree)
    gens = []
    raw_rows = []
    for idx, part in enumerate(lf_parts):
        for mult in spec.multipliers(part.degree, degree):
            shifted = part.element.mul_term(mult)
            gens.append((idx, mult))
            raw_rows.append(vector_of(shifted, ambient, field))
    return GradedSubspace(ambient, field, gens, raw_rows)


def project_complement(terms, sub: GradedSubspace, policy: str):
    """Split a homogeneous element into its complement part and its W-part.

    Returns ``(kept, decomposition)`` from one elimination: ``kept`` is the
    component in the fixed complement of W as a term map without zero
    coefficients, and ``decomposition`` writes ``element - kept``, which lies
    in W, like ``decompose_in_w`` does.  Pivot-canonical: eliminate the pivot
    coordinates, leaving the span of the non-pivot monomials.
    Monomial-orthogonal: subtract the orthogonal projection onto W.
    """
    field = sub.field
    check_policy(policy, field)
    vec = _vector(terms, sub.ambient, field)
    if policy == PIVOT:
        out, combo = sub.reduce_vector(vec)
    else:
        out = vec
        combo = [field.zero] * len(sub.gens)
        if sub.rows:
            # each cf is the Gram coefficient of its echelon row in the projection onto W
            rhs = [_dot(row, vec, field) for row in sub.rows]
            for inv_row, row, rcombo in zip(sub.gram_inverse, sub.rows, sub.combos):
                cf = _dot(inv_row, rhs, field)
                out = [field.sub(v, field.mul(cf, w)) for v, w in zip(out, row)]
                combo = [field.add(v, field.mul(cf, w)) for v, w in zip(combo, rcombo)]
    kept = {m: c for m, c in zip(sub.ambient.monomials, out) if not field.is_zero(c)}
    return kept, _generator_terms(sub, combo)


def _generator_terms(sub: GradedSubspace, combo):
    """[(element index, multiplier exponents, coefficient)] for the nonzero entries of combo."""
    return [(idx, mult, c) for (idx, mult), c in zip(sub.gens, combo) if not sub.field.is_zero(c)]


def _dot(u, v, field):
    acc = field.zero
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def decompose_in_w(terms, sub: GradedSubspace):
    """Write a member of W, given as a term map, as sum of c * x^a * (leading form of X[i]).

    Returns [(element index, multiplier exponents, coefficient)] in generator
    enumeration order; raises MembershipError if the element is outside W.
    """
    field = sub.field
    vec = _vector(terms, sub.ambient, field)
    residue, combo = sub.reduce_vector(vec)
    if not all(field.is_zero(v) for v in residue):
        raise MembershipError("element does not lie in the workspace W_b(X)")
    return _generator_terms(sub, combo)
