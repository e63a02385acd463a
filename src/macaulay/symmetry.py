"""Matrix groups acting on the ring by linear variable substitution.

A generator matrix M sends x_j to the linear form with coefficients in column
j, extended multiplicatively to polynomials and componentwise to module
elements, so substitution composes along matrix products.  An action is the
group its matrices generate, finite or not, kept as its generators alone.
They settle every check here: an invertible g with g(V) in V on a
finite-dimensional V has g^-1(V) = V, and nf(g m) = g nf(m) for every m gives
nf(g^-1 m) = g^-1 nf(m), so invariance and equivariance under each generator
hold for the whole group.
"""

import random
from fractions import Fraction
from typing import NamedTuple

from .coeff import rref
from .errors import UsageError
from .gradlin import ORTHOGONAL, PIVOT, ComponentBasis, GradedSubspace
from .polymod import ModuleElement, Polynomial
from .reduction import Reducer


def _entry(v, field):
    """A matrix entry's value in the field: an int n as n, a Fraction a/b as a * b^-1."""
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise UsageError(f"generator matrix entry {v!r} is not an integer or a Fraction")
    try:
        return field.div(field.from_int(v.numerator), field.from_int(v.denominator))
    except ZeroDivisionError:
        raise UsageError(f"generator matrix entry {v!r} has no value in {field!r}") from None


def is_monomial_matrix(mat, field) -> bool:
    """One nonzero entry per row and per column (signed/scaled permutation)."""
    n = len(mat)
    col_hits = [0] * n
    for row in mat:
        nz = [j for j, v in enumerate(row) if not field.is_zero(v)]
        if len(nz) != 1:
            return False
        col_hits[nz[0]] += 1
    return all(h == 1 for h in col_hits)


class GroupAction:
    """The group generated by invertible substitution matrices, kept as its generators."""

    def __init__(self, ring, generator_matrices):
        self.ring = ring
        d = ring.nvars
        gens = []
        for mat in generator_matrices:
            mat = tuple(tuple(_entry(v, ring.field) for v in row) for row in mat)
            if len(mat) != d or any(len(row) != d for row in mat):
                raise UsageError("generator matrix shape must match the variable count")
            if len(rref([dict(enumerate(row)) for row in mat], ring.field)[0]) != d:
                raise UsageError("generator matrix is singular")
            gens.append(mat)
        self.generators = tuple(gens)
        self._images = {}
        # ((tuple(X), spec), Reducer) of the last equivariance check: one entry
        self._reducer = None

    def variable_images(self, mat):
        """The substituted polynomials g(x_1), ..., g(x_d)."""
        key = tuple(map(tuple, mat))
        cached = self._images.get(key)
        if cached is None:
            d = self.ring.nvars
            units = [tuple(1 if i == k else 0 for k in range(d)) for i in range(d)]
            # Polynomial drops the zero entries
            cached = tuple(Polynomial(self.ring, {units[i]: mat[i][j] for i in range(d)}) for j in range(d))
            self._images[key] = cached
        return cached

    def act(self, mat, m):
        """Apply one group element to a polynomial or module element.

        Under a monomial matrix each x_j goes to one term c_j x_i, so a module
        term x^a e_k goes to one term as well: the exponents move to their
        images and the coefficient takes the factor prod c_j^a_j.
        """
        images = self.variable_images(mat)
        if isinstance(m, Polynomial):
            return m.substitute(images)
        if any(len(p.terms) != 1 for p in images):
            return ModuleElement(m.ring, tuple(p.substitute(images) for p in m.polys))
        field = m.ring.field
        moves = [(u.index(1), c) for p in images for u, c in p.terms.items()]
        out = {}
        for (comp, a), coeff in m.term_map().items():
            b = [0] * len(a)
            for e, (i, c) in zip(a, moves):
                b[i] += e
                for _ in range(e):
                    coeff = field.mul(coeff, c)
            key = (comp, tuple(b))
            # a singular monomial matrix can send two terms to one
            out[key] = field.add(out[key], coeff) if key in out else coeff
        return ModuleElement.from_terms(m.ring, m.rank, out)


def is_homogeneous_action(action: GroupAction, ring_grading) -> bool:
    """True iff each generator sends every variable to a form of the same degree."""
    for mat in action.generators:
        for j, image in enumerate(action.variable_images(mat)):
            var_deg = ring_grading.degree(tuple(1 if i == j else 0 for i in range(action.ring.nvars)))
            degs = {ring_grading.degree(exps) for exps in image.terms}
            if degs != {var_deg}:
                return False
    return True


class InvarianceWitness(NamedTuple):
    generator: int
    element: int
    coordinates: tuple | None
    residual: ModuleElement | None


class InvarianceReport(NamedTuple):
    invariant: bool
    witnesses: tuple


def span_is_invariant(X, action: GroupAction) -> InvarianceReport:
    """Solve g*m in span_k(X) exactly for every generator g and element m of X.

    Invariance under the generators implies invariance under the whole group.
    Each witness carries either the solved coordinates or the failing residual.
    """
    X = list(X)
    field = action.ring.field
    if not X:
        return InvarianceReport(True, ())
    rank = X[0].rank
    images = [[action.act(mat, m) for m in X] for mat in action.generators]
    support = sorted(
        {key for m in X for key in m.term_map()}
        | {key for row in images for image in row for key in image.term_map()}
    )
    basis = ComponentBasis(tuple(support), {key: k for k, key in enumerate(support)})
    index = basis.index
    rows = [{index[key]: c for key, c in m.term_map().items()} for m in X]
    sub = GradedSubspace(basis, field, range(len(X)), rows)
    witnesses = []
    invariant = True
    for gi, row in enumerate(images):
        for mi, image in enumerate(row):
            terms = [(index[key], c) for key, c in image.term_map().items()]
            kept, sparse_combo = sub.split(terms, PIVOT)
            if not kept:
                combo = [field.zero] * len(X)
                for g, c in sparse_combo:
                    combo[g] = c
                witnesses.append(InvarianceWitness(gi, mi, tuple(combo), None))
            else:
                invariant = False
                residual = ModuleElement.from_terms(action.ring, rank, {support[p]: v for p, v in kept})
                witnesses.append(InvarianceWitness(gi, mi, None, residual))
    return InvarianceReport(invariant, tuple(witnesses))


class EquivarianceReport(NamedTuple):
    equivariant: bool
    samples: int
    counterexamples: tuple


def random_element(ring, rank, rng: random.Random, max_degree: int = 6, terms: int = 5) -> ModuleElement:
    """A sparse random module element with small integer coefficients."""
    data = {}
    for _ in range(terms):
        comp = rng.randrange(rank)
        remaining = rng.randrange(max_degree + 1)
        exps = []
        for _v in range(ring.nvars - 1):
            e = rng.randrange(remaining + 1)
            exps.append(e)
            remaining -= e
        exps.append(remaining)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        key = (comp, tuple(exps))
        data[key] = ring.field.add(data.get(key, ring.field.zero), ring.field.from_int(c))
    return ModuleElement.from_terms(ring, rank, data)


# the highest total degree of a sampled element's terms in the equivariance check
SAMPLE_MAX_DEGREE = 6


def check_equivariant_normal_form(X, spec, action: GroupAction, samples: int = 50, seed: int = 0) -> EquivarianceReport:
    """Sample the law nf(g*m) = g*nf(m), bit-exactly, for all generators.

    Requires a homogeneous action and a complement that the action preserves:
    normal forms use the monomial-orthogonal policy, and the generator
    matrices must be monomial.  The action keeps the ``Reducer`` of its last
    check, so calls again with the same basis and grading reuse its
    workspaces; a different basis or grading object replaces it.  The check
    never changes X, so the shared Reducer answers as a fresh one would.
    """
    X = list(X)
    if samples < 0:
        raise UsageError(f"equivariance needs a nonnegative sample count, got {samples}")
    if not is_homogeneous_action(action, spec.ring):
        raise UsageError("equivariance needs a homogeneous group action")
    field = action.ring.field
    for mat in action.generators:
        if not is_monomial_matrix(mat, field):
            raise UsageError("equivariance needs monomial (signed/scaled permutation) matrices")
    key = (tuple(X), spec)
    if action._reducer is None or action._reducer[0] != key:
        action._reducer = (key, Reducer(X, spec, ORTHOGONAL))
    reducer = action._reducer[1]
    rng = random.Random(seed)
    rank = X[0].rank
    bad = []
    for _ in range(samples):
        m = random_element(action.ring, rank, rng, max_degree=SAMPLE_MAX_DEGREE)
        nf_m, _ = reducer.normal_form(m)
        for mat in action.generators:
            lhs, _ = reducer.normal_form(action.act(mat, m))
            rhs = action.act(mat, nf_m)
            if lhs != rhs:
                bad.append((m, mat))
    return EquivarianceReport(not bad, samples, tuple(bad))


# shorthand builders for common generator matrices


def permutation_matrix(nvars: int, cycle) -> list:
    """Matrix of the substitution given by a cycle on 1-based variable indices."""
    if any(c < 1 or c > nvars for c in cycle):
        raise UsageError(f"cycle entry out of range 1..{nvars}")
    if len(set(cycle)) != len(cycle):
        raise UsageError("cycle repeats a variable")
    image = list(range(nvars))
    cycle = [c - 1 for c in cycle]
    for pos, src in enumerate(cycle):
        dst = cycle[(pos + 1) % len(cycle)]
        image[src] = dst
    mat = [[0] * nvars for _ in range(nvars)]
    for j in range(nvars):
        mat[image[j]][j] = 1
    return mat


def signed_permutation_matrix(nvars: int, images) -> list:
    """Matrix sending x_j to sign * x_|i_j| for a list of signed 1-based indices."""
    if len(images) != nvars:
        raise UsageError("one signed image per variable required")
    mat = [[0] * nvars for _ in range(nvars)]
    for j, v in enumerate(images):
        if v == 0 or abs(v) > nvars:
            raise UsageError("signed image out of range")
        mat[abs(v) - 1][j] = 1 if v > 0 else -1
    return mat
