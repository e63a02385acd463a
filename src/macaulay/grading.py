"""Totally ordered monoid gradings of polynomial rings and graded free modules.

A ring grading assigns every monomial ``x^a`` a degree in a totally ordered
commutative monoid and knows how to order, add and subtract degrees and how
to enumerate the monomials of a given degree.  Three concrete monoids cover
everything this library computes with:

* ``TotalDegreeGrading``   -- degrees are naturals, ``deg x^a = sum(a)``;
* ``TermOrderGrading``     -- degrees are the exponent vectors themselves,
  compared through an integer weight matrix (lex, degrevlex, weighted and
  elimination term orders are all weight matrices);
* ``BlockGrading``         -- degrees are pairs (kept weight, dropped weight)
  compared dropped-first, the two-block elimination grading.

Module gradings extend a ring grading to a free module of finite rank with
per-component shifts, which one base, ``ModuleGrading``, validates and holds.
Each module grading states the degree of every basis element e_i and how a
ring monomial acts on a degree; the base derives from these the degree of
each term ``x^a e_i`` and the monomials of each graded component, and keeps
each module monomial's degree and order key in one memo, filled on first
sight (``term_entries``), which every layer that orders terms reads.
``CoarseModuleGrading`` merges components that share a degree value (graded
components may then have dimension above one), while
``TermModuleGrading`` tags degrees with the component index and breaks ties
position-over-term or term-over-position, so every graded component is a
single module monomial.  ``SyzygyGrading`` grades coordinate space R^n over a
list of base degrees b_1..b_n, giving the term ``x^a e_i`` degree ``a . b_i``;
it is the grading under which syzygies of homogeneous elements split into
homogeneous parts.

Every grading orders its degrees through ``key(degree)`` alone, a value that
Python compares natively (an int, or a tuple of ints and nested tuples) with
``deg a > deg b`` exactly when ``key(a) > key(b)``; sorting, maxima, heaps and
single comparisons of degrees all read it.  ``key`` rejects values of the
wrong shape for its grading with ``UsageError``.  A weight matrix equal to
the degrevlex rows takes its key in closed form, (sum a, -a_d, ..., -a_2),
the same tuple as the matrix product without the multiplications.  Grading
objects themselves compare and hash by identity: nothing needs two
separately built gradings to be equal.
"""

import operator
import random
from functools import cached_property
from typing import NamedTuple

from .coeff import RationalField, rref
from .errors import UsageError


# ---------------------------------------------------------------------------
# ring gradings


def _compositions(total, parts):
    """All exponent tuples of the given length summing to ``total``."""
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


class TotalDegreeGrading:
    """Grading of k[x_1..x_d] by N via total degree."""

    def __init__(self, nvars: int):
        self.nvars = nvars

    def zero(self):
        return 0

    def degree(self, exps):
        return sum(exps)

    def key(self, degree):
        if not isinstance(degree, int):
            raise UsageError("total-degree grading compares integer degrees")
        return degree

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        diff = a - b
        return diff if diff >= 0 else None

    def monomials(self, value):
        if value < 0:
            return []
        mons = _compositions(value, self.nvars)
        mons.sort(key=degrevlex_key, reverse=True)
        return mons

    def __repr__(self):
        return f"total({self.nvars})"


def degrevlex_key(exps):
    """Sort key realizing degrevlex ascending on exponent tuples."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _degrevlex_rows(d):
    rows = [tuple([1] * d)]
    for j in range(d - 1, 0, -1):
        rows.append(tuple(-1 if i == j else 0 for i in range(d)))
    return tuple(rows)


def _lex_rows(d):
    return tuple(tuple(1 if i == j else 0 for i in range(d)) for j in range(d))


class TermOrderGrading:
    """Grading of k[x_1..x_d] by N^d, ordered through an integer weight matrix.

    Exponent vectors are ordered by the first nonzero entry of M.(a - b),
    that is lexicographically by their keys M.a.  The matrix gives a term
    order exactly when it is square, invertible over Q and every column's
    weight sequence has a positive first nonzero entry; that condition is
    checked when ``verify_monoid_order`` first reads it.
    """

    def __init__(self, rows, name="matrix"):
        if not all(
            isinstance(row, (list, tuple))
            and all(isinstance(v, int) and not isinstance(v, bool) for v in row)
            for row in rows
        ):
            raise UsageError("weight matrix entries must be integers")
        rows = tuple(tuple(row) for row in rows)
        d = len(rows[0]) if rows else 0
        if any(len(row) != d for row in rows):
            raise UsageError("weight matrix rows must have equal length")
        self.rows = rows
        self.nvars = d
        self.name = name
        # degrevlex keys have a closed form, taken whatever the grading's name
        self._degrevlex = rows == _degrevlex_rows(d)

    @cached_property
    def structural_failures(self):
        """Why the weight matrix fails to give a term order; () if it gives one."""
        rows, d = self.rows, self.nvars
        if len(rows) != d:
            return ("weight matrix is not square",)
        fails = []
        if len(rref([dict(enumerate(row)) for row in rows], RationalField())[0]) != d:
            fails.append("weight matrix is singular over Q")
        for j in range(d):
            lead = next((row[j] for row in rows if row[j] != 0), 0)
            if lead <= 0:
                fails.append(f"column {j + 1} weight sequence is not positive")
        return tuple(fails)

    @classmethod
    def lex(cls, nvars):
        return cls(_lex_rows(nvars), name="lex")

    @classmethod
    def degrevlex(cls, nvars):
        return cls(_degrevlex_rows(nvars), name="degrevlex")

    def zero(self):
        return (0,) * self.nvars

    def degree(self, exps):
        return tuple(exps)

    def key(self, degree):
        if not (isinstance(degree, tuple) and len(degree) == self.nvars):
            raise UsageError("term-order grading compares exponent tuples")
        if self._degrevlex:
            # M.a for the degrevlex rows: (sum a, -a[d-1], ..., -a[1])
            return (sum(degree), *map(operator.neg, degree[:0:-1]))
        return tuple(sum(map(operator.mul, row, degree)) for row in self.rows)

    def add(self, a, b):
        return tuple(map(operator.add, a, b))

    def sub(self, a, b):
        diff = tuple(map(operator.sub, a, b))
        return diff if all(v >= 0 for v in diff) else None

    def monomials(self, value):
        return [tuple(value)] if all(v >= 0 for v in value) else []

    def __repr__(self):
        return f"{self.name}({self.nvars})"


class BlockGrading:
    """Two-block N^2 elimination grading: deg x_i = (1,0) if kept, (0,1) if dropped.

    Degrees compare dropped weight first, so an element of maximal degree
    (a, 0) has every term free of the dropped variables.
    """

    def __init__(self, nvars: int, kept):
        kept = tuple(sorted(set(kept)))
        if any(j < 0 or j >= nvars for j in kept):
            raise UsageError("kept variable index out of range")
        self.nvars = nvars
        self.kept = kept
        self.dropped = tuple(j for j in range(nvars) if j not in kept)

    def zero(self):
        return (0, 0)

    def degree(self, exps):
        k = sum(exps[j] for j in self.kept)
        return (k, sum(exps) - k)

    def key(self, degree):
        if not (isinstance(degree, tuple) and len(degree) == 2):
            raise UsageError("block grading compares (kept, dropped) pairs")
        return (degree[1], degree[0])

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def sub(self, a, b):
        diff = (a[0] - b[0], a[1] - b[1])
        return diff if diff[0] >= 0 and diff[1] >= 0 else None

    def monomials(self, value):
        kw, dw = value
        if kw < 0 or dw < 0:
            return []
        out = []
        for kpart in _compositions(kw, len(self.kept)):
            for dpart in _compositions(dw, len(self.dropped)):
                exps = [0] * self.nvars
                for j, e in zip(self.kept, kpart):
                    exps[j] = e
                for j, e in zip(self.dropped, dpart):
                    exps[j] = e
                out.append(tuple(exps))
        out.sort(key=degrevlex_key, reverse=True)
        return out

    def __repr__(self):
        return f"elim(keep={self.kept})"


class OrderReport(NamedTuple):
    passed: bool
    failures: tuple


def verify_monoid_order(ring_grading) -> OrderReport:
    """Decide exactly whether a ring grading's key gives a monoid order.

    The three ring gradings this package defines key a degree linearly in
    the exponents, by ``sum(a)``, ``M.a`` or the (dropped, kept) weights, so
    each of their orders is translation invariant; total degree and the
    block grading always pass.  A weight matrix M gives a monomial order
    exactly when it is square, invertible over Q and has a positive first
    nonzero entry in every column: linearity gives compatibility,
    invertibility a total order, and the column condition x_j > 1, which
    with Dickson's lemma gives a well-order.  The failures returned are
    M's ``structural_failures``.
    """
    fails = getattr(ring_grading, "structural_failures", ())
    return OrderReport(passed=not fails, failures=fails)


# ---------------------------------------------------------------------------
# module gradings

POT = "pot"
TOP = "top"


class ModuleGrading:
    """Common behavior for gradings of a free module of finite rank."""

    def __init__(self, ring_grading, rank: int, shifts=None):
        self.ring = ring_grading
        self.rank = rank
        if shifts is None:
            shifts = tuple(ring_grading.zero() for _ in range(rank))
        shifts = tuple(shifts)
        if len(shifts) != rank:
            raise UsageError("one shift per component required")
        self.shifts = shifts

    def basis_degree(self, i):
        """The degree of the basis element e_i."""
        raise NotImplementedError

    def translate(self, deg, exps):
        """Degree of ``x^exps * v`` for homogeneous v of the given degree."""
        raise NotImplementedError

    def multipliers(self, source, target):
        """All ring monomials r with deg(r*v) = target for v of degree source."""
        raise NotImplementedError

    def degree_of_term(self, comp, exps):
        return self.translate(self.basis_degree(comp), exps)

    @cached_property
    def term_entries(self):
        """{module monomial: (key, degree, monomial)}, each entry filled once by ``term_entry``."""
        return {}

    def term_entry(self, term):
        """The (key, degree, term) entry of a module monomial, computed on its first sight and kept.

        Hot loops read ``term_entries`` first and call this on a miss only.
        """
        entry = self.term_entries.get(term)
        if entry is None:
            degree = self.degree_of_term(*term)
            entry = self.term_entries[term] = (self.key(degree), degree, term)
        return entry

    def component_monomials(self, deg):
        """All module monomials (component, exponents) of the given degree.

        Canonically ordered: component ascending, and inside a component the
        ring grading's order, degrevlex descending.
        """
        return [(i, exps) for i in range(self.rank) for exps in self.multipliers(self.basis_degree(i), deg)]

    def reaches(self, source, target):
        """Does v of degree source have a monomial multiple of degree target?"""
        return bool(self.multipliers(source, target))


class CoarseModuleGrading(ModuleGrading):
    """Module grading whose degree values live in the ring-degree monoid.

    The term ``x^a e_i`` has degree ``deg(x^a) + shift_i``; components with
    equal values are merged, so graded components can mix positions.
    """

    def basis_degree(self, i):
        return self.shifts[i]

    def key(self, degree):
        return self.ring.key(degree)

    def translate(self, deg, exps):
        return self.ring.add(self.ring.degree(exps), deg)

    def multipliers(self, source, target):
        diff = self.ring.sub(target, source)
        if diff is None:
            return []
        return self.ring.monomials(diff)

    def __repr__(self):
        return f"CoarseModuleGrading({self.ring!r}, rank={self.rank})"


class TermModuleGrading(ModuleGrading):
    """Term order on module monomials: degrees are (component, ring value) pairs.

    Ties across components break position-over-term (lower index wins) or
    term-over-position.  Every graded component is one module monomial, which
    is the classical Groebner setting.
    """

    def __init__(self, ring_grading, rank: int, shifts=None, tie=POT):
        if tie not in (POT, TOP):
            raise UsageError("tie order must be 'pot' or 'top'")
        super().__init__(ring_grading, rank, shifts)
        self.tie = tie

    def basis_degree(self, i):
        return (i, self.shifts[i])

    def _check(self, deg):
        if not (isinstance(deg, tuple) and len(deg) == 2 and isinstance(deg[0], int)):
            raise UsageError("term module degrees are (component, value) pairs")

    def key(self, degree):
        self._check(degree)
        return self._key(degree)

    def _key(self, degree):
        # the lower component index ranks higher
        comp, value = degree
        if self.tie == POT:
            return (-comp, self.ring.key(value))
        return (self.ring.key(value), -comp)

    def translate(self, deg, exps):
        return (deg[0], self.ring.add(self.ring.degree(exps), deg[1]))

    def multipliers(self, source, target):
        if source[0] != target[0]:
            return []
        diff = self.ring.sub(target[1], source[1])
        if diff is None:
            return []
        return self.ring.monomials(diff)

    def reaches(self, source, target):
        # the multipliers test without the list: same component, values no larger
        return source[0] == target[0] and all(map(operator.le, source[1], target[1]))

    def component_monomials(self, deg):
        # one component only: the others have no multipliers into deg
        self._check(deg)
        return [(deg[0], exps) for exps in self.multipliers(self.basis_degree(deg[0]), deg)]

    def __repr__(self):
        return f"TermModuleGrading({self.ring!r}, rank={self.rank}, tie={self.tie})"


class SyzygyGrading(ModuleGrading):
    """Grading of coordinate space R^n over base degrees b_1..b_n.

    ``x^a e_i`` has the degree of ``x^a . v_i`` for a homogeneous probe v_i of
    degree b_i in the base module grading.  Graded components may have
    dimension above one and are never tie-broken.
    """

    def __init__(self, base: ModuleGrading, base_degrees):
        self.base = base
        self.ring = base.ring
        self.base_degrees = tuple(base_degrees)
        self.rank = len(self.base_degrees)

    def basis_degree(self, i):
        return self.base_degrees[i]

    def key(self, degree):
        return self.base.key(degree)

    def translate(self, deg, exps):
        return self.base.translate(deg, exps)

    def multipliers(self, source, target):
        return self.base.multipliers(source, target)

    def __repr__(self):
        return f"SyzygyGrading(rank={self.rank})"


# ---------------------------------------------------------------------------
# refinements


class RefinementMap:
    """Order-preserving collapse of a fine grading onto a coarse one.

    Carries the ring-degree map f and the module-degree map g as callables;
    ``verify`` checks f(deg x^a) = deg' x^a, monotonicity and the
    compatibility law g(a . b) = f(a) . g(b) on 100 samples of seed 0.
    """

    def __init__(self, source: ModuleGrading, target: ModuleGrading, ring_map, module_map):
        self.source = source
        self.target = target
        self.ring_map = ring_map
        self.module_map = module_map

    def verify(self):
        rng = random.Random(0)
        d = self.source.ring.nvars
        fails = []
        for _ in range(100):
            e1 = tuple(rng.randrange(0, 4) for _ in range(d))
            e2 = tuple(rng.randrange(0, 4) for _ in range(d))
            if self.ring_map(self.source.ring.degree(e1)) != self.target.ring.degree(e1):
                fails.append(f"ring map fails at {e1}")
                break
            comp = rng.randrange(self.source.rank)
            b = self.source.degree_of_term(comp, e2)
            # compatibility: g(a.b) = f(a).g(b)
            lhs = self.module_map(self.source.translate(b, e1))
            rhs = self.target.translate(self.module_map(b), e1)
            if lhs != rhs:
                fails.append(f"compatibility fails at {e1} acting on {b}")
                break
            # monotonicity of g on a sampled comparable pair
            b2 = self.source.degree_of_term(comp, tuple(rng.randrange(0, 4) for _ in range(d)))
            if self.source.key(b) <= self.source.key(b2):
                continue
            if self.target.key(self.module_map(b)) < self.target.key(self.module_map(b2)):
                fails.append(f"monotonicity fails at {b} > {b2}")
                break
        return OrderReport(passed=not fails, failures=tuple(fails))


def total_refinement(fine: ModuleGrading, coarse: CoarseModuleGrading) -> RefinementMap:
    """The collapse of a term-order module grading onto total degree.

    Requires the fine shifts to sit over the coarse ones (equal exponent sums),
    so the module map is simply (component, exponents) -> sum of exponents.
    """
    for i in range(fine.rank):
        if sum(fine.shifts[i]) != coarse.shifts[i]:
            raise UsageError("fine shifts must refine the coarse shifts")
    return RefinementMap(
        fine,
        coarse,
        ring_map=lambda v: sum(v),
        module_map=lambda deg: sum(deg[1]),
    )


def syzygy_refinement(syz: SyzygyGrading) -> RefinementMap:
    """The defining collapse of componentwise monomial degrees onto a syzygy grading, from degrevlex TOP."""
    fine = TermModuleGrading(TermOrderGrading.degrevlex(syz.ring.nvars), syz.rank, tie=TOP)
    return RefinementMap(
        fine,
        syz,
        ring_map=lambda v: syz.ring.degree(v),
        module_map=lambda deg: syz.degree_of_term(deg[0], deg[1]),
    )


def format_degree(deg) -> str:
    """Stable text rendering of a degree value of any supported shape."""
    if isinstance(deg, tuple) and len(deg) == 2 and isinstance(deg[0], int) and isinstance(deg[1], tuple):
        return f"e{deg[0] + 1}:{format_degree(deg[1])}"
    if isinstance(deg, tuple):
        return "(" + ",".join(str(v) for v in deg) + ")"
    return str(deg)
