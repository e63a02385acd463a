"""Sparse multivariate polynomials and elements of graded free modules.

A polynomial is a map from exponent tuples to coefficients.  A module
element is its rank plus one map from (component, exponents) to
coefficients, with nothing stored for an empty component; its arithmetic
works on that map without building per-component polynomials, and
``term_map()`` hands it out read-only.  Zero coefficients are never stored.
Values are immutable: every operation allocates.  Canonical iteration and
printing order is component ascending, degrevlex descending within a
component, independent of any active grading.
"""

import re
from operator import add
from types import MappingProxyType
from typing import NamedTuple

from .errors import ParseError, UsageError
from .grading import degrevlex_key


class PolyRing:
    """A polynomial ring: a coefficient field plus named variables."""

    def __init__(self, field, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise UsageError("variable names must be distinct")
        for name in names:
            if not _NAME.fullmatch(name):
                raise UsageError(f"variable name {name!r} must be letters, digits and '_', not led by a digit")
        self.field = field
        self.names = names
        self.nvars = len(names)

    def zero(self):
        return Polynomial(self, {})

    def constant(self, c):
        return Polynomial(self, {(0,) * self.nvars: c})

    def monomial(self, exps, coeff=None):
        if len(exps) != self.nvars:
            raise UsageError("exponent vector length mismatch")
        return Polynomial(self, {tuple(exps): self.field.one if coeff is None else coeff})

    def parse(self, text):
        return parse_polynomial(self, text)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.field == self.field and other.names == self.names

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.names)}]"


def _require_same_ring(a, b):
    if a.ring is not b.ring and a.ring != b.ring:
        raise UsageError("operands live in different rings")


class Polynomial:
    """Immutable sparse polynomial over an exact field."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        fld = ring.field
        self.terms = {m: c for m, c in terms.items() if not fld.is_zero(c)}

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: degrevlex_key(t[0]), reverse=True)

    def __add__(self, other):
        _require_same_ring(self, other)
        fld = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = fld.add(out.get(m, fld.zero), c)
        return Polynomial(self.ring, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        fld = self.ring.field
        return Polynomial(self.ring, {m: fld.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        _require_same_ring(self, other)
        fld = self.ring.field
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = fld.add(out.get(m, fld.zero), fld.mul(c1, c2))
        return Polynomial(self.ring, out)

    def substitute(self, images):
        """Evaluate at ``x_j -> images[j]``; images are polynomials over any ring."""
        if len(images) != self.ring.nvars:
            raise UsageError("one image per variable required")
        target = images[0].ring if images else self.ring
        fld = target.field
        unit = target.constant(fld.one)
        powers = [[image] for image in images]  # powers[j][e - 1] = images[j]**e
        out = {}
        for m, c in self.terms.items():
            part = unit
            for j, e in enumerate(m):
                if e:
                    known = powers[j]
                    while len(known) < e:
                        known.append(known[-1] * images[j])
                    part = known[e - 1] if part is unit else part * known[e - 1]
            for mono, v in part.terms.items():
                prod = fld.mul(c, v)
                out[mono] = fld.add(out[mono], prod) if mono in out else prod
        return Polynomial(target, out)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and other.ring == self.ring and other.terms == self.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        return render_polynomial(self)

    def __repr__(self):
        return f"<{render_polynomial(self)}>"


class ModuleElement:
    """Element of a free module of fixed rank, as one sparse term map.

    The map sends (component, exponents) to a coefficient and never stores a
    zero; most components of an element of N + R^n are empty, so nothing is
    kept for them.  ``term_map()`` is that map, read-only; ``polys`` and
    ``component(i)`` build the per-component polynomials on demand.
    """

    __slots__ = ("ring", "rank", "_terms")

    def __init__(self, ring, polys):
        polys = tuple(polys)
        for p in polys:
            if p.ring is not ring and p.ring != ring:
                raise UsageError("component polynomial from a different ring")
        self.ring = ring
        self.rank = len(polys)
        self._terms = {(i, m): c for i, p in enumerate(polys) for m, c in p.terms.items()}

    @classmethod
    def _wrap(cls, ring, rank, terms):
        """Wrap a term map without zero coefficients; the element takes it over."""
        m = cls.__new__(cls)
        m.ring, m.rank, m._terms = ring, rank, terms
        return m

    @classmethod
    def from_polynomial(cls, p):
        return cls(p.ring, (p,))

    @classmethod
    def from_terms(cls, ring, rank, terms):
        is_zero = ring.field.is_zero
        return cls._wrap(ring, rank, {t: c for t, c in terms.items() if not is_zero(c)})

    @property
    def polys(self):
        return tuple(map(self.component, range(self.rank)))

    def component(self, i):
        return Polynomial(self.ring, {m: c for (j, m), c in self._terms.items() if j == i})

    def is_zero(self):
        return not self._terms

    def terms(self):
        """Iterate ((component, exponents), coeff) in canonical order."""
        return iter(sorted(self._terms.items(), key=_canonical_key, reverse=True))

    def term_map(self):
        return MappingProxyType(self._terms)

    def _require_compatible(self, other):
        if (self.ring is not other.ring and self.ring != other.ring) or self.rank != other.rank:
            raise UsageError("module elements have mismatched ring or rank")

    def __add__(self, other):
        self._require_compatible(other)
        fld = self.ring.field
        out = dict(self._terms)
        for t, c in other._terms.items():
            prev = out.get(t)
            if prev is not None:
                c = fld.add(prev, c)
                if fld.is_zero(c):
                    del out[t]
                    continue
            out[t] = c
        return ModuleElement._wrap(self.ring, self.rank, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ring.field.neg
        return ModuleElement._wrap(self.ring, self.rank, {t: neg(c) for t, c in self._terms.items()})

    def scale(self, c):
        fld = self.ring.field
        terms = {} if fld.is_zero(c) else {t: fld.mul(c, v) for t, v in self._terms.items()}
        return ModuleElement._wrap(self.ring, self.rank, terms)

    def mul_term(self, exps, coeff=None):
        terms = (self if coeff is None else self.scale(coeff))._terms
        shifted = {(i, tuple(map(add, m, exps))): c for (i, m), c in terms.items()}
        return ModuleElement._wrap(self.ring, self.rank, shifted)

    def action(self, r):
        """Multiply by a ring element, componentwise."""
        _require_same_ring(r, self)
        return linear_combination(self.ring, self.rank, ((c, e, self) for e, c in r.terms.items()))

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and other.rank == self.rank
            and other.ring == self.ring
            and other._terms == self._terms
        )

    def __hash__(self):
        return hash((self.ring, self.rank, frozenset(self._terms.items())))

    def __str__(self):
        return render_element(self)

    def __repr__(self):
        return f"<{render_element(self)}>"


def linear_combination(ring, rank, parts) -> ModuleElement:
    """The sum of c * x^u * m over the (c, u, m) in parts, built in one term map."""
    field = ring.field
    acc = {}
    for s, u, m in parts:
        unit = s == field.one
        for (i, exps), c in m._terms.items():
            t = (i, tuple(map(add, exps, u)))
            sc = c if unit else field.mul(s, c)
            prev = acc.get(t)
            acc[t] = sc if prev is None else field.add(prev, sc)
    return ModuleElement.from_terms(ring, rank, acc)


class HomogeneousPart(NamedTuple):
    degree: object
    element: ModuleElement


def _canonical_key(item):
    """Sort key of a term, largest first in canonical order."""
    (i, exps), _ = item
    return -i, degrevlex_key(exps)


def _term_entries(m: ModuleElement, spec):
    """Iterate ((key, degree, (component, exponents)), coeff) over the terms of m, from the grading's memo."""
    entries, fill = spec.term_entries, spec.term_entry
    for t, c in m._terms.items():
        yield entries.get(t) or fill(t), c


def _term_degrees(m: ModuleElement, spec) -> set:
    """The degrees of the terms of m."""
    return {deg for (_, deg, _), _ in _term_entries(m, spec)}


def homogeneous_components(m: ModuleElement, spec) -> list:
    """Split into homogeneous parts, sorted by degree descending; sums to m."""
    buckets = {}
    for (k, deg, term), c in _term_entries(m, spec):
        buckets.setdefault(deg, (k, {}))[1][term] = c
    order = sorted(buckets.items(), key=lambda item: item[1][0], reverse=True)
    return [HomogeneousPart(deg, ModuleElement._wrap(m.ring, m.rank, terms)) for deg, (_, terms) in order]


def _leading_terms(m: ModuleElement, spec):
    """(maximal degree, its terms) in one pass; undefined on zero."""
    top = top_key = None
    lead = {}
    for (k, deg, term), c in _term_entries(m, spec):
        if deg != top:
            if top is not None and k < top_key:
                continue
            top, top_key, lead = deg, k, {}
        lead[term] = c
    if top is None:
        raise UsageError("the zero element has no leading form")
    return top, lead


def leading_form(m: ModuleElement, spec) -> HomogeneousPart:
    """The maximal-degree homogeneous part; undefined on zero."""
    top, lead = _leading_terms(m, spec)
    return HomogeneousPart(top, ModuleElement._wrap(m.ring, m.rank, lead))


def degree_of(m: ModuleElement, spec):
    return _leading_terms(m, spec)[0]


def is_homogeneous(m: ModuleElement, spec) -> bool:
    return len(_term_degrees(m, spec)) <= 1


# ---------------------------------------------------------------------------
# printing


def _render_term(ring, exps, coeff, lead: bool) -> str:
    fld = ring.field
    factors = []
    for name, e in zip(ring.names, exps):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    body = "*".join(factors)
    ctext = fld.render(coeff)
    neg = ctext.startswith("-")
    mag = ctext[1:] if neg else ctext
    if body and mag == "1":
        mag = ""
    piece = f"{mag}*{body}" if (mag and body) else (mag or body or "0")
    sign = "-" if neg else "+"
    if lead:
        return piece if not neg else f"-{piece}"
    return f" {sign} {piece}"


def render_polynomial(p: Polynomial) -> str:
    out = [_render_term(p.ring, m, c, lead=(k == 0)) for k, (m, c) in enumerate(p.sorted_terms())]
    return "".join(out) or "0"


def render_element(m: ModuleElement) -> str:
    parts = [[] for _ in range(m.rank)]
    for (i, exps), c in m.terms():
        parts[i].append(_render_term(m.ring, exps, c, lead=not parts[i]))
    texts = ["".join(part) or "0" for part in parts]
    return texts[0] if m.rank == 1 else "[" + ", ".join(texts) + "]"


# ---------------------------------------------------------------------------
# parsing


# the name rule: a variable name is letters, digits and underscores not led by
# a digit; PolyRing takes only names this fullmatches, so every name parses back
_NAME = re.compile(r"[^\W\d]\w*")
# ASCII numbers with an optional /denominator, names, operators, newlines, and
# any other visible character as an unexpected one; the rest of the whitespace
# matches nothing and finditer steps over it
_TOKEN = re.compile(
    rf"(?P<number>[0-9]+(?:/[0-9]+)?)|(?P<name>{_NAME.pattern})|(?P<op>[-+*^\[\],])"
    r"|(?P<newline>\n)|(?P<bad>\S)"
)


def _tokenize(text, line_offset=1):
    tokens = []
    line, line_start = line_offset, 0
    for match in _TOKEN.finditer(text):
        kind, col = match.lastgroup, match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {match.group()!r}", line, col)
        else:
            tokens.append((kind, match.group(), line, col))
    return tokens


class _TokenStream:
    def __init__(self, tokens, line=1):
        self.tokens = tokens
        self.pos = 0
        self.last_line = line
        self.last_col = 1

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
            self.last_line, self.last_col = tok[2], tok[3]
        return tok


def _parse_term(ring, stream, sign):
    fld = ring.field
    coeff = None
    exps = [0] * ring.nvars
    saw_factor = False
    while True:
        tok = stream.peek()
        if tok is None or (tok[0] == "op" and tok[1] in "+-],"):
            break
        tok = stream.next()
        if tok[0] == "number":
            c = fld.parse(tok[1])
            coeff = c if coeff is None else fld.mul(coeff, c)
        elif tok[0] == "name":
            if tok[1] not in ring.names:
                raise ParseError(f"unknown variable {tok[1]!r}", tok[2], tok[3])
            j = ring.names.index(tok[1])
            power = 1
            nxt = stream.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "^":
                stream.next()
                ptok = stream.next()
                if ptok is None or ptok[0] != "number" or "/" in ptok[1]:
                    raise ParseError("malformed exponent", stream.last_line, stream.last_col)
                power = int(ptok[1])
            exps[j] += power
        elif tok[0] == "op" and tok[1] == "*":
            continue
        else:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])
        saw_factor = True
    if not saw_factor:
        raise ParseError("empty term", stream.last_line, stream.last_col)
    if coeff is None:
        coeff = fld.one
    if sign < 0:
        coeff = fld.neg(coeff)
    return tuple(exps), coeff


def _parse_poly_body(ring, stream):
    fld = ring.field
    terms = {}
    while True:
        tok = stream.peek()
        if tok is None or (tok[0] == "op" and tok[1] in "],"):
            if not terms:
                raise ParseError("empty expression", stream.last_line, stream.last_col)
            return Polynomial(ring, terms)
        # a term ends only at the end of input or before + - ] ,
        sign = 1
        if tok[0] == "op" and tok[1] in "+-":
            stream.next()
            sign = 1 if tok[1] == "+" else -1
        exps, coeff = _parse_term(ring, stream, sign)
        terms[exps] = fld.add(terms.get(exps, fld.zero), coeff)


def _end_of_input(stream):
    tok = stream.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])


def parse_polynomial(ring, text, line=1) -> Polynomial:
    stream = _TokenStream(_tokenize(text, line), line)
    poly = _parse_poly_body(ring, stream)
    _end_of_input(stream)
    return poly


def parse_element(ring, rank, text, line=1) -> ModuleElement:
    """Parse ``[f1, ..., fn]`` for rank n, or a bare polynomial at rank 1."""
    stream = _TokenStream(_tokenize(text, line), line)
    tok = stream.peek()
    bracketed = tok is not None and tok[:2] == ("op", "[")
    if bracketed:
        stream.next()
    elif rank != 1:
        raise ParseError(f"rank-{rank} element must be written [f1, ...]", line, 1)
    polys = [_parse_poly_body(ring, stream)]
    # a component ends only at the end of input or before ] ,
    while bracketed and (tok := stream.next()) is not None and tok[1] == ",":
        polys.append(_parse_poly_body(ring, stream))
    if bracketed and tok is None:
        raise ParseError("unterminated '['", stream.last_line, stream.last_col)
    _end_of_input(stream)
    if len(polys) != rank:
        raise ParseError(f"expected {rank} components, got {len(polys)}", line, 1)
    return ModuleElement(ring, polys)
