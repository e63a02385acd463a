"""Sparse multivariate polynomials and elements of graded free modules.

Terms are stored in maps keyed by exponent tuple (and component index for
module elements); zero coefficients are never stored.  Values are immutable:
every operation allocates.  Canonical iteration and printing order is
degrevlex descending within a component, independent of any active grading.
"""

from typing import NamedTuple

from .errors import ParseError, UsageError
from .grading import degrevlex_key


class PolyRing:
    """A polynomial ring: a coefficient field plus named variables."""

    def __init__(self, field, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise UsageError("variable names must be distinct")
        self.field = field
        self.names = names
        self.nvars = len(names)

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(self.field.one)

    def constant(self, c):
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, j):
        exps = tuple(1 if i == j else 0 for i in range(self.nvars))
        return Polynomial(self, {exps: self.field.one})

    def monomial(self, exps, coeff=None):
        if len(exps) != self.nvars:
            raise UsageError("exponent vector length mismatch")
        return Polynomial(self, {tuple(exps): self.field.one if coeff is None else coeff})

    def from_int(self, n):
        return self.constant(self.field.from_int(n))

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

    def scale(self, c):
        fld = self.ring.field
        return Polynomial(self.ring, {m: fld.mul(c, v) for m, v in self.terms.items()})

    def mul_term(self, exps, coeff=None):
        fld = self.ring.field
        coeff = fld.one if coeff is None else coeff
        return Polynomial(
            self.ring,
            {tuple(a + b for a, b in zip(m, exps)): fld.mul(coeff, c) for m, c in self.terms.items()},
        )

    def substitute(self, images):
        """Evaluate at ``x_j -> images[j]``; images are polynomials over any ring."""
        if len(images) != self.ring.nvars:
            raise UsageError("one image per variable required")
        target = images[0].ring if images else self.ring
        out = target.zero()
        for m, c in self.sorted_terms():
            part = target.constant(c)
            for j, e in enumerate(m):
                for _ in range(e):
                    part = part * images[j]
            out = out + part
        return out

    def __eq__(self, other):
        return isinstance(other, Polynomial) and other.ring == self.ring and other.terms == self.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        return render_polynomial(self)

    def __repr__(self):
        return f"<{render_polynomial(self)}>"


class ModuleElement:
    """Element of a free module: a fixed-rank vector of polynomials."""

    __slots__ = ("ring", "polys")

    def __init__(self, ring, polys):
        polys = tuple(polys)
        for p in polys:
            if p.ring is not ring and p.ring != ring:
                raise UsageError("component polynomial from a different ring")
        self.ring = ring
        self.polys = polys

    @classmethod
    def from_polynomial(cls, p):
        return cls(p.ring, (p,))

    @classmethod
    def from_terms(cls, ring, rank, terms):
        per = [dict() for _ in range(rank)]
        for (i, m), c in terms.items():
            per[i][m] = c
        return cls(ring, tuple(Polynomial(ring, d) for d in per))

    @property
    def rank(self):
        return len(self.polys)

    def component(self, i):
        return self.polys[i]

    def is_zero(self):
        return all(p.is_zero() for p in self.polys)

    def terms(self):
        """Iterate ((component, exponents), coeff) in canonical order."""
        for i, p in enumerate(self.polys):
            for m, c in p.sorted_terms():
                yield (i, m), c

    def term_map(self):
        return {(i, m): c for i, p in enumerate(self.polys) for m, c in p.terms.items()}

    def _require_compatible(self, other):
        if (self.ring is not other.ring and self.ring != other.ring) or self.rank != other.rank:
            raise UsageError("module elements have mismatched ring or rank")

    def __add__(self, other):
        self._require_compatible(other)
        return ModuleElement(self.ring, tuple(a + b for a, b in zip(self.polys, other.polys)))

    def __sub__(self, other):
        self._require_compatible(other)
        return ModuleElement(self.ring, tuple(a - b for a, b in zip(self.polys, other.polys)))

    def __neg__(self):
        return ModuleElement(self.ring, tuple(-p for p in self.polys))

    def scale(self, c):
        return ModuleElement(self.ring, tuple(p.scale(c) for p in self.polys))

    def mul_term(self, exps, coeff=None):
        return ModuleElement(self.ring, tuple(p.mul_term(exps, coeff) for p in self.polys))

    def action(self, r):
        """Multiply by a ring element, componentwise."""
        return ModuleElement(self.ring, tuple(r * p for p in self.polys))

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and other.ring == self.ring
            and other.polys == self.polys
        )

    def __hash__(self):
        return hash((self.ring, self.polys))

    def __str__(self):
        return render_element(self)

    def __repr__(self):
        return f"<{render_element(self)}>"


class HomogeneousPart(NamedTuple):
    degree: object
    element: ModuleElement


def _term_degrees(m: ModuleElement, spec):
    """Iterate (degree, (component, exponents), coeff) over the terms of m."""
    for i, p in enumerate(m.polys):
        for exps, c in p.terms.items():
            yield spec.degree_of_term(i, exps), (i, exps), c


def homogeneous_components(m: ModuleElement, spec) -> list:
    """Split into homogeneous parts, sorted by degree descending; sums to m."""
    buckets = {}
    for deg, term, c in _term_degrees(m, spec):
        buckets.setdefault(deg, {})[term] = c
    order = spec.sort_degrees(buckets.keys(), reverse=True)
    return [
        HomogeneousPart(deg, ModuleElement.from_terms(m.ring, m.rank, buckets[deg]))
        for deg in order
    ]


def _leading_terms(m: ModuleElement, spec):
    """(maximal degree, its terms) in one pass; undefined on zero."""
    top = top_key = None
    lead = {}
    for deg, term, c in _term_degrees(m, spec):
        if deg != top:
            k = spec.key(deg)
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
    return HomogeneousPart(top, ModuleElement.from_terms(m.ring, m.rank, lead))


def degree_of(m: ModuleElement, spec):
    return _leading_terms(m, spec)[0]


def is_homogeneous(m: ModuleElement, spec) -> bool:
    return len({deg for deg, _, _ in _term_degrees(m, spec)}) <= 1


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
    if p.is_zero():
        return "0"
    out = []
    for k, (m, c) in enumerate(p.sorted_terms()):
        out.append(_render_term(p.ring, m, c, lead=(k == 0)))
    return "".join(out)


def render_element(m: ModuleElement) -> str:
    if m.rank == 1:
        return render_polynomial(m.polys[0])
    return "[" + ", ".join(render_polynomial(p) for p in m.polys) + "]"


# ---------------------------------------------------------------------------
# parsing


def _tokenize(text, line_offset=1):
    tokens = []
    line, col = line_offset, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == "/" and j + 1 < len(text) and text[j + 1].isdigit():
                j += 1
                while j < len(text) and text[j].isdigit():
                    j += 1
            tokens.append(("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^[],":
            tokens.append(("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
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
    sign = 1
    first = True
    while True:
        tok = stream.peek()
        if tok is None or (tok[0] == "op" and tok[1] in "],"):
            if first:
                raise ParseError("empty expression", stream.last_line, stream.last_col)
            break
        if tok[0] == "op" and tok[1] in "+-":
            stream.next()
            sign = 1 if tok[1] == "+" else -1
        elif not first:
            raise ParseError("expected '+' or '-' between terms", tok[2], tok[3])
        exps, coeff = _parse_term(ring, stream, sign)
        terms[exps] = fld.add(terms.get(exps, fld.zero), coeff)
        sign = 1
        first = False
    return Polynomial(ring, terms)


def parse_polynomial(ring, text, line=1) -> Polynomial:
    stream = _TokenStream(_tokenize(text, line), line)
    poly = _parse_poly_body(ring, stream)
    if stream.peek() is not None:
        tok = stream.peek()
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])
    return poly


def parse_element(ring, rank, text, line=1) -> ModuleElement:
    """Parse ``[f1, ..., fn]`` for rank n, or a bare polynomial at rank 1."""
    stream = _TokenStream(_tokenize(text, line), line)
    tok = stream.peek()
    if tok is not None and tok[0] == "op" and tok[1] == "[":
        stream.next()
        polys = []
        while True:
            polys.append(_parse_poly_body(ring, stream))
            tok = stream.next()
            if tok is None:
                raise ParseError("unterminated '['", stream.last_line, stream.last_col)
            if tok[1] == "]":
                break
            if tok[1] != ",":
                raise ParseError("expected ',' or ']'", tok[2], tok[3])
        if stream.peek() is not None:
            tok = stream.peek()
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])
        if len(polys) != rank:
            raise ParseError(f"expected {rank} components, got {len(polys)}", line, 1)
        return ModuleElement(ring, polys)
    if rank != 1:
        raise ParseError(f"rank-{rank} element must be written [f1, ...]", line, 1)
    return ModuleElement.from_polynomial(parse_polynomial(ring, text, line))
