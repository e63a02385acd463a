"""The element parser and the module-declaration reader against earlier versions of themselves.

The oracles below are the two-pass element parser and the index-stepping
module reader that the single-pass ones replaced, kept as they were apart
from their names and, for the reader, the loop over declaration lines.  On
fuzzed text the current code must give the same value, or raise the same
exception type with the same message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macaulay.cli import MAX_MODULE_RANK, _once, _parse_bracket_list, parse_problem
from macaulay.coeff import PrimeField, RationalField, ascii_int
from macaulay.errors import ParseError, ResourceLimitError, UsageError
from macaulay.polymod import (
    ModuleElement,
    PolyRing,
    Polynomial,
    _parse_term,
    _tokenize,
    _TokenStream,
    parse_element,
    parse_polynomial,
)

# ---------------------------------------------------------------------------
# oracles


def _oracle_poly_body(ring, stream):
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


def oracle_parse_polynomial(ring, text, line=1):
    stream = _TokenStream(_tokenize(text, line), line)
    poly = _oracle_poly_body(ring, stream)
    if stream.peek() is not None:
        tok = stream.peek()
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])
    return poly


def oracle_parse_element(ring, rank, text, line=1):
    stream = _TokenStream(_tokenize(text, line), line)
    tok = stream.peek()
    if tok is not None and tok[0] == "op" and tok[1] == "[":
        stream.next()
        polys = []
        while True:
            polys.append(_oracle_poly_body(ring, stream))
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
    return ModuleElement.from_polynomial(oracle_parse_polynomial(ring, text, line))


def oracle_module_declarations(rests, line_no=2):
    """(rank, shifts, tie) after the module declarations with these rests, one per line."""
    rank, shifts, tie = 1, None, None
    seen = set()
    for rest in rests:
        tokens = rest.split()
        k = 0
        try:
            while k < len(tokens):
                _once(seen, f"module {tokens[k]}", line_no)
                if tokens[k] == "rank":
                    rank = ascii_int(tokens[k + 1])
                    if rank < 1:
                        raise ParseError(f"module rank must be at least 1, got {rank}", line_no, 1)
                    if rank > MAX_MODULE_RANK:
                        raise ResourceLimitError(
                            f"module rank {rank} is above the limit of {MAX_MODULE_RANK}"
                        )
                    k += 2
                elif tokens[k] == "shifts":
                    literal = " ".join(tokens[k + 1 :])
                    shifts, rest_text = _parse_bracket_list(literal, line_no)
                    tokens = tokens[: k + 1] + rest_text.split()
                    k += 1
                elif tokens[k] == "tie":
                    tie = tokens[k + 1]
                    if tie not in ("pot", "top"):
                        raise ParseError("tie must be 'pot' or 'top'", line_no, 1)
                    k += 2
                else:
                    raise ParseError(f"unknown module keyword {tokens[k]!r}", line_no, 1)
        except (IndexError, ValueError):
            raise ParseError("malformed module declaration", line_no, 1) from None
        line_no += 1
    return rank, shifts, tie


# ---------------------------------------------------------------------------
# comparison


def _outcome(fn, *args):
    """("value", v) or ("raised", exception type, message)."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the type is part of what is compared
        return ("raised", type(exc), str(exc))


def _element_value(m):
    return m.ring, m.rank, dict(m.term_map())


RINGS = [PolyRing(RationalField(), ("x1", "x2")), PolyRing(PrimeField(7), ("x1", "x2"))]

# well-formed text in the grammar's shape, then up to three stray pieces
# inserted or spans deleted, so that every error path and the values are met
_PIECES = ["x1", "x2", "y", "^", "^2", "^1/2", "2", "1/2", "1/0", "7", "+", "-", "*", "[", "]", ",", "\n", "$", "é", "١"]
_TERMS = st.tuples(
    st.sampled_from(["", "2", "1/2", "0", "7"]),
    st.lists(st.sampled_from(["x1", "x2", "x1^2", "x2^3"]), max_size=2),
).map(lambda t: "*".join(filter(None, (t[0], *t[1]))) or "1")
_POLYS = st.tuples(
    st.sampled_from(["", "-"]),
    _TERMS,
    st.lists(st.tuples(st.sampled_from([" + ", " - ", "-"]), _TERMS), max_size=2),
).map(lambda t: t[0] + t[1] + "".join(op + term for op, term in t[2]))
_SHAPES = st.one_of(_POLYS, st.lists(_POLYS, min_size=1, max_size=4).map(", ".join).map("[{}]".format))


@st.composite
def _mutated(draw, shapes, pieces):
    text = draw(shapes)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(pieces)) + text[at:]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 3)) :]
    return text


_elements = _mutated(_SHAPES, _PIECES)


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(ring=st.sampled_from(RINGS), rank=st.integers(1, 3), text=_elements)
def test_element_parser_matches_the_two_pass_parser(ring, rank, text):
    got = _outcome(parse_element, ring, rank, text, 4)
    want = _outcome(oracle_parse_element, ring, rank, text, 4)
    if got[0] == "value" and want[0] == "value":
        assert _element_value(got[1]) == _element_value(want[1])
    else:
        assert got == want
    if got[0] == "raised":
        assert got[1] in (ParseError, UsageError)
    if rank == 1:
        assert _outcome(parse_polynomial, ring, text, 4) == _outcome(oracle_parse_polynomial, ring, text, 4)


_MODULE_PIECES = [" rank", " shifts", " tie", " pot", " lex", " 0", " -1", " 1001", " ٢", "[", "]", ",", '"a"', " {}", " [[[", " x"]
_CLAUSES = st.sampled_from(
    ["rank 1", "rank 2", "rank +3", "shifts [1, 2]", "shifts [0]", "shifts [[1, 0], 2]", "shifts []", "tie pot", "tie top"]
)
_module_lines = st.lists(
    _mutated(st.lists(_CLAUSES, max_size=3).map(" ".join), _MODULE_PIECES), min_size=1, max_size=2
)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(rests=_module_lines)
def test_module_reader_matches_the_index_stepping_reader(rests):
    text = "ring q: x1 x2\n" + "".join(f"module {rest}\n" for rest in rests)

    def read(text):
        problem = parse_problem(text)
        return problem.rank, problem.shifts, problem.tie

    assert _outcome(read, text) == _outcome(oracle_module_declarations, rests)


# ---------------------------------------------------------------------------
# reachable error paths


@pytest.mark.parametrize(
    "rank, text, message",
    [
        (1, "x1 + + x2", "line 1, col 4: empty term"),
        (2, "[x1, x2", "line 1, col 6: unterminated '['"),
        (1, "x1, x2", "line 1, col 3: trailing input ','"),
        (2, "[x1, x2] x1", "line 1, col 10: trailing input 'x1'"),
    ],
)
def test_reachable_element_errors(rank, text, message):
    with pytest.raises(ParseError) as err:
        parse_element(RINGS[0], rank, text)
    assert str(err.value) == message
