"""Exact coefficient fields: arbitrary-precision rationals and prime fields F_p.

Field objects own the arithmetic; elements are plain immutable values
(over Q an ``int`` for a whole number and a reduced ``Fraction`` otherwise,
canonical residues ``int`` in [0, p) for F_p), so they hash, compare and
travel between threads without ceremony.

``rref`` is the one exact Gauss-Jordan elimination of the package.  It lives
here, beside the field arithmetic it is generic over, because both ``grading``
(weight-matrix rank) and ``gradlin`` (graded components) need it, and
``gradlin`` already imports ``grading``.  It is sparse: rows and their
combinations are ``{column: nonzero}`` maps, because the rows of a workspace
are monomial multiples of leading forms with a few terms each, and the dense
callers (a weight matrix, a group generator) convert once at the call.
"""

from fractions import Fraction

from .errors import UsageError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to the 13 bases above (Sorenson and
# Webster 2017): below it the test is proof, at or above it only evidence
MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 prime bases, deterministic for n below ``MR_BOUND``."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field Q: a whole number is an ``int``, any other value a reduced ``Fraction``.

    Most coefficients that completion meets are whole, and ``int``
    arithmetic skips ``Fraction``'s operator dispatch, gcds and allocation.
    Every method returns this form, testing ``type(r) is int`` first so that
    the whole-number path never reads a ``Fraction`` property.  An ``int``
    and the equal ``Fraction`` compare, hash and print alike, so a value
    built elsewhere as ``Fraction(3)`` still works; use the field for
    arithmetic, since ``int / int`` is a float.
    """

    characteristic = 0

    zero = 0
    one = 1

    def from_int(self, n):
        return n

    def add(self, a, b):
        r = a + b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def sub(self, a, b):
        r = a - b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def mul(self, a, b):
        r = a * b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def neg(self, a):
        return -a

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero in Q")
        r = Fraction(a, b)
        return r if r.denominator != 1 else r.numerator

    def inv(self, a):
        return self.div(1, a)

    def is_zero(self, a):
        # also right for a Fraction, whose truth reads its numerator
        return not a

    def parse(self, text):
        try:
            r = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational literal {text!r}") from exc
        return r if r.denominator != 1 else r.numerator

    def render(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(("field", 0))

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field F_p for prime p, elements stored as residues in [0, p)."""

    def __init__(self, p: int):
        if p >= MR_BOUND:
            raise UsageError(
                f"modulus {p} is at or above {MR_BOUND}, the bound below which primality is proven"
            )
        if not is_prime(p):
            raise UsageError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return a * pow(b, self.p - 2, self.p) % self.p

    def inv(self, a):
        return self.div(1, a)

    def is_zero(self, a):
        return a % self.p == 0

    def parse(self, text):
        """The residue of an integer literal, or of ``a/b`` as a * b^-1 mod p."""
        num, slash, den = text.partition("/")
        try:
            return self.div(int(num, 10), int(den, 10)) if slash else int(text, 10) % self.p
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad residue literal {text!r}") from exc

    def render(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("field", self.p))

    def __repr__(self):
        return f"F_{self.p}"


def ascii_int(text):
    """The integer an optionally signed run of ASCII digits spells; ValueError otherwise."""
    if not (text.isascii() and text.lstrip("+-").isdigit()):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


ascii_int.__name__ = "ASCII integer"  # argparse names a rejected value's type by it


def field_from_spec(text: str):
    """Build a field from a CLI spec: ``q`` or ``fp:<p>``."""
    text = text.strip().lower()
    if text == "q":
        return RationalField()
    if text.startswith("fp:"):
        try:
            p = ascii_int(text[3:])
        except ValueError:
            raise UsageError(f"bad field spec {text!r}") from None
        return PrimeField(p)
    raise UsageError(f"unknown field spec {text!r} (expected 'q' or 'fp:<p>')")


def rref(rows, field):
    """Sparse reduced row echelon form with combination tracking.

    Rows go in and come out as ``{column: nonzero}`` maps; stored zeros are
    dropped on the way in.  Returns (echelon rows, pivot columns, combos)
    where ``combos[k]`` is a ``{row index: nonzero}`` map expressing echelon
    row k in the original rows.  Zero rows are dropped.  The pivot is the
    lowest column any row from the current one on stores, taken from the
    first such row, so the result is deterministic in the input order and
    equals dense Gauss-Jordan elimination's.  The pivot search and the
    elimination visit only stored entries.
    """
    is_zero, mul, one = field.is_zero, field.mul, field.one
    work = [{j: v for j, v in row.items() if not is_zero(v)} for row in rows]
    combos = [{i: one} for i in range(len(work))]
    pivots = []
    for r in range(len(work)):
        # every row from r on is zero left of the last pivot, so its lowest
        # stored column is the next candidate
        c = min((min(row) for row in work[r:] if row), default=None)
        if c is None:
            break
        piv = next(i for i in range(r, len(work)) if c in work[i])
        work[r], work[piv] = work[piv], work[r]
        combos[r], combos[piv] = combos[piv], combos[r]
        row, combo = work[r], combos[r]
        if row[c] != one:
            scale = field.inv(row[c])
            row = work[r] = {j: mul(scale, v) for j, v in row.items()}
            combo = combos[r] = {g: mul(scale, v) for g, v in combo.items()}
        for i, other in enumerate(work):
            if i != r and c in other:
                f = other[c]
                _subtract_multiple(other, f, row, field)
                _subtract_multiple(combos[i], f, combo, field)
        pivots.append(c)
    r = len(pivots)
    return work[:r], pivots, combos[:r]


def _subtract_multiple(target, f, source, field):
    """target -= f * source in place, on ``{column: nonzero}`` maps."""
    for j, w in source.items():
        prod = field.mul(f, w)
        v = target.get(j)
        v = field.neg(prod) if v is None else field.sub(v, prod)
        if field.is_zero(v):
            del target[j]
        else:
            target[j] = v
