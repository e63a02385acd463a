"""Cross-check the benchmark's pinned outputs against the independent oracles.

    python3 perfbench/check_pins.py

The oracles in tests/oracles.py are textbook computations over Q that share
no code with the package: a classical Buchberger loop, ideal membership by
division, and Hilbert values by brute-force slice ranks.  F_32003 pins are
checked against the Q results taken mod p.  Exits 0 when every pin agrees.
"""

import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import oracles  # noqa: E402
from macaulay import apps, polymod  # noqa: E402
from workloads import FP, HILBERT_DEGREES, load, load_pins  # noqa: E402

P = 32003


def raw(problem, texts):
    return [oracles.raw_poly(polymod.parse_element(problem.ring, 1, t).polys[0]) for t in texts]


def mod_p(poly):
    return {m: c.numerator * pow(c.denominator, -1, P) % P for m, c in poly.items()}


def lift(poly):
    """F_p residues to the integers nearest zero."""
    return {m: Fraction(c - P if c > P // 2 else c) for m, c in poly.items()}


def as_set(polys):
    return {frozenset(p.items()) for p in polys}


def top_form(poly):
    d = max(sum(m) for m in poly)
    return {m: c for m, c in poly.items() if sum(m) == d}


def check_reduced(pins):
    """Degrevlex pins are reduced Groebner bases; total-degree pins generate the input ideal."""
    for name in ("katsura3", "cyclic4"):
        q = load(name, "q")
        expected = oracles.classic_buchberger(raw(q, map(str, q.generators)), oracles.drl_key)
        yield f"reduced {name}/q", as_set(raw(q, pins[f"{name}/q"])) == as_set(expected)
        # residues read back as integral Fractions, which compare and hash like ints
        got = as_set(raw(load(name, FP), pins[f"{name}/{FP}"]))
        yield f"reduced {name}/{FP}", got == as_set(mod_p(p) for p in expected)
    for key in ("circle/q", "c4/q", f"c4/{FP}", f"cyclic3/{FP}"):
        name, coeff = key.split("/")
        problem = load(name, coeff)
        pinned = raw(problem, pins[key])
        inputs = [oracles.raw_poly(g.polys[0]) for g in problem.generators]
        if coeff == FP:
            pinned, inputs = [lift(p) for p in pinned], [lift(p) for p in inputs]
        yield f"reduced {key} generates the input ideal", oracles.ideals_equal(pinned, inputs)


def check_criterion(pins):
    """Under total degree, X passes iff the top forms of X generate every top
    form of the ideal; the top forms of a degrevlex Groebner basis generate
    those, since degrevlex refines total degree."""
    for key, verdict in pins["criterion"].items():
        name, coeff = key.split("/")
        q = load(name, "q")
        gens = [oracles.raw_poly(g.polys[0]) for g in q.generators]
        tops = [top_form(g) for g in gens]
        holds = all(oracles.ideal_member(top_form(b), tops)
                    for b in oracles.classic_buchberger(gens, oracles.drl_key))
        yield f"criterion {key}", verdict == ("pass" if holds else "fail")


def check_eliminate(pins):
    """The lex Groebner basis elements free of the dropped variables generate
    the elimination ideal."""
    for key, pinned in pins["eliminate"].items():
        name, coeff, keep = key.split("/")
        problem = load(name, coeff)
        kept = problem.ring.names.index(keep.split()[1])
        lex = oracles.classic_buchberger(
            [oracles.raw_poly(g.polys[0]) for g in problem.generators], oracles.lex_key)
        free = [p for p in lex if all(e == 0 for m in p for j, e in enumerate(m) if j != kept)]
        yield f"eliminate {key}", oracles.ideals_equal(raw(problem, pinned), free)


def check_hilbert(pins):
    problem = load("katsura3h", "q")
    gens = [oracles.raw_poly(g.polys[0]) for g in problem.generators]
    expected = [oracles.slice_dimension(gens, problem.ring.nvars, d) for d in HILBERT_DEGREES]
    (values,) = pins["hilbert"].values()
    yield "hilbert katsura3h", values == expected
    k3 = load("katsura3", "q")
    ctx = apps.HomogenizationContext(k3.ring, "t")
    homogenized = [str(m) for m in apps.homogenize(k3.generators, ctx)]
    yield "katsura3h is katsura3 homogenized", homogenized == [str(g) for g in problem.generators]


def main():
    pins = load_pins()
    checks = [check_reduced(pins["reduced"]), check_criterion(pins), check_eliminate(pins),
              check_hilbert(pins)]
    failed = 0
    for group in checks:
        for label, ok in group:
            print(f"{'ok  ' if ok else 'FAIL'} {label}", flush=True)
            failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
