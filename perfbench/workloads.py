"""The benchmark's three workloads: seeded inputs, operations and output checks.

``setup(name, seed)`` parses the problem corpus in ``problems/`` through the
CLI parser, derives the seeded inputs and returns the operations of one pass.
Each operation is one call into the library.  Its check runs outside the
timed section and returns None when the output is right, or a message saying
what is wrong.

The library is called through module attributes (``cli.run_command``,
``macbasis.interreduce``, ...), never through names imported here, so that
the traced run sees every call the benchmark makes.
"""

import copy
import json
import os
import random
from functools import partial
from typing import Callable, NamedTuple

from macaulay import apps, cli, grading, macbasis, polymod, reduction, symmetry
from macaulay.coeff import field_from_spec
from macaulay.gradlin import vector_of

HERE = os.path.dirname(os.path.abspath(__file__))
PROBLEMS = os.path.join(HERE, "problems")
FP = "fp:32003"
SCALES = (1, 2, 3, 5, 7)
HILBERT_DEGREES = range(9)
EQUIVARIANCE_SAMPLES = 3


class Op(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


class SetupMismatch(Exception):
    """A set-up computation disagrees with the pinned canonical output."""


def load_pins():
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _read(filename):
    with open(os.path.join(PROBLEMS, filename), encoding="utf-8") as fh:
        return fh.read()


def load(name, coeff):
    return cli.parse_problem(_read(f"{name}.mac"), field_from_spec(coeff))


def draw_scales(rng, count):
    """One nonzero rational scale per generator."""
    return [(rng.choice((-1, 1)) * rng.choice(SCALES), rng.choice(SCALES)) for _ in range(count)]


def draw(rng, count):
    """One generator order and one nonzero rational scale per generator."""
    order = list(range(count))
    rng.shuffle(order)
    return order, draw_scales(rng, count)


def seeded(problem, order, scales):
    """The problem with its generators reordered and rescaled, round-tripped
    through the CLI's renderer and parser."""
    field = problem.field
    variant = copy.copy(problem)
    variant.generators = [
        problem.generators[i].scale(field.div(field.from_int(num), field.from_int(den)))
        for i, (num, den) in zip(order, scales)
    ]
    return cli.parse_problem(cli.render_problem(variant))


def seeded_pair(name, rng):
    """The Q and F_p copies of a problem with seeded scales.

    The Q copy keeps the file's generator order and the F_p copy reverses it.
    The order is not seeded: it moves completion time by up to 3x (cyclic-4
    over Q took 3.4 s in one seeded order and 1.1 s in another), which made
    wall_s spread across seeds by the work itself.
    """
    q = load(name, "q")
    order = list(range(len(q.generators)))
    scales = draw_scales(rng, len(order))
    return seeded(q, order, scales), seeded(load(name, FP), order[::-1], scales)


def rendered(elements, spec):
    return [str(m) for m in macbasis.canonical_order(list(elements), spec)]


def _expect(what, got, pinned):
    return None if got == pinned else f"{what}: got {got}, pinned {pinned}"


# ---------------------------------------------------------------------------
# complete


def _cli_basis(problem, args):
    return cli.format_result(cli.run_command("basis", problem, args), args.format)


def _check_cli_basis(pinned, text):
    doc = json.loads(text)
    got = [entry["element"] for entry in doc["elements"]]
    if doc["criterion"] != "pass" or doc["reduced"] is not True:
        return f"basis printed criterion {doc['criterion']}, reduced {doc['reduced']}"
    return _expect("reduced basis", got, pinned)


def setup_complete(seed, pins):
    rng = random.Random(seed)
    args = cli.build_parser().parse_args(
        ["basis", "-", "--reduced", "--certify", "--format", "json"]
    )
    ops = []
    for name in ("katsura3", "cyclic4"):
        for coeff, problem in zip(("q", FP), seeded_pair(name, rng)):
            ops.append(
                Op(
                    f"basis {name} {coeff}",
                    partial(_cli_basis, problem, args),
                    partial(_check_cli_basis, pins["reduced"][f"{name}/{coeff}"]),
                )
            )
    return ops


# ---------------------------------------------------------------------------
# normal_forms

# (problem, field, normal forms, membership tests, degree bound of the inputs,
#  least total degree of a reduced basis element; the gradings are total degree
#  and degrevlex, so no nonzero element of the submodule has a lower degree)
NF_BASES = (
    ("circle", "q", 240, 120, 6, 2),
    ("katsura3", FP, 240, 120, 4, 1),
    ("c4", "q", 160, 80, 6, 2),
)
NON_MEMBERS = 40
EQUIVARIANCE_CALLS = 24


def reduced_basis(problem, pinned):
    spec = problem.grading()
    basis = macbasis.interreduce(macbasis.buchberger_algorithm(problem.generators, spec), spec)
    problem_text = _expect("set-up reduced basis", rendered(basis.elements, spec), pinned)
    if problem_text is not None:
        raise SetupMismatch(problem_text)
    return basis, spec


def _normal_form(reducer, m):
    return reducer.normal_form(m)[0]


def _check_normal_form(reducer, m, nf):
    again, _ = reducer.normal_form(nf)
    if again != nf:
        return f"normal form not idempotent: nf({nf}) = {again}"
    if not reducer.reduces_to_zero(m - nf)[0]:
        return f"m - nf(m) is not in the submodule, for m = {m}"
    if nf.is_zero():
        return None
    part = polymod.leading_form(nf, reducer.spec)
    sub = reducer.w_space(part.degree)
    if sub.contains(vector_of(part.element, sub.ambient, reducer.field)):
        return f"the leading form of nf = {nf} lies in its workspace"
    return None


def _membership(reducer, m):
    return reducer.reduces_to_zero(m)[0]


def _check_membership(member, ok):
    if ok is not member:
        return f"reduces_to_zero returned {ok} on a {'' if member else 'non-'}member"
    return None


def _equivariance(elements, spec, action, seed):
    return symmetry.check_equivariant_normal_form(
        elements, spec, action, samples=EQUIVARIANCE_SAMPLES, seed=seed
    )


def _check_equivariance(report):
    if report.samples != EQUIVARIANCE_SAMPLES or not report.equivariant:
        return f"equivariance failed on {len(report.counterexamples)} of {report.samples} samples"
    return None


def combination(elements, ring, rng, max_degree):
    """A seeded member of the submodule: sum of r_i * X[i], r_i random."""
    acc = None
    for m in elements:
        r = symmetry.random_element(ring, 1, rng, max_degree=max_degree, terms=3).polys[0]
        part = m.action(r)
        acc = part if acc is None else acc + part
    return acc


def non_member(elements, ring, rng, max_degree, least_degree):
    """A combination of the basis plus a nonzero element of lower degree than
    every basis element, which no element of the submodule can cancel."""
    low = symmetry.random_element(ring, 1, rng, max_degree=least_degree - 1, terms=2)
    while low.is_zero():
        low = symmetry.random_element(ring, 1, rng, max_degree=least_degree - 1, terms=2)
    return combination(elements, ring, rng, max_degree) + low


def setup_normal_forms(seed, pins):
    rng = random.Random(seed)
    ops = []
    for name, coeff, nf_count, member_count, max_degree, least_degree in NF_BASES:
        problem = load(name, coeff)
        problem = seeded(problem, *draw(rng, len(problem.generators)))
        basis, spec = reduced_basis(problem, pins["reduced"][f"{name}/{coeff}"])
        elements = list(basis.elements)
        reducer = reduction.Reducer(elements, spec, basis.policy)
        for k in range(nf_count):
            m = symmetry.random_element(problem.ring, 1, rng, max_degree=max_degree)
            ops.append(
                Op(f"normal_form {name} #{k}", partial(_normal_form, reducer, m),
                   partial(_check_normal_form, reducer, m))
            )
        for k in range(member_count):
            m = combination(elements, problem.ring, rng, max_degree - 2)
            ops.append(
                Op(f"reduces_to_zero {name} #{k}", partial(_membership, reducer, m),
                   partial(_check_membership, True))
            )
        for k in range(NON_MEMBERS):
            m = non_member(elements, problem.ring, rng, max_degree - 2, least_degree)
            ops.append(
                Op(f"reduces_to_zero {name} non-member #{k}", partial(_membership, reducer, m),
                   partial(_check_membership, False))
            )
        if name == "c4":
            action = cli.parse_group_file(_read("c4.grp"), problem.ring)
            for k in range(EQUIVARIANCE_CALLS):
                ops.append(
                    Op(f"equivariance c4 #{k}",
                       partial(_equivariance, elements, spec, action, rng.randrange(2**31)),
                       _check_equivariance)
                )
    # the first pass fills the workspace caches; an operation's time is the
    # median of its repeats, so its one cold repeat does not set it
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# nested


def _complete(problem):
    return macbasis.buchberger_algorithm(problem.generators, problem.grading())


def _check_completion(problem, pinned, basis):
    spec = problem.grading()
    if not basis.certificate.holds:
        return "completion returned without a passing certificate"
    reducer = reduction.Reducer(list(basis.elements), spec, basis.policy)
    if not all(reducer.reduces_to_zero(g)[0] for g in problem.generators):
        return "an input generator is not in the span of the completion"
    if pinned is None:
        return None
    reduced = macbasis.interreduce(basis, spec)
    return _expect("completion interreduced", rendered(reduced.elements, spec), pinned)


def _criterion(problem):
    return macbasis.buchberger_criterion(problem.generators, problem.grading())


def _check_criterion(pinned, result):
    return _expect("criterion", "pass" if result.holds else "fail", pinned)


def _interreduce(problem):
    return macbasis.interreduce(problem.generators, problem.grading())


def _check_interreduce(pinned, basis):
    return _expect("interreduced basis", rendered(basis.elements, basis.spec), pinned)


def _eliminate(problem, keep):
    return apps.eliminate(problem.generators, apps.EliminationSpec(problem.ring, [keep]))


def _check_eliminate(problem, keep, pinned, out):
    elim = apps.EliminationSpec(problem.ring, [keep])
    if not all(elim.uses_only_kept(m) for m in out):
        return "an eliminated element uses a dropped variable"
    kept = grading.CoarseModuleGrading(elim.grading, problem.rank)
    reduced = macbasis.interreduce(out, kept)
    return _expect(f"eliminated set keeping {keep}", rendered(reduced.elements, kept), pinned)


def _hilbert(problem):
    return apps.hilbert_function(problem.generators, problem.grading(), list(HILBERT_DEGREES))


def _check_hilbert(pinned, table):
    return _expect("Hilbert values", list(table.values), pinned)


def _schreyer(basis):
    return apps.schreyer_syzygy_basis(basis)


def _check_schreyer(basis, syz):
    if not syz.certificate.holds:
        return "syzygy basis returned without a passing certificate"
    X = list(basis.elements)
    if any(not reduction.dot(t, X).is_zero() for t in syz.elements):
        return "a Schreyer syzygy does not evaluate to zero"
    return None


def setup_nested(seed, pins):
    """The fixed problems as their files give them; --seed does not change them.

    With seeded generator orders the operation at the median moved from seed
    to seed (op_p50_ms spread 0.51 over ten seeds).  There are 13 operations,
    an odd number, so that the median of their times falls inside one
    operation's times (the cyclic-3 completion over F_p) rather than in the
    gap between two.
    """
    reduced, criterion = pins["reduced"], pins["criterion"]
    ops = []
    for coeff in ("q", FP):
        problem = load("c4", coeff)
        ops.append(Op(f"complete c4 {coeff}", partial(_complete, problem),
                      partial(_check_completion, problem, reduced[f"c4/{coeff}"])))
        ops.append(Op(f"criterion c4 {coeff}", partial(_criterion, problem),
                      partial(_check_criterion, criterion[f"c4/{coeff}"])))
    cyclic3 = {coeff: load("cyclic3", coeff) for coeff in ("q", FP)}
    for coeff in ("q", FP):
        ops.append(Op(f"complete cyclic3 {coeff}", partial(_complete, cyclic3[coeff]),
                      partial(_check_completion, cyclic3[coeff], None)))
    ops.append(Op("criterion cyclic3 q", partial(_criterion, cyclic3["q"]),
                  partial(_check_criterion, criterion["cyclic3/q"])))
    # over Q the same interreduce does not finish (see left_out in config.json)
    ops.append(Op(f"interreduce cyclic3 {FP}", partial(_interreduce, cyclic3[FP]),
                  partial(_check_interreduce, reduced[f"cyclic3/{FP}"])))
    for name, keep in (("cyclic3", "z"), ("c4", "x2")):
        problem = load(name, "q")
        ops.append(Op(f"eliminate {name} keep {keep}", partial(_eliminate, problem, keep),
                      partial(_check_eliminate, problem, keep,
                              pins["eliminate"][f"{name}/q/keep {keep}"])))
    hilbert = load("katsura3h", FP)
    ops.append(Op("hilbert katsura3h fp 0..8", partial(_hilbert, hilbert),
                  partial(_check_hilbert, pins["hilbert"][f"katsura3h/{FP} degrees 0..8"])))
    # the syzygy operations start from the pinned reduced katsura-3 bases
    for coeff in ("q", FP):
        k3 = load("katsura3", coeff)
        pinned = reduced[f"katsura3/{coeff}"]
        spec = k3.grading()
        basis = macbasis.interreduce(
            [polymod.parse_element(k3.ring, 1, text) for text in pinned], spec)
        mismatch = _expect("set-up katsura-3 basis", rendered(basis.elements, spec), pinned)
        if mismatch is not None:
            raise SetupMismatch(mismatch)
        ops.append(Op(f"schreyer katsura3 {coeff}", partial(_schreyer, basis),
                      partial(_check_schreyer, basis)))
    return ops


SETUPS = {
    "complete": setup_complete,
    "normal_forms": setup_normal_forms,
    "nested": setup_nested,
}


def setup(name, seed):
    return SETUPS[name](seed, load_pins())
