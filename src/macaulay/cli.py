"""Batch command-line front end.

One problem per file: a ring declaration, a grading declaration, an optional
module declaration, then generators.  Commands dispatch to the library and
render a deterministic result document as text or JSON; exact values are
always printed as strings.

Exit codes: 0 ok, 2 syntax error, 3 mathematical precondition, 4 resource cap or
out of memory.
"""

import argparse
import functools
import json
import os
import re
import sys

from .apps import (
    EliminationSpec,
    HomogenizationContext,
    dehomogenize,
    eliminate,
    hilbert_function,
    homogenize,
    schreyer_syzygy_basis,
    verify_homogenization_equivalence,
)
from .coeff import ascii_int, field_from_spec
from .errors import ParseError, ResourceLimitError, UsageError
from .gradlin import ORTHOGONAL, PIVOT, check_policy
from .grading import (
    BlockGrading,
    CoarseModuleGrading,
    TermModuleGrading,
    TermOrderGrading,
    TotalDegreeGrading,
    format_degree,
    verify_monoid_order,
)
from .macbasis import (
    BuchbergerConfig,
    buchberger_algorithm,
    buchberger_criterion,
    degree_profile,
    interreduce,
    canonical_order,
)
from .polymod import PolyRing, degree_of, parse_element, render_element
from .reduction import Reducer
from .symmetry import (
    GroupAction,
    check_equivariant_normal_form,
    permutation_matrix,
    signed_permutation_matrix,
    span_is_invariant,
)

COMMANDS = (
    "basis",
    "verify",
    "reduce",
    "syzygy",
    "eliminate",
    "hilbert",
    "homogenize",
    "dehomogenize",
    "check-invariant",
)

# a module grading holds one shift per component, so an unbounded rank is
# an unbounded allocation before any work starts
MAX_MODULE_RANK = 1000


# ---------------------------------------------------------------------------
# problem files


class ProblemFile:
    def __init__(self, field, ring, grading_decl, rank, shifts, tie, generators, group_path, text):
        self.field = field
        self.ring = ring
        self.grading_decl = grading_decl
        self.rank = rank
        self.shifts = shifts
        self.tie = tie
        self.generators = generators
        self.group_path = group_path
        self.text = text

    def grading(self):
        return build_grading(self.ring, self.grading_decl, self.rank, self.shifts, self.tie)


def _parse_bracket_list(text, line_no):
    """Parse a JSON literal that starts with '['; returns (value, rest), entries unchecked."""
    text = text.strip()
    if not text.startswith("["):
        raise ParseError("expected '['", line_no, 1)
    try:
        value, end = json.JSONDecoder().raw_decode(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep to decode
        raise ParseError(f"bad list literal: {exc}", line_no, 1) from None
    return value, text[end:]


def _int_matrix(text, what, line_no=None):
    """The integer rows a literal spells; text after it is a ParseError, other entries a UsageError."""
    rows, rest = _parse_bracket_list(text, line_no)
    if rest.strip():
        raise ParseError(f"unexpected {rest.strip()!r} after the {what}", line_no, 1)
    if not all(isinstance(row, list) and all(map(_is_int, row)) for row in rows):
        raise UsageError(f"{what} entries must be integers in rows")
    return rows


def _declarations(text):
    """(line number, head, rest) of each declaration line, comments and blanks skipped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            head, _, rest = line.partition(" ")
            yield line_no, head, rest.strip()


def _once(seen, name, line_no):
    """Record a declaration, rejecting a second one of the same name."""
    if name in seen:
        raise ParseError(f"repeated {name} declaration", line_no, 1)
    seen.add(name)


def _no_trailing(tokens, n):
    """Reject a declaration with more than its first n tokens."""
    if len(tokens) > n:
        raise ParseError(f"unexpected {' '.join(tokens[n:])!r} after {' '.join(tokens[:n])!r}")


def parse_problem(text, default_field=None) -> ProblemFile:
    ring = None
    grading_decl = "total"
    rank, shifts, tie = 1, None, None
    gen_lines = []
    group_path = None
    seen = set()
    for line_no, head, rest in _declarations(text):
        if head not in ("gen", "module"):
            _once(seen, head, line_no)
        if head == "ring":
            # the field spec may itself contain a colon (fp:<p>)
            spec, _, var_part = rest.rpartition(":")
            if not spec.strip() or not var_part.strip():
                raise ParseError("ring declaration needs 'ring <field>: <vars>'", line_no, 1)
            names = tuple(var_part.replace(",", " ").split())
            if not names:
                raise ParseError("ring declaration lists no variables", line_no, 1)
            try:
                # the spec must be valid even where default_field (--coeff) overrides it
                field = field_from_spec(spec.strip())
                ring = PolyRing(field if default_field is None else default_field, names)
            except UsageError as exc:
                raise ParseError(str(exc), line_no, 1) from None
        elif head == "grading":
            grading_decl = rest
            if not rest:
                raise ParseError("empty grading declaration", line_no, 1)
        elif head == "module":
            tokens = rest.split()
            try:
                while tokens:
                    keyword = tokens.pop(0)
                    _once(seen, f"module {keyword}", line_no)
                    if keyword == "rank":
                        rank = ascii_int(tokens.pop(0))
                        if rank < 1:
                            raise ParseError(f"module rank must be at least 1, got {rank}", line_no, 1)
                        if rank > MAX_MODULE_RANK:
                            raise ResourceLimitError(
                                f"module rank {rank} is above the limit of {MAX_MODULE_RANK}"
                            )
                    elif keyword == "shifts":
                        shifts, rest_text = _parse_bracket_list(" ".join(tokens), line_no)
                        tokens = rest_text.split()
                    elif keyword == "tie":
                        tie = tokens.pop(0)
                        if tie not in ("pot", "top"):
                            raise ParseError("tie must be 'pot' or 'top'", line_no, 1)
                    else:
                        raise ParseError(f"unknown module keyword {keyword!r}", line_no, 1)
            except (IndexError, ValueError):
                raise ParseError("malformed module declaration", line_no, 1) from None
        elif head == "gen":
            gen_lines.append((line_no, rest))
        elif head == "group":
            group_path = rest
        else:
            raise ParseError(f"unknown declaration {head!r}", line_no, 1)
    if ring is None:
        raise ParseError("missing ring declaration", 1, 1)
    generators = [parse_element(ring, rank, expr, line) for line, expr in gen_lines]
    return ProblemFile(ring.field, ring, grading_decl, rank, shifts, tie, generators, group_path, text)


def render_problem(problem: ProblemFile) -> str:
    """Canonical text for a parsed problem; reparsing gives an equal problem."""
    field = problem.field
    spec = "q" if field.characteristic == 0 else f"fp:{field.characteristic}"
    lines = [f"ring {spec}: {' '.join(problem.ring.names)}", f"grading {problem.grading_decl}"]
    mod = f"module rank {problem.rank}"
    if problem.shifts is not None:
        mod += f" shifts {json.dumps(problem.shifts)}"
    if problem.tie is not None:
        mod += f" tie {problem.tie}"
    lines.append(mod)
    lines.extend(f"gen {render_element(g)}" for g in problem.generators)
    if problem.group_path:
        lines.append(f"group {problem.group_path}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=64)
def _ring_grading(decl, d):
    """The ring grading a declaration names, checked to be a monoid order.

    A weight matrix's check runs an exact rank test, so its verdict is kept
    per (declaration, number of variables); a failing one raises every time.
    """
    tokens = decl.split() or [""]
    kind = tokens[0]
    if kind == "total":
        _no_trailing(tokens, 1)
        grading = TotalDegreeGrading(d)
    elif kind == "order":
        if len(tokens) < 2:
            raise UsageError("grading order needs a name")
        name = tokens[1]
        if name in ("degrevlex", "lex"):
            _no_trailing(tokens, 2)
            grading = TermOrderGrading.degrevlex(d) if name == "degrevlex" else TermOrderGrading.lex(d)
        elif name == "matrix":
            # the declaration may come from --grading, so errors carry no position
            grading = TermOrderGrading(_int_matrix(decl.split("matrix", 1)[1], "weight matrix"))
            if len(grading.rows) != d or grading.nvars != d:
                raise UsageError(
                    f"weight matrix is {len(grading.rows)}x{grading.nvars}, "
                    f"but a ring in {d} variables needs {d}x{d}"
                )
        else:
            raise UsageError(f"unknown order {name!r}")
    elif kind == "elim":
        if len(tokens) < 2:
            raise UsageError("grading elim needs a split index")
        try:
            k = ascii_int(tokens[1])
        except ValueError:
            raise UsageError("grading elim needs an integer split index") from None
        _no_trailing(tokens, 2)
        if k < 0 or k > d:
            raise UsageError("split index out of range")
        grading = BlockGrading(d, tuple(range(k)))
    else:
        raise UsageError(f"unknown grading {kind!r}")
    report = verify_monoid_order(grading)
    if not report.passed:
        raise UsageError("invalid grading: " + "; ".join(report.failures))
    return grading


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def build_grading(ring, decl, rank, shifts, tie):
    """The module grading of a declaration; a shift is an integer, or under a
    term order also a list of one integer per variable."""
    d = ring.nvars
    ring_grading = _ring_grading(decl, d)
    term_order = isinstance(ring_grading, TermOrderGrading)
    for s in shifts or ():
        if not (_is_int(s) or term_order and isinstance(s, list) and len(s) == d and all(map(_is_int, s))):
            shape = f"an integer or a list of {d} integers" if term_order else "an integer"
            raise UsageError(f"shift {json.dumps(s)} must be {shape}")
    if term_order:
        tuple_shifts = None
        if shifts:
            tuple_shifts = tuple(tuple(s) if isinstance(s, list) else (s,) + (0,) * (d - 1) for s in shifts)
        return TermModuleGrading(ring_grading, rank, tuple_shifts, tie or "pot")
    if isinstance(ring_grading, BlockGrading):
        if shifts and any(shifts):
            raise UsageError("elimination gradings support zero shifts only")
        return CoarseModuleGrading(ring_grading, rank)
    return CoarseModuleGrading(ring_grading, rank, tuple(shifts) if shifts else None)


def parse_group_file(text, ring) -> GroupAction:
    matrices = []
    for line_no, head, rest in _declarations(text):
        try:
            if head == "matrix":
                matrices.append(_int_matrix(rest, "group matrix", line_no))
            elif head in ("perm", "signed-perm"):
                inside = re.fullmatch(r"\(([^()]*)\)", rest)
                if inside is None:
                    raise ValueError(f"{head} entries need one enclosing pair of parentheses")
                entries = list(map(ascii_int, inside[1].split()))
                if head == "perm":
                    matrices.append(permutation_matrix(ring.nvars, tuple(entries)))
                else:
                    matrices.append(signed_permutation_matrix(ring.nvars, entries))
            else:
                raise ParseError(f"unknown group declaration {head!r}", line_no, 1)
        except ValueError:
            raise ParseError("malformed group generator", line_no, 1) from None
    if not matrices:
        raise ParseError("group file defines no generators", 1, 1)
    return GroupAction(ring, matrices)


# ---------------------------------------------------------------------------
# result documents


def _input_hash(text, args_summary):
    import hashlib  # imported on first use, as in reduction._snapshot

    return hashlib.sha256((text + "\n" + args_summary).encode()).hexdigest()[:16]


def _element_entries(elements, spec):
    ordered = canonical_order(list(elements), spec)
    return [
        {"degree": format_degree(degree_of(m, spec)), "element": render_element(m)}
        for m in ordered
    ]


def run_command(command, problem: ProblemFile, args) -> dict:
    for option in ("max_iterations", "degree_cap", "equivariance_samples"):
        value = getattr(args, option)
        if value is not None and value < 0:
            raise UsageError(f"--{option.replace('_', '-')} must not be negative, got {value}")
    spec = problem.grading()
    policy = None
    if args.policy:
        policy = {"pivot": PIVOT, "orthogonal": ORTHOGONAL}[args.policy]
        check_policy(policy, problem.field)
    config = BuchbergerConfig(
        max_iterations=args.max_iterations, degree_cap=args.degree_cap, policy=policy
    )
    gens = problem.generators
    doc = {
        "command": command,
        "input_hash": _input_hash(problem.text, f"{command}|{args_summary(args)}"),
    }

    if command == "basis":
        basis = buchberger_algorithm(gens, spec, config)
        if args.reduced:
            basis = interreduce(basis, spec)
        if args.certify:
            # completion and interreduce certify by proof; this is an independent
            # criterion run on the printed elements, on the Reducer they came from
            cert = buchberger_criterion(list(basis.elements), spec, _reducer=basis._reducer)
            if not cert.holds:
                raise UsageError("output failed recertification")
        doc["elements"] = _element_entries(basis.elements, spec)
        doc["reduced"] = bool(args.reduced)
        doc["criterion"] = "pass"
        profile = degree_profile(basis)
        doc["profile"] = {
            format_degree(d): profile[d] for d in sorted(profile, key=spec.key)
        }
    elif command == "verify":
        result = buchberger_criterion(gens, spec, config)
        doc["criterion"] = "pass" if result.holds else "fail"
        if result.witness is not None:
            doc["witness"] = {
                "syzygy": render_element(result.witness.syzygy),
                "combination": render_element(result.witness.combination),
                "remainder": render_element(result.witness.remainder),
            }
    elif command == "reduce":
        if not args.element:
            raise UsageError("reduce needs --element")
        m = parse_element(problem.ring, problem.rank, args.element)
        reducer = Reducer(gens, spec, policy)
        nf, trace = reducer.normal_form(m)
        doc["normal_form"] = render_element(nf)
        if args.trace:
            doc["trace"] = [
                {
                    "degree": format_degree(step.degree),
                    "multipliers": [
                        {"index": idx + 1, "monomial": list(exps), "coefficient": problem.field.render(c)}
                        for idx, exps, c in step.multipliers
                    ],
                    "snapshot": snapshot,
                }
                for step, snapshot in zip(trace.steps, trace.snapshots())
            ]
    elif command == "syzygy":
        basis = buchberger_algorithm(gens, spec, config)
        syz = schreyer_syzygy_basis(basis, config)
        doc["elements"] = [{"element": render_element(m)} for m in syz.elements]
        doc["criterion"] = "pass" if syz.certificate.holds else "fail"
    elif command == "eliminate":
        if not args.keep:
            raise UsageError("eliminate needs --keep")
        keep = args.keep.replace(",", " ").split()
        elim = EliminationSpec(problem.ring, keep)
        kept_spec = CoarseModuleGrading(elim.grading, problem.rank)
        out = eliminate(gens, elim, config)
        doc["elements"] = _element_entries(out, kept_spec)
    elif command == "hilbert":
        if not args.degrees:
            raise UsageError("hilbert needs --degrees a..b")
        lo, dots, hi = args.degrees.partition("..")
        try:
            degrees = list(range(ascii_int(lo), ascii_int(hi) + 1)) if dots else [ascii_int(lo)]
        except ValueError:
            raise UsageError(f"bad degree range {args.degrees!r} (expected a..b)") from None
        if not degrees:
            raise UsageError(f"--degrees {args.degrees} is an empty range")
        table = hilbert_function(gens, spec, degrees, config=config)
        doc["hilbert"] = [
            {"degree": str(d), "dim": v} for d, v in zip(table.degrees, table.values)
        ]
    elif command in ("homogenize", "dehomogenize"):
        var = "t" if args.var is None else args.var
        if command == "homogenize":
            shifts = problem.shifts or None
            ctx = HomogenizationContext(problem.ring, var, shifts, problem.rank)
            out = homogenize(gens, ctx)
            out_spec = ctx.target_grading()
            result = verify_homogenization_equivalence(gens, ctx, config)
            doc["h_basis_certificate"] = "pass" if result.holds else "fail"
        else:
            if var not in problem.ring.names:
                raise UsageError(f"variable {var!r} not present")
            keep = tuple(n for n in problem.ring.names if n != var)
            if problem.ring.names[-1] != var:
                raise UsageError("the homogenizing variable must be declared last")
            source = PolyRing(problem.field, keep)
            ctx = HomogenizationContext(source, var, problem.shifts or None, problem.rank)
            out = dehomogenize(gens, ctx)
            out_spec = ctx.coarse
        doc["elements"] = _element_entries([m for m in out if not m.is_zero()], out_spec)
    elif command == "check-invariant":
        # a problem file's group path is read from that file's directory
        path = args.group or problem.group_path and os.path.join(
            os.path.dirname(args.problem), problem.group_path
        )
        if not path:
            raise UsageError("check-invariant needs --group <file>")
        with open(path, "r", encoding="utf-8") as fh:
            action = parse_group_file(fh.read(), problem.ring)
        report = span_is_invariant(gens, action)
        doc["invariant"] = report.invariant
        doc["witnesses"] = [
            {
                "generator": w.generator + 1,
                "element": w.element + 1,
                "solved": w.coordinates is not None,
                "residual": None if w.residual is None else render_element(w.residual),
            }
            for w in report.witnesses
        ]
        if args.equivariance_samples:
            if policy == PIVOT:
                raise UsageError("equivariance is certified only for the monomial-orthogonal complement")
            eq = check_equivariant_normal_form(
                gens, spec, action, samples=args.equivariance_samples
            )
            doc["equivariant"] = eq.equivariant
    else:
        raise UsageError(f"unknown command {command!r}")
    return doc


def args_summary(args) -> str:
    """The parser's options and their values, in the order ``build_parser`` adds them."""
    return "|".join(f"{k}={v}" for k, v in vars(args).items() if k not in ("command", "problem"))


def format_result(doc, fmt="text") -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = [f"# {doc['command']}", f"input-hash: {doc['input_hash']}"]
    if "criterion" in doc:
        lines.append(f"criterion: {doc['criterion']}")
    if "witness" in doc:
        w = doc["witness"]
        lines.append(f"witness syzygy: {w['syzygy']}")
        lines.append(f"witness combination: {w['combination']}")
        lines.append(f"witness remainder: {w['remainder']}")
    if "elements" in doc:
        lines.append(f"elements: {len(doc['elements'])}")
        for entry in doc["elements"]:
            if "degree" in entry:
                lines.append(f"  deg {entry['degree']}: {entry['element']}")
            else:
                lines.append(f"  {entry['element']}")
    if "profile" in doc:
        body = ", ".join(f"{k}: {v}" for k, v in doc["profile"].items())
        lines.append(f"profile: {{{body}}}")
    if "normal_form" in doc:
        lines.append(f"normal-form: {doc['normal_form']}")
    if "trace" in doc:
        for step in doc["trace"]:
            multipliers = ", ".join(
                f"{m['coefficient']}*x^{tuple(m['monomial'])}*g{m['index']}" for m in step["multipliers"]
            )
            lines.append(f"  step deg {step['degree']}: subtract {multipliers}")
    if "hilbert" in doc:
        for row in doc["hilbert"]:
            lines.append(f"H({row['degree']}) = {row['dim']}")
    if "invariant" in doc:
        lines.append(f"invariant: {'yes' if doc['invariant'] else 'no'}")
        for w in doc.get("witnesses", ()):
            status = "solved" if w["solved"] else f"residual {w['residual']}"
            lines.append(f"  generator {w['generator']} on element {w['element']}: {status}")
    if "equivariant" in doc:
        lines.append(f"equivariant: {'yes' if doc['equivariant'] else 'no'}")
    if "h_basis_certificate" in doc:
        lines.append(f"h-basis certificate: {doc['h_basis_certificate']}")
    if "reduced" in doc:
        lines.append(f"reduced: {'yes' if doc['reduced'] else 'no'}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macaulay",
        description="Macaulay bases of graded modules over polynomial rings, exactly.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("problem", help="problem file")
    parser.add_argument("--coeff", default=None, help="coefficient field: q or fp:<p>")
    parser.add_argument("--grading", default=None, help="override the grading declaration")
    parser.add_argument("--reduced", action="store_true")
    parser.add_argument("--certify", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--format", default="text", choices=("text", "json"))
    parser.add_argument(
        "--max-iterations", type=ascii_int, default=BuchbergerConfig().max_iterations, dest="max_iterations"
    )
    parser.add_argument("--degree-cap", type=ascii_int, default=None, dest="degree_cap")
    parser.add_argument("--keep", default=None, help="variables to keep for eliminate")
    parser.add_argument("--var", default=None, help="homogenizing variable name")
    parser.add_argument("--group", default=None, help="group file for check-invariant")
    parser.add_argument("--degrees", default=None, help="degree range a..b for hilbert")
    parser.add_argument("--element", default=None, help="element to reduce")
    parser.add_argument("--policy", default=None, choices=("pivot", "orthogonal"))
    parser.add_argument(
        "--equivariance-samples", type=ascii_int, default=0, dest="equivariance_samples"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.problem, "r", encoding="utf-8") as fh:
            text = fh.read()
        default_field = field_from_spec(args.coeff) if args.coeff else None
        problem = parse_problem(text, default_field)
        if args.grading:
            problem.grading_decl = args.grading
        doc = run_command(args.command, problem, args)
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:  # reading the problem file or a group file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        # growth that no cap stops yet still ends as a resource limit, not a traceback
        print("resource limit: out of memory", file=sys.stderr)
        return 4
    sys.stdout.write(format_result(doc, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
