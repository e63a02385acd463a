import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macaulay import cli
from macaulay.cli import (
    build_grading,
    format_result,
    main,
    parse_group_file,
    parse_problem,
    render_problem,
)
from macaulay.coeff import PrimeField
from macaulay.errors import ParseError, UsageError
from macaulay.grading import TermOrderGrading
from macaulay.macbasis import buchberger_algorithm, interreduce
from macaulay.symmetry import span_is_invariant

CIRCLE = """\
# twin-circle system
ring q: x1 x2
grading order degrevlex
gen x1^2 + x2^2 - 1
gen x1^2*x2^2 - 1
"""

SWAP_GROUP = "perm (1 2)\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(tmp_path, capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_problem_fixture():
    problem = parse_problem(CIRCLE)
    assert problem.ring.names == ("x1", "x2")
    assert problem.grading_decl == "order degrevlex"
    assert len(problem.generators) == 2
    assert problem.rank == 1


def test_parse_problem_errors():
    with pytest.raises(ParseError) as err:
        parse_problem("ring q: x1 x2\ngen x3 + 1\n")
    assert "x3" in str(err.value) and "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_problem("gen x1\n")  # missing ring
    with pytest.raises(ParseError):
        parse_problem("ring q: x1\nnonsense here\n")
    # empty generator list is a valid zero module
    problem = parse_problem("ring q: x1 x2\ngrading total\n")
    assert problem.generators == []


FIXTURE_TEXTS = (
    CIRCLE,
    "ring q: x1 x2\ngrading total\nmodule rank 2 shifts [0, 1] tie pot\ngen [x1, 1]\ngen [x2, 0]\n",
    "ring fp:7: x1 x2 x3\ngrading elim 1\ngen x1*x2 - x3\n",
)


@pytest.mark.parametrize("text", FIXTURE_TEXTS)
def test_problem_round_trip(text):
    problem = parse_problem(text)
    again = parse_problem(render_problem(problem))
    assert again.generators == problem.generators
    assert again.grading_decl == problem.grading_decl
    assert again.ring == problem.ring
    assert (again.rank, again.shifts, again.tie) == (problem.rank, problem.shifts, problem.tie)
    assert render_problem(again) == render_problem(problem)


def test_module_declaration_and_gradings():
    text = "ring q: x1 x2\ngrading total\nmodule rank 2 shifts [0, 1]\ngen [x1, 1]\n"
    problem = parse_problem(text)
    assert problem.rank == 2 and problem.shifts == [0, 1]
    spec = problem.grading()
    assert spec.rank == 2 and spec.shifts == (0, 1)
    spec2 = build_grading(problem.ring, "order lex", 1, None, None)
    assert spec2.ring.name == "lex"
    spec3 = build_grading(problem.ring, "order matrix [[1,1],[0,-1]]", 1, None, None)
    assert spec3.ring.rows == ((1, 1), (0, -1))
    spec4 = build_grading(problem.ring, "elim 1", 1, None, None)
    assert spec4.ring.kept == (0,)


def test_invalid_grading_rejected():
    problem = parse_problem("ring q: x1 x2\ngrading order matrix [[-1,0],[0,1]]\ngen x1\n")
    with pytest.raises(Exception) as err:
        problem.grading()
    assert "invalid grading" in str(err.value)


def test_malformed_declarations():
    with pytest.raises(ParseError):
        parse_problem("ring q: x1\nmodule rank\n")
    with pytest.raises(ParseError):
        parse_problem("ring q: x1\nmodule rank two\n")
    problem = parse_problem("ring q: x1 x2\ngrading elim nope\ngen x1\n")
    with pytest.raises(Exception):
        problem.grading()


def test_group_file_parsing(R2, tmp_path, capsys):
    swap = ((0, 1), (1, 0))
    quarter_turn = ((0, 1), (-1, 0))
    assert parse_group_file(SWAP_GROUP, R2).generators == (swap,)
    assert parse_group_file("signed-perm (-2 1)\n", R2).generators == (quarter_turn,)
    assert parse_group_file("matrix [[0,1],[-1,0]]\n", R2).generators == (quarter_turn,)
    # the empty cycle is the identity; spaces inside the parentheses are allowed
    assert parse_group_file("perm ()\n", R2).generators == (((1, 0), (0, 1)),)
    assert parse_group_file("perm ( 1 2 )\n", R2).generators == (swap,)
    assert parse_group_file(SWAP_GROUP + "perm ()\n", R2).generators == (swap, ((1, 0), (0, 1)))
    with pytest.raises(ParseError):
        parse_group_file("spin (1 2)\n", R2)
    with pytest.raises(ParseError):
        parse_group_file("# nothing\n", R2)
    # only the documented heads perm, signed-perm and matrix are accepted
    circle = write(tmp_path, "circle.mac", CIRCLE)
    for text in ("generators: [[0,1],[-1,0]]\n", "group c4\nperm (1 2)\n"):
        with pytest.raises(ParseError):
            parse_group_file(text, R2)
        group = write(tmp_path, "bad.grp", text)
        code, out, err = run_cli(tmp_path, capsys, "check-invariant", circle, "--group", group)
        assert code == 2 and out == "" and "Traceback" not in err


@pytest.mark.parametrize("cycle", ["(1 5)", "(0 1)", "(-1 2)", "(1 1)"])
def test_cli_bad_perm_cycle_exits_3(tmp_path, capsys, cycle):
    # out of range, zero and negative entries would index past the ring or
    # wrap around to the last variable; a repeat is no cycle
    circle = write(tmp_path, "circle.mac", CIRCLE)
    group = write(tmp_path, "bad.grp", f"perm {cycle}\n")
    code, out, err = run_cli(tmp_path, capsys, "check-invariant", circle, "--group", group)
    assert code == 3 and out == "" and "cycle" in err and "Traceback" not in err


def test_cli_basis_reduced(tmp_path, capsys):
    path = write(tmp_path, "circle.mac", CIRCLE)
    code, out, err = run_cli(tmp_path, capsys, "basis", path, "--reduced")
    assert code == 0 and err == ""
    assert "x1^2 + x2^2 - 1" in out
    assert "x2^4 - x2^2 + 1" in out
    assert "criterion: pass" in out


def test_cli_verify_both_gradings(tmp_path, capsys):
    path = write(tmp_path, "circle.mac", CIRCLE)
    code, out, _ = run_cli(tmp_path, capsys, "verify", path, "--grading", "total")
    assert code == 0 and "criterion: pass" in out
    code, out, _ = run_cli(tmp_path, capsys, "verify", path)
    assert code == 0 and "criterion: fail" in out
    assert "witness remainder: x2^4 - x2^2 + 1" in out


def test_cli_reduce_with_trace(tmp_path, capsys):
    path = write(tmp_path, "circle.mac", CIRCLE)
    code, out, _ = run_cli(
        tmp_path, capsys, "reduce", path, "--grading", "total", "--element", "x1^4", "--trace"
    )
    assert code == 0
    assert "normal-form: 1/2*x1^2 - 1/2*x2^2 - 1/2" in out
    assert "step deg 4" in out and "step deg 2" in out


def test_cli_byte_identical_runs(tmp_path, capsys):
    path = write(tmp_path, "circle.mac", CIRCLE)
    _, out1, _ = run_cli(tmp_path, capsys, "basis", path, "--reduced", "--format", "json")
    _, out2, _ = run_cli(tmp_path, capsys, "basis", path, "--reduced", "--format", "json")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["command"] == "basis"
    assert all(isinstance(e["element"], str) for e in doc["elements"])


def test_cli_exit_codes(tmp_path, capsys):
    bad_syntax = write(tmp_path, "bad.mac", "ring q: x1\ngen x9 + 1\n")
    code, _, err = run_cli(tmp_path, capsys, "basis", bad_syntax)
    assert code == 2 and "x9" in err

    math_err = write(tmp_path, "nonhom.mac", "ring q: x1 x2\ngrading total\ngen x1^2 - 1\n")
    code, _, err = run_cli(tmp_path, capsys, "hilbert", math_err, "--degrees", "0..3")
    assert code == 3 and "homogeneous" in err

    c4 = write(
        tmp_path,
        "c4.mac",
        "ring q: x1 x2\ngrading total\ngen x1^2 + x2^2 - 1\ngen x1^2*x2^2\ngen x1^3*x2 - x1*x2^3\n",
    )
    code, _, err = run_cli(tmp_path, capsys, "basis", c4, "--max-iterations", "1")
    assert code == 4 and "resource" in err.lower()

    code, _, _ = run_cli(tmp_path, capsys, "basis", str(tmp_path / "missing.mac"))
    assert code == 2


def test_cli_out_of_memory_exits_4(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "run_command", exhausted)
    code, out, err = run_cli(tmp_path, capsys, "basis", write(tmp_path, "circle.mac", CIRCLE))
    assert code == 4
    assert out == ""
    assert err == "resource limit: out of memory\n"


def test_cli_eliminate(tmp_path, capsys):
    path = write(tmp_path, "elim.mac", "ring q: x1 x2\ngrading total\ngen x1^2 + x2^2 - 1\ngen x1 - x2\n")
    code, out, _ = run_cli(tmp_path, capsys, "eliminate", path, "--keep", "x2")
    assert code == 0 and "x2^2 - 1/2" in out


def test_cli_hilbert(tmp_path, capsys):
    path = write(tmp_path, "mono.mac", "ring q: x1 x2\ngrading total\ngen x1^2\ngen x1*x2\n")
    code, out, _ = run_cli(tmp_path, capsys, "hilbert", path, "--degrees", "0..4")
    assert code == 0
    assert "H(3) = 3" in out and "H(0) = 0" in out


def test_cli_homogenize_dehomogenize(tmp_path, capsys):
    path = write(tmp_path, "h.mac", "ring q: x1 x2\ngrading total\ngen x2^2 - x1\n")
    code, out, _ = run_cli(tmp_path, capsys, "homogenize", path, "--var", "t")
    assert code == 0 and "x2^2 - x1*t" in out and "h-basis certificate: pass" in out

    back = write(tmp_path, "hd.mac", "ring q: x1 x2 t\ngrading total\ngen x2^2 - x1*t\n")
    code, out, _ = run_cli(tmp_path, capsys, "dehomogenize", back, "--var", "t")
    assert code == 0 and "x2^2 - x1" in out


def test_cli_check_invariant(tmp_path, capsys):
    circle = write(tmp_path, "circle.mac", CIRCLE)
    group = write(tmp_path, "swap.grp", SWAP_GROUP)
    code, out, _ = run_cli(
        tmp_path, capsys, "check-invariant", circle, "--group", group, "--grading", "total"
    )
    assert code == 0 and "invariant: yes" in out

    drl_basis = write(
        tmp_path,
        "broken.mac",
        "ring q: x1 x2\ngrading order degrevlex\ngen x1^2 + x2^2 - 1\ngen x2^4 - x2^2 + 1\n",
    )
    code, out, _ = run_cli(tmp_path, capsys, "check-invariant", drl_basis, "--group", group)
    assert code == 0 and "invariant: no" in out


def _ring_text(names, *gens):
    return f"ring q: {' '.join(names)}\ngrading total\n" + "".join(f"gen {g}\n" for g in gens)


_X5 = [f"x{i}" for i in range(1, 6)]
_X7 = [f"x{i}" for i in range(1, 8)]


# groups whose closure is large or infinite; the check reads only their generators
@pytest.mark.parametrize(
    "text, group, verdict",
    [
        # B5, the 3840 signed permutations: the sign flip moves x1 + ... + x5 out of the span
        (
            _ring_text(_X5, "+".join(_X5), "+".join(f"{x}^2" for x in _X5)),
            "perm (1 2)\nperm (1 2 3 4 5)\nsigned-perm (-1 2 3 4 5)\n",
            "no",
        ),
        (
            _ring_text(_X5, "+".join(f"{x}^2" for x in _X5), "*".join(_X5)),
            "perm (1 2)\nperm (1 2 3 4 5)\nsigned-perm (-1 2 3 4 5)\n",
            "yes",
        ),
        # S7, 5040 permutations
        (_ring_text(_X7, "+".join(_X7), "*".join(_X7) + " - 1"), "perm (1 2)\nperm (1 2 3 4 5 6 7)\n", "yes"),
        # the shear x2 -> x1 + x2 and diag(2, 1) have infinite order over Q
        (_ring_text(["x1", "x2"], "x1", "x1*x2 + x2^2"), "matrix [[1, 1], [0, 1]]\n", "no"),
        (_ring_text(["x1", "x2"], "x1", "x1^2", "x1*x2"), "matrix [[1, 1], [0, 1]]\n", "yes"),
        (_ring_text(["x1", "x2"], "x1*x2", "x1^2 + x2"), "matrix [[2, 0], [0, 1]]\n", "no"),
        (_ring_text(["x1", "x2"], "x1*x2", "x1^2", "x2"), "matrix [[2, 0], [0, 1]]\n", "yes"),
    ],
    ids=["B5-no", "B5-yes", "S7-yes", "shear-no", "shear-yes", "diag-no", "diag-yes"],
)
def test_cli_check_invariant_on_large_and_infinite_groups(tmp_path, capsys, text, group, verdict):
    path = write(tmp_path, "problem.mac", text)
    grp = write(tmp_path, "g.grp", group)
    code, out, err = run_cli(tmp_path, capsys, "check-invariant", path, "--group", grp)
    assert code == 0 and err == ""
    assert f"invariant: {verdict}" in out
    problem = parse_problem(text)
    expected = span_is_invariant(problem.generators, parse_group_file(group, problem.ring)).invariant
    assert verdict == ("yes" if expected else "no")


def test_cli_equivariance_on_the_shear_exits_3(tmp_path, capsys):
    path = write(tmp_path, "problem.mac", _ring_text(["x1", "x2"], "x1"))
    grp = write(tmp_path, "shear.grp", "matrix [[1, 1], [0, 1]]\n")
    argv = ("check-invariant", path, "--group", grp, "--equivariance-samples", "2")
    code, out, err = run_cli(tmp_path, capsys, *argv)
    assert code == 3 and out == "" and "monomial" in err


def test_cli_syzygy(tmp_path, capsys):
    path = write(tmp_path, "circle.mac", CIRCLE)
    code, out, _ = run_cli(tmp_path, capsys, "syzygy", path, "--grading", "total")
    assert code == 0 and "[x1^2*x2^2 - 1, -x1^2 - x2^2 + 1]" in out


def test_cli_prime_field(tmp_path, capsys):
    path = write(tmp_path, "circle.mac", CIRCLE)
    code, out, _ = run_cli(tmp_path, capsys, "basis", path, "--reduced", "--coeff", "fp:32003")
    assert code == 0
    assert "x1^2 + x2^2 + 32002" in out
    assert "x2^4 + 32002*x2^2 + 1" in out


def test_cli_prime_field_reads_a_fraction(tmp_path, capsys):
    outs = []
    for coeff in ("1/2", "4"):
        path = write(tmp_path, "line.mac", f"ring fp:7: x\ngen {coeff}*x - 1\n")
        code, out, err = run_cli(tmp_path, capsys, "basis", path, "--reduced")
        assert code == 0 and err == ""
        outs.append(out.split("\n", 2)[2])  # past the input hash
    assert outs[0] == outs[1] and "x + 5" in outs[0]


KATSURA3 = """\
ring q: x y z
grading order degrevlex
gen x + 2*y + 2*z - 1
gen x^2 + 2*y^2 + 2*z^2 - x
gen 2*x*y + 2*y*z - y
"""


def test_q_reduced_basis_reads_back_over_a_good_prime():
    # for a good prime the reduced basis does not depend on whether the work
    # ran over Q or over F_p: the rendered Q basis, fractions and all, reads
    # back over F_32003 as the F_32003 reduced basis
    def reduced(problem):
        spec = problem.grading()
        return list(interreduce(buchberger_algorithm(problem.generators, spec), spec).elements)

    problem = parse_problem(KATSURA3)
    problem.generators = reduced(problem)
    text = render_problem(problem)
    assert "/" in text
    fp = PrimeField(32003)
    read_back = parse_problem(text, fp)
    direct = reduced(parse_problem(KATSURA3, fp))
    assert reduced(read_back) == direct
    assert read_back.generators == direct


def test_cli_empty_generators(tmp_path, capsys):
    path = write(tmp_path, "empty.mac", "ring q: x1 x2\ngrading total\n")
    code, out, _ = run_cli(tmp_path, capsys, "basis", path)
    assert code == 0 and "elements: 0" in out


def test_cli_certify_and_module_rank(tmp_path, capsys):
    path = write(tmp_path, "circle.mac", CIRCLE)
    code, out, _ = run_cli(tmp_path, capsys, "basis", path, "--reduced", "--certify")
    assert code == 0 and "criterion: pass" in out

    mod = write(
        tmp_path,
        "mod.mac",
        "ring q: x1 x2\ngrading order degrevlex\nmodule rank 2 tie pot\ngen [x1, x2]\ngen [x2, x1]\n",
    )
    code, out, _ = run_cli(tmp_path, capsys, "basis", mod, "--certify")
    assert code == 0 and "criterion: pass" in out
    # x1 * (first generator) is a member; its normal form against the
    # generators vanishes even before completion
    code, out, _ = run_cli(tmp_path, capsys, "reduce", mod, "--element", "[x1^2, x1*x2]")
    assert code == 0 and "normal-form: [0, 0]" in out


def test_format_result_stability():
    doc = {"command": "basis", "input_hash": "ab", "elements": [{"degree": "2", "element": "x1"}]}
    assert format_result(doc, "text") == format_result(doc, "text")
    assert format_result(doc, "json") == format_result(doc, "json")
    assert json.loads(format_result(doc, "json"))["input_hash"] == "ab"


def test_cli_bad_coeff_spec_exits_3(tmp_path, capsys):
    path = write(tmp_path, "circle.mac", CIRCLE)
    code, out, err = run_cli(tmp_path, capsys, "basis", path, "--coeff", "zz")
    assert code == 3 and out == ""
    assert "zz" in err and "Traceback" not in err


def test_cli_bad_degree_range_exits_3(tmp_path, capsys):
    path = write(tmp_path, "mono.mac", "ring q: x1 x2\ngrading total\ngen x1^2\n")
    for degrees in ("1..x", "a", "..3", "3.."):
        code, out, err = run_cli(tmp_path, capsys, "hilbert", path, "--degrees", degrees)
        assert code == 3 and out == "" and "degree" in err
    # one degree needs no dots
    code, out, _ = run_cli(tmp_path, capsys, "hilbert", path, "--degrees", "3")
    assert code == 0 and "H(3) = 2" in out


def test_cli_missing_group_file_exits_2(tmp_path, capsys):
    path = write(tmp_path, "circle.mac", CIRCLE)
    missing = str(tmp_path / "missing.grp")
    code, out, err = run_cli(tmp_path, capsys, "check-invariant", path, "--group", missing)
    assert code == 2 and out == "" and "missing.grp" in err


def test_cli_fractional_weight_matrix_rejected(tmp_path, capsys):
    text = "ring q: x1 x2\ngrading order matrix [[1.5,1],[0,-1]]\ngen x1^2 + x2\n"
    path = write(tmp_path, "frac.mac", text)
    code, out, err = run_cli(tmp_path, capsys, "basis", path)
    assert code == 3 and out == "" and "integer" in err
    for rows in ([[1.5, 1], [0, -1]], [1, 2], [[True, 0], [0, 1]]):
        with pytest.raises(UsageError):
            TermOrderGrading(rows)


C4 = "ring q: x1 x2\ngrading total\ngen x1^2 + x2^2 - 1\ngen x1^2*x2^2\ngen x1^3*x2 - x1*x2^3\n"
C4_GROUP = "signed-perm (-2 1)\n"


def test_cli_equivariance_rejects_pivot_policy(tmp_path, capsys):
    path = write(tmp_path, "c4.mac", C4)
    group = write(tmp_path, "c4.grp", C4_GROUP)
    argv = ("check-invariant", path, "--group", group, "--equivariance-samples", "2")
    code, out, _ = run_cli(tmp_path, capsys, *argv, "--policy", "orthogonal")
    assert code == 0 and "equivariant: yes" in out
    # equivariance is certified only for the orthogonal complement
    code, out, err = run_cli(tmp_path, capsys, *argv, "--policy", "pivot")
    assert code == 3 and out == "" and "orthogonal" in err


def test_cli_orthogonal_policy_over_prime_field_exits_3(tmp_path, capsys):
    path = write(tmp_path, "hd.mac", "ring q: x1 x2 t\ngrading total\ngen x2^2 - x1*t\n")
    for command in ("verify", "dehomogenize"):
        argv = (command, path, "--var", "t", "--coeff", "fp:32003")
        code, _, _ = run_cli(tmp_path, capsys, *argv)
        assert code == 0
        code, out, err = run_cli(tmp_path, capsys, *argv, "--policy", "orthogonal")
        assert code == 3 and out == "" and "characteristic zero" in err


def test_cli_negative_numbers_exit_3(tmp_path, capsys):
    circle = write(tmp_path, "circle.mac", CIRCLE)
    for option, value in (("--max-iterations", "-3"), ("--degree-cap", "-1")):
        code, out, err = run_cli(tmp_path, capsys, "basis", circle, option, value)
        assert code == 3 and out == "" and option in err

    c4 = write(tmp_path, "c4.mac", C4)
    group = write(tmp_path, "c4.grp", C4_GROUP)
    code, out, err = run_cli(
        tmp_path, capsys, "check-invariant", c4, "--group", group, "--equivariance-samples", "-1"
    )
    assert code == 3 and out == "" and "--equivariance-samples" in err

    mono = write(tmp_path, "mono.mac", "ring q: x1 x2\ngrading total\ngen x1^2\n")
    code, out, err = run_cli(tmp_path, capsys, "hilbert", mono, "--degrees", "3..1")
    assert code == 3 and out == "" and "--degrees" in err


def test_equivariance_rejects_negative_samples():
    from macaulay.symmetry import check_equivariant_normal_form

    problem = parse_problem(C4)
    action = parse_group_file(C4_GROUP, problem.ring)
    with pytest.raises(UsageError):
        check_equivariant_normal_form(problem.generators, problem.grading(), action, samples=-1)


@pytest.mark.parametrize("flags", [["--reduced", "--certify"], ["--certify"], ["--reduced"]])
def test_basis_runs_the_criterion_once(tmp_path, capsys, monkeypatch, flags):
    # completion and interreduce certify by proof, so only --certify runs the
    # criterion: once, on the Reducer the printed elements were computed with
    from macaulay import macbasis
    from macaulay.reduction import Reducer

    calls, bases = [], []
    criterion = macbasis.buchberger_criterion

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return criterion(*args, **kwargs)

    def keeping(function):
        def kept(*args, **kwargs):
            bases.append(function(*args, **kwargs))
            return bases[-1]

        return kept

    monkeypatch.setattr(macbasis, "buchberger_criterion", counting)
    monkeypatch.setattr(cli, "buchberger_criterion", counting)
    monkeypatch.setattr(cli, "buchberger_algorithm", keeping(cli.buchberger_algorithm))
    monkeypatch.setattr(cli, "interreduce", keeping(cli.interreduce))
    path = write(tmp_path, "circle.mac", CIRCLE)
    code, out, _ = run_cli(tmp_path, capsys, "basis", path, *flags)
    assert code == 0 and "criterion: pass" in out
    assert len(bases) == (2 if "--reduced" in flags else 1)
    if "--certify" not in flags:
        assert calls == []
        return
    (kwargs,) = calls
    assert isinstance(kwargs["_reducer"], Reducer) and kwargs["_reducer"] is bases[-1]._reducer


def test_grading_verified_once_per_declaration(monkeypatch):
    calls = []
    verify = cli.verify_monoid_order

    def counting(grading):
        calls.append(grading)
        return verify(grading)

    monkeypatch.setattr(cli, "verify_monoid_order", counting)
    cli._ring_grading.cache_clear()
    problem = parse_problem(CIRCLE)
    first = problem.grading()
    assert problem.grading().ring is first.ring
    assert len(calls) == 1
    # two different matrices are two declarations, each verified
    a = build_grading(problem.ring, "order matrix [[1,1],[0,-1]]", 1, None, None)
    b = build_grading(problem.ring, "order matrix [[1,1],[-1,0]]", 1, None, None)
    assert a.ring.rows == ((1, 1), (0, -1)) and b.ring.rows == ((1, 1), (-1, 0))
    assert len(calls) == 3
    # a failing declaration is checked, and rejected, on every call
    bad = "order matrix [[-1,0],[0,1]]"
    for attempt in range(1, 3):
        with pytest.raises(UsageError, match="invalid grading"):
            build_grading(problem.ring, bad, 1, None, None)
        assert len(calls) == 3 + attempt
    cli._ring_grading.cache_clear()


@pytest.mark.parametrize(
    "grading, shifts, shown",
    [
        ("total", "[[0,0],[1,0]]", "[0, 0]"),
        ("total", '[0, "a"]', '"a"'),
        ("total", "[0, 1.5]", "1.5"),
        ("total", "[0, true]", "true"),
        ("elim 1", "[[0,0], 0]", "[0, 0]"),
        ("order degrevlex", "[[0,0,0],[0,0,0]]", "[0, 0, 0]"),
        ("order degrevlex", "[0, [1, false]]", "[1, false]"),
        ("order lex", "[0, 2.0]", "2.0"),
    ],
)
def test_cli_shift_shapes_exit_3(tmp_path, capsys, grading, shifts, shown):
    text = f"ring q: x y\ngrading {grading}\nmodule rank 2 shifts {shifts}\ngen [x, y]\n"
    path = write(tmp_path, "shifts.mac", text)
    code, out, err = run_cli(tmp_path, capsys, "basis", path)
    assert code == 3 and out == "" and f"shift {shown} must be" in err
    assert "Traceback" not in err


def test_cli_superscript_exponent_exits_2(tmp_path, capsys):
    path = write(tmp_path, "super.mac", "ring q: x y\ngrading total\ngen x^²\n")
    code, out, err = run_cli(tmp_path, capsys, "basis", path)
    assert code == 2 and out == "" and "malformed exponent" in err


def test_bracket_list_returns_the_rest():
    assert cli._parse_bracket_list(' [[1, 2], [3]] tie pot', 4) == ([[1, 2], [3]], " tie pot")
    assert cli._parse_bracket_list('[1, "]"]', 4) == ([1, "]"], "")
    for text in ("[[1, 2]", "[1,, 2]", "(1, 2)"):
        with pytest.raises(ParseError, match="line 4"):
            cli._parse_bracket_list(text, 4)


def test_cli_text_after_weight_matrix_exits_2(tmp_path, capsys):
    text = "ring q: x1 x2\ngrading order matrix [[1,0],[0,1]] extra\ngen x1\n"
    path = write(tmp_path, "trailing.mac", text)
    code, out, err = run_cli(tmp_path, capsys, "basis", path)
    assert code == 2 and out == "" and "'extra' after the weight matrix" in err
    # the same declaration given on the command line
    code, out, err = run_cli(tmp_path, capsys, "basis", path, "--grading", "order matrix [[1,0],[0,1]] ]")
    assert code == 2 and out == "" and "']' after the weight matrix" in err


@pytest.mark.parametrize("grading", ["total extra", "elim 1 extra", "order degrevlex extra"])
def test_cli_text_after_grading_exits_2(tmp_path, capsys, grading):
    path = write(tmp_path, "trailing.mac", f"ring q: x1 x2\ngrading {grading}\ngen x1\n")
    code, out, err = run_cli(tmp_path, capsys, "basis", path)
    assert code == 2 and out == "" and "unexpected 'extra' after" in err
    code, out, err = run_cli(tmp_path, capsys, "basis", write(tmp_path, "c.mac", CIRCLE), "--grading", grading)
    assert code == 2 and out == "" and "unexpected 'extra' after" in err


def test_cli_weight_matrix_must_fit_the_ring(tmp_path, capsys):
    text = "ring q: x y z\ngrading order matrix [[1,0],[0,1]]\ngen x*z + y\ngen y*z - 1\n"
    code, out, err = run_cli(tmp_path, capsys, "basis", write(tmp_path, "small.mac", text))
    assert code == 3 and out == ""
    assert "weight matrix is 2x2, but a ring in 3 variables needs 3x3" in err


@pytest.mark.parametrize("rank", ["\u0662", "\uff12", "2\u0662", "1_0"])
def test_cli_module_rank_needs_ascii_digits(tmp_path, capsys, rank):
    # Arabic-Indic and full-width digits, and underscores, all pass int()
    path = write(tmp_path, "rank.mac", f"ring q: x y\nmodule rank {rank}\ngen [x, y]\n")
    code, out, err = run_cli(tmp_path, capsys, "basis", path)
    assert code == 2 and out == "" and "malformed module declaration" in err


@pytest.mark.parametrize("rank", ["-1", "0"])
def test_cli_module_rank_below_one_exits_2(tmp_path, capsys, rank):
    path = write(tmp_path, "rank.mac", f"ring q: x y\nmodule rank {rank}\ngen x\n")
    code, out, err = run_cli(tmp_path, capsys, "basis", path)
    assert code == 2 and out == "" and f"module rank must be at least 1, got {rank}" in err


def test_cli_module_rank_at_the_bound_runs(tmp_path, capsys):
    rank = cli.MAX_MODULE_RANK
    gen = "[x, y" + ", 0" * (rank - 2) + "]"
    path = write(tmp_path, "rank.mac", f"ring q: x y\nmodule rank {rank}\ngen {gen}\n")
    code, out, err = run_cli(tmp_path, capsys, "basis", path, "--format", "json")
    assert code == 0 and err == ""
    (element,) = json.loads(out)["elements"]
    assert element["element"].count(",") == rank - 1


def test_cli_module_rank_past_the_bound_exits_4(tmp_path, capsys):
    # rejected while parsing, before a grading builds one shift per component
    rank = cli.MAX_MODULE_RANK + 1
    path = write(tmp_path, "rank.mac", f"ring q: x y\nmodule rank {rank}\ngen [x, y]\n")
    code, out, err = run_cli(tmp_path, capsys, "basis", path)
    assert code == 4 and out == ""
    assert err == f"resource limit: module rank {rank} is above the limit of {cli.MAX_MODULE_RANK}\n"


# odd words for declaration slots: non-ASCII digits, floats, bools, brackets,
# keywords out of place; the integers stay small because a rank allocates
_WORDS = st.sampled_from(
    ["1", "2", "-1", "0", "", "x", "\u00b2", "\u0663", "1.5", "true", "[", "]", "[[1]]",
     "extra", "rank", "shifts", "tie", "top", "pot", "1/0", "matrix"]
)
_JSON = st.recursive(
    st.integers(-3, 3) | st.integers() | st.floats() | st.booleans() | st.none()
    | st.text(alphabet="x1\u00b2\u0663", max_size=2),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)
# factors of the first component of a rank-2 generator
_FACTORS = st.sampled_from(
    ["x", "x^2", "x^\u00b2", "x\u00b2", "y^\u0663", "\u0663", "x^", "1/2", "1/0", "3.5", "-", "[", "]"]
)
_SLOTS = {
    "grading": st.one_of(
        st.sampled_from(["order", "elim", "order matrix [[1,0],[0,1]]"]),
        st.builds("elim {}".format, _WORDS),
        st.lists(_JSON, max_size=3).map(json.dumps).map("order matrix {}".format),
    ),
    "trailing": _WORDS,
    "rank": _WORDS,
    "shifts": st.lists(
        st.one_of(st.integers(-3, 3), st.lists(st.integers(-3, 3), min_size=1, max_size=3), _JSON),
        max_size=3,
    ).map(json.dumps),
    "tie": _WORDS,
    "gen": st.lists(_FACTORS, min_size=1, max_size=3).map("*".join).map("[{}, y]".format) | _WORDS,
}
_MUTATIONS = st.lists(
    st.sampled_from(sorted(_SLOTS)).flatmap(lambda slot: _SLOTS[slot].map(lambda v: (slot, v))),
    min_size=1,
    max_size=2,
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(grading=st.sampled_from(["total", "order degrevlex", "order lex", "elim 1"]), mutations=_MUTATIONS)
def test_malformed_declarations_raise_only_input_errors(grading, mutations):
    # a well-formed rank-2 problem with one or two slots of its grading,
    # module and gen lines replaced: parsing it and building its grading
    # raises a ParseError (exit 2) or a UsageError (exit 3), nothing else
    slots = {"grading": grading, "trailing": "", "rank": "2", "shifts": "[0, 1]", "tie": "pot",
             "gen": "[x^2, y]"}
    slots.update(mutations)
    text = (
        "ring q: x y\ngrading {grading} {trailing}\n"
        "module rank {rank} shifts {shifts} tie {tie}\ngen {gen}\n"
    ).format(**slots)
    try:
        cli.parse_problem(text).grading()
    except (ParseError, UsageError):
        pass


# group-file lines: JSON literals after `matrix`, words inside a cycle, text
# after a well-formed matrix
_GROUP_LINES = st.one_of(
    st.lists(_JSON, max_size=3).map(json.dumps).map("matrix {}".format),
    st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=2, max_size=2)
    .map(json.dumps).map("matrix {}".format),
    st.builds("matrix [[0,1],[1,0]] {}".format, _WORDS),
    st.lists(_WORDS, max_size=3).map(" ".join).map("perm ({})".format),
    st.lists(_WORDS, max_size=3).map(" ".join).map("signed-perm ({})".format),
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(lines=st.lists(_GROUP_LINES, min_size=1, max_size=2))
def test_malformed_group_lines_raise_only_input_errors(lines):
    ring = parse_problem("ring fp:3: x y\n").ring
    try:
        parse_group_file("\n".join(lines) + "\n", ring)
    except (ParseError, UsageError):
        pass


@pytest.mark.parametrize(
    "line, code, message",
    [
        ("matrix [1, 2]", 3, "group matrix entries must be integers"),
        ('matrix [["1", 0], [0, 1]]', 3, "group matrix entries must be integers"),
        ("matrix [[null, 0], [0, 1]]", 3, "group matrix entries must be integers"),
        ("matrix [[[1], 0], [0, 1]]", 3, "group matrix entries must be integers"),
        ("matrix [[true, 0], [0, 1]]", 3, "group matrix entries must be integers"),
        ("matrix [[0,1],[1,0]] extra", 2, "line 1, col 1: unexpected 'extra' after the group matrix"),
        ("matrix [[0,1],[1,0]]]", 2, "line 1, col 1: unexpected ']' after the group matrix"),
        ("signed-perm (3 1)", 3, "signed image out of range"),
    ],
)
def test_cli_malformed_group_matrix_exits(tmp_path, capsys, line, code, message):
    circle = write(tmp_path, "circle.mac", CIRCLE)
    group = write(tmp_path, "bad.grp", line + "\n")
    got, out, err = run_cli(tmp_path, capsys, "check-invariant", circle, "--group", group)
    assert (got, out) == (code, "") and message in err and "Traceback" not in err


@pytest.mark.parametrize("line", ["perm (\u0661 \u0662)", "perm (1_0 2)", "perm (1 \uff12)", "signed-perm (-2 \u0661)"])
def test_cli_group_entries_need_ascii_digits(tmp_path, capsys, line):
    # int() alone reads Arabic-Indic digits and underscores; the cycle
    # (1_0 2) would be read as (10 2) and fail as out of range, with exit 3
    circle = write(tmp_path, "circle.mac", CIRCLE)
    group = write(tmp_path, "bad.grp", line + "\n")
    code, out, err = run_cli(tmp_path, capsys, "check-invariant", circle, "--group", group)
    assert code == 2 and out == "" and "malformed group generator" in err


@pytest.mark.parametrize("spec", ["fp:\u0667", "fp:7_0", "fp: 7"])
def test_ring_modulus_needs_ascii_digits(tmp_path, capsys, spec):
    path = write(tmp_path, "ring.mac", f"ring {spec}: x y\ngen 8*x + 1\n")
    code, out, err = run_cli(tmp_path, capsys, "basis", path)
    assert code == 2 and out == "" and "line 1" in err and "bad field spec" in err


@pytest.mark.parametrize("spec", ["fp:\u0667", "fp:7_0", "fp: 7"])
def test_cli_coeff_modulus_needs_ascii_digits(tmp_path, capsys, spec):
    circle = write(tmp_path, "circle.mac", CIRCLE)
    code, out, err = run_cli(tmp_path, capsys, "basis", circle, "--coeff", spec)
    assert code == 3 and out == "" and "bad field spec" in err


@pytest.mark.parametrize("degrees", ["\u0660..\u0663", "1_0", " 1..3", "0..\uff13"])
def test_cli_degree_range_needs_ascii_digits(tmp_path, capsys, degrees):
    mono = write(tmp_path, "mono.mac", "ring q: x1 x2\ngrading total\ngen x1^2\n")
    code, out, err = run_cli(tmp_path, capsys, "hilbert", mono, "--degrees", degrees)
    assert code == 3 and out == "" and "bad degree range" in err


@pytest.mark.parametrize(
    "option, value",
    [("--max-iterations", "\u0663"), ("--degree-cap", "1_0"), ("--equivariance-samples", " 2")],
)
def test_cli_integer_flags_need_ascii_digits(tmp_path, capsys, option, value):
    circle = write(tmp_path, "circle.mac", CIRCLE)
    with pytest.raises(SystemExit) as exc:
        main(["basis", circle, option, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {option}: invalid ASCII integer value: {value!r}" in err


@pytest.mark.parametrize(
    "repeat, line, name",
    [
        ("ring q: x y", 4, "ring"),
        ("grading order lex\ngrading total", 5, "grading"),
        ("group a.grp\ngroup b.grp", 5, "group"),
        ("module rank 3", 4, "module rank"),
        ("module shifts [1, 1]", 4, "module shifts"),
        ("module tie pot tie top", 4, "module tie"),
    ],
)
def test_cli_repeated_declaration_exits_2(tmp_path, capsys, repeat, line, name):
    # a module declaration may span lines (lines 2 and 3); a second ring,
    # grading or group line, or a second rank, shifts or tie, is an error
    text = f"ring q: x y\nmodule rank 2\nmodule shifts [0, 1]\n{repeat}\ngen [x, y]\n"
    code, out, err = run_cli(tmp_path, capsys, "basis", write(tmp_path, "twice.mac", text))
    assert code == 2 and out == ""
    assert f"line {line}, col 1: repeated {name} declaration" in err


def test_cli_group_declared_in_the_problem(tmp_path, capsys):
    group = write(tmp_path, "swap.grp", SWAP_GROUP)
    text = CIRCLE + f"group {group}\n"
    problem = parse_problem(text)
    assert problem.group_path == group
    assert render_problem(problem).endswith(f"\ngroup {group}\n")
    assert parse_problem(render_problem(problem)).group_path == group
    path = write(tmp_path, "circle.mac", text)
    code, out, _ = run_cli(tmp_path, capsys, "check-invariant", path, "--grading", "total")
    assert code == 0 and "invariant: yes" in out


def test_cli_relative_group_path_is_read_from_the_problem_directory(tmp_path, capsys, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    write(sub, "c4.grp", "signed-perm (-2 1)\n")
    write(sub, "p.mac", "ring q: x1 x2\ngrading total\ngen x1^2 + x2^2 - 1\ngroup c4.grp\n")
    monkeypatch.chdir(tmp_path)
    above = run_cli(tmp_path, capsys, "check-invariant", "sub/p.mac")
    # --group stays relative to the working directory
    flag = run_cli(tmp_path, capsys, "check-invariant", "sub/p.mac", "--group", "sub/c4.grp")
    monkeypatch.chdir(sub)
    inside = run_cli(tmp_path, capsys, "check-invariant", "p.mac")
    assert above == inside and above[0] == 0 and "invariant: yes" in above[1]
    assert flag[0] == 0 and "invariant: yes" in flag[1]


def test_cli_unknown_command_is_a_usage_error():
    args = cli.build_parser().parse_args(["basis", "circle.mac"])
    with pytest.raises(UsageError, match="unknown command 'nope'"):
        cli.run_command("nope", parse_problem(CIRCLE), args)


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441, a strong pseudoprime to the bases up to 37
M89 = 2**89 - 1  # prime, but above the bound below which primality is proven
HOMOGENIZE = ["homogenize", "--var"]


_BAD_GROUP_FILES = {
    "bad.grp": "perm (1 x)\n",
    "bare.grp": "perm 1 2\n",
    "unclosed.grp": "perm ((1 2\n",
    "unopened.grp": "signed-perm -2 1)\n",
}


@pytest.mark.parametrize(
    "text, argv, code, message",
    [
        ("ring q:\n", ["basis"], 2, "ring <field>: <vars>"),
        ("ring q: ,\n", ["basis"], 2, "lists no variables"),
        ("ring q: x x\n", ["basis"], 2, "distinct"),
        ("ring q: x y\ngrading\n", ["basis"], 2, "empty grading"),
        ("ring q: x y\nmodule rank 1 size 2\n", ["basis"], 2, "unknown module keyword 'size'"),
        ("ring q: x y\ngrading order spiral\n", ["basis"], 3, "unknown order 'spiral'"),
        ("ring q: x y\ngrading spiral\n", ["basis"], 3, "unknown grading 'spiral'"),
        ("ring q: x y\ngen x\n", ["check-invariant", "--group", "bad.grp"], 2, "malformed group generator"),
        ("ring q: x y\ngen x\n", ["reduce"], 3, "--element"),
        ("ring q: x y\ngen x\n", ["eliminate"], 3, "--keep"),
        ("ring q: x y\ngen x\n", ["hilbert"], 3, "--degrees"),
        ("ring q: x y\ngrading order lex\ngen x\n", ["hilbert", "--degrees", "0..2"], 3, "total-degree"),
        ("ring q: x y\ngen x\n", ["dehomogenize", "--var", "t"], 3, "not present"),
        ("ring q: t x y\ngen x - t\n", ["dehomogenize", "--var", "t"], 3, "declared last"),
        ("ring q: x y\ngen x\n", ["check-invariant"], 3, "--group"),
        # cycle and signed-perm entries sit inside exactly one pair of parentheses
        ("ring q: x y\ngen x\n", ["check-invariant", "--group", "bare.grp"], 2, "malformed group generator"),
        ("ring q: x y\ngen x\n", ["check-invariant", "--group", "unclosed.grp"], 2, "malformed group generator"),
        ("ring q: x y\ngen x\n", ["check-invariant", "--group", "unopened.grp"], 2, "malformed group generator"),
        # --coeff overrides a valid field spec, and does not excuse an invalid one
        ("ring zz: x y\ngen x\n", ["basis", "--coeff", "q"], 2, "line 1, col 1: unknown field spec 'zz'"),
        # a variable name must read back as one name token
        ("ring q: 2t x\ngen x\n", ["basis"], 2, "line 1, col 1: variable name '2t'"),
        ("ring q: a*b c\ngen c\n", ["basis"], 2, "line 1, col 1: variable name 'a*b'"),
        ("ring q: x^2 y\ngen y\n", ["basis"], 2, "line 1, col 1: variable name 'x^2'"),
        ("ring q: x y\ngen x^2 - y\n", HOMOGENIZE + ["t*s"], 3, "variable name 't*s'"),
        ("ring q: x y\ngen x^2 - y\n", HOMOGENIZE + ["2t"], 3, "variable name '2t'"),
        ("ring q: x y\ngen x^2 - y\n", HOMOGENIZE + ["a b"], 3, "variable name 'a b'"),
        # an empty --var is a name like any other, not the default t
        ("ring q: x y\ngen x^2 - y\n", HOMOGENIZE + [""], 3, "variable name ''"),
        ("ring q: x y t\ngen x^2 - y*t\n", ["dehomogenize", "--var", ""], 3, "variable '' not present"),
        # a strong pseudoprime to the 12 bases up to 37 is composite, not F_p
        (f"ring fp:{PSI_12}: x y\ngen 399165290221*x - 1\ngen x*y - y\n", ["basis", "--reduced", "--certify"],
         2, f"line 1, col 1: {PSI_12} is not prime"),
        ("ring q: x y\ngen x - 1\n", ["basis", "--coeff", f"fp:{PSI_12}"], 3, f"{PSI_12} is not prime"),
        (f"ring fp:{M89}: x\ngen x\n", ["basis"], 2, f"line 1, col 1: modulus {M89} is at or above"),
        ("ring q: x\ngen x\n", ["basis", "--coeff", f"fp:{M89}"], 3, f"modulus {M89} is at or above"),
        # homogeneous generators under a grading other than total degree
        (
            "ring q: x y\ngen x^2 + y^2\ngen x*y\n",
            ["hilbert", "--grading", "order degrevlex", "--degrees", "0..2"],
            3,
            "error: hilbert requires the total-degree grading",
        ),
    ],
)
def test_cli_documented_failures_exit_cleanly(tmp_path, capsys, text, argv, code, message):
    for name, group in _BAD_GROUP_FILES.items():
        write(tmp_path, name, group)
    path = write(tmp_path, "problem.mac", text)
    argv = [str(tmp_path / a) if a.endswith(".grp") else a for a in argv]
    got, out, err = run_cli(tmp_path, capsys, argv[0], path, *argv[1:])
    assert (got, out) == (code, "") and message in err and "Traceback" not in err


def test_cli_undecodable_or_deeply_nested_input_exits_2(tmp_path, capsys):
    circle = write(tmp_path, "circle.mac", CIRCLE)
    latin1 = tmp_path / "latin1.mac"
    latin1.write_bytes(b"ring q: x\n# caf\xe9\n")
    deep = write(tmp_path, "deep.mac", "ring q: x\nmodule shifts " + "[" * 5000 + "\n")
    for argv in (
        ["basis", str(latin1)],
        ["check-invariant", circle, "--group", str(latin1)],
        ["basis", deep],
        ["check-invariant", circle, "--group", write(tmp_path, "deep.grp", "matrix " + "[" * 5000 + "\n")],
    ):
        code, out, err = run_cli(tmp_path, capsys, *argv)
        assert code == 2 and out == "" and "Traceback" not in err


@pytest.mark.parametrize(
    "command, ring, shift",
    [("homogenize", "x y", "[0,0]"), ("homogenize", "x y", "[1,0]"), ("dehomogenize", "x y t", "[1,0,0]")],
)
@pytest.mark.parametrize("grading", ["order degrevlex", "order lex"])
def test_cli_homogenization_refuses_list_shifts(tmp_path, capsys, command, ring, shift, grading):
    # a term order accepts a list shift, but homogenization grades by total
    # degree, which has integer shifts only
    text = f"ring q: {ring}\ngrading {grading}\nmodule rank 2 shifts [{shift},{shift}]\ngen [x^2 - 1, y]\n"
    code, out, err = run_cli(tmp_path, capsys, command, write(tmp_path, "p.mac", text))
    assert (code, out) == (3, "") and f"shift {shift.replace(',', ', ')} must be an integer" in err


# (ring, names, rank-1 generators, rank-2 generators); the last ring ends in t
_GRID_RINGS = [
    ("q", ["x", "y"], ["x^2 + y^2 - 1", "x*y - 1"], ["[x^2 - 1, y]", "[x, y^2 + 1]"]),
    ("fp:7", ["x", "y"], ["x^2 - 3*y", "x*y^2 + 1"], ["[x*y, y - 1]", "[x^2, 2]"]),
    ("q", ["x", "y", "t"], ["x^2 - y*t", "x*y - t^2"], ["[x^2 - t^2, y*t]", "[x*t, y^2]"]),
]


def _grid_gradings(d):
    matrix = [[1] * d] + [[-int(i == d - j) for i in range(d)] for j in range(1, d)]
    return ["total", "order degrevlex", "order lex", "elim 1", f"order matrix {json.dumps(matrix)}"]


def _grid_modules(d):
    zero, lists = [0] * d, [[0] * d, [1] + [0] * (d - 1)]
    return [
        ("", 1),
        ("module rank 2\n", 2),
        ("module rank 2 shifts [0, 1]\n", 2),
        (f"module rank 2 shifts {json.dumps(lists)}\n", 2),
        (f"module rank 2 shifts {json.dumps([zero, zero])} tie top\n", 2),
        ("module rank 2 shifts [1, 0] tie top\n", 2),
    ]


def _grid_options(command, rank, group):
    if command == "reduce":
        return ["--element", "x^3*y + 2" if rank == 1 else "[x^3, y^2 - x]"]
    options = {"eliminate": ["--keep", "y"], "hilbert": ["--degrees", "0..3"], "check-invariant": ["--group", group]}
    return options.get(command, [])


def test_cli_command_grid_exits_with_a_documented_code(tmp_path, capsys):
    # every command under every kind of grading and module shape either
    # answers or exits 2, 3 or 4: no exception escapes main
    group = write(tmp_path, "swap.grp", SWAP_GROUP)
    codes, escaped = [], []
    for field, names, rank1, rank2 in _GRID_RINGS:
        d = len(names)
        for grading in _grid_gradings(d):
            for module, rank in _grid_modules(d):
                gens = "".join(f"gen {g}\n" for g in (rank1 if rank == 1 else rank2))
                text = f"ring {field}: {' '.join(names)}\ngrading {grading}\n{module}{gens}"
                path = write(tmp_path, "grid.mac", text)
                for command in cli.COMMANDS:
                    argv = [command, path, *_grid_options(command, rank, group)]
                    try:
                        codes.append(main(argv))
                    except Exception as exc:  # reported together below, so one run shows every escape
                        escaped.append(f"{command} on {text!r}: {exc!r}")
                    capsys.readouterr()
    assert escaped == []
    assert set(codes) <= {0, 2, 3, 4} and {0, 3} <= set(codes)
    assert len(codes) == len(_GRID_RINGS) * 5 * 6 * len(cli.COMMANDS)
