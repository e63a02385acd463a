"""Byte-for-byte pins of canonical CLI outputs.

Each case is a problem text and a command line; ``tests/golden/<case>.out``
holds the exact stdout the CLI printed for it when the pins were taken.  The
reduction traces include every step's ``snapshot`` hash, so a change in the
order, degree or multipliers of any step, or in any intermediate element,
shows here.  Regenerating a pin is a change of behaviour, not a test fix.
"""

import os

import pytest

from macaulay import cli
from macaulay.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CIRCLE = """\
ring q: x1 x2
grading total
gen x1^2 + x2^2 - 1
gen x1^2*x2^2 - 1
"""

C4 = """\
ring q: x1 x2
grading total
gen x1^2 + x2^2 - 1
gen x1^2*x2^2
gen x1^3*x2 - x1*x2^3
"""

KATSURA3 = """\
ring q: x y z
grading order degrevlex
gen x + 2*y + 2*z - 1
gen x^2 + 2*y^2 + 2*z^2 - x
gen 2*x*y + 2*y*z - y
"""

CYCLIC4 = """\
ring q: a b c d
grading order degrevlex
gen a + b + c + d
gen a*b + b*c + c*d + d*a
gen a*b*c + b*c*d + c*d*a + d*a*b
gen a*b*c*d - 1
"""

ROT3 = """\
ring q: x1 x2
grading total
gen x1^2 + x1*x2 + x2^2
gen x1^2
group rot3.grp
"""

CYCLIC3 = """\
ring q: x y z
grading total
gen x + y + z
gen x*y + y*z + z*x
gen x*y*z - 1
"""

RANK2 = """\
ring q: x1 x2
grading order degrevlex
module rank 2 tie {tie}
gen [x1, x2]
gen [x2, x1]
gen [x1^2 - 1, x2]
"""

HOMOGENEOUS = """\
ring q: x y z
grading total
gen x^2 - y*z
gen x*y
gen y^3
"""

CIRCLE_HOMOGENIZED = """\
ring q: x1 x2 t
grading total
gen x1^2 + x2^2 - t^2
gen x1^2*x2^2 - t^4
"""

# the group file is named in the problem text and read relative to the
# working directory, so the input hash does not depend on where the case runs
GROUP_FILES = {
    "c4.grp": "signed-perm (-2 1)\n",
    "rot3.grp": "matrix [[0, -1], [1, -1]]\n",
    "s3.grp": "perm (1 2)\nperm (1 2 3)\n",
}

REDUCE = ("reduce", "--trace", "--format", "json", "--element")

# case name -> (problem text, CLI arguments after the problem path)
CASES = {
    "circle_total_x1_4": (CIRCLE, REDUCE + ("x1^4",)),
    "circle_total_mixed": (CIRCLE, REDUCE + ("x1^3*x2^3 - 2*x1*x2^2 + 5",)),
    "circle_total_deg6": (CIRCLE, REDUCE + ("x1^6 + x1^2*x2^4 - 3*x2^3 + x1",)),
    "circle_total_pivot": (CIRCLE, REDUCE + ("x1^4 + x1^2*x2^2", "--policy", "pivot")),
    "circle_elim": (CIRCLE, REDUCE + ("x1^4 + x2^3 - x1*x2", "--grading", "elim 1")),
    "circle_lex": (CIRCLE, REDUCE + ("x1^4*x2 + x2^5", "--grading", "order lex")),
    "katsura3_fp_cube": (KATSURA3, REDUCE + ("x^3", "--coeff", "fp:32003")),
    "katsura3_fp_mixed": (KATSURA3, REDUCE + ("x*y*z - 3*z^2 + y", "--coeff", "fp:32003")),
    "katsura3_fp_deg4": (KATSURA3, REDUCE + ("y^4 + x^2*z^2 - 7", "--coeff", "fp:32003")),
    "c4_x1_5": (C4, REDUCE + ("x1^5",)),
    "c4_mixed": (C4, REDUCE + ("x1^4*x2^2 - x1*x2 + 1",)),
    "c4_deg6": (C4, REDUCE + ("x1^3*x2^3 + x2^4",)),
    "rank2_pot": (RANK2.format(tie="pot"), REDUCE + ("[x1^3, x1*x2^2 + 1]",)),
    "rank2_top": (RANK2.format(tie="top"), REDUCE + ("[x1^3, x1*x2^2 + 1]",)),
    "verify_circle_degrevlex": (CIRCLE, ("verify", "--grading", "order degrevlex", "--format", "json")),
    "basis_katsura3": (KATSURA3, ("basis", "--reduced", "--format", "json")),
    "basis_cyclic4": (CYCLIC4, ("basis", "--reduced", "--format", "json")),
    "basis_cyclic4_total": (CYCLIC4, ("basis", "--grading", "total", "--reduced", "--format", "json")),
    "basis_cyclic3_total": (CYCLIC3, ("basis", "--reduced", "--format", "json")),
    "syzygy_circle_total": (CIRCLE, ("syzygy", "--format", "json")),
    "eliminate_circle": (CIRCLE, ("eliminate", "--keep", "x2", "--format", "json")),
    "hilbert_homogeneous": (HOMOGENEOUS, ("hilbert", "--degrees", "0..5")),
    "homogenize_circle": (CIRCLE, ("homogenize",)),
    "dehomogenize_circle": (CIRCLE_HOMOGENIZED, ("dehomogenize", "--var", "t", "--format", "json")),
    "check_invariant_c4": (C4 + "group c4.grp\n", ("check-invariant", "--equivariance-samples", "3")),
    # a non-monomial matrix: the action substitutes linear forms
    "check_invariant_rot3": (ROT3, ("check-invariant", "--format", "json")),
    "check_invariant_s3": (
        CYCLIC3 + "group s3.grp\n",
        ("check-invariant", "--equivariance-samples", "3", "--format", "json"),
    ),
}


def run_case(tmp_dir, name, capture):
    """Write the case's problem file and the group files into tmp_dir, the
    working directory, and run the CLI on the problem; returns (code, stdout)."""
    text, args = CASES[name]
    for file_name, body in {f"{name}.mac": text, **GROUP_FILES}.items():
        with open(os.path.join(tmp_dir, file_name), "w", encoding="utf-8") as fh:
            fh.write(body)
    code = main([args[0], f"{name}.mac", *args[1:]])
    return code, capture()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run_case(str(tmp_path), name, lambda: capsys.readouterr().out)
    assert code == 0
    with open(os.path.join(GOLDEN, f"{name}.out"), encoding="utf-8") as fh:
        expected = fh.read()
    assert out == expected


def test_every_command_is_pinned():
    # a new command lands with a byte-for-byte pin of its output
    assert {args[0] for _, args in CASES.values()} == set(cli.COMMANDS)
