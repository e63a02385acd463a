"""Spans and counts around the calls into each layer, from outside the library.

``install(tracer)`` rebinds the public entry points of ``cli``, ``apps``,
``symmetry``, ``macbasis``, ``reduction`` and ``gradlin`` at the places their
callers look them up (``reduction`` imports ``w_space`` from ``gradlin``, so
the wrapper goes on ``macaulay.reduction.w_space``).  Each wrapped call
records a span: name, start, end, parent span and operation.  Counts that
come from returned values (zero reductions, trace steps, W-space shapes) are
read off the result as the span closes, without calling library code.  The
leaf layers ``coeff``, ``grading`` and ``polymod`` get call counts and self
time from ``cProfile``, grouped by module file.

Spans stay in memory until ``write_spans``.  Only operations that succeeded
feed the layer metrics: an operation cut off at its deadline stops at a
point that depends on the machine's speed, and its counts would not repeat.
"""

import cProfile
import functools
import json
import os
import pstats
from collections import Counter
from time import perf_counter

from macaulay import apps, cli, gradlin, macbasis, reduction, symmetry


# Info functions run while the profiler and the enclosing spans are still
# open, so they only read attributes; anything that needs library code is
# returned as a function of no arguments, which Tracer.settle calls after the
# traced pass.


def _distinct_inputs(generators, spec):
    return len({macbasis.normalize_element(g, spec) for g in generators if not g.is_zero()})


def _completion_info(args, kwargs, basis):
    return {"inputs": functools.partial(_distinct_inputs, args[0], args[1]),
            "size": len(basis.elements)}


def _syzygy_info(args, kwargs, result):
    return {"n": len(result)}


def _normal_form_info(args, kwargs, result):
    nf, trace = result
    return {"zero": not any(p.terms for p in nf.polys), "steps": len(trace.steps)}


def _membership_info(args, kwargs, result):
    return {"steps": len(result[1].steps)}


def _w_space_info(args, kwargs, sub):
    return {"rows": len(sub.gens), "cols": len(sub.ambient.monomials)}


# (object holding the name, attribute, span name, info from the result)
SPANS = [
    (cli, "run_command", "cli.run_command", None),
    (cli, "parse_problem", "cli.parse_problem", None),
    (cli, "parse_group_file", "cli.parse_group_file", None),
    (cli, "render_problem", "cli.render_problem", None),
    (cli, "format_result", "cli.format_result", None),
]
for _module in (cli, apps, macbasis):
    SPANS += [
        (_module, "buchberger_algorithm", "macbasis.buchberger_algorithm", _completion_info),
        (_module, "buchberger_criterion", "macbasis.buchberger_criterion", None),
    ]
for _module in (cli, macbasis):
    SPANS.append((_module, "interreduce", "macbasis.interreduce", None))
for _module in (apps, macbasis):
    SPANS += [
        (_module, "leading_syzygy_generators", "macbasis.leading_syzygy_generators", _syzygy_info),
        (_module, "lift_syzygy", "macbasis.lift_syzygy", None),
    ]
SPANS.append((macbasis, "monomial_syzygy_generators", "macbasis.monomial_syzygy_generators", None))
for _module in (cli, apps):
    SPANS += [
        (_module, "eliminate", "apps.eliminate", None),
        (_module, "hilbert_function", "apps.hilbert_function", None),
        (_module, "schreyer_syzygy_basis", "apps.schreyer_syzygy_basis", None),
    ]
for _module in (cli, symmetry):
    SPANS.append(
        (_module, "check_equivariant_normal_form", "symmetry.check_equivariant_normal_form", None)
    )
SPANS += [
    (reduction.Reducer, "__init__", "reduction.Reducer", None),
    (reduction.Reducer, "normal_form", "reduction.normal_form", _normal_form_info),
    (reduction.Reducer, "reduces_to_zero", "reduction.reduces_to_zero", _membership_info),
    (reduction, "w_space", "gradlin.w_space", _w_space_info),
    (reduction, "project_complement", "gradlin.project_complement", None),
    (reduction, "decompose_in_w", "gradlin.decompose_in_w", None),
    (gradlin, "rref", "gradlin.rref", None),
    (symmetry, "rref", "gradlin.rref", None),
]

# called too often for a span each: counted only
COUNTS = [
    (reduction.Reducer, "w_space", "reduction.w_lookup"),
    (symmetry.GroupAction, "act", "symmetry.act"),
]

# leaf layers: module files whose cProfile rows are summed into the layer
LEAF_FILES = {
    "coeff": ("macaulay/coeff.py", "fractions.py"),
    "grading": ("macaulay/grading.py",),
    "polymod": ("macaulay/polymod.py",),
}
ARITH = {"__add__", "__sub__", "__neg__", "__mul__", "scale", "mul_term", "action"}
FIELD_OPS = {"add", "sub", "mul", "neg", "div", "inv", "is_zero"}


class Tracer:
    """Spans, counts and profiles of one traced process, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation, info]
        self.counts = Counter()  # (operation, name) -> calls
        self.failed = set()
        self.active = False
        self.op = None
        self._stack = []
        self._profiler = None
        self._stats = None

    def begin(self, op):
        self.op = op
        self.active = True
        self._profiler = cProfile.Profile()
        self._profiler.enable()

    def stop(self):
        self._profiler.disable()
        self.active = False
        self._stack.clear()

    def finish(self, ok):
        """Keep the operation's profile, or mark its spans and counts as failed."""
        if not ok:
            self.failed.add(self.op)
        elif self._stats is None:
            self._stats = pstats.Stats(self._profiler)
        else:
            self._stats.add(self._profiler)

    def span(self, name, fn, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if info is not None:
                record[5] = info(args, kwargs, result)
            return result

        return traced

    def count(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counts[tracer.op, name] += 1
            return fn(*args, **kwargs)

        return counted

    def settle(self):
        """Evaluate the deferred info values, after tracing has stopped."""
        for record in self.spans:
            info = record[5]
            if info:
                for key, value in info.items():
                    if callable(value):
                        info[key] = value()

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("name", "start", "end", "parent", "op", "info")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def install(tracer):
    """Wrap every entry point in SPANS and COUNTS; returns a function that undoes it."""
    saved = []
    for holder, attr, name, info in SPANS:
        original = getattr(holder, attr)
        saved.append((holder, attr, original))
        setattr(holder, attr, tracer.span(name, original, info))
    for holder, attr, name in COUNTS:
        original = getattr(holder, attr)
        saved.append((holder, attr, original))
        setattr(holder, attr, tracer.count(name, original))

    def uninstall():
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)

    return uninstall


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Every per-layer metric, from the spans, counts and profiles of the
    operations that succeeded."""
    tracer.settle()
    spans = tracer.spans
    ok = [i for i, s in enumerate(spans) if s[4] not in tracer.failed]
    child_time = Counter()
    for i in ok:
        name, start, end, parent = spans[i][:4]
        if parent >= 0:
            child_time[parent] += end - start

    def parent_name(i):
        p = spans[i][3]
        return spans[p][0] if p >= 0 else None

    def has_ancestor(i, name):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    by_name = {}
    for i in ok:
        by_name.setdefault(spans[i][0], []).append(i)

    def named(name):
        return by_name.get(name, [])

    def total(indices):
        return sum(spans[i][2] - spans[i][1] for i in indices)

    self_s = Counter()
    for i in ok:
        name, start, end = spans[i][:3]
        self_s[name.split(".")[0]] += end - start - child_time[i]

    counts = Counter()
    for (op, name), n in tracer.counts.items():
        if op not in tracer.failed:
            counts[name] += n

    completions = named("macbasis.buchberger_algorithm")
    rounds = [i for i in named("macbasis.leading_syzygy_generators")
              if parent_name(i) == "macbasis.buchberger_algorithm"]
    syzygies = sum(spans[i][5]["n"] for i in rounds)
    adjoined = sum(spans[i][5]["size"] - spans[i][5]["inputs"] for i in completions)
    nested = [i for i in completions if parent_name(i) == "macbasis.leading_syzygy_generators"]
    outer_syzygy = [i for i in named("macbasis.leading_syzygy_generators")
                    if not has_ancestor(i, "macbasis.leading_syzygy_generators")]
    normal_forms = named("reduction.normal_form")
    memberships = named("reduction.reduces_to_zero")
    builds = named("gradlin.w_space")
    lookups = counts["reduction.w_lookup"]

    metrics = {
        "macbasis.rounds": len(rounds),
        "macbasis.syzygies": syzygies,
        "macbasis.zero_reductions": sum(
            1 for i in normal_forms
            if spans[i][5]["zero"] and parent_name(i) == "macbasis.buchberger_algorithm"
        ),
        "macbasis.useful_ratio": _ratio(adjoined, syzygies),
        "macbasis.self_s": self_s["macbasis"],
        "macbasis.nested_completions": len(nested),
        "macbasis.nested_max_gens": max((spans[i][5]["size"] for i in nested), default=0),
        "macbasis.syzygy_s": total(outer_syzygy),
        "reduction.reducers_built": len(named("reduction.Reducer")),
        "reduction.normal_forms": len(normal_forms),
        "reduction.membership_tests": len(memberships),
        "reduction.steps": sum(spans[i][5]["steps"] for i in normal_forms + memberships),
        "reduction.self_s": self_s["reduction"],
        "gradlin.w_builds": len(builds),
        "gradlin.w_lookups": lookups,
        "gradlin.w_hit_ratio": _ratio(lookups - len(builds), lookups),
        "gradlin.w_cells": sum(spans[i][5]["rows"] * spans[i][5]["cols"] for i in builds),
        "gradlin.w_max_cols": max((spans[i][5]["cols"] for i in builds), default=0),
        "gradlin.rref_calls": len(named("gradlin.rref")),
        "gradlin.rref_s": total(named("gradlin.rref")),
        "gradlin.project_s": total(named("gradlin.project_complement")),
        "gradlin.self_s": self_s["gradlin"],
        "symmetry.actions": counts["symmetry.act"],
        "symmetry.self_s": self_s["symmetry"],
        "apps.calls": sum(len(v) for k, v in by_name.items() if k.startswith("apps.")),
        "apps.self_s": self_s["apps"],
        "cli.parse_s": total(named("cli.parse_problem") + named("cli.parse_group_file")),
        "cli.render_s": total(named("cli.render_problem") + named("cli.format_result")),
    }
    metrics.update(_leaf_metrics(tracer._stats))
    return metrics


def _leaf_metrics(stats):
    calls = Counter()
    self_s = Counter()
    rows = stats.stats.items() if stats is not None else ()
    for (filename, _line, func), (_cc, nc, tt, _ct, _callers) in rows:
        path = filename.replace(os.sep, "/")
        for layer, suffixes in LEAF_FILES.items():
            if path.endswith(suffixes):
                self_s[layer] += tt
                calls[layer, func] += nc
    return {
        "polymod.hcomp_calls": calls["polymod", "homogeneous_components"],
        "polymod.arith_calls": sum(calls["polymod", f] for f in ARITH),
        "polymod.self_s": self_s["polymod"],
        "grading.compare_calls": calls["grading", "compare"],
        "grading.self_s": self_s["grading"],
        "coeff.field_ops": sum(calls["coeff", f] for f in FIELD_OPS),
        "coeff.inv_calls": calls["coeff", "inv"],
        "coeff.self_s": self_s["coeff"],
    }

