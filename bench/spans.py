"""Spans recorded from outside the program, around calls into each layer.

``instrument(tracer)`` replaces the layer entry points the CLI and the
experiments look up at call time (module attributes such as
``rdesplit.cli.solve_split``, plus two methods) with wrappers that record
a span per call, and restores them on exit.  ``rdesplit.cli.build_problem``
is wrapped so that every problem it returns is rebuilt from traced
callables through the public constructors: ``RoughDriver`` with explicit
batch hooks, ``VectorField`` and ``canonical_z`` (Z must be rebuilt from the
traced driver and field, or the area and gradient calls it makes go
uncounted).  The wrappers return what the wrapped call returns,
so traced outputs are bitwise those of an untraced run.

Spans of hot leaf calls (field, gradient, Z, driver queries) are folded
into per-name aggregates as they close; coarse spans (commands,
experiments, solves) are also kept whole, with their parent, for the trace
file.  A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

import rdesplit.cli as cli
import rdesplit.config as config
import rdesplit.convergence_lab as lab
import rdesplit.splitting_solver as solver
from rdesplit.convergence_lab import Problem
from rdesplit.model import SecondOrderMap, VectorField, canonical_z
from rdesplit.rough_path import RoughDriver


class Tracer:
    """In-memory span store for one pass."""

    def __init__(self):
        self.stats = {}          # name -> [calls, total_s, self_s]
        self.counts = Counter()  # work counts: steps, pairs, rows, bytes
        self.spans = []          # kept spans: (id, parent_id, name, start, end)
        self._stack = [[0.0, None]]  # open spans: [child_time, kept id]

    def wrap(self, name, fn, keep=False, count=None):
        """Return ``fn`` recording a span ``name`` per call.

        ``count`` is an optional ``(counter_name, fn(args, kwargs, result))``
        whose value is added to ``counts`` after each call.
        """
        clock = time.perf_counter
        stack = self._stack
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        spans = self.spans
        counts = self.counts

        def traced(*args, **kwargs):
            if keep:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = stack[-1][1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if keep:
                    spans[span_id] = (span_id, stack[-1][1], name, start, end)
            if count is not None:
                counts[count[0]] += count[1](args, kwargs, result)
            return result

        return traced

    def calls(self, name) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]


def traced_problem(tracer: Tracer, problem: Problem) -> Problem:
    """``problem`` rebuilt from traced callables through the public
    constructors."""
    wrap = tracer.wrap
    d = problem.driver
    rows = ("rough_path.batch.rows", lambda a, kw, r: len(r))
    driver = RoughDriver(
        d.dim, d.alpha,
        wrap("rough_path.increment", d.increment),
        wrap("rough_path.area", d.area),
        d.value,
        span=d.span,
        increment_many_fn=wrap("rough_path.increment_many", d.increment_many,
                               count=rows) if d.has_batch else None,
        area_many_fn=wrap("rough_path.area_many", d.area_many,
                          count=rows) if d.has_batch else None,
    )
    f = problem.field
    field = VectorField(
        f.n, f.d,
        wrap("model.field", f.__call__),
        wrap("model.gradient", f.gradient),
        hess_fn=f.hessian if f.has_hessian else None,
        gamma=f.gamma, sup_f=f.sup_f, sup_grad=f.sup_grad, name=f.name,
    )
    z = problem.z
    # Only the canonical map, the one the workloads use, is rebuilt; another
    # map is timed as a whole and its inner calls go uncounted.
    inner = canonical_z(field, driver) if z.name == "canonical" else z
    traced_z = SecondOrderMap(z.n, wrap("model.z", inner.__call__),
                              time_exponent=z.time_exponent,
                              space_exponent=z.space_exponent, name=z.name)
    return Problem(driver=driver, field=field, z=traced_z, y0=problem.y0,
                   T=problem.T, path=problem.path)


def _steps(args, kwargs, result):
    return result.grid.N


def _substeps(args, kwargs, result):
    return (len(result) - 1) * kwargs.get("substeps", 64)


def _patches(tracer: Tracer):
    """(owner, attribute, replacement) for every traced entry point."""
    wrap = tracer.wrap
    build = wrap("config.build_problem", config.build_problem, keep=True)

    def build_problem(cfg, seed_override=None):
        problem, grid = build(cfg, seed_override)
        return traced_problem(tracer, problem), grid

    write = wrap("splitting_solver.write_csv", solver.write_trajectory_csv)

    def write_trajectory_csv(traj, fileobj):
        start = fileobj.tell()
        write(traj, fileobj)
        tracer.counts["splitting_solver.write_csv.bytes"] += fileobj.tell() - start

    from_file = config.ProblemConfig.__dict__["from_file"].__func__
    traced_solve = wrap("splitting_solver.solve_split", solver.solve_split,
                        keep=True,
                        count=("splitting_solver.solve_split.steps", _steps))

    def queries():
        return (tracer.calls("rough_path.increment")
                + tracer.calls("rough_path.area"))

    def solve(*args, **kwargs):
        # driver queries made inside the solve: queries_per_step's numerator
        before = queries()
        try:
            return traced_solve(*args, **kwargs)
        finally:
            tracer.counts["rough_path.split_queries"] += queries() - before

    rate = "convergence_lab.rate"
    checker_samples = ("model.checker.samples", lambda a, kw, r: r.samples)
    build_path = "rough_path.build"
    return [
        (config.ProblemConfig, "from_file",
         classmethod(wrap("config.parse", from_file, keep=True))),
        (cli, "build_problem", build_problem),
        (config, "synth_midpoint_path",
         wrap(build_path, config.synth_midpoint_path)),
        (config, "smooth_path", wrap(build_path, config.smooth_path)),
        (config, "lift_piecewise_linear",
         wrap(build_path, config.lift_piecewise_linear)),
        (cli, "solve_split", solve),
        (lab, "solve_split", solve),
        (cli, "solve_milstein",
         wrap("splitting_solver.solve_milstein", solver.solve_milstein,
              keep=True, count=("splitting_solver.solve_milstein.steps", _steps))),
        (cli, "solve_ode_reference",
         wrap("splitting_solver.ode_reference", solver.solve_ode_reference,
              keep=True,
              count=("splitting_solver.ode_reference.substeps", _substeps))),
        (solver.SplitTrajectory, "eval_joined",
         wrap("splitting_solver.eval_joined", solver.SplitTrajectory.eval_joined)),
        (cli, "write_trajectory_csv", write_trajectory_csv),
        (cli, "davie_defect",
         wrap("convergence_lab.davie", lab.davie_defect, keep=True,
              count=("convergence_lab.davie.pairs", lambda a, kw, r: r.pairs))),
        (cli, "dyadic_sup_rate", wrap(rate, lab.dyadic_sup_rate, keep=True)),
        (cli, "holder_rate", wrap(rate, lab.holder_rate, keep=True)),
        (cli, "rational_rate", wrap(rate, lab.rational_rate, keep=True)),
        (lab, "joined_samples",
         wrap("convergence_lab.joined_samples", lab.joined_samples, keep=True)),
        (lab, "hoelder_seminorm",
         wrap("rough_path.hoelder_seminorm", lab.hoelder_seminorm, keep=True)),
        (cli, "check_z_bound",
         wrap("model.check_z_bound", cli.check_z_bound, keep=True,
              count=checker_samples)),
        (cli, "check_z_lipschitz",
         wrap("model.check_z_lipschitz", cli.check_z_lipschitz, keep=True,
              count=checker_samples)),
        (cli, "check_z_cocycle",
         wrap("model.check_z_cocycle", cli.check_z_cocycle, keep=True,
              count=checker_samples)),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the layer entry points through ``tracer`` for the with-block."""
    saved = []
    try:
        for owner, attr, replacement in _patches(tracer):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
