"""The benchmark harness at tiny sizes, so that it cannot rot unnoticed.

Runs ``bench/run.py --smoke`` from the repository root and checks its
verdict line; it makes no timing assertions.  A faster check loads
``bench/spans.py`` in-process and looks up everything it patches, so that
a renamed program attribute fails here with its name.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import rdesplit.convergence_lab as lab
from rdesplit import Grid, solve_split
from rdesplit.splitting_solver import SplitTrajectory

ROOT = Path(__file__).resolve().parent.parent


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_bench_smoke_passes_its_gate():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    assert verdict["correct"] is True, proc.stderr[-4000:]
    assert verdict["failed"] == 0


def test_every_attribute_the_bench_patches_exists():
    spans = _bench_module("spans")
    # building the patch list looks up every wrapped original
    patches = spans._patches(spans.Tracer())
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in patches
               if attr not in vars(owner)]
    assert not missing, f"bench/spans.py patches missing attributes {missing}"
    patched = {(owner, attr) for owner, attr, _ in patches}
    assert {(lab, "joined_samples"), (lab, "hoelder_seminorm"),
            (SplitTrajectory, "eval_joined")} <= patched
    originals = [vars(owner)[attr] for owner, attr, _ in patches]
    with spans.instrument(spans.Tracer()):
        pass
    assert [vars(owner)[attr] for owner, attr, _ in patches] == originals


def test_traced_problem_gives_the_untraced_joined_path():
    # the traced field and Z take the per-row fallbacks of the stacked calls
    spans = _bench_module("spans")
    config = _bench_module("workloads")
    from rdesplit.config import ProblemConfig, build_problem
    command = config.SMOKE_COMMANDS[0]
    cfg = ProblemConfig.parse(config.config_text("diagnostics", command, 17))
    problem, _ = build_problem(cfg)
    tracer = spans.Tracer()
    traced = spans.traced_problem(tracer, problem)
    grid = Grid(problem.T, 8)
    times = lab.quarter_times(grid)
    paths = []
    for p in (problem, traced):
        traj = solve_split(p.driver, p.field, p.z, p.y0, grid)
        paths.append(traj.eval_joined(times))
    assert np.array_equal(paths[0], paths[1])
    assert tracer.calls("model.z") > 0 and tracer.calls("model.field") > 0


def test_traced_rates_write_the_untraced_files(tmp_path):
    # traced problems carry a field per seed and an opaque Z, so their
    # march takes the per-row fallback; untraced seeds share one stacked
    # field
    from rdesplit.cli import main
    spans = _bench_module("spans")
    config = _bench_module("workloads")
    command = config.Command("rates_sup_s", ("rates", "--kind", "sup"), {},
                             {"base_n": 8, "levels": 3, "seeds": 3})
    cfg = tmp_path / "rates.ini"
    cfg.write_text(config.config_text("trajectory", command, 17))
    outputs = []
    for traced in (False, True):
        out = tmp_path / ("traced" if traced else "untraced")
        argv = list(command.argv) + ["--config", str(cfg), "--out", str(out)]
        tracer = spans.Tracer()
        if traced:
            with spans.instrument(tracer):
                main(argv, standalone_mode=False)
            assert tracer.calls("model.z") > 0
        else:
            main(argv, standalone_mode=False)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                        if p.name.startswith("rates_")})
    assert sorted(outputs[0]) == ["rates_seed17.csv", "rates_seed18.csv",
                                  "rates_seed19.csv", "rates_summary.json"]
    assert outputs[0] == outputs[1]
