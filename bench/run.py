"""Layered benchmark of the rdesplit CLI commands.

Run from the repository root:

    python3 bench/run.py --workload trajectory --seed 17 --seconds 30 --trace 0
    python3 bench/run.py --workload diagnostics --trace 1   # per-layer metrics
    python3 bench/run.py --smoke                             # all workloads, tiny sizes

Each run is one process and one workload (see ``workloads.py``).  It builds
config files from ``--seed`` in a temporary directory inside the checkout,
runs the workload's command list in passes through
``rdesplit.cli.main([...], standalone_mode=False)`` for ``--seconds``,
checks every command's outputs outside the timed region (``gate.py``) and
prints one JSON result as the last line of stdout.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs one untraced pass and then
traced passes (``spans.py``) and reports the per-layer metrics.
"""

import os

# Pin every thread pool before numpy is imported, here and in probe children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "RDE_SPLIT_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import workloads
from calibrate import NOMINAL_S, kernel, scale, to_reference
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
TMP_PARENT = ROOT / ".bench_tmp"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 19
SETUP_KERNELS = 2  # kernel runs on each side of a setup probe


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _ratio(num, den):
    return num / den if den else 0.0


def _median(values):
    return statistics.median(values) if values else None


def _configs(workload, seed, smoke):
    return [(cmd, workloads.config_text(workload, cmd, seed))
            for cmd in workloads.commands(workload, smoke)]


def setup_probe(workload, seed, smoke):
    """Child side of a setup_s probe: import, parse and build, report
    "ready", then time SETUP_KERNELS kernel runs in this same process."""
    from rdesplit.cli import main  # noqa: F401  (the import is what is timed)
    from rdesplit.config import ProblemConfig, build_problem
    for _, text in _configs(workload, seed, smoke):
        build_problem(ProblemConfig.parse(text))
    print("ready", flush=True)
    print(" ".join(repr(kernel()) for _ in range(SETUP_KERNELS)), flush=True)


def measure_setup(workload, seed, smoke, probes, calibration):
    """(reference, raw) seconds from process start to each probe's "ready".

    A probe is scaled by the mean of the SETUP_KERNELS kernel runs just
    before it starts and the SETUP_KERNELS its own process makes just after
    "ready".
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    reference, raw = [], []
    for _ in range(probes):
        before = [kernel() for _ in range(SETUP_KERNELS)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            rest = proc.stdout.read().split()
            code = proc.wait(timeout=120)
        if code != 0 or line != "ready" or len(rest) != SETUP_KERNELS:
            raise RuntimeError(f"setup probe failed (exit {code}, {line!r})")
        after = [float(k) for k in rest]
        calibration += before + after
        raw.append(elapsed)
        reference.append(scale(elapsed, statistics.fmean(before),
                               statistics.fmean(after)))
    return reference, raw


def provenance():
    import numpy
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


class Runner:
    """One workload's configs, passes, gate results and calibration samples."""

    def __init__(self, workload, seed, smoke, tmp, reference=None):
        from rdesplit.config import ProblemConfig, build_problem

        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.hashes = {}
        self.calibration = []
        self.wall_medians = {}
        self.reference = reference
        self.entries = []
        self.problems = []
        for i, (cmd, text) in enumerate(_configs(workload, seed, smoke)):
            path = tmp / f"config-{i}-{cmd.metric}.ini"
            path.write_text(text, encoding="utf-8")
            cfg = ProblemConfig.parse(text)
            problem, _ = build_problem(cfg)  # warms lazy set-up before timing
            bad_driver = not self.check_driver(cmd.metric, problem.driver)
            self.entries.append((i, cmd, path, cfg, bad_driver))
            self.problems.append(problem)

    def check_driver(self, label, driver):
        """Chen check of a built driver; records an error and returns False
        when it fails."""
        from gate import GateError, check_chen

        try:
            check_chen(driver, self.seed)
        except GateError as exc:
            self.errors.append(f"{label}: {exc}")
            return False
        return True

    def run_pass(self, label, tracer=None):
        """One pass over the command list, each run between two kernel runs.

        Returns ({metric: [reference seconds per successful run]}, the same
        in raw wall seconds, the pass's reference seconds or None when a
        command failed, the pass's reference seconds per measured second).
        """
        import rdesplit.cli as cli
        from gate import GateError

        kernels, timed = [], []
        for i, cmd, config_path, cfg, bad_driver in self.entries:
            main = cli.main
            if tracer is not None:
                main = tracer.wrap(f"cli.{cmd.metric[:-2]}", main, keep=True)
            for r in range(cmd.repeat):
                out = self.tmp / f"{label}-{i}-{r}"
                argv = [*cmd.argv, "--config", str(config_path),
                        "--out", str(out)]
                kernels.append(kernel())
                self.attempted += 1
                error = None
                start = time.perf_counter()
                try:
                    main(argv, standalone_mode=False)
                except SystemExit as exc:
                    if exc.code not in (None, 0):
                        error = f"exit code {exc.code}"
                except Exception as exc:  # a failed command must not stop the run
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                if error is None:
                    try:
                        error = self._check(i, cmd, out, cfg)
                    except (GateError, OSError, KeyError, TypeError,
                            ValueError) as exc:
                        error = f"{type(exc).__name__}: {exc}"
                if error is None and bad_driver:
                    error = "driver failed the Chen check"
                shutil.rmtree(out, ignore_errors=True)
                if error is not None:
                    self.failed += 1
                    self.errors.append(f"{label} {cmd.metric}: {error}")
                timed.append((cmd.metric if error is None else None, elapsed))
        kernels.append(kernel())
        self.calibration += kernels
        reference = to_reference([t for _, t in timed], kernels)
        samples, raw = {}, {}
        for (metric, wall), value in zip(timed, reference):
            if metric is not None:
                samples.setdefault(metric, []).append(value)
                raw.setdefault(metric, []).append(wall)
        ok = all(metric is not None for metric, _ in timed)
        return (samples, raw, sum(reference) if ok else None,
                NOMINAL_S / statistics.median(kernels))

    def _check(self, i, cmd, out, cfg):
        from gate import check_outputs, compare_reference

        values = check_outputs(cmd, out, cfg)
        if self.reference is not None:
            compare_reference(values, self.reference[str(i)])
        digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.iterdir())}
        first = self.hashes.setdefault(i, digest)
        if digest != first:
            return "outputs differ bitwise from the first run"
        return None


def _another_pass(start, last_pass_s, seconds):
    """Whether time is left for a pass that, judged by the last one, ends
    within a quarter of ``seconds`` past it; bounds a run under load."""
    elapsed = time.perf_counter() - start
    return elapsed < seconds and elapsed + last_pass_s <= 1.25 * seconds


def run_untraced(runner, seconds, smoke):
    """Untraced passes; ({metric: reference seconds}, {metric: raw seconds})."""
    samples, raw, passes, last = {}, {}, 0, 0.0
    start = time.perf_counter()
    while passes == 0 or (not smoke and _another_pass(start, last, seconds)):
        begun = time.perf_counter()
        pass_samples, pass_raw, _, _ = runner.run_pass(f"pass{passes}")
        last = time.perf_counter() - begun
        passes += 1
        for metric, values in pass_samples.items():
            samples.setdefault(metric, []).extend(values)
        for metric, values in pass_raw.items():
            raw.setdefault(metric, []).extend(values)
    return samples, raw


def end_to_end_metrics(samples, setup_times):
    """Medians of reference seconds; wall_s sums the per-command medians."""
    medians = {name: _median(samples.get(name, [])) for name in workloads.METRICS}
    complete = all(v is not None for v in medians.values())
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "wall_s": _metric(sum(medians.values()) if complete else None, "s"),
    }
    for name, value in medians.items():
        metrics[name] = _metric(value, "s")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = _metric(rss_kib / 1024.0, "MB")
    return metrics


def layer_metrics(t):
    """Per-layer values of one traced pass: (seconds, exact counts)."""
    c = t.counts
    steps = c["splitting_solver.solve_split.steps"]
    pairs = c["convergence_lab.davie.pairs"]
    samples = c["model.checker.samples"]
    checkers = ("model.check_z_bound", "model.check_z_lipschitz",
                "model.check_z_cocycle")
    counts = {
        "rough_path.increment.calls": t.calls("rough_path.increment"),
        "rough_path.area.calls": t.calls("rough_path.area"),
        "rough_path.batch.rows": c["rough_path.batch.rows"],
        "model.field.calls": t.calls("model.field"),
        "model.gradient.calls": t.calls("model.gradient"),
        "model.z.calls": t.calls("model.z"),
        "model.checker.samples": samples,
        "splitting_solver.solve_split.steps": steps,
        "splitting_solver.solve_milstein.steps":
            c["splitting_solver.solve_milstein.steps"],
        "splitting_solver.ode_reference.substeps":
            c["splitting_solver.ode_reference.substeps"],
        "splitting_solver.eval_joined.calls":
            t.calls("splitting_solver.eval_joined"),
        "splitting_solver.write_csv.bytes":
            c["splitting_solver.write_csv.bytes"],
        "convergence_lab.davie.pairs": pairs,
    }
    times = {
        "rough_path.increment.self_s": t.self_time("rough_path.increment"),
        "rough_path.area.self_s": t.self_time("rough_path.area"),
        "rough_path.batch.self_s": (t.self_time("rough_path.increment_many")
                                    + t.self_time("rough_path.area_many")),
        "rough_path.build_s": t.total("rough_path.build"),
        "rough_path.hoelder_seminorm_s": t.total("rough_path.hoelder_seminorm"),
        "model.field.self_s": t.self_time("model.field"),
        "model.gradient.self_s": t.self_time("model.gradient"),
        "model.z.self_s": t.self_time("model.z"),
        "model.check_z_bound_s": t.total("model.check_z_bound"),
        "model.check_z_lipschitz_s": t.total("model.check_z_lipschitz"),
        "model.check_z_cocycle_s": t.total("model.check_z_cocycle"),
        "model.checker.us_per_sample":
            1e6 * _ratio(sum(t.total(n) for n in checkers), samples),
        "splitting_solver.solve_split.self_s":
            t.self_time("splitting_solver.solve_split"),
        "splitting_solver.solve_split.us_per_step":
            1e6 * _ratio(t.total("splitting_solver.solve_split"), steps),
        "splitting_solver.solve_milstein.self_s":
            t.self_time("splitting_solver.solve_milstein"),
        "splitting_solver.ode_reference.self_s":
            t.self_time("splitting_solver.ode_reference"),
        "splitting_solver.eval_joined.self_s":
            t.self_time("splitting_solver.eval_joined"),
        "splitting_solver.write_csv.self_s":
            t.self_time("splitting_solver.write_csv"),
        "convergence_lab.davie.self_s": t.self_time("convergence_lab.davie"),
        "convergence_lab.davie.us_per_pair":
            1e6 * _ratio(t.total("convergence_lab.davie"), pairs),
        "convergence_lab.rate.self_s": t.self_time("convergence_lab.rate"),
        "convergence_lab.joined_samples_s":
            t.total("convergence_lab.joined_samples"),
        "config.parse_s": t.total("config.parse"),
        "config.build_problem_s": t.total("config.build_problem"),
    }
    for name in workloads.METRICS:
        times[f"cli.{name[:-2]}.self_s"] = t.self_time(f"cli.{name[:-2]}")
    # exact count ratio: increment and area calls made while a solve_split
    # span is open, over splitting_solver.solve_split.steps
    counts["rough_path.queries_per_step"] = _ratio(
        c["rough_path.split_queries"], steps)
    return times, counts


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if ".us_per_" in name:
        return "us"
    if name.endswith("queries_per_step"):
        return "queries/step"
    return "count"


def run_traced(runner, seconds, smoke, seed):
    """One untraced pass, then traced passes; per-layer metrics.

    Times of a traced pass are scaled to reference seconds by that pass's
    median kernel time.
    """
    from spans import Tracer, instrument, traced_problem

    _, _, untraced_s, _ = runner.run_pass("untraced")
    per_pass, counts, tracers, last = [], None, [], 0.0
    start = time.perf_counter()
    while len(tracers) < (2 if smoke else 1) or (
            not smoke and _another_pass(start, last, seconds)):
        tracer = Tracer()
        begun = time.perf_counter()
        with instrument(tracer):
            _, _, traced_s, factor = runner.run_pass(f"traced{len(tracers)}",
                                                     tracer)
        last = time.perf_counter() - begun
        # No command makes batch driver queries yet; the Chen check on the
        # traced drivers, outside the timed commands, exercises those hooks.
        for (_, cmd, *_), problem in zip(runner.entries, runner.problems):
            runner.check_driver(f"traced {cmd.metric}",
                                traced_problem(tracer, problem).driver)
        times, pass_counts = layer_metrics(tracer)
        if counts is None:
            counts = pass_counts
        elif pass_counts != counts:
            runner.errors.append("traced counts differ between passes")
        times = {name: factor * value for name, value in times.items()}
        times["trace_overhead_frac"] = (
            traced_s / untraced_s - 1.0 if traced_s and untraced_s else None)
        per_pass.append(times)
        tracers.append((tracer, factor))
    metrics = {name: _metric(value, _layer_unit(name))
               for name, value in counts.items()}
    for name in per_pass[0]:
        value = _median([p[name] for p in per_pass if p[name] is not None])
        unit = "ratio" if name == "trace_overhead_frac" else _layer_unit(name)
        metrics[name] = _metric(value, unit)
    _write_trace(runner.workload, seed, *tracers[-1], metrics)
    return metrics


def _write_json(name, payload):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _write_trace(workload, seed, tracer, factor, metrics):
    """Write the last traced pass's spans (raw seconds) and its metrics."""
    _write_json(f"trace-{workload}-seed{seed}.json", {
        "workload": workload,
        "seed": seed,
        "provenance": provenance(),
        "reference_seconds_per_second": factor,
        "metrics": metrics,
        "aggregates": {name: {"calls": calls, "total_s": total, "self_s": own}
                       for name, (calls, total, own) in tracer.stats.items()},
        "counts": dict(tracer.counts),
        "spans": [{"id": sid, "parent": parent, "name": name,
                   "start": start, "end": end}
                  for sid, parent, name, start, end in tracer.spans],
    })


def run_workload(workload, seed, seconds, trace, smoke):
    """Run one workload in a temporary directory; (runner, metrics)."""
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_PARENT))
    try:
        reference = None
        if seed == DEFAULT_SEED and not smoke:
            reference = json.loads(REFERENCE.read_text())[workload]
        runner = Runner(workload, seed, smoke, tmp, reference)
        metrics = {}
        if not trace or smoke:
            setup_times, setup_raw = measure_setup(
                workload, seed, smoke, 1 if smoke else SETUP_PROBES,
                runner.calibration)
            samples, raw = run_untraced(runner, seconds, smoke)
            metrics.update(end_to_end_metrics(samples, setup_times))
            raw["setup_s"] = setup_raw
            runner.wall_medians = {name: statistics.median(values)
                                   for name, values in raw.items()}
            _write_json(f"run-{workload}-seed{seed}.json", {
                "workload": workload, "seed": seed,
                "provenance": provenance(), "metrics": metrics,
                "wall_medians_s": runner.wall_medians,
                "kernel_s": runner.calibration,
                "reference_s": {"setup_s": setup_times, **samples},
                "wall_s": raw})
        if trace or smoke:
            metrics.update(run_traced(runner, seconds, smoke, seed))
        return runner, metrics
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass


def declared_metrics(trace, smoke):
    """{name: unit} that BENCHMARK.json declares for this mode, or None."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text(encoding="utf-8"))
    groups = (["end_to_end", "per_layer"] if smoke
              else ["per_layer" if trace else "end_to_end"])
    return {m["name"]: m["unit"] for g in groups for m in spec[g]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes, untraced and traced")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rdesplit" / "__init__.py").is_file():
        print(f"rdesplit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.smoke)
        return 0
    names = sorted(WORKLOADS) if args.smoke and args.workload is None \
        else [args.workload]
    attempted = failed = 0
    metrics, errors = {}, []
    info = provenance()
    for workload in names:
        runner, wl_metrics = run_workload(workload, args.seed, args.seconds,
                                          bool(args.trace), args.smoke)
        attempted += runner.attempted
        failed += runner.failed
        errors += [f"{workload}: {e}" for e in runner.errors]
        declared = declared_metrics(bool(args.trace), args.smoke)
        reported = {k: v["unit"] for k, v in wl_metrics.items()}
        if declared is not None and reported != declared:
            errors.append(f"{workload}: metrics differ from BENCHMARK.json: "
                          f"{sorted(set(reported.items()) ^ set(declared.items()))}")
        prefix = f"{workload}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in wl_metrics.items()})
        info[f"{workload}.calibration_s"] = statistics.median(runner.calibration)
        if runner.wall_medians:
            info[f"{workload}.wall_medians_s"] = runner.wall_medians
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print("provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not errors and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
