"""Workload definitions: which CLI commands run, at which sizes, on which driver.

Every workload runs all eight timed commands, so every end-to-end metric
exists on every workload.  Each workload gives most of its time to the
commands of one layer mix ("heavy" sizes below) and runs the rest at small
"probe" sizes that take 10-30 % of a pass.

All configs use d = n = 2, the sine field with scale 0.8 and gamma = 3, and
y0 = (0.1, -0.2).  The benchmark seed sets ``driver.seed`` and
``field.seed``; the program sees only the generated config files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

DEFAULT_SEED = 17


@dataclass(frozen=True)
class Command:
    """One timed CLI invocation: metric name, argv prefix, config sizes.

    ``repeat`` runs a short command several times per pass, each run a
    timing sample of its own, so that its median rests on enough samples.
    """

    metric: str
    argv: tuple
    problem: dict
    experiment: dict
    repeat: int = 1


def _repeat(command, repeat):
    return replace(command, repeat=repeat)


def _solve(n):
    return Command("solve_s", ("solve",), {"n_steps": n}, {})


def _oracle(n):
    return Command("oracle_s", ("solve", "--oracle"), {"n_steps": n}, {})


def _compare(n):
    return Command("compare_s", ("compare-schemes",), {"n_steps": n}, {})


def _rates(kind, base_n, levels, seeds):
    return Command(f"rates_{kind}_s", ("rates", "--kind", kind), {},
                   {"base_n": base_n, "levels": levels, "seeds": seeds})


def _davie(n):
    return Command("davie_s", ("davie",), {"n_steps": n}, {})


def _check_z(n, samples):
    return Command("check_z_s", ("check-z",), {"n_steps": n},
                   {"samples": samples})


SYNTHETIC = {"kind": "synthetic", "levels": 14}
SMOOTH = {"kind": "smooth", "resolution": 16384}

# name -> (driver section, commands in pass order, one-line rationale).
# Each timed run is kept to about half a second and the heavy commands are
# repeated instead: every run sits between two calibration kernel runs
# (calibrate.py), and a longer run would span load spells that neither
# kernel run sees.
WORKLOADS = {
    "trajectory": (SYNTHETIC, (
        _repeat(_solve(4096), 4),
        _repeat(_compare(512), 8),
        _repeat(_rates("sup", 16, 6, 3), 4),
        _repeat(_rates("rational", 16, 6, 3), 4),
        _repeat(_oracle(64), 3),
        _repeat(_rates("holder", 16, 3, 1), 3),
        _repeat(_davie(64), 3),
        _repeat(_check_z(16, 4), 3),
    ), "about 128k split/Milstein steps of scalar driver queries plus field, "
       "gradient and Z calls; no large O(N^2) sweep"),
    "diagnostics": (SYNTHETIC, (
        _repeat(_davie(128), 6),
        _repeat(_check_z(32, 8), 6),
        _repeat(_rates("holder", 16, 5, 1), 6),
        _repeat(_solve(256), 6),
        _repeat(_oracle(64), 2),
        _repeat(_compare(32), 4),
        _repeat(_rates("sup", 16, 3, 1), 4),
        _repeat(_rates("rational", 16, 3, 1), 4),
    ), "per-pair Python loops of the Davie defect, the three Z checkers, "
       "joined-path sampling and the Hoelder seminorm; solving is under a tenth"),
    "oracle": (SMOOTH, (
        _repeat(_oracle(256), 4),
        _repeat(_solve(1024), 2),
        _repeat(_compare(128), 2),
        _repeat(_rates("sup", 16, 5, 1), 2),
        _repeat(_rates("rational", 16, 4, 1), 2),
        _repeat(_rates("holder", 16, 3, 1), 2),
        _repeat(_davie(64), 2),
        _repeat(_check_z(16, 4), 2),
    ), "smooth driver, 65,536 RK4 substeps of field-only evaluation with no "
       "driver queries in the hot loop"),
}

# Sizes for --smoke: every command at a size that runs in milliseconds.
SMOKE_COMMANDS = (
    _solve(64),
    _compare(32),
    _rates("sup", 8, 3, 2),
    _rates("rational", 8, 2, 2),
    _oracle(16),
    _rates("holder", 8, 2, 1),
    _davie(32),
    _check_z(8, 2),
)

METRICS = tuple(cmd.metric for cmd in SMOKE_COMMANDS)


def commands(workload: str, smoke: bool = False) -> tuple:
    return SMOKE_COMMANDS if smoke else WORKLOADS[workload][1]


def config_text(workload: str, command: Command, seed: int) -> str:
    """INI text of one command's config; deterministic in (workload, seed)."""
    driver = dict(WORKLOADS[workload][0])
    sections = {
        "driver": {"d": 2, "alpha": 0.45, "seed": seed, **driver},
        "field": {"preset": "sine", "gamma": 3.0, "seed": seed, "scale": 0.8},
        "z": {"kind": "canonical"},
        "problem": {"y0": "0.1, -0.2", "t_final": 1.0, "n_steps": 256,
                    **command.problem},
        "experiment": {"levels": 4, "base_n": 16, "beta": 0.2, "q_num": 3,
                       "q_den": 2, "seeds": 1, "samples": 16, "box": 1.0,
                       **command.experiment},
    }
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
        lines.append("")
    return "\n".join(lines)
