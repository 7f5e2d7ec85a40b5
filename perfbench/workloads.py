"""The benchmark's workloads: seeded inputs and the operations that are timed.

A workload is a *round* of operations (ops) drawn from ``(seed, round index)``
with numpy's PCG64 generator, so one seed always yields the same sequence of
rounds.  The run process repeats rounds until its time is up and the
program only ever sees the generated grids and parameters.  Every round of
a workload does the same amount of work: grid sizes and the drive amplitude
(which fixes the gate time and hence the RK4 step count) are constants, and
only values that do not change the work are drawn.

This module is imported by the run process (which executes ops) and by the
harness (which checks them); it imports nothing from ``nvzeno`` itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Points on the (gamma_nv, gamma_n) axes of one ``open_surface`` sweep.
#: The default 9 x 9 grid takes about 50 s on a 2-core box, longer than one
#: benchmark run may last, so one op is a 2 x 1 grid of the same physics
#: (two open points, eight Lindblad integrations) and the run repeats it.
SURFACE_POINTS = (2, 1)

#: ``run_qst`` output grid; each op integrates 100 output intervals.
QST_TIMES = 101

#: run_qst calls per ``qst_stream`` round.
QST_ROUND = 4

#: ``closed_figures`` round: the closed-system sweeps at their default point
#: counts, each as one CLI run.  Values are the (from, to) ranges the lower
#: and upper endpoints of every axis are drawn from.
FIGURES = {
    "ratio_sweep": {
        "omega_over_g": ((0.005, 0.05), (0.2, 0.25), 50),
    },
    "detuning_population": {
        "delta_over_omega": ((0.0, 0.1), (0.4, 0.5), 6),
        "t_over_T": ((0.0, 0.1), (0.9, 1.0), 201),
    },
    "systematic_omega_g": {
        "delta_g_over_g": ((-0.1, -0.05), (0.05, 0.1), 9),
        "delta_omega_over_omega": ((-0.1, -0.05), (0.05, 0.1), 9),
    },
    "systematic_t_g": {
        "delta_g_over_g": ((-0.1, -0.05), (0.05, 0.1), 9),
        "delta_t_over_t": ((-0.1, -0.05), (0.05, 0.1), 9),
    },
    "survival_map": {
        "t_over_T": ((0.0, 0.1), (0.9, 1.0), 100),
        "omega_over_g": ((0.005, 0.05), (0.2, 0.25), 100),
    },
    "survival_map_full": {
        "t_over_T": ((0.0, 0.1), (0.9, 1.0), 100),
        "omega_over_g": ((0.005, 0.05), (0.2, 0.25), 100),
    },
}

_WORKLOAD_IDS = {"open_surface": 1, "qst_stream": 2, "closed_figures": 3}


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _WORKLOAD_IDS[workload], int(index)])


def _open_interval(rng, high: float) -> float:
    """Uniform draw from (0, high]."""
    return float(high * (1.0 - rng.random()))


def _grid(lo: float, hi: float, points: int) -> dict:
    return {"from": lo, "to": hi, "points": points}


def _cli_op(config: dict, fmt: str) -> dict:
    return {"kind": "cli", "config": config, "format": fmt}


def _surface_op(rng, points: tuple) -> dict:
    config = {"experiment": "decay_surface"}
    for axis, n in zip(("gamma_nv_over_g", "gamma_n_over_g"), points):
        lo = _open_interval(rng, 5e-4)
        hi = float(rng.uniform(1.5e-3, 2.5e-3))
        config[axis] = _grid(lo, hi, n) if n > 1 else _grid(lo, lo, 1)
    return _cli_op(config, "csv")


def _qst_op(rng) -> dict:
    z = rng.standard_normal(4)
    norm = float(np.linalg.norm(z))
    return {
        "kind": "qst",
        "alpha": [z[0] / norm, z[1] / norm],
        "beta": [z[2] / norm, z[3] / norm],
        "source": int(rng.integers(1, 3)),
        "gamma_nv": _open_interval(rng, 0.01),
        "gamma_n": _open_interval(rng, 0.01),
        "delta": _open_interval(rng, 0.01),
        "n_times": QST_TIMES,
    }


def _figure_op(rng, experiment: str, fmt: str, one_point: bool = False) -> dict:
    config = {"experiment": experiment}
    for axis, ((lo_a, lo_b), (hi_a, hi_b), points) in FIGURES[experiment].items():
        lo = float(rng.uniform(lo_a, lo_b))
        hi = float(rng.uniform(hi_a, hi_b))
        config[axis] = _grid(lo, lo, 1) if one_point else _grid(lo, hi, points)
    return _cli_op(config, fmt)


def round_ops(workload: str, seed: int, index: int) -> list:
    """The ops of round ``index`` (0-based) of a workload."""
    rng = _rng(seed, workload, index + 1)
    if workload == "open_surface":
        return [_surface_op(rng, SURFACE_POINTS)]
    if workload == "qst_stream":
        return [_qst_op(rng) for _ in range(QST_ROUND)]
    if workload == "closed_figures":
        return [
            _figure_op(rng, name, "csv" if (index + k) % 2 == 0 else "json")
            for k, name in enumerate(FIGURES)
        ]
    raise KeyError(workload)


def warmup_op(workload: str, seed: int) -> dict:
    """The untimed one-point op that finishes set-up."""
    rng = _rng(seed, workload, 0)
    if workload == "open_surface":
        return _surface_op(rng, (1, 1))
    if workload == "qst_stream":
        return _qst_op(rng)
    if workload == "closed_figures":
        return _figure_op(rng, "ratio_sweep", "csv", one_point=True)
    raise KeyError(workload)


WORKLOADS = tuple(_WORKLOAD_IDS)


# -- executing ops (run process only) ------------------------------------------------


@dataclass
class PreparedOp:
    """An op with its files written; ``call()`` is the timed part."""

    spec: dict
    out_path: str | None
    argv: list | None = None

    def call(self, nvzeno, cli):
        """Run the op through the public API; return the library result or None."""
        spec = self.spec
        if spec["kind"] == "cli":
            code = cli.main(self.argv)
            if code != 0:
                raise RuntimeError(f"nvzeno exited with code {code}")
            return None
        params = nvzeno.SystemParams(
            gamma_nv=spec["gamma_nv"], gamma_n=spec["gamma_n"], delta=spec["delta"]
        )
        return nvzeno.run_qst(
            complex(*spec["alpha"]), complex(*spec["beta"]), params,
            source=spec["source"], n_times=spec["n_times"],
        )

    def collect(self, result) -> dict:
        """What the harness needs to check the op, taken outside the timed region."""
        if self.spec["kind"] == "cli":
            return {"path": self.out_path}
        observables = result.trajectory.observables
        return {
            "fidelity": float(result.fidelity),
            "dark_survival_min": float(result.dark_survival_min),
            "target_fidelity": [float(x) for x in observables["target_fidelity"]],
            "dark_survival": [float(x) for x in observables["dark_survival"]],
        }


def prepare(spec: dict, workdir: str, tag: str) -> PreparedOp:
    """Write a CLI op's config file; library ops need no files."""
    if spec["kind"] != "cli":
        return PreparedOp(spec, None)
    config_path = f"{workdir}/{tag}.config.json"
    out_path = f"{workdir}/{tag}.{spec['format']}"
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(spec["config"], fh)
    argv = ["run", "--config", config_path, "--out", out_path, "--format", spec["format"]]
    return PreparedOp(spec, out_path, argv)


def probe_params(workload: str, seed: int) -> dict:
    """Decay rates and detuning of the generator the fixed-cost probe uses."""
    spec = warmup_op(workload, seed)
    if spec["kind"] == "qst":
        return {k: spec[k] for k in ("gamma_nv", "gamma_n", "delta")}
    if spec["config"]["experiment"] == "decay_surface":
        return {
            "gamma_nv": spec["config"]["gamma_nv_over_g"]["from"],
            "gamma_n": spec["config"]["gamma_n_over_g"]["from"],
            "delta": 0.0,
        }
    # closed_figures never integrates a Lindblad equation; probe a typical one.
    return {"gamma_nv": 1e-3, "gamma_n": 1e-3, "delta": 0.0}
