"""Byte-for-byte regression of every named sweep against stored outputs.

Each case runs one experiment on a small grid, renders it as CSV and JSON
exactly as the CLI writes it, and compares the text with the files in
``tests/golden/``.  The grids include open-system points for every sweep that
integrates a Lindblad equation, so the integrator diagnostics in the metadata
are covered at full precision.

Regenerate the files (only after a change that is meant to alter outputs)
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import os
import sys

import numpy as np
import pytest

from nvzeno.experiments import EXPERIMENTS, SweepSpec, sweep
from nvzeno.io import record_from_sweep, render

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: name -> (axes, fixed, dt); one case per registered experiment.
CASES = {
    "ratio_sweep": ({"omega_over_g": np.array([0.05, 0.15, 0.25])}, {}, None),
    "detuning_population": (
        {"delta_over_omega": np.array([0.0, 0.2]), "t_over_T": np.linspace(0.0, 1.0, 5)},
        {},
        None,
    ),
    "decay_trajectory": ({"t_over_T": np.array([0.0, 0.5, 1.0])}, {}, 0.01),
    "decay_surface": (
        {"gamma_nv_over_g": np.array([0.0, 0.002]), "gamma_n_over_g": np.array([0.0, 0.001])},
        {},
        None,
    ),
    "systematic_omega_g": (
        {"delta_g_over_g": np.array([0.0, 0.1]), "delta_omega_over_omega": np.array([-0.1, 0.1])},
        {},
        None,
    ),
    "systematic_t_g": (
        {"delta_g_over_g": np.array([0.0, 0.1]), "delta_t_over_t": np.array([-0.1, 0.1])},
        {"alpha": 0.6, "beta": 0.8},
        None,
    ),
    "survival_map": (
        {"t_over_T": np.linspace(0.0, 1.0, 4), "omega_over_g": np.array([0.05, 0.105, 0.25])},
        {},
        None,
    ),
    "survival_map_full": (
        {"t_over_T": np.linspace(0.0, 1.0, 3), "omega_over_g": np.array([0.05, 0.105])},
        {},
        None,
    ),
    "qst_decoherence_n": (
        {"gamma_n_over_g": np.array([0.0, 0.01]), "delta_over_g": np.array([0.01])},
        {},
        None,
    ),
    "qst_decoherence_nv": (
        {"gamma_nv_over_g": np.array([0.0, 0.01]), "delta_over_g": np.array([0.0, 0.01])},
        {"alpha": 0.6, "beta": 0.8, "omega_over_g": 0.15},
        None,
    ),
}

FORMATS = ("csv", "json")


def rendered(name: str) -> dict:
    axes, fixed, dt = CASES[name]
    record = record_from_sweep(sweep(SweepSpec(name, axes=axes, fixed=dict(fixed), dt=dt)))
    return {fmt: render(record, fmt) for fmt in FORMATS}


def golden_path(name: str, fmt: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.{fmt}")


def test_cases_cover_registry():
    assert set(CASES) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    texts = rendered(name)
    for fmt in FORMATS:
        with open(golden_path(name, fmt), "r", encoding="utf-8", newline="") as fh:
            expected = fh.read()
        assert texts[fmt] == expected, f"{name}.{fmt} differs from the golden file"


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case in sorted(CASES):
        for fmt, text in rendered(case).items():
            with open(golden_path(case, fmt), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        print(f"wrote {case}", file=sys.stderr)
