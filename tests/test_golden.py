"""Regression of every named sweep against stored outputs.

Each case runs one experiment on a small grid, renders it as CSV and JSON
exactly as the CLI writes it, and compares the text with the files in
``tests/golden/``.  The grids include open-system points for every sweep that
integrates a Lindblad equation, so the integrator diagnostics in the metadata
are covered at full precision.

Closed-system cases must match byte for byte.  The Lindblad cases were
captured with the per-step RK4 loop, before the integrator applied each
output interval as one matrix power; their data rows and every string, key
and flag must still match exactly, while the full-precision floats under
``integrator`` and the anchors' ``measured`` values may differ by roundoff,
at most :data:`FLOAT_TOLERANCE` absolute.

Regenerate files (only after a change that is meant to alter outputs) with
``PYTHONPATH=src python tests/test_golden.py [NAME ...]``; without names every
case is rewritten.
"""

import json
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

#: Cases whose grids hold open-system points (integrated as a Lindblad equation).
LINDBLAD_CASES = {"decay_surface", "decay_trajectory", "qst_decoherence_n", "qst_decoherence_nv"}

#: Largest absolute change allowed in a Lindblad case's roundoff-level floats.
FLOAT_TOLERANCE = 1e-10


def rendered(name: str) -> dict:
    axes, fixed, dt = CASES[name]
    record = record_from_sweep(sweep(SweepSpec(name, axes=axes, fixed=dict(fixed), dt=dt)))
    return {fmt: render(record, fmt) for fmt in FORMATS}


def golden_path(name: str, fmt: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.{fmt}")


def read_golden(name: str, fmt: str) -> str:
    with open(golden_path(name, fmt), "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def _tolerant(path: tuple) -> bool:
    """Whether the value at ``path`` in the metadata may differ by roundoff."""
    return (len(path) >= 2 and path[0] == "integrator") or (
        len(path) == 3 and path[0] == "reference_anchors" and path[2] == "measured"
    )


def assert_metadata_close(actual, expected, path: tuple = ()) -> None:
    """Equal structure, strings, flags and numbers, with roundoff slack on tolerant floats."""
    where = "/".join(map(str, path)) or "metadata"
    assert type(actual) is type(expected), where
    if isinstance(expected, dict):
        assert list(actual) == list(expected), where
        for key in expected:
            assert_metadata_close(actual[key], expected[key], path + (key,))
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_metadata_close(a, e, path + (i,))
    elif isinstance(expected, float) and _tolerant(path):
        assert abs(actual - expected) <= FLOAT_TOLERANCE, f"{where}: {actual} vs {expected}"
    else:
        assert actual == expected, where


def _csv_parts(text: str) -> tuple[dict, list]:
    lines = text.splitlines()
    meta = [line[2:].split(": ", 1) for line in lines if line.startswith("# ")]
    body = [line for line in lines if not line.startswith("#")]
    values = {key: (json.loads(value) if key != "nvzeno-output-version" else value) for key, value in meta}
    return values, body


def assert_lindblad_case_matches(name: str, texts: dict) -> None:
    meta, body = _csv_parts(texts["csv"])
    expected_meta, expected_body = _csv_parts(read_golden(name, "csv"))
    assert body == expected_body, f"{name}.csv data rows differ"
    assert_metadata_close(meta, expected_meta)
    doc, expected_doc = json.loads(texts["json"]), json.loads(read_golden(name, "json"))
    assert_metadata_close(doc.pop("metadata"), expected_doc.pop("metadata"))
    assert doc == expected_doc, f"{name}.json data differ"


def test_cases_cover_registry():
    assert set(CASES) == set(EXPERIMENTS)
    assert LINDBLAD_CASES <= set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    texts = rendered(name)
    if name in LINDBLAD_CASES:
        assert_lindblad_case_matches(name, texts)
        return
    for fmt in FORMATS:
        assert texts[fmt] == read_golden(name, fmt), f"{name}.{fmt} differs from the golden file"


def test_tolerance_is_narrow():
    # the slack covers roundoff only: a shifted anchor or a changed flag fails
    meta, _ = _csv_parts(read_golden("decay_surface", "csv"))
    shifted = json.loads(json.dumps(meta))
    shifted["reference_anchors"][0]["measured"] += 10 * FLOAT_TOLERANCE
    with pytest.raises(AssertionError):
        assert_metadata_close(shifted, meta)
    flipped = json.loads(json.dumps(meta))
    flipped["reference_anchors"][0]["satisfied"] = not meta["reference_anchors"][0]["satisfied"]
    with pytest.raises(AssertionError):
        assert_metadata_close(flipped, meta)
    nudged = json.loads(json.dumps(meta))
    nudged["integrator"]["max_trace_deviation"] += 0.1 * FLOAT_TOLERANCE
    assert_metadata_close(nudged, meta)


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case in sys.argv[1:] or sorted(CASES):
        for fmt, text in rendered(case).items():
            with open(golden_path(case, fmt), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        print(f"wrote {case}", file=sys.stderr)
