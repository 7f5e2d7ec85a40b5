"""Correctness oracle: every op's output against an independent reference.

References are exact propagators, ``scipy.linalg.expm`` of a Hamiltonian or
of a Liouvillian that this module builds from the package's *public*
``SystemParams.hamiltonian()`` and ``SystemParams.channels()`` (never from
private helpers).  Register kets are indexed by the documented layout:
nucleus 1 slowest, NV fastest, index ``(2 n1 + n2) * 3 + nv`` with
``down = 0``, ``up = 1`` and NV ``aux = 2``.

An op fails if any value column differs from the reference by more than
:data:`TOLERANCE` (the acceptance suite's bound for matching the exact
propagator), if a value leaves [0, 1], if an axis column is not the
requested grid, or if the reference anchors differ from the ones the
reference values imply.  Checks run in the harness, after the run process
has exited, so they are never timed.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg import expm

#: Largest allowed deviation of a value from its reference.
TOLERANCE = 1e-6

#: Slack for numbers printed with 12 significant digits.
PRINT_SLACK = 1e-9

OMEGA_DEFAULT = 0.105

UU, UD, DU, DD = 11, 8, 5, 2  # nuclear pair with the NV in aux
GATE = ((UU, UU, math.pi), (UD, DU, 0.0), (DU, UD, 0.0), (DD, DD, 0.0))

VALUE_COLUMNS = {
    "ratio_sweep": ("fidelity_avg", "fidelity_superposition"),
    "detuning_population": ("population",),
    "decay_surface": ("fidelity_avg",),
    "systematic_omega_g": ("fidelity",),
    "systematic_t_g": ("fidelity",),
    "survival_map": ("p0",),
    "survival_map_full": ("p_nv_aux",),
}


class Oracle:
    """Reference computations; needs the package only for its public model."""

    def __init__(self, nvzeno):
        self.nv = nvzeno

    # -- generators -------------------------------------------------------------------

    def hamiltonian(self, **params) -> np.ndarray:
        return np.asarray(self.nv.SystemParams(**params).hamiltonian(), dtype=complex)

    def liouvillian(self, **params) -> np.ndarray:
        """Generator of row-major vec(rho) for the public H and channels."""
        p = self.nv.SystemParams(**params)
        h = np.asarray(p.hamiltonian(), dtype=complex)
        eye = np.eye(h.shape[0])
        lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for ch in p.channels():
            s = np.asarray(ch.operator, dtype=complex)
            sds = s.conj().T @ s
            lv += ch.rate * (np.kron(s, s.conj()) - 0.5 * (np.kron(sds, eye) + np.kron(eye, sds.T)))
        return lv

    def dark_projector(self) -> np.ndarray:
        w, v = np.linalg.eigh(self.hamiltonian(omega=0.0))
        dark = v[:, np.abs(w) < 1e-8]
        return dark @ dark.conj().T

    # -- references per experiment ------------------------------------------------------

    def reference(self, experiment: str, grids: dict) -> tuple[dict, list]:
        """Value columns (row-major over the axes) and expected anchors."""
        return getattr(self, "_" + experiment)(grids)

    def _ratio_sweep(self, grids):
        om = grids["omega_over_g"]
        hs = np.stack([self.hamiltonian(omega=w) for w in om])
        us = expm(-1j * hs * (math.pi / om)[:, None, None])
        avg = np.mean([np.abs(us[:, o, i]) ** 2 for i, o, _ in GATE], axis=0)
        psi = np.zeros(12, dtype=complex)
        target = np.zeros(12, dtype=complex)
        for i, o, phase in GATE:
            psi[i] = 0.5
            target[o] = 0.5 * np.exp(1j * phase)
        sup = np.abs((us @ psi) @ target.conj()) ** 2
        anchors = []
        near = np.abs(om - 0.15) < 1e-9
        if np.any(near):
            anchors.append(("fidelity_avg at omega_over_g = 0.15", avg[near][0], 0.96, 1.0))
        if om.size > 1:
            anchors.append(
                ("monotone decrease (max adjacent rise, slack 1e-3)", np.max(np.diff(avg)), None, 1e-3)
            )
        return {"fidelity_avg": avg, "fidelity_superposition": sup}, anchors

    def _detuning_population(self, grids):
        ratios, t_over = grids["delta_over_omega"], grids["t_over_T"]
        times = t_over * (math.pi / OMEGA_DEFAULT)
        series = []
        for r in ratios:
            h = self.hamiltonian(omega=OMEGA_DEFAULT, delta=r * OMEGA_DEFAULT)
            psi = _unitary_series(h[None], _ket(DD), times[None, :])[0]
            series.append(np.abs(psi[:, DD]) ** 2)
        anchors = []
        small = ratios <= 0.2 + 1e-12
        if np.any(small):
            worst = np.min([series[i] for i in np.nonzero(small)[0]])
            anchors.append(("min population of |down,down,aux> for delta/omega <= 0.2", worst, 0.98, None))
        return {"population": np.concatenate(series)}, anchors

    def _systematic(self, grids, other: str):
        psi0 = (_ket(DD) + _ket(UD)) / math.sqrt(2.0)
        target = (_ket(DD) + _ket(DU)) / math.sqrt(2.0)
        duration = math.pi / OMEGA_DEFAULT
        points = [(dg, dx) for dg in grids["delta_g_over_g"] for dx in grids[other]]
        hs, ts = [], []
        for dg, dx in points:
            time_axis = other == "delta_t_over_t"
            omega = OMEGA_DEFAULT if time_axis else OMEGA_DEFAULT * (1.0 + dx)
            hs.append(self.hamiltonian(omega=omega, g_list=(1.0 + dg, 1.0 + dg)))
            ts.append(duration * (1.0 + dx) if time_axis else duration)
        us = expm(-1j * np.stack(hs) * np.array(ts)[:, None, None])
        fid = np.abs((us @ psi0) @ target.conj()) ** 2
        anchors = []
        for (dg, dx), f in zip(points, fid):
            if abs(dg - 0.1) < 1e-9 and abs(dx - 0.1) < 1e-9:
                anchors.append((f"transfer fidelity at (delta_g, {other}) = (0.1, 0.1)", f, 0.98, None))
                break
        return {"fidelity": fid}, anchors

    def _systematic_omega_g(self, grids):
        return self._systematic(grids, "delta_omega_over_omega")

    def _systematic_t_g(self, grids):
        return self._systematic(grids, "delta_t_over_t")

    def _survival_map(self, grids):
        # Three-level chain |0> -omega- |1> -g- |2> with g = 1.
        t_over, om = grids["t_over_T"], grids["omega_over_g"]
        hs = np.zeros((om.size, 3, 3), dtype=complex)
        hs[:, 0, 1] = hs[:, 1, 0] = om
        hs[:, 1, 2] = hs[:, 2, 1] = 1.0
        times = t_over[None, :] * (math.pi / om)[:, None]
        psi = _unitary_series(hs, np.eye(3, dtype=complex)[0], times)
        p0 = (np.abs(psi[:, :, 0]) ** 2).T  # rows: t_over_T, columns: omega
        anchors = []
        low = om <= 0.05 + 1e-12
        if np.any(low):
            anchors.append(("min survival for omega_over_g <= 0.05", np.min(p0[:, low]), 0.99, None))
        return {"p0": p0.reshape(-1)}, anchors

    def _survival_map_full(self, grids):
        t_over, om = grids["t_over_T"], grids["omega_over_g"]
        hs = np.stack([self.hamiltonian(omega=w) for w in om])
        times = t_over[None, :] * (math.pi / om)[:, None]
        psi = _unitary_series(hs, _ket(DD), times)
        p_aux = np.sum(np.abs(psi[:, :, 2::3]) ** 2, axis=2).T
        return {"p_nv_aux": p_aux.reshape(-1)}, []

    def _decay_surface(self, grids):
        fid = []
        for a in grids["gamma_nv_over_g"]:
            for b in grids["gamma_n_over_g"]:
                flow = expm(self.liouvillian(gamma_nv=a, gamma_n=b) * (math.pi / OMEGA_DEFAULT))
                fid.append(np.mean([flow[o * 12 + o, i * 12 + i].real for i, o, _ in GATE]))
        fid = np.array(fid)
        anchors = [("min gate fidelity over the decay grid", np.min(fid), 0.96, None)]
        return {"fidelity_avg": fid}, anchors

    def qst(self, spec: dict) -> dict:
        """Target-fidelity and dark-survival series of one ``run_qst`` call."""
        alpha, beta = complex(*spec["alpha"]), complex(*spec["beta"])
        one, two = (UD, DU) if spec["source"] == 1 else (DU, UD)
        psi0 = alpha * _ket(DD) + beta * _ket(one)
        target = alpha * _ket(DD) + beta * _ket(two)
        lv = self.liouvillian(gamma_nv=spec["gamma_nv"], gamma_n=spec["gamma_n"], delta=spec["delta"])
        times = np.linspace(0.0, math.pi / OMEGA_DEFAULT, spec["n_times"])
        step = expm(lv * (times[1] - times[0]))
        dark = self.dark_projector()
        rho = np.outer(psi0, psi0.conj()).reshape(-1)
        fid, surv = [], []
        for k in range(times.size):
            if k:
                rho = step @ rho
            m = rho.reshape(12, 12)
            fid.append(np.real(target.conj() @ m @ target))
            surv.append(np.real(np.sum(dark.T * m)))
        return {"target_fidelity": np.array(fid), "dark_survival": np.array(surv)}


def _ket(index: int) -> np.ndarray:
    psi = np.zeros(12, dtype=complex)
    psi[index] = 1.0
    return psi


def _unitary_series(hs: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States exp(-i H_j t_jk) psi0 for uniform time rows ``times[j]``; shape (j, k, d)."""
    n = times.shape[1]
    psi = expm(-1j * hs * times[:, :1, None]) @ psi0
    out = [psi]
    if n > 1:
        step = expm(-1j * hs * (times[:, 1:2, None] - times[:, :1, None]))
        for _ in range(n - 1):
            psi = np.einsum("jab,jb->ja", step, psi)
            out.append(psi)
    return np.stack(out, axis=1)


# -- reading and checking outputs ---------------------------------------------------------


def read_output(path: str, fmt: str) -> dict:
    """Columns and metadata of a CSV or JSON output file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        doc = json.loads(text)
        columns = {name: np.asarray(doc["data"][name], dtype=float) for name in doc["columns"]}
        return {"names": list(doc["columns"]), "columns": columns, "metadata": doc["metadata"]}
    metadata, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            metadata[key] = json.loads(value) if key != "nvzeno-output-version" else value
        else:
            body.append(line)
    names = body[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in body[1:]], dtype=float)
    rows = rows.reshape(-1, len(names))
    return {"names": names, "columns": {n: rows[:, i] for i, n in enumerate(names)}, "metadata": metadata}


def _close(a, b, tol) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def _in_unit_interval(values) -> bool:
    v = np.asarray(values, dtype=float)
    return bool(np.all(np.isfinite(v)) and np.all(v >= -PRINT_SLACK) and np.all(v <= 1.0 + PRINT_SLACK))


def check_sweep(oracle: Oracle, config: dict, output: dict) -> list:
    """Problems found in one CLI sweep output (empty when correct)."""
    experiment = config["experiment"]
    axes = [k for k in config if k != "experiment"]
    grids = {k: np.linspace(config[k]["from"], config[k]["to"], config[k]["points"]) for k in axes}
    values, anchors = oracle.reference(experiment, grids)
    problems = []
    expected_names = axes + list(VALUE_COLUMNS[experiment])
    if output["names"] != expected_names:
        return [f"columns {output['names']} != {expected_names}"]
    mesh = np.meshgrid(*[grids[k] for k in axes], indexing="ij")
    for name, grid in zip(axes, mesh):
        if not _close(output["columns"][name], grid.reshape(-1), PRINT_SLACK * max(1.0, np.max(np.abs(grid)))):
            problems.append(f"axis column {name} is not the requested grid")
    for name in VALUE_COLUMNS[experiment]:
        got = output["columns"][name]
        if not _in_unit_interval(got):
            problems.append(f"{name}: value outside [0, 1]")
        if not _close(got, values[name], TOLERANCE):
            dev = float(np.max(np.abs(got - values[name]))) if got.shape == values[name].shape else math.inf
            problems.append(f"{name}: max deviation {dev:.3e} from reference exceeds {TOLERANCE}")
    problems += _check_anchors(output["metadata"].get("reference_anchors", []), anchors)
    return problems


def _check_anchors(reported: list, expected: list) -> list:
    names = [a.get("name") for a in reported]
    if names != [e[0] for e in expected]:
        return [f"anchors {names} != {[e[0] for e in expected]}"]
    problems = []
    for got, (name, measured, low, high) in zip(reported, expected):
        if got.get("low") != low or got.get("high") != high:
            problems.append(f"anchor {name!r}: band ({got.get('low')}, {got.get('high')}) != ({low}, {high})")
        if abs(got["measured"] - measured) > TOLERANCE:
            problems.append(f"anchor {name!r}: measured {got['measured']} != reference {measured}")
        edges = [e for e in (low, high) if e is not None]
        if any(abs(measured - e) <= TOLERANCE for e in edges):
            continue  # the verdict is decided by roundoff; either flag is right
        satisfied = (low is None or measured >= low) and (high is None or measured <= high)
        if got["satisfied"] != satisfied:
            problems.append(f"anchor {name!r}: satisfied={got['satisfied']}, reference says {satisfied}")
    return problems


def check_qst(oracle: Oracle, spec: dict, output: dict) -> list:
    """Problems found in one ``run_qst`` result (empty when correct)."""
    ref = oracle.qst(spec)
    problems = []
    for name in ("target_fidelity", "dark_survival"):
        got = np.asarray(output[name], dtype=float)
        if not _in_unit_interval(got):
            problems.append(f"{name}: value outside [0, 1]")
        if not _close(got, ref[name], TOLERANCE):
            problems.append(f"{name}: series deviates from reference by more than {TOLERANCE}")
    if abs(output["fidelity"] - ref["target_fidelity"][-1]) > TOLERANCE:
        problems.append(f"fidelity {output['fidelity']} != reference {ref['target_fidelity'][-1]}")
    if abs(output["dark_survival_min"] - np.min(ref["dark_survival"])) > TOLERANCE:
        problems.append("dark_survival_min differs from reference")
    return problems


def check_op(oracle: Oracle, spec: dict, output: dict) -> list:
    """Check one op's collected output; CLI outputs are read from their file."""
    if spec["kind"] == "qst":
        return check_qst(oracle, spec, output)
    return check_sweep(oracle, spec["config"], output)


def perturbed(spec: dict, output: dict) -> dict:
    """A copy of a correct output with one value moved by 10x the tolerance."""
    bumped = dict(output)
    if spec["kind"] == "qst":
        bumped["fidelity"] = output["fidelity"] - 10 * TOLERANCE
        return bumped
    name = VALUE_COLUMNS[spec["config"]["experiment"]][0]
    column = np.array(output["columns"][name], dtype=float)
    column[0] -= 10 * TOLERANCE
    bumped["columns"] = {**output["columns"], name: column}
    return bumped
