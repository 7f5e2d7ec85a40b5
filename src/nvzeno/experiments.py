"""Protocol drivers and named parameter sweeps.

Two protocols run on the two-nucleus register.  The *entangling gate* drives
the NV for one half-cycle T = pi/omega, after which the nuclear computational
states map as ``{uu -> -uu, ud -> du, du -> ud, dd -> dd}`` with the NV back
in its ``aux`` level.  *State transfer* uses the same cycle to move an
arbitrary qubit ``alpha |down> + beta |up>`` from one nucleus to the other.

Every named sweep in :data:`EXPERIMENTS` produces a :class:`SweepResult`
whose records are reproducible and ordered by grid index.  Result metadata
documents the decay-channel choice, worst-case integrator diagnostics, and a
set of reference anchors: target values the sweep is expected to reproduce.
Anchors that land outside their band are flagged there rather than silently
dropped, so downstream consumers always see the measured value next to the
target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._version import __version__
from .dynamics import (
    Trajectory,
    evolve_lindblad,
    evolve_unitary,
    fidelity,
    population,
)
from .errors import (
    BadLabel,
    DimensionMismatch,
    NotNormalizedInput,
    OutOfRange,
    UnknownExperiment,
    UnknownKey,
    WrongSpace,
)
from .linalg import propagator
from .model import (
    OMEGA_DEFAULT,
    SystemParams,
    basis_state,
    build_h_dd,
    build_h_drive,
    build_space,
    nv_projector,
    nv_reduced_state,
    nuclear_reduced_state,
)
from .zeno import (
    survival_probability,
    zeno_decompose,
    zeno_limit_generator,
)

# -- gate definitions -----------------------------------------------------------

BASIS_LABELS = ("up_up", "up_down", "down_up", "down_down")

_LABEL_TO_NUCLEAR = {
    "up_up": ("up", "up"),
    "up_down": ("up", "down"),
    "down_up": ("down", "up"),
    "down_down": ("down", "down"),
}

#: Ideal gate action per computational input: (output label, acquired phase).
IDEAL_GATE_MAP = {
    "up_up": ("up_up", math.pi),
    "up_down": ("down_up", 0.0),
    "down_up": ("up_down", 0.0),
    "down_down": ("down_down", 0.0),
}


@dataclass(frozen=True)
class GateResult:
    """Fidelities and phases of one gate cycle.

    ``fidelities``/``phases`` are keyed by computational input label; the
    phase is the argument of the coherent propagator matrix element onto the
    ideal output ket (reported in the rotating frame).  The superposition
    entry probes phase coherence across all four inputs at once.
    ``diagnostics`` merges the integrator health of all five runs.
    """

    fidelities: dict
    phases: dict
    superposition_fidelity: float
    average_fidelity: float
    duration: float
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TruthTableRow:
    """Dominant output of one computational input after a gate cycle."""

    input_label: str
    output_label: str
    population: float
    phase: float
    nv_purity: float


@dataclass(frozen=True)
class QstResult:
    """Outcome of one state-transfer run."""

    alpha: complex
    beta: complex
    fidelity: float
    dark_survival_min: float
    trajectory: Trajectory


def _merge_diagnostics(acc: dict, new: dict) -> dict:
    for key, value in new.items():
        if key == "dt":
            acc[key] = value
        else:
            acc[key] = max(acc.get(key, -math.inf), value) if key != "min_eigenvalue" else min(
                acc.get(key, math.inf), value
            )
    return acc


def _superposition_coeffs(superposition) -> np.ndarray:
    """Coerce a gate input spec to four nuclear coefficients (uu, ud, du, dd)."""
    if superposition is None:
        coeffs = np.full(4, 0.5, dtype=complex)
    elif isinstance(superposition, str):
        if superposition not in BASIS_LABELS:
            raise BadLabel(f"unknown computational label {superposition!r}")
        coeffs = np.zeros(4, dtype=complex)
        coeffs[BASIS_LABELS.index(superposition)] = 1.0
    elif isinstance(superposition, dict):
        coeffs = np.zeros(4, dtype=complex)
        for label, value in superposition.items():
            if label not in BASIS_LABELS:
                raise BadLabel(f"unknown computational label {label!r}")
            coeffs[BASIS_LABELS.index(label)] = value
    else:
        coeffs = np.asarray(superposition, dtype=complex)
        if coeffs.shape != (4,):
            raise DimensionMismatch("superposition needs 4 coefficients (uu, ud, du, dd)")
    norm = float(np.linalg.norm(coeffs))
    if abs(norm - 1.0) > 1e-9:
        raise NotNormalizedInput(f"input norm {norm} deviates from 1")
    return coeffs


class _GateContext:
    """Shared operators for one parameter point of the gate/transfer protocols."""

    def __init__(self, params: SystemParams, dt: float | None = None):
        if params.n_nuclei != 2:
            raise WrongSpace("gate and transfer protocols run on the two-nucleus register")
        self.dt = dt
        self.space = build_space(2)
        self.duration = params.gate_duration
        self.h = params.hamiltonian(self.space)
        self.channels = params.channels(self.space)
        self.kets = {
            label: basis_state(self.space, _LABEL_TO_NUCLEAR[label] + ("aux",))
            for label in BASIS_LABELS
        }
        self.diagnostics: dict = {}

    def ideal_target(self, coeffs: np.ndarray) -> np.ndarray:
        """Image of a computational-input superposition under the ideal map."""
        target = np.zeros(self.space.dim, dtype=complex)
        for c, label in zip(coeffs, BASIS_LABELS):
            out_label, phase = IDEAL_GATE_MAP[label]
            target += c * np.exp(1j * phase) * self.kets[out_label]
        return target

    def evolve(self, psi0: np.ndarray, times=None) -> Trajectory:
        """Evolve ``psi0`` over ``times`` (default: one cycle ``(0, T)``).

        Pure states under the unitary flow when every rate is zero, density
        matrices under the Lindblad flow otherwise; the run's diagnostics are
        merged into :attr:`diagnostics`.
        """
        times = (0.0, self.duration) if times is None else times
        if not self.channels:
            traj = evolve_unitary(self.h, psi0, times)
        else:
            traj = evolve_lindblad(self.h, self.channels, psi0, times, dt=self.dt)
        self.diagnostics = _merge_diagnostics(self.diagnostics, traj.diagnostics)
        return traj


def run_gate(params: SystemParams, superposition=None, dt: float | None = None) -> GateResult:
    """Run one entangling-gate cycle over all computational inputs.

    Evolves the four computational basis states (NV prepared in ``aux``)
    for T = pi/omega under the full model, with Lindblad decay whenever a
    rate is nonzero, and scores each against the ideal mapping.  The
    ``superposition`` argument selects the phase-sensitive probe input
    (label, dict, or 4 coefficients); the default is the uniform
    superposition of all four inputs.
    """
    ctx = _GateContext(params, dt=dt)
    coeffs = _superposition_coeffs(superposition)

    u_coherent = propagator(ctx.h, ctx.duration)
    fids, phases = {}, {}
    for label in BASIS_LABELS:
        out_label, _ = IDEAL_GATE_MAP[label]
        final = ctx.evolve(ctx.kets[label]).final_state
        fids[label] = fidelity(ctx.kets[out_label], final)
        amp = np.vdot(ctx.kets[out_label], u_coherent @ ctx.kets[label])
        phases[label] = float(np.angle(amp))

    psi_sup = sum(c * ctx.kets[label] for c, label in zip(coeffs, BASIS_LABELS))
    sup_fid = fidelity(ctx.ideal_target(coeffs), ctx.evolve(psi_sup).final_state)

    return GateResult(
        fidelities=fids,
        phases=phases,
        superposition_fidelity=float(sup_fid),
        average_fidelity=float(np.mean([fids[label] for label in BASIS_LABELS])),
        duration=ctx.duration,
        diagnostics=ctx.diagnostics,
    )


def gate_truth_table(params: SystemParams, dt: float | None = None) -> list[TruthTableRow]:
    """Dominant output ket, phase, and NV disentanglement per basis input.

    The phase is measured on the dominant output's coherent amplitude; the
    NV purity is ``tr(r^2)`` of the reduced NV state after the cycle (unity
    when the ancilla fully disentangles).
    """
    ctx = _GateContext(params, dt=dt)
    u_coherent = propagator(ctx.h, ctx.duration)
    rows = []
    for label in BASIS_LABELS:
        final = ctx.evolve(ctx.kets[label]).final_state
        pops = {out: population(final, ctx.kets[out]) for out in BASIS_LABELS}
        dominant = max(BASIS_LABELS, key=lambda out: pops[out])
        amp = np.vdot(ctx.kets[dominant], u_coherent @ ctx.kets[label])
        r_nv = nv_reduced_state(ctx.space, final)
        rows.append(
            TruthTableRow(
                input_label=label,
                output_label=dominant,
                population=float(pops[dominant]),
                phase=float(np.angle(amp)),
                nv_purity=float(np.real(np.trace(r_nv @ r_nv))),
            )
        )
    return rows


# -- state transfer ----------------------------------------------------------------


def _qst_states(space, alpha, beta, source: int):
    hold = basis_state(space, ("down", "down", "aux"))
    one = basis_state(space, ("up", "down", "aux"))
    two = basis_state(space, ("down", "up", "aux"))
    if source == 1:
        return alpha * hold + beta * one, alpha * hold + beta * two
    if source == 2:
        return alpha * hold + beta * two, alpha * hold + beta * one
    raise BadLabel(f"source nucleus must be 1 or 2, got {source}")


def run_qst(
    alpha: complex,
    beta: complex,
    params: SystemParams,
    source: int = 1,
    n_times: int = 101,
    dt: float | None = None,
) -> QstResult:
    """Transfer ``alpha |down> + beta |up>`` from one nucleus to the other.

    The register starts as the source-nucleus qubit with the partner nucleus
    down and the NV in ``aux``, evolves for T = pi/omega, and is scored
    against the transferred target.  ``dark_survival_min`` tracks the worst
    occupation of the coupling's dark subspace along the way; under the
    strong-coupling condition it stays near one, which is what shields the
    transfer from NV decay.

    Raises:
        NotNormalizedInput: if ``|alpha|^2 + |beta|^2 != 1``.
    """
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise NotNormalizedInput("transfer coefficients must satisfy |alpha|^2 + |beta|^2 = 1")
    ctx = _GateContext(params, dt=dt)
    psi0, target = _qst_states(ctx.space, alpha, beta, source)
    traj = ctx.evolve(psi0, np.linspace(0.0, ctx.duration, int(n_times)))
    dark = zeno_decompose(build_h_dd(ctx.space, params.g_list)).dark_projector()
    survival = traj.population_series(dark)
    traj.observables["dark_survival"] = survival
    traj.observables["target_fidelity"] = traj.fidelity_series(target)
    return QstResult(
        alpha=complex(alpha),
        beta=complex(beta),
        fidelity=float(fidelity(target, traj.final_state)),
        dark_survival_min=float(np.min(survival)),
        trajectory=traj,
    )


# -- Zeno convergence ------------------------------------------------------------


def zeno_convergence_report(k_values, omega: float = 1.0, n_times: int = 201) -> list:
    """Deviation of the strong-coupling limit flow from the full dynamics.

    For each coupling ratio K (>= 1) the register evolves from the swap
    entry ket under drive + coupling with g = K, at fixed drive ``omega``.
    The reported deviation is ``max_t | P0 psi_full(t) - psi_limit(t) |``
    over one cycle, with P0 the dark projector.  Returns ``(K, deviation)``
    pairs in the input order.
    """
    k_values = [float(k) for k in k_values]
    if any(k < 1.0 for k in k_values):
        raise ValueError("coupling ratios must be >= 1")
    space = build_space(2)
    psi0 = basis_state(space, ("up", "down", "aux"))
    drive = build_h_drive(space, omega)
    decomp = zeno_decompose(build_h_dd(space, (1.0, 1.0)))
    dark = decomp.dark_projector()
    times = np.linspace(0.0, math.pi / omega, int(n_times))
    report = []
    for k in k_values:
        h_full = drive + build_h_dd(space, (k, k))
        full = evolve_unitary(h_full, psi0, times).states
        limit = evolve_unitary(zeno_limit_generator(decomp, drive, k), psi0, times).states
        deviation = np.max(np.linalg.norm(full @ dark.T - limit, axis=1))
        report.append((k, float(deviation)))
    return report


# -- sweep machinery -------------------------------------------------------------


@dataclass
class SweepSpec:
    """A named experiment with optional axis overrides and fixed parameters."""

    experiment: str
    axes: dict | None = None
    fixed: dict = field(default_factory=dict)
    dt: float | None = None


@dataclass
class SweepResult:
    """Columnar records of one sweep, row-major over the axes in order."""

    experiment: str
    axes: dict
    columns: list
    data: dict
    metadata: dict

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.data.values())))


def _anchor(name: str, measured: float, low=None, high=None, note: str | None = None) -> dict:
    """Reference-anchor record: measured value vs expected band, never hidden."""
    satisfied = True
    if low is not None and measured < low:
        satisfied = False
    if high is not None and measured > high:
        satisfied = False
    entry = {"name": name, "measured": float(measured), "satisfied": satisfied}
    if low is not None:
        entry["low"] = float(low)
    if high is not None:
        entry["high"] = float(high)
    if note:
        entry["note"] = note
    return entry


def _params_from_fixed(fixed: dict, **overrides) -> SystemParams:
    kwargs = {
        "omega": fixed.get("omega_over_g", OMEGA_DEFAULT),
        "delta": fixed.get("delta_over_g", 0.0),
        "gamma_nv": fixed.get("gamma_nv_over_g", 0.0),
        "gamma_n": fixed.get("gamma_n_over_g", 0.0),
    }
    kwargs.update(overrides)
    return SystemParams(**kwargs)


def _alpha_beta(fixed: dict) -> tuple[complex, complex]:
    alpha = complex(fixed.get("alpha", 1.0 / math.sqrt(2.0)))
    beta = complex(fixed.get("beta", 1.0 / math.sqrt(2.0)))
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise NotNormalizedInput("alpha/beta must satisfy |alpha|^2 + |beta|^2 = 1")
    return alpha, beta


def _channel_note(fixed: dict, sweeps_nv: bool = False, sweeps_n: bool = False) -> list:
    """Decay channels a sweep runs with: swept rates and nonzero fixed rates."""
    notes = []
    if sweeps_nv or fixed.get("gamma_nv_over_g", 0.0):
        notes.append("nv: up->down at rate gamma_nv")
    if sweeps_n or fixed.get("gamma_n_over_g", 0.0):
        notes.append("nucleus 1: up->down at rate gamma_n")
        notes.append("nucleus 2: up->down at rate gamma_n")
    return notes or ["none (closed system)"]


def _gate_basis_average(params: SystemParams, dt: float | None) -> tuple[float, dict]:
    """Average fidelity over the four computational inputs (no probe input)."""
    ctx = _GateContext(params, dt=dt)
    total = 0.0
    for label in BASIS_LABELS:
        out_label, _ = IDEAL_GATE_MAP[label]
        total += fidelity(ctx.kets[out_label], ctx.evolve(ctx.kets[label]).final_state)
    return total / 4.0, ctx.diagnostics


def _qst_point_fidelity(params: SystemParams, alpha, beta, dt: float | None) -> tuple[float, dict]:
    ctx = _GateContext(params, dt=dt)
    psi0, target = _qst_states(ctx.space, alpha, beta, 1)
    final = ctx.evolve(psi0).final_state
    return float(fidelity(target, final)), ctx.diagnostics


# -- named experiment runners ------------------------------------------------------


def _run_ratio_sweep(axes, fixed, dt):
    grid = axes["omega_over_g"]
    results = [run_gate(_params_from_fixed(fixed, omega=float(om)), dt=dt) for om in grid]
    avg = np.array([r.average_fidelity for r in results])
    sup = np.array([r.superposition_fidelity for r in results])
    diagnostics: dict = {}
    for r in results:
        diagnostics = _merge_diagnostics(diagnostics, r.diagnostics)
    anchors = []
    near = np.abs(grid - 0.15) < 1e-9
    if np.any(near):
        anchors.append(
            _anchor("fidelity_avg at omega_over_g = 0.15", float(avg[near][0]), low=0.96, high=1.0)
        )
    if grid.size > 1:
        max_rise = float(np.max(np.diff(avg)))
        anchors.append(
            _anchor(
                "monotone decrease (max adjacent rise, slack 1e-3)",
                max_rise,
                high=1e-3,
                note="closed-system leakage oscillates on top of the decreasing envelope",
            )
        )
    data = {"fidelity_avg": avg, "fidelity_superposition": sup}
    return data, {
        "reference_anchors": anchors,
        "decay_channels": _channel_note(fixed),
        "integrator": diagnostics,
    }


def _run_detuning_population(axes, fixed, dt):
    ratios = axes["delta_over_omega"]
    omega = fixed.get("omega_over_g", OMEGA_DEFAULT)
    hold = basis_state(build_space(2), ("down", "down", "aux"))
    times = axes["t_over_T"] * (math.pi / omega)
    series = []
    diagnostics: dict = {}
    for ratio in ratios:
        ctx = _GateContext(_params_from_fixed(fixed, omega=omega, delta=float(ratio) * omega), dt)
        series.append(ctx.evolve(hold, times).population_series(hold))
        diagnostics = _merge_diagnostics(diagnostics, ctx.diagnostics)
    anchors = []
    small = ratios <= 0.2 + 1e-12
    if np.any(small):
        worst = float(np.min(np.concatenate([series[i] for i in np.nonzero(small)[0]])))
        anchors.append(
            _anchor("min population of |down,down,aux> for delta/omega <= 0.2", worst, low=0.98)
        )
    return (
        {"population": np.concatenate(series)},
        {
            "reference_anchors": anchors,
            "decay_channels": _channel_note(fixed),
            "integrator": diagnostics,
        },
    )


def _run_decay_trajectory(axes, fixed, dt):
    t_over = axes["t_over_T"]
    params = _params_from_fixed(fixed)
    ctx = _GateContext(params)
    times = t_over * ctx.duration
    space = ctx.space
    configs = {"up_up": (1, 1), "down_up": (0, 1)}
    series = {}
    diagnostics: dict = {}
    for input_label, watch in (("up_up", "up_up"), ("up_down", "down_up")):
        traj = evolve_lindblad(ctx.h, ctx.channels, ctx.kets[input_label], times, dt=dt)
        diagnostics = _merge_diagnostics(diagnostics, traj.diagnostics)
        n1, n2 = configs[watch]
        cfg = n1 * 2 + n2
        series[watch] = np.array(
            [float(np.real(nuclear_reduced_state(space, rho)[cfg, cfg])) for rho in traj.states]
        )
    anchors = [
        _anchor(
            "final nuclear population (input up_up)", float(series["up_up"][-1]),
            low=0.975, high=0.995,
            note="target 0.985 +- 0.01; sensitive to the decay-channel convention",
        ),
        _anchor(
            "final nuclear population (input up_down)", float(series["down_up"][-1]),
            low=0.975, high=0.995,
            note="target 0.985 +- 0.01; sensitive to the decay-channel convention",
        ),
    ]
    return (
        {"population_up_up": series["up_up"], "population_down_up": series["down_up"]},
        {
            "reference_anchors": anchors,
            "decay_channels": _channel_note(fixed),
            "integrator": diagnostics,
        },
    )


def _run_decay_surface(axes, fixed, dt):
    results = [
        _gate_basis_average(_params_from_fixed(fixed, gamma_nv=float(a), gamma_n=float(b)), dt)
        for a in axes["gamma_nv_over_g"]
        for b in axes["gamma_n_over_g"]
    ]
    fid = np.array([r[0] for r in results])
    diagnostics: dict = {}
    for _, diag in results:
        diagnostics = _merge_diagnostics(diagnostics, diag)
    anchors = [
        _anchor(
            "min gate fidelity over the decay grid", float(np.min(fid)), low=0.96,
            note="sensitive to the decay-channel convention",
        )
    ]
    return (
        {"fidelity_avg": fid},
        {
            "reference_anchors": anchors,
            "decay_channels": _channel_note(fixed, sweeps_nv=True, sweeps_n=True),
            "integrator": diagnostics,
        },
    )


def _systematic_runner(axes, fixed, dt, time_axis: bool):
    g_grid = axes["delta_g_over_g"]
    other_name = "delta_t_over_t" if time_axis else "delta_omega_over_omega"
    other_grid = axes[other_name]
    alpha, beta = _alpha_beta(fixed)
    omega = fixed.get("omega_over_g", OMEGA_DEFAULT)
    duration = math.pi / omega
    space = build_space(2)
    psi0, target = _qst_states(space, alpha, beta, 1)
    points = [(float(dg), float(dx)) for dg in g_grid for dx in other_grid]

    def point(pair):
        dg, dx = pair
        scale_t = 1.0 + dx if time_axis else 1.0
        omega_run = omega if time_axis else omega * (1.0 + dx)
        h = build_h_drive(space, omega_run) + build_h_dd(space, (1.0 + dg, 1.0 + dg))
        final = evolve_unitary(h, psi0, (0.0, duration * scale_t)).final_state
        return float(fidelity(target, final))

    fid = np.array([point(pair) for pair in points])
    anchors = []
    target_pt = (0.1, 0.1)
    for i, pair in enumerate(points):
        if abs(pair[0] - target_pt[0]) < 1e-9 and abs(pair[1] - target_pt[1]) < 1e-9:
            anchors.append(
                _anchor(
                    f"transfer fidelity at (delta_g, {other_name}) = (0.1, 0.1)",
                    float(fid[i]),
                    low=0.98,
                    note="fidelity convention <target|rho|target>; see metric notes",
                )
            )
            break
    return (
        {"fidelity": fid},
        {"reference_anchors": anchors, "decay_channels": _channel_note(fixed),
         "transfer_input": {"alpha": abs(alpha) ** 2, "beta": abs(beta) ** 2}},
    )


def _run_survival_map(axes, fixed, dt):
    t_over = np.asarray(axes["t_over_T"], dtype=float)
    om_grid = np.asarray(axes["omega_over_g"], dtype=float)
    tt, om = np.meshgrid(t_over, om_grid, indexing="ij")
    t_abs = tt * (math.pi / om)
    p0 = np.array(
        [
            survival_probability(1.0, float(om_grid[j]), t_abs[:, j])
            for j in range(om_grid.size)
        ]
    ).T
    anchors = []
    low_om = om_grid <= 0.05 + 1e-12
    if np.any(low_om):
        anchors.append(
            _anchor(
                "min survival for omega_over_g <= 0.05",
                float(np.min(p0[:, low_om])),
                low=0.99,
            )
        )
    return (
        {"p0": p0.reshape(-1)},
        {"reference_anchors": anchors, "decay_channels": _channel_note(fixed)},
    )


def _run_survival_map_full(axes, fixed, dt):
    t_over = np.asarray(axes["t_over_T"], dtype=float)
    om_grid = np.asarray(axes["omega_over_g"], dtype=float)
    space = build_space(2)
    psi0 = basis_state(space, ("down", "down", "aux"))
    aux_proj = nv_projector(space, "aux")
    h_dd = build_h_dd(space, (1.0, 1.0))

    def column(om):
        h = build_h_drive(space, float(om)) + h_dd
        times = t_over * (math.pi / float(om))
        traj = evolve_unitary(h, psi0, times)
        return traj.population_series(aux_proj)

    p_aux = np.stack([column(om) for om in om_grid], axis=1)
    return (
        {"p_nv_aux": p_aux.reshape(-1)},
        {
            "reference_anchors": [],
            "decay_channels": _channel_note(fixed),
            "note": "full-register counterpart of survival_map; initial ket |down,down,aux>",
        },
    )


def _qst_decoherence_runner(axes, fixed, dt, nv: bool):
    gamma_name = "gamma_nv_over_g" if nv else "gamma_n_over_g"
    gamma_grid = axes[gamma_name]
    delta_grid = axes["delta_over_g"]
    alpha, beta = _alpha_beta(fixed)
    points = [(float(g), float(d)) for g in gamma_grid for d in delta_grid]

    def point(pair):
        g, d = pair
        overrides = {"gamma_nv": g} if nv else {"gamma_n": g}
        params = _params_from_fixed(fixed, delta=d, **overrides)
        return _qst_point_fidelity(params, alpha, beta, dt)

    results = [point(pair) for pair in points]
    fid = np.array([r[0] for r in results])
    diagnostics: dict = {}
    for _, diag in results:
        diagnostics = _merge_diagnostics(diagnostics, diag)
    anchors = []
    bound = 0.94 if nv else 0.97
    for i, pair in enumerate(points):
        if abs(pair[0] - 0.01) < 1e-9 and abs(pair[1] - 0.01) < 1e-9:
            anchors.append(
                _anchor(
                    f"transfer fidelity at ({gamma_name}, delta_over_g) = (0.01, 0.01)",
                    float(fid[i]),
                    low=bound,
                    note="sensitive to the decay-channel and fidelity-metric conventions",
                )
            )
            break
    return (
        {"fidelity": fid},
        {
            "reference_anchors": anchors,
            "decay_channels": _channel_note(fixed, sweeps_nv=nv, sweeps_n=not nv),
            "integrator": diagnostics,
            "transfer_input": {"alpha": abs(alpha) ** 2, "beta": abs(beta) ** 2},
        },
    )


# -- registry ---------------------------------------------------------------------


_TRANSFER_INPUTS = ("omega_over_g", "alpha", "beta")


@dataclass(frozen=True)
class ExperimentInfo:
    """Registry entry; ``inputs`` names the fixed keys (and ``dt``) the runner reads."""

    name: str
    description: str
    figure: str
    axis_names: tuple
    value_columns: tuple
    default_axes: object
    runner: object
    inputs: tuple
    default_fixed: dict = field(default_factory=dict)


EXPERIMENTS = {
    info.name: info
    for info in (
        ExperimentInfo(
            name="ratio_sweep",
            description="entangling-gate fidelity vs drive/coupling ratio, closed system",
            figure="2",
            axis_names=("omega_over_g",),
            value_columns=("fidelity_avg", "fidelity_superposition"),
            default_axes=lambda: {"omega_over_g": np.linspace(0.005, 0.25, 50)},
            runner=_run_ratio_sweep,
            inputs=("delta_over_g", "gamma_nv_over_g", "gamma_n_over_g", "dt"),
        ),
        ExperimentInfo(
            name="detuning_population",
            description="population of |down,down,aux> over one cycle vs drive detuning",
            figure="3",
            axis_names=("delta_over_omega", "t_over_T"),
            value_columns=("population",),
            default_axes=lambda: {
                "delta_over_omega": np.linspace(0.0, 0.5, 6),
                "t_over_T": np.linspace(0.0, 1.0, 201),
            },
            runner=_run_detuning_population,
            inputs=("omega_over_g", "gamma_nv_over_g", "gamma_n_over_g", "dt"),
        ),
        ExperimentInfo(
            name="decay_trajectory",
            description="nuclear populations during the gate with both decay rates at 0.001",
            figure="4a",
            axis_names=("t_over_T",),
            value_columns=("population_up_up", "population_down_up"),
            default_axes=lambda: {"t_over_T": np.linspace(0.0, 1.0, 201)},
            runner=_run_decay_trajectory,
            inputs=("omega_over_g", "delta_over_g", "gamma_nv_over_g", "gamma_n_over_g", "dt"),
            default_fixed={"gamma_nv_over_g": 0.001, "gamma_n_over_g": 0.001},
        ),
        ExperimentInfo(
            name="decay_surface",
            description="average gate fidelity vs NV and nuclear decay rates",
            figure="4b",
            axis_names=("gamma_nv_over_g", "gamma_n_over_g"),
            value_columns=("fidelity_avg",),
            default_axes=lambda: {
                "gamma_nv_over_g": np.linspace(0.0, 0.002, 9),
                "gamma_n_over_g": np.linspace(0.0, 0.002, 9),
            },
            runner=_run_decay_surface,
            inputs=("omega_over_g", "delta_over_g", "dt"),
        ),
        ExperimentInfo(
            name="systematic_omega_g",
            description="state-transfer fidelity vs fixed offsets of coupling and drive amplitude",
            figure="6a",
            axis_names=("delta_g_over_g", "delta_omega_over_omega"),
            value_columns=("fidelity",),
            default_axes=lambda: {
                "delta_g_over_g": np.linspace(-0.1, 0.1, 9),
                "delta_omega_over_omega": np.linspace(-0.1, 0.1, 9),
            },
            runner=partial(_systematic_runner, time_axis=False),
            inputs=_TRANSFER_INPUTS,
        ),
        ExperimentInfo(
            name="systematic_t_g",
            description="state-transfer fidelity vs fixed offsets of coupling and cycle time",
            figure="6b",
            axis_names=("delta_g_over_g", "delta_t_over_t"),
            value_columns=("fidelity",),
            default_axes=lambda: {
                "delta_g_over_g": np.linspace(-0.1, 0.1, 9),
                "delta_t_over_t": np.linspace(-0.1, 0.1, 9),
            },
            runner=partial(_systematic_runner, time_axis=True),
            inputs=_TRANSFER_INPUTS,
        ),
        ExperimentInfo(
            name="survival_map",
            description="closed-form drive-survival probability vs scaled time and ratio",
            figure="7",
            axis_names=("t_over_T", "omega_over_g"),
            value_columns=("p0",),
            default_axes=lambda: {
                "t_over_T": np.linspace(0.0, 1.0, 100),
                "omega_over_g": np.linspace(0.005, 0.25, 100),
            },
            runner=_run_survival_map,
            inputs=(),
        ),
        ExperimentInfo(
            name="survival_map_full",
            description="full-register survival of the NV aux level (comparison to survival_map)",
            figure="7 (full model)",
            axis_names=("t_over_T", "omega_over_g"),
            value_columns=("p_nv_aux",),
            default_axes=lambda: {
                "t_over_T": np.linspace(0.0, 1.0, 100),
                "omega_over_g": np.linspace(0.005, 0.25, 100),
            },
            runner=_run_survival_map_full,
            inputs=(),
        ),
        ExperimentInfo(
            name="qst_decoherence_n",
            description="state-transfer fidelity vs nuclear decay rate and detuning",
            figure="8a",
            axis_names=("gamma_n_over_g", "delta_over_g"),
            value_columns=("fidelity",),
            default_axes=lambda: {
                "gamma_n_over_g": np.linspace(0.0, 0.01, 9),
                "delta_over_g": np.linspace(0.0, 0.01, 9),
            },
            runner=partial(_qst_decoherence_runner, nv=False),
            inputs=_TRANSFER_INPUTS + ("gamma_nv_over_g", "dt"),
        ),
        ExperimentInfo(
            name="qst_decoherence_nv",
            description="state-transfer fidelity vs NV decay rate and detuning",
            figure="8b",
            axis_names=("gamma_nv_over_g", "delta_over_g"),
            value_columns=("fidelity",),
            default_axes=lambda: {
                "gamma_nv_over_g": np.linspace(0.0, 0.01, 9),
                "delta_over_g": np.linspace(0.0, 0.01, 9),
            },
            runner=partial(_qst_decoherence_runner, nv=True),
            inputs=_TRANSFER_INPUTS + ("gamma_n_over_g", "dt"),
        ),
    )
}

_AXIS_POSITIVE = {"omega_over_g"}
_AXIS_NONNEGATIVE = {"gamma_nv_over_g", "gamma_n_over_g", "t_over_T"}


def _validate_axis(name: str, grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise OutOfRange(f"axis {name!r} must be a nonempty 1-d grid")
    if not np.all(np.isfinite(grid)):
        raise OutOfRange(f"axis {name!r} contains non-finite values")
    if name in _AXIS_POSITIVE and np.any(grid <= 0):
        raise OutOfRange(f"axis {name!r} must be strictly positive")
    if name in _AXIS_NONNEGATIVE and np.any(grid < 0):
        raise OutOfRange(f"axis {name!r} must be nonnegative")
    return grid


def sweep(spec: SweepSpec) -> SweepResult:
    """Run a named experiment over its parameter grid.

    Axis overrides are merged over the experiment defaults; records come
    back row-major over the axes in registry order, one per grid point.

    Raises:
        UnknownExperiment: if the name is not registered.
        OutOfRange: for empty, non-finite, or out-of-domain grids.
        UnknownKey: for a fixed key (or ``dt``) the experiment does not read.
    """
    info = EXPERIMENTS.get(spec.experiment)
    if info is None:
        raise UnknownExperiment(
            f"unknown experiment {spec.experiment!r}; known: {', '.join(sorted(EXPERIMENTS))}"
        )
    axes = info.default_axes()
    for name, grid in (spec.axes or {}).items():
        if name not in info.axis_names:
            raise OutOfRange(
                f"{name!r} is not a sweep axis of {info.name!r} (axes: {info.axis_names})"
            )
        axes[name] = grid
    axes = {name: _validate_axis(name, axes[name]) for name in info.axis_names}

    unread = sorted(set(spec.fixed).union(["dt"] if spec.dt is not None else []) - set(info.inputs))
    if unread:
        raise UnknownKey(f"{info.name!r} does not read {unread}; it reads {list(info.inputs)}")
    fixed = {**info.default_fixed, **spec.fixed}
    data, extra = info.runner(axes, fixed, spec.dt)

    n_rows = int(np.prod([axes[name].size for name in info.axis_names]))
    grids = np.meshgrid(*[axes[name] for name in info.axis_names], indexing="ij")
    columns = list(info.axis_names) + list(info.value_columns)
    table = {name: grid.reshape(-1) for name, grid in zip(info.axis_names, grids)}
    for name in info.value_columns:
        values = np.asarray(data[name], dtype=float).reshape(-1)
        if values.size != n_rows:
            raise DimensionMismatch(
                f"runner produced {values.size} values for {name!r}, expected {n_rows}"
            )
        table[name] = values

    metadata = {
        "experiment": info.name,
        "figure": info.figure,
        "description": info.description,
        "version": __version__,
        "fixed": {k: fixed[k] for k in sorted(fixed)},
        "axes": {
            name: {
                "from": float(axes[name][0]),
                "to": float(axes[name][-1]),
                "points": int(axes[name].size),
            }
            for name in info.axis_names
        },
    }
    metadata.update(extra)
    return SweepResult(
        experiment=info.name,
        axes=axes,
        columns=columns,
        data=table,
        metadata=metadata,
    )
