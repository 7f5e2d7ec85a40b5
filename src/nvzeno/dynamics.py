"""Time evolution: exact unitary propagation and fixed-step Lindblad integration.

Closed-system evolution uses the spectral propagator, so norms are preserved
to machine precision.  Open-system evolution integrates

    d rho / dt = -i [H, rho]
                 + sum_k gamma_k (s_k rho s_k^dag - {s_k^dag s_k, rho} / 2)

for a static generator H with a classical fixed-step fourth-order (RK4)
scheme on the density matrix.  The RK4 step of a linear equation is exactly
the degree-4 Taylor polynomial M of the one-step flow, so n uniform steps
over an output interval are the matrix power M^n, built by repeated squaring
and applied to the state in one product.  The state is re-symmetrized
(rho <- (rho + rho^dag)/2) at every output time, where its trace,
Hermiticity defect and positivity are also checked.  The Liouvillian and its
interval powers are kept for the most recent generator, so consecutive runs
of several inputs under one generator build them once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NotNormalized,
    PositivityViolation,
    StepCountExceeded,
    StepTooLarge,
)
from .linalg import dagger, eig_hermitian, hermiticity_defect, max_abs, require_hermitian
from .model import CollapseChannel

#: Output states may carry eigenvalues this far below zero before the run aborts.
POSITIVITY_ABORT = -1e-5

#: Guard on the fixed step: dt <= STEP_GUARD / max(|H|, sum of rates).
STEP_GUARD = 0.02

#: Default step: DEFAULT_STEP_SCALE / max(|H|, 1).
DEFAULT_STEP_SCALE = 0.005

#: Largest dense d^2 x d^2 Liouvillian built, in bytes.  Four nuclei (d = 48)
#: need 85 MB per matrix; five (d = 96) would need 1.4 GB.
MAX_LIOUVILLIAN_BYTES = 2**28

#: Largest total number of RK4 steps over one run's output grid.  Beyond it
#: the rounding error of the interval powers outgrows the truncation error.
MAX_RK4_STEPS = 10**7


@dataclass
class Trajectory:
    """States on a strictly increasing time grid, with derived observables.

    ``states`` has shape ``(n_times, dim)`` for pure states or
    ``(n_times, dim, dim)`` for density matrices.  ``observables`` holds
    named real series added by callers; ``diagnostics`` records integrator
    health (trace/Hermiticity/positivity extremes).
    """

    times: np.ndarray
    states: np.ndarray
    observables: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_density(self) -> bool:
        return self.states.ndim == 3

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def population_series(self, target) -> np.ndarray:
        """Population of a basis/pure state or projector at every time."""
        return np.array([population(s, target) for s in self.states])

    def fidelity_series(self, target) -> np.ndarray:
        """Fidelity against a pure target at every time."""
        return np.array([fidelity(target, s) for s in self.states])


def _check_times(times) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise DimensionMismatch("time grid must not be empty")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")
    return times


def _check_state(psi, dim: int | None = None, tol: float = 1e-9) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise DimensionMismatch(f"expected a state vector, got shape {psi.shape}")
    if dim is not None and psi.shape[0] != dim:
        raise DimensionMismatch(f"state dimension {psi.shape[0]} != {dim}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > tol:
        raise NotNormalized(f"state norm {norm} deviates from 1 beyond {tol}")
    return psi


def validate_density_matrix(rho, tol: float = 1e-9) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a density matrix.

    Accepts a pure-state vector (promoted to its projector).  Eigenvalues
    above ``-1e-7`` are tolerated as roundoff.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim == 1:
        rho = np.outer(_check_state(rho, tol=tol), rho.conj())
        return rho
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {rho.shape}")
    if hermiticity_defect(rho) > tol:
        raise NotNormalized("density matrix is not Hermitian")
    trace = float(np.real(np.trace(rho)))
    if abs(trace - 1.0) > tol:
        raise NotNormalized(f"density matrix trace {trace} deviates from 1")
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))))
    if min_eig < -1e-7:
        raise PositivityViolation(f"density matrix eigenvalue {min_eig:.3e} < -1e-7")
    return rho


# -- closed-system evolution -----------------------------------------------------


def evolve_unitary(h, psi0, times) -> Trajectory:
    """Evolve ``psi0`` under a static Hermitian generator on a time grid.

    States are ``exp(-i h t) psi0`` computed in the eigenbasis, so the norm
    is preserved to machine precision.

    Raises:
        NotHermitian: if ``h`` fails the symmetry check.
        NotNormalized: if ``psi0`` is not a unit vector.
    """
    times = _check_times(times)
    eig = eig_hermitian(h)
    psi0 = _check_state(psi0, eig.dim)
    coeffs = dagger(eig.eigenvectors) @ psi0
    phases = np.exp(-1j * np.outer(times, eig.eigenvalues))
    states = (phases * coeffs) @ eig.eigenvectors.T
    norms = np.linalg.norm(states, axis=1)
    return Trajectory(
        times=times,
        states=states,
        diagnostics={"max_norm_deviation": float(np.max(np.abs(norms - 1.0)))},
    )


# -- Lindblad integration ---------------------------------------------------------


def _liouvillian(h: np.ndarray, channels) -> np.ndarray:
    """Vectorized generator acting on row-major vec(rho).

    Raises:
        DimensionMismatch: if the dense matrix would exceed
            :data:`MAX_LIOUVILLIAN_BYTES` (checked before allocating).
    """
    dim = h.shape[0]
    nbytes = dim**4 * np.dtype(complex).itemsize
    if nbytes > MAX_LIOUVILLIAN_BYTES:
        raise DimensionMismatch(
            f"Liouvillian of dimension {dim}**2 needs {nbytes / 2**20:.0f} MiB, "
            f"above the guard of {MAX_LIOUVILLIAN_BYTES / 2**20:.0f} MiB"
        )
    eye = np.eye(dim, dtype=complex)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for ch in channels:
        s = np.asarray(ch.operator, dtype=complex)
        if s.shape != (dim, dim):
            raise DimensionMismatch(
                f"channel operator shape {s.shape} != {(dim, dim)}"
            )
        sd_s = dagger(s) @ s
        lv += ch.rate * (
            np.kron(s, s.conj())
            - 0.5 * (np.kron(sd_s, eye) + np.kron(eye, sd_s.T))
        )
    return lv


def _rk4_transfer(lv: np.ndarray, h_step: float) -> np.ndarray:
    """One-step RK4 flow of a linear equation: degree-4 Taylor polynomial."""
    x = h_step * lv
    eye = np.eye(lv.shape[0], dtype=complex)
    m = eye + 0.25 * x
    m = eye + (x / 3.0) @ m
    m = eye + 0.5 * x @ m
    return eye + x @ m


def _symmetrize(rho: np.ndarray) -> np.ndarray:
    return 0.5 * (rho + rho.conj().T)


@dataclass
class _Flow:
    """Liouvillian of one generator and its RK4 powers keyed by ``(h_step, n)``."""

    key: tuple
    lv: np.ndarray
    powers: dict = field(default_factory=dict)

    def power(self, h_step: float, n_steps: int) -> np.ndarray:
        m = self.powers.get((h_step, n_steps))
        if m is None:
            m = np.linalg.matrix_power(_rk4_transfer(self.lv, h_step), n_steps)
            self.powers[(h_step, n_steps)] = m
        return m


#: The flow of the most recent generator (a one-entry memo).
_last_flow: _Flow | None = None


def _flow(h: np.ndarray, channels, dt: float) -> _Flow:
    """The memoized flow of ``(h, channels, dt)``, rebuilt when any differs."""
    global _last_flow
    key = (h.shape, h.tobytes(), dt) + tuple(
        (np.shape(ch.operator), np.asarray(ch.operator, dtype=complex).tobytes(), float(ch.rate))
        for ch in channels
    )
    if _last_flow is None or _last_flow.key != key:
        _last_flow = None
        _last_flow = _Flow(key, _liouvillian(h, channels))
    return _last_flow


def evolve_lindblad(h, channels, rho0, times, dt: float | None = None) -> Trajectory:
    """Integrate the Lindblad equation with a fixed-step RK4 scheme.

    Each output interval is covered by ``n`` uniform RK4 steps, applied as
    the ``n``-th power of the one-step transfer matrix.  The state is
    re-symmetrized at output times only; ``max_hermiticity_deviation`` is
    the defect accumulated over an interval, read at its output time.

    Args:
        h: static Hermitian generator.
        channels: iterable of :class:`~nvzeno.model.CollapseChannel`.
        rho0: density matrix (or pure-state vector) at ``times[0]``.
        times: strictly increasing output grid; integration starts at its
            first entry.
        dt: fixed step; defaults to ``0.005 / max(|H|, 1)``.  Each output
            interval is covered by uniform steps no larger than ``dt``.

    Raises:
        StepTooLarge: if ``dt`` exceeds ``0.02 / max(|H|, sum gamma)``.
        StepCountExceeded: if the grid needs more than
            :data:`MAX_RK4_STEPS` steps (checked before any build).
        DimensionMismatch: if the shapes disagree, or the dense Liouvillian
            would exceed :data:`MAX_LIOUVILLIAN_BYTES`.
        PositivityViolation: if an output state's smallest eigenvalue drops
            below ``-1e-5`` (integration failure; smaller negatives are
            tolerated and recorded in the diagnostics).
    """
    times = _check_times(times)
    channels = [ch if isinstance(ch, CollapseChannel) else CollapseChannel(*ch) for ch in channels]
    rho = validate_density_matrix(rho0)
    dim = rho.shape[0]

    h = require_hermitian(h)
    if h.shape[0] != dim:
        raise DimensionMismatch(f"generator dimension {h.shape[0]} != state dimension {dim}")
    norm_h = float(np.max(np.abs(np.linalg.eigvalsh(h)))) if dim else 0.0
    total_rate = float(sum(ch.rate for ch in channels))

    if dt is None:
        dt = DEFAULT_STEP_SCALE / max(norm_h, 1.0)
    dt = float(dt)
    if dt <= 0:
        raise StepTooLarge("step must be positive")
    guard = max(norm_h, total_rate)
    if guard > 0 and dt > STEP_GUARD / guard:
        raise StepTooLarge(
            f"dt = {dt:.3g} exceeds the guard {STEP_GUARD / guard:.3g} "
            f"for |H| = {norm_h:.3g}, total rate = {total_rate:.3g}"
        )

    spans = np.diff(times)
    steps = np.maximum(1.0, np.ceil(spans / dt - 1e-12))
    total_steps = float(np.sum(steps))
    if total_steps > MAX_RK4_STEPS:
        raise StepCountExceeded(
            f"dt = {dt:.3g} needs {total_steps:.3g} RK4 steps over the grid, "
            f"above the guard of {MAX_RK4_STEPS:.3g}"
        )

    flow = _flow(h, channels, dt)
    states = np.empty((times.size, dim, dim), dtype=complex)
    max_trace_dev = 0.0
    max_herm_dev = 0.0
    min_eig = np.inf

    for i in range(times.size):
        if i > 0:
            n_steps = int(steps[i - 1])
            m = flow.power(float(spans[i - 1]) / n_steps, n_steps)
            raw = (m @ rho.reshape(-1)).reshape(dim, dim)
            max_herm_dev = max(max_herm_dev, max_abs(raw - dagger(raw)))
            rho = _symmetrize(raw)
        max_trace_dev = max(max_trace_dev, abs(float(np.real(np.trace(rho))) - 1.0))
        low = float(np.linalg.eigvalsh(rho)[0])
        min_eig = min(min_eig, low)
        if low < POSITIVITY_ABORT:
            raise PositivityViolation(
                f"eigenvalue {low:.3e} below {POSITIVITY_ABORT} at t = {times[i]:.6g}"
            )
        states[i] = rho

    return Trajectory(
        times=times,
        states=states,
        diagnostics={
            "dt": dt,
            "max_trace_deviation": max_trace_dev,
            "max_hermiticity_deviation": max_herm_dev,
            "min_eigenvalue": float(min_eig),
        },
    )


# -- observables -------------------------------------------------------------------


def fidelity(target, state) -> float:
    """Overlap of a pure target with a state: ``<target|rho|target>``.

    ``state`` may be a pure vector (giving ``|<target|psi>|^2``) or a
    density matrix.

    Raises:
        DimensionMismatch: if the dimensions differ.
        NotNormalized: if ``target`` is not a unit vector.
    """
    target = _check_state(target)
    state = np.asarray(state, dtype=complex)
    if state.shape[0] != target.shape[0]:
        raise DimensionMismatch(
            f"target dimension {target.shape[0]} != state dimension {state.shape[0]}"
        )
    if state.ndim == 1:
        return float(abs(np.vdot(target, state)) ** 2)
    if state.ndim == 2:
        return float(np.real(np.vdot(target, state @ target)))
    raise DimensionMismatch(f"unsupported state shape {state.shape}")


def population(state, target) -> float:
    """Occupation of a pure state or projector in ``state``.

    ``target`` may be a vector ``|e>`` (population ``<e|rho|e>`` or
    ``|<e|psi>|^2``) or a projector/observable matrix ``P`` (giving
    ``<psi|P|psi>`` or ``Re tr(P rho)``).
    """
    target = np.asarray(target, dtype=complex)
    state = np.asarray(state, dtype=complex)
    if target.ndim == 1:
        return fidelity(target, state)
    if target.ndim != 2:
        raise DimensionMismatch(f"unsupported target shape {target.shape}")
    if target.shape[0] != state.shape[0]:
        raise DimensionMismatch(
            f"target dimension {target.shape[0]} != state dimension {state.shape[0]}"
        )
    if state.ndim == 1:
        return float(np.real(np.vdot(state, target @ state)))
    return float(np.real(np.trace(target @ state)))


def expectation(op, state) -> float:
    """Real expectation value of a Hermitian observable."""
    return population(state, np.asarray(op, dtype=complex))
