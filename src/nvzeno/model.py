"""Physical model of N nuclear spin-1/2 qubits coupled to one driven NV spin.

The register is ``nucleus 1 (x) nucleus 2 (x) ... (x) NV`` with the NV factor
fastest, so a basis index reads ``(sum_i n_i 2^(N-i)) * 3 + nv``.  Nuclear
levels are ``down=0``/``up=1``; the NV triplet is mapped onto three working
levels:

* ``down`` (0): the magnetically polarized ground level (m_s = 0),
* ``up``   (1): the dipole-active level (m_s = -1),
* ``aux``  (2): the mechanically driven ancilla level (m_s = +1).

Two Hamiltonian pieces drive everything.  A stress wave resonantly couples
``aux`` and ``up`` on the NV with Rabi amplitude ``omega`` (optionally
detuned by ``delta``), and a magnetic dipole flip-flop exchanges one
excitation between the NV ``up``/``down`` transition and each nuclear spin
with strength ``g_i``.  Internally ``g = 1`` sets the unit system and time
is measured in ``1/g``; :func:`time_to_microseconds` converts to physical
units at the default operating point g = 2*pi x 2.0 MHz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadLabel,
    LengthMismatch,
    NegativeRabi,
    NonpositiveSeparation,
    TooManyNuclei,
)
from .linalg import dagger, kron

# -- level labels ------------------------------------------------------------

NUC_DOWN, NUC_UP = 0, 1
NV_DOWN, NV_UP, NV_AUX = 0, 1, 2

_NUCLEAR_LABELS = {"down": NUC_DOWN, "up": NUC_UP, 0: NUC_DOWN, 1: NUC_UP}
_NV_LABELS = {"down": NV_DOWN, "up": NV_UP, "aux": NV_AUX, 0: NV_DOWN, 1: NV_UP, 2: NV_AUX}

#: Reference coupling scale: the internal unit g = 1 equals 2*pi x 2.0 MHz.
G_REFERENCE_2PI_MHZ = 2.0

#: Default drive-to-coupling ratio at the operating point (2*pi x 210 kHz over g).
OMEGA_DEFAULT = 0.105


# -- Hilbert space -----------------------------------------------------------


@dataclass(frozen=True)
class HilbertSpace:
    """Basis bookkeeping for ``(spin-1/2)^N (x) (NV 3-level)``.

    Index layout: nucleus 1 varies slowest, the NV level fastest.
    """

    n_nuclei: int
    dim: int

    def index(self, labels) -> int:
        """Basis index of a product ket given per-factor labels.

        ``labels`` lists the N nuclear labels followed by the NV label;
        each entry may be an integer level or one of the strings
        ``"down"``/``"up"`` (nuclear) and ``"down"``/``"up"``/``"aux"`` (NV).
        """
        nuclear, nv = self._parse(labels)
        config = 0
        for n in nuclear:
            config = config * 2 + n
        return config * 3 + nv

    def labels(self, index: int) -> tuple:
        """Inverse of :meth:`index`; returns ``(n_1, ..., n_N, nv)``."""
        if not 0 <= index < self.dim:
            raise BadLabel(f"basis index {index} outside [0, {self.dim})")
        config, nv = divmod(index, 3)
        nuclear = []
        for _ in range(self.n_nuclei):
            config, n = divmod(config, 2)
            nuclear.append(n)
        return tuple(reversed(nuclear)) + (nv,)

    def _parse(self, labels) -> tuple[tuple[int, ...], int]:
        labels = tuple(labels)
        if len(labels) != self.n_nuclei + 1:
            raise BadLabel(
                f"need {self.n_nuclei} nuclear labels plus one NV label, got {len(labels)}"
            )
        try:
            nuclear = tuple(_NUCLEAR_LABELS[lab] for lab in labels[:-1])
            nv = _NV_LABELS[labels[-1]]
        except (KeyError, TypeError) as exc:
            raise BadLabel(f"unrecognized spin label in {labels!r}") from exc
        return nuclear, nv


def build_space(n_nuclei: int = 2) -> HilbertSpace:
    """Construct the register with ``n_nuclei`` nuclear spins (dimension 3 * 2^N).

    Raises:
        TooManyNuclei: above six nuclei (dense-matrix size guard).
    """
    n = int(n_nuclei)
    if n < 1 or n > 6:
        raise TooManyNuclei(f"n_nuclei must be in [1, 6], got {n_nuclei}")
    return HilbertSpace(n_nuclei=n, dim=3 * 2**n)


def basis_state(space: HilbertSpace, labels) -> np.ndarray:
    """Unit vector with amplitude 1 on the labeled product ket."""
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.index(labels)] = 1.0
    return psi


# -- local operator embedding -------------------------------------------------


def nv_operator(space: HilbertSpace, op3: np.ndarray) -> np.ndarray:
    """Embed a 3x3 NV operator into the full register."""
    return kron(np.eye(2**space.n_nuclei), op3)


def nuclear_operator(space: HilbertSpace, i: int, op2: np.ndarray) -> np.ndarray:
    """Embed a 2x2 operator acting on nucleus ``i`` (1-based) into the register."""
    if not 1 <= i <= space.n_nuclei:
        raise BadLabel(f"nucleus index {i} outside [1, {space.n_nuclei}]")
    left = np.eye(2 ** (i - 1))
    right = np.eye(2 ** (space.n_nuclei - i) * 3)
    return kron(kron(left, np.asarray(op2, dtype=complex)), right)


def _ketbra3(a: int, b: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[a, b] = 1.0
    return m


def _ketbra2(a: int, b: int) -> np.ndarray:
    m = np.zeros((2, 2), dtype=complex)
    m[a, b] = 1.0
    return m


def nv_projector(space: HilbertSpace, level) -> np.ndarray:
    """Projector onto one NV level, identity on the nuclei."""
    lv = _NV_LABELS.get(level)
    if lv is None:
        raise BadLabel(f"unknown NV level {level!r}")
    return nv_operator(space, _ketbra3(lv, lv))


# -- Hamiltonians --------------------------------------------------------------


def build_h_drive(space: HilbertSpace, omega: float, delta: float = 0.0) -> np.ndarray:
    """Mechanical drive on the NV ``aux <-> up`` transition, in the rotating frame.

    ``omega (|aux><up| + h.c.) + delta |aux><aux|`` (identity on the nuclei),
    the static generator of a drive detuned by ``delta``.  It differs from the
    explicit drive phase ``omega e^{-i delta t} |aux><up| + h.c.`` by a
    diagonal frame shift on ``aux`` and gives the same populations.

    Raises:
        NegativeRabi: if ``omega < 0``.
    """
    if omega < 0:
        raise NegativeRabi(f"drive amplitude must be nonnegative, got {omega}")
    raise_op = nv_operator(space, _ketbra3(NV_AUX, NV_UP))
    return omega * (raise_op + dagger(raise_op)) + delta * nv_projector(space, NV_AUX)


def build_h_dd(space: HilbertSpace, g_list) -> np.ndarray:
    """Flip-flop coupling between the NV ``up``/``down`` dipole and each nucleus.

    ``sum_i g_i (|down><up|_NV (x) |up><down|_i + h.c.)``.  The operator
    annihilates every ket with the NV in ``aux``.

    Raises:
        LengthMismatch: if ``len(g_list) != n_nuclei``.
    """
    g_list = tuple(float(g) for g in np.atleast_1d(g_list))
    if len(g_list) != space.n_nuclei:
        raise LengthMismatch(
            f"need {space.n_nuclei} couplings, got {len(g_list)}"
        )
    h = np.zeros((space.dim, space.dim), dtype=complex)
    nv_lower = nv_operator(space, _ketbra3(NV_DOWN, NV_UP))
    for i, g in enumerate(g_list, start=1):
        term = g * (nv_lower @ nuclear_operator(space, i, _ketbra2(NUC_UP, NUC_DOWN)))
        h += term + dagger(term)
    return h


def excitation_operator(space: HilbertSpace) -> np.ndarray:
    """Conserved excitation count: nuclear-up occupations plus NV ``up``/``aux``.

    Commutes with both the drive and the flip-flop coupling, so closed
    evolution stays inside one excitation sector.
    """
    op = nv_projector(space, NV_UP) + nv_projector(space, NV_AUX)
    for i in range(1, space.n_nuclei + 1):
        op = op + nuclear_operator(space, i, _ketbra2(NUC_UP, NUC_UP))
    return op


# -- collapse channels ---------------------------------------------------------


@dataclass(frozen=True)
class CollapseChannel:
    """One Lindblad jump operator with its rate (units of g)."""

    operator: np.ndarray
    rate: float
    label: str = ""

    def __post_init__(self):
        if self.rate < 0:
            raise NegativeRabi(f"collapse rate must be nonnegative, got {self.rate}")


def collapse_channels(
    space: HilbertSpace,
    gamma_nv: float,
    gamma_n: float,
    include_nv_aux_decay: bool = False,
    nv_dephasing: float = 0.0,
) -> list[CollapseChannel]:
    """Default relaxation channels; zero-rate channels are omitted.

    The default set keeps decay inside the simulated excitation manifold:
    the NV relaxes on its dipole-active transition ``up -> down`` at
    ``gamma_nv`` and each nucleus relaxes ``up -> down`` at ``gamma_n``.
    Two optional channels support sensitivity studies and are off by
    default: direct ``aux -> down`` NV decay (same rate as ``gamma_nv``)
    and a sigma_z-type NV dephasing channel.
    """
    if gamma_nv < 0 or gamma_n < 0:
        raise NegativeRabi("relaxation rates must be nonnegative")
    channels = []
    if gamma_nv > 0:
        channels.append(
            CollapseChannel(
                operator=nv_operator(space, _ketbra3(NV_DOWN, NV_UP)),
                rate=float(gamma_nv),
                label="nv: up->down",
            )
        )
        if include_nv_aux_decay:
            channels.append(
                CollapseChannel(
                    operator=nv_operator(space, _ketbra3(NV_DOWN, NV_AUX)),
                    rate=float(gamma_nv),
                    label="nv: aux->down",
                )
            )
    if gamma_n > 0:
        for i in range(1, space.n_nuclei + 1):
            channels.append(
                CollapseChannel(
                    operator=nuclear_operator(space, i, _ketbra2(NUC_DOWN, NUC_UP)),
                    rate=float(gamma_n),
                    label=f"nucleus {i}: up->down",
                )
            )
    if nv_dephasing > 0:
        sz_like = _ketbra3(NV_UP, NV_UP) - _ketbra3(NV_DOWN, NV_DOWN)
        channels.append(
            CollapseChannel(
                operator=nv_operator(space, sz_like),
                rate=float(nv_dephasing),
                label="nv: dephasing",
            )
        )
    return channels


# -- system parameters ----------------------------------------------------------


@dataclass(frozen=True)
class SystemParams:
    """The knobs every experiment sweeps, in units of the coupling g.

    Attributes:
        g_list: per-nucleus dipole couplings (reference scale g = 1).
        omega: drive Rabi amplitude.
        delta: drive detuning.
        gamma_nv: NV relaxation rate.
        gamma_n: nuclear relaxation rate (applied to every nucleus).

    :meth:`hamiltonian` is the static rotating-frame generator.
    """

    g_list: tuple = (1.0, 1.0)
    omega: float = OMEGA_DEFAULT
    delta: float = 0.0
    gamma_nv: float = 0.0
    gamma_n: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "g_list", tuple(float(g) for g in self.g_list))
        if self.omega < 0:
            raise NegativeRabi(f"omega must be nonnegative, got {self.omega}")
        if self.gamma_nv < 0 or self.gamma_n < 0:
            raise NegativeRabi("relaxation rates must be nonnegative")

    @property
    def n_nuclei(self) -> int:
        return len(self.g_list)

    @property
    def gate_duration(self) -> float:
        """One drive half-cycle pi/omega, the gate and transfer time."""
        if self.omega <= 0:
            raise NegativeRabi("omega must be positive for a pi/omega cycle")
        return math.pi / self.omega

    def space(self) -> HilbertSpace:
        return build_space(self.n_nuclei)

    def hamiltonian(self, space: HilbertSpace | None = None) -> np.ndarray:
        """Drive plus flip-flop coupling in the rotating frame."""
        space = space or self.space()
        return build_h_drive(space, self.omega, self.delta) + build_h_dd(space, self.g_list)

    def channels(self, space: HilbertSpace | None = None) -> list[CollapseChannel]:
        space = space or self.space()
        return collapse_channels(space, self.gamma_nv, self.gamma_n)


# -- reduced states ---------------------------------------------------------------


def _as_density(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return np.outer(state, state.conj())
    return state


def nv_reduced_state(space: HilbertSpace, state) -> np.ndarray:
    """3x3 NV density matrix after tracing out the nuclei."""
    rho = _as_density(state)
    nc = 2**space.n_nuclei
    return np.einsum("aiaj->ij", rho.reshape(nc, 3, nc, 3))


def nuclear_reduced_state(space: HilbertSpace, state) -> np.ndarray:
    """2^N x 2^N nuclear density matrix after tracing out the NV."""
    rho = _as_density(state)
    nc = 2**space.n_nuclei
    return np.einsum("aibi->ab", rho.reshape(nc, 3, nc, 3))


# -- physical-unit plumbing --------------------------------------------------------


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants for converting the dimensionless model to lab units.

    ``gamma_e``/``gamma_n`` are gyromagnetic ratios in rad s^-1 T^-1 (the
    nuclear default is carbon-13); stress couplings are in MHz/MPa.  The
    axial coupling shifts the m_s = +-1 pair without driving it, so no
    operating-point value is assumed and it defaults to zero.
    """

    mu0: float = 1.25663706212e-6
    hbar: float = 1.054571817e-34
    gamma_e: float = 1.76085963023e11
    gamma_n: float = 6.728284e7
    eps_perp: float = 0.03
    eps_par: float = 0.0


DEFAULT_CONSTANTS = PhysicalConstants()


def dipolar_coupling_constant(r: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Magnetic dipole coupling mu0 gamma_e gamma_n hbar / (4 pi r^3), in rad/s.

    Raises:
        NonpositiveSeparation: if ``r <= 0``.
    """
    if r <= 0:
        raise NonpositiveSeparation(f"separation must be positive, got {r}")
    return constants.mu0 * constants.gamma_e * constants.gamma_n * constants.hbar / (
        4.0 * math.pi * r**3
    )


def separation_for_coupling(
    g_rad_per_s: float, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Separation (meters) at which the dipole coupling equals ``g_rad_per_s``."""
    if g_rad_per_s <= 0:
        raise NonpositiveSeparation("target coupling must be positive")
    num = constants.mu0 * constants.gamma_e * constants.gamma_n * constants.hbar
    return (num / (4.0 * math.pi * g_rad_per_s)) ** (1.0 / 3.0)


def dipolar_angular_factor(theta: float) -> float:
    """Secular angular coefficient 1 - 3 cos^2(theta).

    Vanishes at the magic angle arccos(1/sqrt(3)) ~ 54.7 deg, where the
    dipolar field lies perpendicular to the symmetry axis.
    """
    return 1.0 - 3.0 * math.cos(theta) ** 2


def spin1_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-1 (Sx, Sy, Sz) in the ascending m_s basis (-1, 0, +1)."""
    sp = math.sqrt(2.0) * np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
    sm = dagger(sp)
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    sz = np.diag([-1.0, 0.0, 1.0]).astype(complex)
    return sx, sy, sz


def build_stress_hamiltonian(
    eps_par: float,
    eps_perp: float,
    sigma_par: float,
    sigma_x: float,
    sigma_y: float,
) -> np.ndarray:
    """Ground-state spin-stress coupling of the NV triplet (basis m_s = -1, 0, +1).

    ``eps_par sigma_par Sz^2 - eps_perp sigma_x (Sx^2 - Sy^2)
    + eps_perp sigma_y (Sx Sy + Sy Sx)``.  Axial stress only shifts the
    m_s = +-1 pair; perpendicular stress connects m_s = -1 and m_s = +1
    directly, which is exactly the magnetically forbidden transition the
    mechanical drive exploits.
    """
    sx, sy, sz = spin1_operators()
    return (
        eps_par * sigma_par * (sz @ sz)
        - eps_perp * sigma_x * (sx @ sx - sy @ sy)
        + eps_perp * sigma_y * (sx @ sy + sy @ sx)
    )


def rabi_from_stress(eps_perp: float, sigma_perp: float) -> float:
    """Drive Rabi frequency eps_perp * sigma_perp, in MHz."""
    if eps_perp < 0 or sigma_perp < 0:
        raise NegativeRabi("stress coupling and stress must be nonnegative")
    return eps_perp * sigma_perp


def time_to_microseconds(t: float, g_2pi_mhz: float = G_REFERENCE_2PI_MHZ) -> float:
    """Convert a time in units of 1/g to microseconds (g given as 2*pi x MHz)."""
    return t / (2.0 * math.pi * g_2pi_mhz)


def frequency_to_2pi_mhz(x: float, g_2pi_mhz: float = G_REFERENCE_2PI_MHZ) -> float:
    """Convert a rate/frequency in units of g to 2*pi x MHz."""
    return x * g_2pi_mhz


def frequency_from_2pi_mhz(f: float, g_2pi_mhz: float = G_REFERENCE_2PI_MHZ) -> float:
    """Convert a 2*pi x MHz frequency to units of g."""
    return f / g_2pi_mhz
