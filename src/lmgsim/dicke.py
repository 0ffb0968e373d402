"""Symmetric collective-spin (Dicke) basis: the S+ ladder, states, rotations, I/O.

Everything acts on the maximal-spin subspace of N spin-1/2 particles, dimension
N + 1, basis ordered |S, S>, |S, S-1>, ..., |S, -S>. The one band of S+
(`ladder`) is the only operator representation: n.S acts on vectors and
matrix columns in O(d) each (`apply_spin`), and the dense n.S
(`spin_component`) is formed only for an eigensolve. A rotation is evolution
under n.S, run by the cached spectral propagator of `dynamics`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances


@dataclass(frozen=True)
class CollectiveSpinParams:
    """Particle number N; total spin S = N/2 on the symmetric subspace."""

    n_atoms: int

    def __post_init__(self):
        if not isinstance(self.n_atoms, (int, np.integer)) or self.n_atoms < 1:
            raise ValueError(f"n_atoms must be a positive integer, got {self.n_atoms!r}")

    @property
    def spin(self) -> float:
        return self.n_atoms / 2.0

    @property
    def dim(self) -> int:
        return self.n_atoms + 1

    def m_values(self) -> np.ndarray:
        """Sz eigenvalues in basis order, S down to -S."""
        return self.spin - np.arange(self.dim)


def ladder(params: CollectiveSpinParams) -> np.ndarray:
    """The one band of S+: entry i is <m_i|S+|m_(i+1)> = sqrt(S(S+1) - m(m+1)), m = m_(i+1)."""
    S = params.spin
    m = params.m_values()[1:]
    return np.sqrt(S * (S + 1) - m * (m + 1))


@dataclass(frozen=True)
class SpinAxis:
    """Unit direction on the Bloch sphere, polar angle from +z."""

    theta: float
    phi: float = 0.0

    @classmethod
    def in_plane(cls, alpha: float) -> "SpinAxis":
        """Direction (0, cos a, sin a) in the yz plane, a in [0, pi)."""
        if not 0.0 <= alpha < math.pi:
            raise ValueError(f"in-plane angle must lie in [0, pi), got {alpha}")
        return cls(theta=math.pi / 2 - alpha, phi=math.pi / 2)

    @property
    def unit_vector(self) -> np.ndarray:
        st, ct = math.sin(self.theta), math.cos(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi), ct])


AXIS_X = SpinAxis(theta=math.pi / 2, phi=0.0)
AXIS_Y = SpinAxis(theta=math.pi / 2, phi=math.pi / 2)
AXIS_Z = SpinAxis(theta=0.0, phi=0.0)


# Cartesian components as exact triples; AXIS_X.unit_vector carries cos(pi/2) = 6e-17 in z
SX, SY, SZ = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)


def apply_spin(n, x: np.ndarray) -> np.ndarray:
    """n.S times a vector x, or times each column of a matrix x, in O(d) per column."""
    nx, ny, nz = n
    params = CollectiveSpinParams(x.shape[0] - 1)
    col = (slice(None),) + (None,) * (x.ndim - 1)
    half = 0.5 * ladder(params)[col]
    out = (nz * params.m_values())[col] * x + 0j
    out[:-1] += (nx - 1j * ny) * half * x[1:]
    out[1:] += (nx + 1j * ny) * half * x[:-1]
    return out


def spin_component(params: CollectiveSpinParams, n) -> np.ndarray:
    """Dense n.S for a direction n = (nx, ny, nz), for the eigensolves that need a matrix."""
    return apply_spin(n, np.eye(params.dim))


class PureState:
    """Normalized amplitude vector over |S, m>, m = S ... -S."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amp = np.asarray(amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 2:
            raise ValueError(f"amplitude vector must be 1-d with dim >= 2, got shape {amp.shape}")
        nrm = np.linalg.norm(amp)
        if abs(nrm - 1.0) > tolerances.STATE_NORM_TOL:
            raise ValueError(
                f"state norm deviates from 1 by {abs(nrm - 1.0):.3e} (tol {tolerances.STATE_NORM_TOL:.1e})"
            )
        self.amplitudes = amp

    @property
    def params(self) -> CollectiveSpinParams:
        return CollectiveSpinParams(self.amplitudes.size - 1)

    def expectation(self, op: np.ndarray) -> complex:
        return complex(self.amplitudes.conj() @ (op @ self.amplitudes))

    def overlap(self, other: "PureState") -> complex:
        return complex(self.amplitudes.conj() @ other.amplitudes)

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on the Dicke basis."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, psd_tol: float = tolerances.PSD_TOL):
        rho = np.asarray(matrix, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 2:
            raise ValueError(f"density matrix must be square with dim >= 2, got shape {rho.shape}")
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > tolerances.HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian: max deviation {herm:.3e}")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > tolerances.TRACE_TOL:
            raise ValueError(f"density matrix trace deviates from 1 by {abs(tr - 1.0):.3e}")
        lo = float(np.linalg.eigvalsh(rho)[0])
        if lo < -psd_tol:
            raise ValueError(f"density matrix not positive semidefinite: min eigenvalue {lo:.3e}")
        self.matrix = rho

    @property
    def params(self) -> CollectiveSpinParams:
        return CollectiveSpinParams(self.matrix.shape[0] - 1)

    def expectation(self, op: np.ndarray) -> complex:
        return complex(np.trace(self.matrix @ op))

    def purity(self) -> float:
        # Tr(rho^2) = Tr(rho^dag rho) = sum |rho_ij|^2 for Hermitian rho
        return float(np.real(np.vdot(self.matrix, self.matrix)))


State = PureState | DensityMatrix


def as_density(state: State) -> DensityMatrix:
    return state.to_density() if isinstance(state, PureState) else state


def css(params: CollectiveSpinParams, theta: float, phi: float = 0.0) -> PureState:
    """Coherent spin state pointing along (theta, phi).

    Amplitudes c_k = binom(N, k)^(1/2) cos^k(th/2) sin^(N-k)(th/2) e^(-ik phi)
    over k = S + m up spins, built outward from the modal k by the ratio
    c_(k+1)/c_k = sqrt((N-k)/(k+1)) cot(th/2): one rounded product per step
    and no overflow. theta = 0 and pi give |m = +S> and |m = -S> exactly.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    N = params.n_atoms
    ct, st = math.cos(theta), (math.sin(theta) if theta < math.pi else 0.0)
    # cot(th/2) = num / den without cancellation on either side of pi/2: 1 at pi/2, inf at 0, 0 at pi
    num, den = (1.0 + ct, st) if ct >= 0.0 else (st, 1.0 - ct)
    mode = min(N, int((N + 1) * (1.0 + ct) / 2.0))  # floor((N + 1) cos^2(th/2))
    k = np.arange(N + 1.0)
    c = np.ones(N + 1)
    c[mode + 1:] = np.cumprod(np.sqrt((N - k[mode:-1]) / (k[mode:-1] + 1.0)) * num / den)
    c[:mode] = np.cumprod(np.sqrt(k[mode:0:-1] / (N + 1.0 - k[mode:0:-1])) * den / num)[::-1]
    amp = (c * np.exp(-1j * k * phi))[::-1]
    amp /= np.linalg.norm(amp)
    return PureState(amp)


def rotation_matrix(params: CollectiveSpinParams, axis: SpinAxis, angle: float) -> np.ndarray:
    """Unitary e^(-i angle n.S)."""
    from .dynamics import propagator_for  # dynamics builds on this module

    return propagator_for(axis, params).unitary(angle)


def rotate(state: State, axis: SpinAxis, angle: float) -> State:
    """Rotate a pure or mixed state by e^(-i angle n.S); a pure state forms no matrix."""
    from .dynamics import propagator_for

    return propagator_for(axis, state.params).evolve(state, angle)


def state_to_json(state: State) -> str:
    """Serialize to the interchange JSON format (row-major, basis m = S..-S)."""
    if isinstance(state, PureState):
        arr, kind = state.amplitudes, "pure"
    else:
        arr, kind = state.matrix.ravel(), "density"
    return json.dumps(
        {
            "N": state.params.n_atoms,
            "kind": kind,
            "re": arr.real.tolist(),
            "im": arr.imag.tolist(),
        }
    )


def state_from_json(text: str) -> State:
    doc = json.loads(text)
    try:
        n, kind = doc["N"], doc["kind"]
        arr = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"N must be a positive integer, got {n!r}")
    if kind == "pure":
        if arr.size != n + 1:
            raise ValueError(f"pure state for N={n} needs {n + 1} amplitudes, got {arr.size}")
        return PureState(arr)
    if kind == "density":
        if arr.size != (n + 1) ** 2:
            raise ValueError(f"density matrix for N={n} needs {(n + 1) ** 2} entries, got {arr.size}")
        return DensityMatrix(arr.reshape(n + 1, n + 1))
    raise ValueError(f"unknown state kind {kind!r}")
