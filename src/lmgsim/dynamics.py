"""Collective-spin Hamiltonians, stability analysis, and time evolution.

Conventions: H_OAT = chi Sz^2, H_LMG = chi Sz^2 + Omega Sx, H_TAT =
chi (Sz^2 - Sy^2), all multiplied by time_sign. With chi, Omega > 0 the +x
coherent state is the hyperbolic fixed point of the LMG flow for
0 < Omega/(S chi) < 2; time reversal is the global sign flip (chi and Omega
negated together).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .dicke import (
    CollectiveSpinParams,
    DensityMatrix,
    PureState,
    SpinAxis,
    State,
    as_density,
    build_spin_operators,
    spin_component,
)

HAMILTONIAN_KINDS = ("OAT", "LMG", "TAT")


@dataclass(frozen=True)
class HamiltonianSpec:
    """Twisting strength chi (rad/s), transverse field Omega, model kind."""

    chi: float
    omega: float = 0.0
    kind: str = "LMG"
    time_sign: int = 1

    def __post_init__(self):
        if self.kind not in HAMILTONIAN_KINDS:
            raise ValueError(f"kind must be one of {HAMILTONIAN_KINDS}, got {self.kind!r}")
        if self.time_sign not in (1, -1):
            raise ValueError(f"time_sign must be +1 or -1, got {self.time_sign!r}")
        if not (math.isfinite(self.chi) and math.isfinite(self.omega)):
            raise ValueError(f"couplings must be finite, got chi={self.chi}, omega={self.omega}")
        if self.kind in ("OAT", "TAT") and self.omega != 0.0:
            raise ValueError(f"{self.kind} takes no transverse field, got omega={self.omega}")

    def reversed(self) -> "HamiltonianSpec":
        return HamiltonianSpec(self.chi, self.omega, self.kind, -self.time_sign)


def build_hamiltonian(spec: HamiltonianSpec, params: CollectiveSpinParams) -> np.ndarray:
    """Dense H in the Dicke basis, assembled in place.

    Sz^2 is diagonal, so chi m^2 goes straight onto the diagonal; no Sz.Sz
    product is formed. For LMG with Omega >= 0 the bytes equal those of
    chi (Sz @ Sz) + Omega Sx, which keeps the propagator cache keys stable.
    """
    ops = build_spin_operators(params)
    if spec.kind == "TAT":
        h = ops.sy @ ops.sy
        h *= -spec.chi
    else:
        h = spec.omega * ops.sx  # all zeros for OAT
    idx = np.arange(params.dim)
    h[idx, idx] += spec.chi * params.m_values() ** 2
    h *= spec.time_sign
    return h


@dataclass(frozen=True)
class StabilityReport:
    """Linearized behavior of the +x coherent state under the LMG flow.

    omega_hp holds the oscillation frequency in the periodic regime and the
    Lyapunov exponent lambda_Q in the unstable one; it is 0 at the marginal
    boundaries. ratio is Omega/(S chi), +-inf for free rotation (chi = 0).
    """

    ratio: float
    omega_hp: float
    regime: str

    @property
    def lyapunov(self) -> float:
        return self.omega_hp if self.regime == "unstable" else 0.0


def classify_stability(chi: float, omega: float, spin: float) -> StabilityReport:
    """Classify the quadratic expansion about the +x pole: w^2 = Omega(Omega - 2 S chi)."""
    if spin <= 0:
        raise ValueError(f"spin must be positive, got {spin}")
    if chi == 0.0:
        # free rotation about x; variance revolves at the bare field frequency
        return StabilityReport(ratio=math.copysign(math.inf, omega) if omega else math.inf,
                               omega_hp=abs(omega), regime="marginal")
    ratio = omega / (spin * chi)
    w2 = omega * (omega - 2.0 * spin * chi)
    if w2 > 0.0:
        return StabilityReport(ratio=ratio, omega_hp=math.sqrt(w2), regime="periodic")
    if w2 < 0.0:
        return StabilityReport(ratio=ratio, omega_hp=math.sqrt(-w2), regime="unstable")
    return StabilityReport(ratio=ratio, omega_hp=0.0, regime="marginal")


class UnitaryPropagator:
    """Spectral-decomposition propagator for a fixed Hermitian H."""

    def __init__(self, hamiltonian: np.ndarray):
        h = np.asarray(hamiltonian)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"Hamiltonian must be square, got shape {h.shape}")
        herm = np.max(np.abs(h - h.conj().T))
        scale = max(np.max(np.abs(h)), 1.0)
        if herm > 1e-12 * scale:
            raise ValueError(f"Hamiltonian not Hermitian: max deviation {herm:.3e}")
        self.eigvals, self.eigvecs = np.linalg.eigh(h)

    def unitary(self, t: float) -> np.ndarray:
        v = self.eigvecs
        return (v * np.exp(-1j * self.eigvals * t)) @ v.conj().T

    def evolve(self, state: State, t: float) -> State:
        v = self.eigvecs
        phase = np.exp(-1j * self.eigvals * t)
        if isinstance(state, PureState):
            return PureState(v @ (phase * (v.conj().T @ state.amplitudes)))
        u = (v * phase) @ v.conj().T
        return DensityMatrix(u @ state.matrix @ u.conj().T)


_propagator_cache: OrderedDict[bytes, UnitaryPropagator] = OrderedDict()
_PROPAGATOR_CACHE_MAX = 32
_prop_lock = threading.Lock()


def propagator_for(hamiltonian: np.ndarray) -> UnitaryPropagator:
    """Cached eigendecomposition, keyed by the exact matrix bytes."""
    key = np.ascontiguousarray(hamiltonian).tobytes()
    with _prop_lock:
        hit = _propagator_cache.get(key)
        if hit is not None:
            _propagator_cache.move_to_end(key)
            return hit
    prop = UnitaryPropagator(hamiltonian)
    with _prop_lock:
        if key not in _propagator_cache:
            if len(_propagator_cache) >= _PROPAGATOR_CACHE_MAX:
                _propagator_cache.popitem(last=False)
            _propagator_cache[key] = prop
        return _propagator_cache[key]


def evolve_unitary(hamiltonian: np.ndarray, state: State, t: float) -> State:
    """Evolve a pure or mixed state for time t under a fixed Hermitian H."""
    return propagator_for(hamiltonian).evolve(state, t)


@dataclass(frozen=True)
class LindbladSpec:
    """Single collective jump operator n.S at rate gamma >= 0."""

    gamma: float
    jump_axis: SpinAxis = SpinAxis(theta=0.0, phi=0.0)

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")


def default_lindblad_dt(hamiltonian: np.ndarray, spec: LindbladSpec, spin: float) -> float:
    """Step heuristic dt = 0.01 / (||H||_2 + gamma S^2)."""
    hnorm = float(np.max(np.abs(np.linalg.eigvalsh(hamiltonian))))
    return 0.01 / (hnorm + spec.gamma * spin**2)


def evolve_lindblad(
    hamiltonian: np.ndarray,
    spec: LindbladSpec,
    state: State,
    t: float,
    dt: float | None = None,
    trace_drift_max: float = tolerances.TRACE_DRIFT_MAX,
) -> DensityMatrix:
    """Integrate rho' = -i[H, rho] + gamma (L rho L - 1/2 {L^2, rho}), L = n.S.

    Classical RK4 with a fixed step. The generator is trace-free, so trace is
    conserved to roundoff; drift beyond trace_drift_max means the step is too
    large for this H and gamma, and the integrator aborts rather than
    renormalize its way past the instability. Hermiticity is re-imposed once
    per step.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    rho = as_density(state).matrix.copy()
    if t == 0.0:
        return DensityMatrix(rho)
    params = CollectiveSpinParams(rho.shape[0] - 1)
    if dt is None:
        dt = default_lindblad_dt(hamiltonian, spec, params.spin)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = max(1, math.ceil(t / dt))
    dt = t / n_steps

    h = np.asarray(hamiltonian, dtype=complex)
    jump = spin_component(build_spin_operators(params), spec.jump_axis)
    jump2 = jump @ jump
    gamma = spec.gamma

    def rhs(r):
        out = -1j * (h @ r - r @ h)
        if gamma:
            out += gamma * (jump @ r @ jump - 0.5 * (jump2 @ r + r @ jump2))
        return out

    for step in range(n_steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        drift = abs(np.trace(rho).real - 1.0)
        if not np.isfinite(drift) or drift > trace_drift_max:
            raise RuntimeError(
                f"trace drifted by {drift:.3e} at step {step + 1}/{n_steps}; "
                f"the RK4 step dt={dt:.3e} is too large for this H and gamma, pass a smaller dt"
            )
    return DensityMatrix(rho)
