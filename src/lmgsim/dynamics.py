"""Collective-spin Hamiltonians, stability analysis, and time evolution.

Conventions: H_OAT = chi Sz^2, H_LMG = chi Sz^2 + Omega Sx, H_TAT =
chi (Sz^2 - Sy^2). With chi, Omega > 0 the +x coherent state is the
hyperbolic fixed point of the LMG flow for 0 < Omega/(S chi) < 2; time
reversal is the global sign flip (chi and Omega negated together), which a
unitary leg runs as t -> -t on the forward eigendecomposition. The one
noise channel is collective Sz dephasing, integrated in the Dicke basis,
where Sz is diagonal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .dicke import (
    CollectiveSpinParams,
    DensityMatrix,
    PureState,
    SX,
    SY,
    SpinAxis,
    State,
    apply_spin,
    as_density,
    spin_component,
)

HAMILTONIAN_KINDS = ("OAT", "LMG", "TAT")


@dataclass(frozen=True)
class HamiltonianSpec:
    """Twisting strength chi (rad/s), transverse field Omega, model kind."""

    chi: float
    omega: float = 0.0
    kind: str = "LMG"

    def __post_init__(self):
        if self.kind not in HAMILTONIAN_KINDS:
            raise ValueError(f"kind must be one of {HAMILTONIAN_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.chi) and math.isfinite(self.omega)):
            raise ValueError(f"couplings must be finite, got chi={self.chi}, omega={self.omega}")
        if self.kind in ("OAT", "TAT") and self.omega != 0.0:
            raise ValueError(f"{self.kind} takes no transverse field, got omega={self.omega}")

    def reversed(self) -> "HamiltonianSpec":
        return HamiltonianSpec(-self.chi, -self.omega, self.kind)


def build_hamiltonian(spec: HamiltonianSpec, params: CollectiveSpinParams) -> np.ndarray:
    """Dense real float64 H in the Dicke basis, assembled in place.

    Sx and Sy^2 are real, so every kind is. Sz^2 is diagonal, so chi m^2 goes
    straight onto the diagonal; no Sz.Sz product is formed. For LMG with
    Omega >= 0 the bytes equal the real part of chi (Sz @ Sz) + Omega Sx.
    """
    if spec.kind == "TAT":
        h = apply_spin(SY, spin_component(params, SY))
        h *= -spec.chi
    else:
        h = spec.omega * spin_component(params, SX)  # all zeros for OAT
    h = np.ascontiguousarray(h.real)
    idx = np.arange(params.dim)
    h[idx, idx] += spec.chi * params.m_values() ** 2
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
    """Hermitian generator G = D W diag(E) W^T D^*, evolving states by e^(-iGt): a float64
    eigensolve gives the real eigenvectors W, and the unit-modulus diagonal D = diag(frame)
    (None: the identity) is kept beside them, so W is never cast to complex."""

    def __init__(self, generator: np.ndarray, frame: np.ndarray | None = None):
        if generator.dtype != np.float64:
            raise TypeError(f"generator must be real float64, got {generator.dtype}")
        self.eigvals, self.eigvecs = np.linalg.eigh(generator)
        self.frame = frame

    def to_eigenbasis(self, amplitudes: np.ndarray) -> np.ndarray:
        """(D W)^dag psi; W stays real, so a complex operand is split into two real products."""
        x = amplitudes if self.frame is None else self.frame.conj() * amplitudes
        return self.eigvecs.T @ x.real + 1j * (self.eigvecs.T @ x.imag)

    def unitary(self, t: float) -> np.ndarray:
        w, phase = self.eigvecs, np.exp(-1j * self.eigvals * t)
        u = (w * phase.real) @ w.T + 1j * ((w * phase.imag) @ w.T)
        return u if self.frame is None else u * np.outer(self.frame, self.frame.conj())

    def evolve(self, state: State, t: float) -> State:
        if isinstance(state, PureState):
            y = np.exp(-1j * self.eigvals * t) * self.to_eigenbasis(state.amplitudes)
            psi = self.eigvecs @ y.real + 1j * (self.eigvecs @ y.imag)
            return PureState(psi if self.frame is None else self.frame * psi)
        u = self.unitary(t)
        return DensityMatrix(u @ state.matrix @ u.conj().T)


@functools.lru_cache(maxsize=32)
def propagator_for(generator: HamiltonianSpec | SpinAxis, params: CollectiveSpinParams) -> UnitaryPropagator:
    """Eigendecomposition of H for a HamiltonianSpec, or of n.S for a SpinAxis,
    cached on (generator, params).

    n.S = e^(-i phi Sz) (sin theta Sx + cos theta Sz) e^(i phi Sz), so an axis
    diagonalises the real middle factor with frame e^(-i phi m). A rotation by
    an angle is evolution under n.S for t = angle. A unitary backward leg needs
    no entry of its own: U(-H, t) = U(H, -t).
    """
    if isinstance(generator, SpinAxis):
        theta, phi = generator.theta, generator.phi
        plane = spin_component(params, (math.sin(theta), 0.0, math.cos(theta))).real
        return UnitaryPropagator(plane, np.exp(-1j * phi * params.m_values()) if phi else None)
    return UnitaryPropagator(build_hamiltonian(generator, params))


def evolve_unitary(spec: HamiltonianSpec, state: State, t: float) -> State:
    """Evolve a pure or mixed state for time t under the Hamiltonian of spec."""
    return propagator_for(spec, state.params).evolve(state, t)


@dataclass(frozen=True)
class LindbladSpec:
    """Collective dephasing: the single jump operator Sz at rate gamma >= 0."""

    gamma: float

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")


def default_lindblad_dt(spec: HamiltonianSpec, lindblad: LindbladSpec, params: CollectiveSpinParams) -> float:
    """Step heuristic dt = 0.01 / (||H||_2 + gamma S^2), ||H||_2 from the eigenvalues alone."""
    hnorm = float(np.max(np.abs(np.linalg.eigvalsh(build_hamiltonian(spec, params)))))
    return 0.01 / (hnorm + lindblad.gamma * params.spin**2)


def evolve_lindblad(spec: HamiltonianSpec, lindblad: LindbladSpec, state: State, t: float) -> DensityMatrix:
    """Integrate rho' = -i[H, rho] + gamma (Sz rho Sz - 1/2 {Sz^2, rho}).

    Classical RK4 with the fixed step `default_lindblad_dt`, in the Dicke
    basis. Sz is diagonal there, so the dissipator is the elementwise product
    -gamma/2 (m_i - m_j)^2 r_ij and, r being Hermitian, -i[H, r] = X + X^dag
    with X = -iH r: one matmul per stage, and every stage Hermitian by
    construction. The generator is trace-free, so trace is conserved to
    roundoff; drift beyond tolerances.TRACE_DRIFT_MAX means the step is too
    large for this H and gamma, and the integrator aborts rather than
    renormalize its way past the instability.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    rho = as_density(state).matrix
    if t == 0.0:
        return DensityMatrix(rho.copy())
    params = state.params
    n_steps = max(1, math.ceil(t / default_lindblad_dt(spec, lindblad, params)))
    dt = t / n_steps

    h = build_hamiltonian(spec, params)
    m = params.m_values()
    decay = -0.5 * lindblad.gamma * np.subtract.outer(m, m) ** 2
    # RK4 on a linear generator G is the Taylor map sum_k (dt G)^k / k!, k <= 4;
    # term k is (dt / k) G applied to term k - 1
    stages = [(-1j * c * h, c * decay) for c in (dt, dt / 2, dt / 3, dt / 4)]
    r = 0.5 * (rho + rho.conj().T)
    for step in range(n_steps):
        term = r
        for gen, damp in stages:
            x = gen @ term
            term = x + x.conj().T + damp * term
            r += term
        drift = abs(np.trace(r).real - 1.0)
        if not np.isfinite(drift) or drift > tolerances.TRACE_DRIFT_MAX:
            raise RuntimeError(
                f"trace drifted by {drift:.3e} at step {step + 1}/{n_steps}; "
                f"the RK4 step dt={dt:.3e} is too large for this H and gamma"
            )
    return DensityMatrix(0.5 * (r + r.conj().T))
