"""Fidelity out-of-time-order correlators from echo dynamics.

The echo unitary U(t, dphi) = e^{+iHt} e^{-i S_a dphi} e^{-iHt} probes how a
small rotation applied mid-protocol fails to undo itself; the curvature of the
return fidelity in dphi is the scrambling measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dicke import CollectiveSpinParams, PureState, SpinAxis, State, as_density, spin_component
from .dynamics import HamiltonianSpec, propagator_for

DEFAULT_DELTA_PHI_GRID = (-0.01, -0.005, -0.002, 0.0, 0.002, 0.005, 0.01)


def heisenberg_operator(spec: HamiltonianSpec, op: np.ndarray, t: float) -> np.ndarray:
    """A(t) = e^{+iHt} A e^{-iHt}, on the Dicke ladder of op's dimension."""
    u = propagator_for(spec, CollectiveSpinParams(op.shape[0] - 1)).unitary(t)
    return u.conj().T @ op @ u


@dataclass(frozen=True)
class FotocSample:
    delta_phi: float
    fidelity: float


def fotoc(
    spec: HamiltonianSpec,
    state: State,
    axis: SpinAxis,
    t: float,
    delta_phis=DEFAULT_DELTA_PHI_GRID,
) -> list[FotocSample]:
    """Return fidelity F(dphi) = Tr(U rho U^dag rho) for each probe rotation.

    For a pure state the echo collapses to
    F = |sum_k |<k_a|psi_t>|^2 e^{-i w_k dphi}|^2 over the eigenpairs
    (w_k, |k_a>) of S_a, so psi is evolved once and no unitary is formed.
    Density matrices take the dense echo.
    """
    prop = propagator_for(spec, state.params)
    rot = propagator_for(axis, state.params)
    if isinstance(state, PureState):
        w = rot.eigvals
        weights = np.abs(rot.to_eigenbasis(prop.evolve(state, t).amplitudes)) ** 2
        return [
            FotocSample(delta_phi=float(dphi), fidelity=float(np.abs(weights @ np.exp(-1j * w * dphi)) ** 2))
            for dphi in delta_phis
        ]
    u_fwd = prop.unitary(t)
    u_bwd = u_fwd.conj().T
    rho = state.matrix
    samples = []
    for dphi in delta_phis:
        u_echo = u_bwd @ rot.unitary(dphi) @ u_fwd
        fid = float(np.real(np.trace(u_echo @ rho @ u_echo.conj().T @ rho)))
        samples.append(FotocSample(delta_phi=float(dphi), fidelity=fid))
    return samples


@dataclass(frozen=True)
class OtocResult:
    """Quadratic-fit curvature of the return fidelity.

    F(dphi) ~ offset - value * (dphi - center)^2; value is the scrambling
    measure -1/2 d^2F/ddphi^2 at the fitted peak.
    """

    value: float
    offset: float
    center: float


def check_probe_grid(delta_phis) -> None:
    """Raise ValueError unless the probe angles determine the quadratic fit:
    at least 5 of them, both signs, and at least 3 distinct values, so the
    peak offset comes from data rather than extrapolation."""
    x = np.asarray(delta_phis, dtype=float)
    if x.size < 5:
        raise ValueError(f"need at least 5 probe angles for the quadratic fit, got {x.size}")
    if np.all(x >= 0.0) or np.all(x <= 0.0):
        raise ValueError("probe angles must span both signs of delta_phi")
    if np.unique(x).size < 3:
        raise ValueError("quadratic fit is singular: fewer than 3 distinct delta_phi values")


def otoc_from_fotoc(samples: list[FotocSample]) -> OtocResult:
    """Least-squares parabola through the (dphi, F) samples; see check_probe_grid."""
    x = np.array([s.delta_phi for s in samples])
    y = np.array([s.fidelity for s in samples])
    check_probe_grid(x)
    p2, p1, p0 = np.polyfit(x, y, 2)
    value = -p2
    if value == 0.0:
        return OtocResult(value=0.0, offset=float(p0), center=0.0)
    center = p1 / (2.0 * value)
    offset = float(p0 + value * center**2)
    return OtocResult(value=float(value), offset=offset, center=float(center))


def otoc_trace_form(spec: HamiltonianSpec, state: State, axis: SpinAxis, t: float) -> float:
    """Diagnostic: literal Tr(S_a(t) rho S_a(t) rho).

    For pure states this equals <S_a(t)>^2, not the fidelity curvature
    var(S_a(t)); the two deliberately coexist and are not reconciled.
    """
    rho = as_density(state).matrix
    gen = spin_component(state.params, axis.unit_vector)
    a_t = heisenberg_operator(spec, gen, t)
    return float(np.real(np.trace(a_t @ rho @ a_t @ rho)))
