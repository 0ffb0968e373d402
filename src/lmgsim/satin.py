"""Time-reversal amplification protocol: forward twist, small probe rotation,
backward twist, then linear readout of the amplified displacement.

Gain is quoted against the bare coherent-state response, noise against the
projection-noise level S/2, so gain_db = 10 log10(G^2 / N^2) is the
metrological gain over the standard quantum limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dicke import CollectiveSpinParams, SpinAxis, State, rotate
from .dynamics import HamiltonianSpec, LindbladSpec, evolve_lindblad, evolve_unitary
from .observables import yz_moments

READOUT_SCAN_POINTS = 64


@dataclass(frozen=True)
class SatinConfig:
    """Protocol parameters: H spec, duration, probe axis and size, noise.

    The readout is always along the axis of maximal response (`_response_scan`).
    """

    hamiltonian: HamiltonianSpec
    t: float
    alpha: float = math.pi / 4
    delta_phi_probe: float = 0.005
    lindblad: LindbladSpec | None = None
    detection_noise_var: float = 0.0  # optional additive constant on N^2, SQL units

    def __post_init__(self):
        if not 0.0 < self.delta_phi_probe <= 0.01:
            raise ValueError(f"delta_phi_probe must lie in (0, 0.01], got {self.delta_phi_probe}")
        if not 0.0 <= self.alpha < math.pi:
            raise ValueError(f"alpha must lie in [0, pi), got {self.alpha}")
        if self.detection_noise_var < 0.0:
            raise ValueError(f"detection_noise_var must be nonnegative, got {self.detection_noise_var}")


@dataclass(frozen=True)
class SatinResult:
    s_chi_t: float
    g_sq: float
    n_sq: float
    gain_db: float
    readout_alpha: float


def _satin_finals(state: State, config: SatinConfig, delta_phis) -> list[State]:
    """Final states of the protocol for each probe angle; the forward leg runs once."""
    fwd = config.hamiltonian
    axis = SpinAxis.in_plane(config.alpha)
    if config.lindblad is None:
        mid = evolve_unitary(fwd, state, config.t)
        return [evolve_unitary(fwd, rotate(mid, axis, dphi), -config.t) for dphi in delta_phis]
    bwd = fwd.reversed()
    mid = evolve_lindblad(fwd, config.lindblad, state, config.t)
    return [evolve_lindblad(bwd, config.lindblad, rotate(mid, axis, dphi), config.t) for dphi in delta_phis]


def run_satin(state: State, config: SatinConfig, delta_phi: float) -> State:
    """Forward evolution for t, rotation by delta_phi about S_alpha, backward
    evolution for t under the sign-flipped Hamiltonian: a unitary leg runs the
    forward propagator to -t, a Lindblad leg integrates -H forward in time."""
    return _satin_finals(state, config, (delta_phi,))[0]


def _response_scan(dy: float, dz: float) -> tuple[float, float]:
    """Readout angle in [0, pi) with maximal |response| on the 64-point scan."""
    betas = np.arange(READOUT_SCAN_POINTS) * math.pi / READOUT_SCAN_POINTS
    resp = np.cos(betas) * dy + np.sin(betas) * dz
    i = int(np.argmax(np.abs(resp)))
    return float(betas[i]), float(resp[i])


def _css_reference_response(params: CollectiveSpinParams, config: SatinConfig, beta: float) -> float:
    """Response of the bare +x CSS at t = 0 along the same axes, in closed form.

    Rotating by d about n = (0, cos a, sin a) turns the mean spin S x into
    S (cos d, sin d sin a, -sin d cos a), so the central difference of its
    readout component is S (sin d / d) sin(a - beta).
    """
    dphi = config.delta_phi_probe
    return params.spin * math.sin(dphi) / dphi * math.sin(config.alpha - beta)


def _signal_and_axis(plus: State, minus: State, config: SatinConfig) -> tuple[float, float]:
    """(G, readout angle): amplified response of the +-probe final states
    normalized by the CSS response."""
    params = plus.params
    dphi = config.delta_phi_probe
    yp, zp = yz_moments(plus)[:2]
    ym, zm = yz_moments(minus)[:2]
    beta, response = _response_scan((yp - ym) / (2.0 * dphi), (zp - zm) / (2.0 * dphi))
    ref = _css_reference_response(params, config, beta)
    if abs(ref) < 1e-12 * params.spin:
        raise ValueError(
            f"degenerate readout axis beta={beta:.4f}: the coherent-state reference response vanishes"
        )
    # amplitude ratio; sign conventions of the probe legs drop out
    return abs(response) / abs(ref), beta


def _readout_noise(final: State, config: SatinConfig, readout_alpha: float) -> float:
    """Readout variance of the zero-probe final state, normalized to S/2."""
    _, _, vy, vz, cov = yz_moments(final)
    c, s = math.cos(readout_alpha), math.sin(readout_alpha)
    var = vy * c * c + vz * s * s + 2.0 * cov * s * c
    return var / (final.params.spin / 2.0) + config.detection_noise_var


def signal_gain(state: State, config: SatinConfig) -> float:
    """Signal amplification G relative to the bare CSS response."""
    dphi = config.delta_phi_probe
    return _signal_and_axis(*_satin_finals(state, config, (dphi, -dphi)), config)[0]


def metrological_gain(state: State, config: SatinConfig) -> SatinResult:
    """Run the full protocol once and report G^2, N^2, and the dB gain.

    The +dphi, -dphi and zero-probe runs share one forward leg.
    """
    dphi = config.delta_phi_probe
    plus, minus, zero = _satin_finals(state, config, (dphi, -dphi, 0.0))
    g, beta = _signal_and_axis(plus, minus, config)
    n2 = _readout_noise(zero, config, beta)
    spec = config.hamiltonian
    s_chi_t = abs(spec.chi) * state.params.spin * config.t
    return SatinResult(
        s_chi_t=float(s_chi_t),
        g_sq=float(g * g),
        n_sq=float(n2),
        gain_db=float(10.0 * math.log10(g * g / n2)),
        readout_alpha=float(beta),
    )
