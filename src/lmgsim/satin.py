"""Time-reversal amplification protocol: forward twist, small probe rotation,
backward twist, then linear readout of the amplified displacement.

Gain is quoted against the bare coherent-state response, noise against the
projection-noise level S/2, so gain_db = 10 log10(G^2 / N^2) is the
metrological gain over the standard quantum limit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dicke import (
    CollectiveSpinParams,
    PureState,
    SpinAxis,
    State,
    build_spin_operators,
    css,
    rotate,
    spin_component,
)
from .dynamics import HamiltonianSpec, LindbladSpec, build_hamiltonian, evolve_lindblad, evolve_unitary

READOUT_SCAN_POINTS = 64


@dataclass(frozen=True)
class SatinConfig:
    """Protocol parameters: H spec, duration, probe axis/size, readout."""

    hamiltonian: HamiltonianSpec
    t: float
    alpha: float = math.pi / 4
    delta_phi_probe: float = 0.005
    readout_alpha: float | None = None  # None: scan for the maximal-response axis
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
    h_fwd = build_hamiltonian(config.hamiltonian, state.params)
    h_bwd = -h_fwd
    axis = SpinAxis.in_plane(config.alpha)
    if config.lindblad is None:
        mid = evolve_unitary(h_fwd, state, config.t)
        return [evolve_unitary(h_bwd, rotate(mid, axis, dphi), config.t) for dphi in delta_phis]
    mid = evolve_lindblad(h_fwd, config.lindblad, state, config.t)
    return [evolve_lindblad(h_bwd, config.lindblad, rotate(mid, axis, dphi), config.t) for dphi in delta_phis]


def run_satin(state: State, config: SatinConfig, delta_phi: float) -> State:
    """Forward evolution for t, rotation by delta_phi about S_alpha, backward
    evolution under the sign-flipped Hamiltonian for t."""
    return _satin_finals(state, config, (delta_phi,))[0]


def _yz_means(state: State, ops) -> tuple[float, float]:
    ey = state.expectation(ops.sy).real
    ez = state.expectation(ops.sz).real
    return float(ey), float(ez)


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
    ops = build_spin_operators(params)
    dphi = config.delta_phi_probe
    yp, zp = _yz_means(plus, ops)
    ym, zm = _yz_means(minus, ops)
    dy, dz = (yp - ym) / (2.0 * dphi), (zp - zm) / (2.0 * dphi)
    if config.readout_alpha is not None:
        beta = config.readout_alpha
        response = math.cos(beta) * dy + math.sin(beta) * dz
    else:
        beta, response = _response_scan(dy, dz)
    ref = _css_reference_response(params, config, beta)
    if abs(ref) < 1e-12 * params.spin:
        raise ValueError(
            f"degenerate readout axis beta={beta:.4f}: the coherent-state reference response vanishes"
        )
    # amplitude ratio; sign conventions of the probe legs drop out
    return abs(response) / abs(ref), beta


def _readout_noise(final: State, config: SatinConfig, readout_alpha: float) -> float:
    """Readout variance of the zero-probe final state, normalized to S/2."""
    params = final.params
    a = spin_component(build_spin_operators(params), SpinAxis.in_plane(readout_alpha))
    if isinstance(final, PureState):
        a_psi = a @ final.amplitudes
        mean = complex(final.amplitudes.conj() @ a_psi).real
        second = float(np.vdot(a_psi, a_psi).real)  # <A^2> = ||A psi||^2
    else:
        mean = final.expectation(a).real
        second = final.expectation(a @ a).real
    var = float(second - mean**2)
    return var / (params.spin / 2.0) + config.detection_noise_var


def signal_gain(state: State, config: SatinConfig) -> float:
    """Signal amplification G relative to the bare CSS response."""
    dphi = config.delta_phi_probe
    return _signal_and_axis(*_satin_finals(state, config, (dphi, -dphi)), config)[0]


def noise_n2(state: State, config: SatinConfig, readout_alpha: float | None = None) -> float:
    """Readout variance after the zero-probe protocol, normalized to S/2."""
    if readout_alpha is None:
        readout_alpha = config.readout_alpha
    if readout_alpha is None:
        return metrological_gain(state, config).n_sq
    return _readout_noise(run_satin(state, config, 0.0), config, readout_alpha)


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


def gain_vs_time_sweep(
    params: CollectiveSpinParams,
    config: SatinConfig,
    s_chi_ts,
    workers: int = 1,
) -> list[SatinResult]:
    """Metrological gain over a grid of dimensionless times S chi t.

    The initial state is the +x CSS; grid points are independent and may be
    dispatched to a thread pool, results returned in grid order.
    """
    state = css(params, math.pi / 2, 0.0)
    scale = abs(config.hamiltonian.chi) * params.spin

    def point(s_chi_t: float) -> SatinResult:
        cfg = replace(config, t=s_chi_t / scale)
        return metrological_gain(state, cfg)

    times = [float(v) for v in s_chi_ts]
    if workers <= 1:
        return [point(v) for v in times]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(point, times))
