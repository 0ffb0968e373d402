"""Hamiltonians, stability classification, unitary and Lindblad propagation."""

import itertools
import math

import numpy as np
import pytest

from lmgsim import (
    AXIS_Z,
    CollectiveSpinParams,
    HamiltonianSpec,
    LindbladSpec,
    build_hamiltonian,
    build_spin_operators,
    classify_stability,
    css,
    default_lindblad_dt,
    evolve_lindblad,
    evolve_unitary,
    propagator_for,
)
from helpers import brute_force_evolve, dephased_oat_density, random_pure_state


def test_hamiltonian_kinds():
    p = CollectiveSpinParams(6)
    ops = build_spin_operators(p)
    szsz = ops.sz @ ops.sz
    assert np.allclose(build_hamiltonian(HamiltonianSpec(chi=0.7, kind="OAT"), p), 0.7 * szsz)
    assert np.allclose(
        build_hamiltonian(HamiltonianSpec(chi=0.7, omega=1.1), p), 0.7 * szsz + 1.1 * ops.sx
    )
    assert np.allclose(
        build_hamiltonian(HamiltonianSpec(chi=0.7, kind="TAT"), p),
        0.7 * (szsz - ops.sy @ ops.sy),
    )


@pytest.mark.parametrize("n", [1, 6, 200])
def test_lmg_hamiltonian_bytes_match_dense_product(n):
    # the in-place assembly must reproduce chi (Sz @ Sz) + Omega Sx bit for bit
    p = CollectiveSpinParams(n)
    ops = build_spin_operators(p)
    for chi, ratio, time_sign in itertools.product((1.0, 0.3), (0.0, 0.5, 1.0, 3.0), (1, -1)):
        spec = HamiltonianSpec(chi=chi, omega=ratio * chi * p.spin, time_sign=time_sign)
        dense = time_sign * (chi * (ops.sz @ ops.sz) + spec.omega * ops.sx)
        assert build_hamiltonian(spec, p).tobytes() == dense.tobytes(), (chi, ratio, time_sign)


def test_time_sign_flips_hamiltonian():
    p = CollectiveSpinParams(6)
    spec = HamiltonianSpec(chi=0.7, omega=1.1)
    assert np.allclose(
        build_hamiltonian(spec.reversed(), p), -build_hamiltonian(spec, p)
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"chi": 1.0, "kind": "XYZ"},
        {"chi": 1.0, "kind": "OAT", "omega": 0.5},
        {"chi": 1.0, "kind": "TAT", "omega": 0.5},
        {"chi": 1.0, "time_sign": 2},
        {"chi": math.inf},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        HamiltonianSpec(**kwargs)


@pytest.mark.parametrize("ratio,regime", [
    (0.5, "unstable"),
    (1.0, "unstable"),
    (1.9, "unstable"),
    (-0.5, "periodic"),
    (2.5, "periodic"),
    (0.0, "marginal"),
    (2.0, "marginal"),
])
def test_stability_regimes(ratio, regime):
    s, chi = 100.0, 1.0
    rep = classify_stability(chi, ratio * s * chi, s)
    assert rep.regime == regime
    assert abs(rep.ratio - ratio) < 1e-12


def test_stability_frequencies():
    s, chi = 100.0, 1.0
    critical = classify_stability(chi, s * chi, s)
    assert abs(critical.lyapunov - s * chi) < 1e-9  # maximal at ratio 1
    stable = classify_stability(chi, 3.0 * s * chi, s)
    assert abs(stable.omega_hp - math.sqrt(3.0) * s * chi) < 1e-9
    free = classify_stability(0.0, 2.0, s)
    assert free.regime == "marginal" and free.omega_hp == 2.0


@pytest.mark.parametrize("t", [0.05, 0.31, 1.7])
def test_unitary_matches_expm(t):
    p = CollectiveSpinParams(8)
    h = build_hamiltonian(HamiltonianSpec(chi=1.0, omega=4.0), p)
    rng = np.random.default_rng(42)
    state = random_pure_state(8, rng)
    ours = evolve_unitary(h, state, t)
    oracle = brute_force_evolve(h, state, t)
    assert abs(abs(ours.overlap(oracle)) - 1.0) < 1e-12
    assert np.max(np.abs(ours.amplitudes - oracle.amplitudes)) < 1e-10


def test_unitary_density_evolution():
    p = CollectiveSpinParams(8)
    h = build_hamiltonian(HamiltonianSpec(chi=1.0, omega=4.0), p)
    state = css(p, math.pi / 2, 0.0)
    rho_t = evolve_unitary(h, state.to_density(), 0.4).matrix
    psi_t = evolve_unitary(h, state, 0.4)
    assert np.allclose(rho_t, psi_t.to_density().matrix, atol=1e-12)


def test_propagator_group_property_and_cache():
    p = CollectiveSpinParams(8)
    h = build_hamiltonian(HamiltonianSpec(chi=1.0, omega=4.0), p)
    prop = propagator_for(h)
    assert propagator_for(h) is prop
    u = prop.unitary(0.3) @ prop.unitary(0.5)
    assert np.allclose(u, prop.unitary(0.8), atol=1e-10)
    assert np.allclose(prop.unitary(0.3) @ prop.unitary(-0.3), np.eye(p.dim), atol=1e-12)


def test_forward_backward_echo():
    p = CollectiveSpinParams(60)
    h = build_hamiltonian(HamiltonianSpec(chi=1.0, omega=p.spin), p)
    state = css(p, math.pi / 2, 0.0)
    echoed = evolve_unitary(-h, evolve_unitary(h, state, 0.02), 0.02)
    assert abs(abs(echoed.overlap(state)) - 1.0) < 1e-12


def test_stable_regime_variance_is_periodic():
    # ratio 3: quadratic expansion gives w = sqrt(3) S chi; var(Sz) returns
    # after pi / w and stays bounded, unlike the critical point at the same t
    n = 200
    p = CollectiveSpinParams(n)
    s = p.spin
    ops = build_spin_operators(p)
    state0 = css(p, math.pi / 2, 0.0)
    rep = classify_stability(1.0, 3.0 * s, s)
    period = math.pi / rep.omega_hp

    def var_z(h, t):
        st = evolve_unitary(h, state0, t)
        mean = st.expectation(ops.sz).real
        return st.expectation(ops.sz @ ops.sz).real - mean * mean

    h_stable = build_hamiltonian(HamiltonianSpec(chi=1.0, omega=3.0 * s), p)
    v0 = var_z(h_stable, 0.0)
    assert abs(var_z(h_stable, period) - v0) / v0 < 0.02
    samples = [var_z(h_stable, t) for t in np.linspace(0.0, 2.0 * period, 17)]
    assert max(samples) < 4.0 * v0
    h_critical = build_hamiltonian(HamiltonianSpec(chi=1.0, omega=s), p)
    assert var_z(h_critical, period) > 10.0 * v0


def test_lindblad_gamma_zero_matches_unitary():
    p = CollectiveSpinParams(20)
    h = build_hamiltonian(HamiltonianSpec(chi=1.0, omega=p.spin), p)
    state = css(p, math.pi / 2, 0.0)
    t = 0.4 / p.spin
    rho = evolve_lindblad(h, LindbladSpec(gamma=0.0), state, t).matrix
    target = evolve_unitary(h, state, t).to_density().matrix
    assert np.max(np.abs(rho - target)) < 1e-8


def test_lindblad_matches_dephased_closed_form():
    n, chi, gamma = 20, 1.0, 0.8
    p = CollectiveSpinParams(n)
    h = build_hamiltonian(HamiltonianSpec(chi=chi, kind="OAT"), p)
    state = css(p, math.pi / 2, 0.0)
    t = 0.3 / p.spin
    rho = evolve_lindblad(h, LindbladSpec(gamma=gamma, jump_axis=AXIS_Z), state, t).matrix
    target = dephased_oat_density(state.to_density().matrix, n, chi, gamma, t)
    assert np.max(np.abs(rho - target)) < 1e-8
    assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_lindblad_dephasing_shrinks_coherence_not_populations():
    p = CollectiveSpinParams(12)
    h = build_hamiltonian(HamiltonianSpec(chi=1.0, omega=2.0), p)
    state = css(p, math.pi / 2, 0.0)
    rho0 = state.to_density().matrix
    rho = evolve_lindblad(h, LindbladSpec(gamma=3.0), state, 0.2).matrix
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    # strong collective dephasing pushes the state toward the diagonal
    off0 = np.abs(rho0 - np.diag(np.diag(rho0))).sum()
    off = np.abs(rho - np.diag(np.diag(rho))).sum()
    assert off < off0


def test_lindblad_trace_guard_fires_on_coarse_step():
    p = CollectiveSpinParams(10)
    h = build_hamiltonian(HamiltonianSpec(chi=1.0, omega=5.0), p)
    state = css(p, math.pi / 2, 0.0)
    with pytest.raises(RuntimeError, match="smaller dt"):
        evolve_lindblad(h, LindbladSpec(gamma=0.5), state, t=2.0, dt=0.5)


def test_default_dt_scales_down_with_gamma():
    p = CollectiveSpinParams(10)
    h = build_hamiltonian(HamiltonianSpec(chi=1.0, omega=5.0), p)
    dt0 = default_lindblad_dt(h, LindbladSpec(gamma=0.0), p.spin)
    dt1 = default_lindblad_dt(h, LindbladSpec(gamma=10.0), p.spin)
    assert 0.0 < dt1 < dt0


def test_lindblad_rejects_negative_gamma():
    with pytest.raises(ValueError):
        LindbladSpec(gamma=-0.1)
