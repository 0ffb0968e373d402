"""Hamiltonians, stability classification, unitary and Lindblad propagation."""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from lmgsim import (
    AXIS_Z,
    CollectiveSpinParams,
    HamiltonianSpec,
    LindbladSpec,
    SpinAxis,
    build_hamiltonian,
    classify_stability,
    css,
    default_lindblad_dt,
    evolve_lindblad,
    evolve_unitary,
    fotoc,
    propagator_for,
    rotate,
    rotation_matrix,
)
from lmgsim import dynamics
from helpers import (
    brute_force_evolve,
    dense_component,
    dense_spin_operators,
    dephased_oat_density,
    random_density,
    random_pure_state,
)


def test_hamiltonian_kinds():
    p = CollectiveSpinParams(6)
    ops = dense_spin_operators(p)
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
    # the in-place real assembly must reproduce chi (Sz @ Sz) + Omega Sx bit for bit:
    # the dense complex product is real, and its real part is H
    p = CollectiveSpinParams(n)
    ops = dense_spin_operators(p)
    # negated couplings (the reversed spec) must give the bytes of sign * H
    for chi, ratio, sign in itertools.product((1.0, 0.3), (0.0, 0.5, 1.0, 3.0), (1, -1)):
        omega = ratio * chi * p.spin
        spec = HamiltonianSpec(chi=sign * chi, omega=sign * omega)
        dense = sign * (chi * (ops.sz @ ops.sz) + omega * ops.sx)
        assert np.all(dense.imag == 0.0), (chi, ratio, sign)
        want = np.ascontiguousarray(dense.real).tobytes()
        assert build_hamiltonian(spec, p).tobytes() == want, (chi, ratio, sign)


def test_time_sign_flips_hamiltonian():
    # reversed() negates both couplings, so its H is -1 * H entry by entry;
    # for OAT and LMG down to the sign of every zero, which keeps the Lindblad
    # backward leg integrating exactly -1 * H
    p = CollectiveSpinParams(6)
    for spec in (
        HamiltonianSpec(chi=0.7, omega=1.1),
        HamiltonianSpec(chi=0.7, kind="OAT"),
        HamiltonianSpec(chi=0.7, kind="TAT"),
    ):
        back = spec.reversed()
        assert (back.chi, back.omega, back.kind) == (-spec.chi, -spec.omega, spec.kind)
        flipped = -1 * build_hamiltonian(spec, p)
        assert np.array_equal(build_hamiltonian(back, p), flipped), spec
        if spec.kind != "TAT":
            assert build_hamiltonian(back, p).tobytes() == flipped.tobytes(), spec


@pytest.mark.parametrize(
    "kwargs",
    [
        {"chi": 1.0, "kind": "XYZ"},
        {"chi": 1.0, "kind": "OAT", "omega": 0.5},
        {"chi": 1.0, "kind": "TAT", "omega": 0.5},
        {"chi": 1.0, "omega": math.nan},
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
    spec = HamiltonianSpec(chi=1.0, omega=4.0)
    rng = np.random.default_rng(42)
    state = random_pure_state(8, rng)
    ours = evolve_unitary(spec, state, t)
    oracle = brute_force_evolve(build_hamiltonian(spec, p), state, t)
    assert abs(abs(ours.overlap(oracle)) - 1.0) < 1e-12
    assert np.max(np.abs(ours.amplitudes - oracle.amplitudes)) < 1e-10


def test_unitary_density_evolution():
    p = CollectiveSpinParams(8)
    spec = HamiltonianSpec(chi=1.0, omega=4.0)
    state = css(p, math.pi / 2, 0.0)
    rho_t = evolve_unitary(spec, state.to_density(), 0.4).matrix
    psi_t = evolve_unitary(spec, state, 0.4)
    assert np.allclose(rho_t, psi_t.to_density().matrix, atol=1e-12)


def test_propagator_group_property_and_cache():
    p = CollectiveSpinParams(8)
    spec = HamiltonianSpec(chi=1.0, omega=4.0)
    prop = propagator_for(spec, p)
    assert propagator_for(spec, p) is prop
    u = prop.unitary(0.3) @ prop.unitary(0.5)
    assert np.allclose(u, prop.unitary(0.8), atol=1e-10)
    assert np.allclose(prop.unitary(0.3) @ prop.unitary(-0.3), np.eye(p.dim), atol=1e-12)
    # the reversed spec is its own entry, with the negated spectrum and U(-H, t) = U(H, -t)
    back = propagator_for(spec.reversed(), p)
    assert back is not prop
    assert np.allclose(np.sort(-back.eigvals), prop.eigvals, atol=1e-12)
    assert np.allclose(back.unitary(0.3), prop.unitary(-0.3), atol=1e-12)
    for k in range(40):
        propagator_for(HamiltonianSpec(chi=1.0, omega=0.1 * k), p)
    assert propagator_for.cache_info().currsize == 32


def test_propagator_cache_holds_hamiltonians_and_axes_side_by_side():
    p = CollectiveSpinParams(8)
    spec = HamiltonianSpec(chi=1.0, omega=4.0)
    axis = SpinAxis.in_plane(0.7)
    propagator_for.cache_clear()
    h_prop, axis_prop = propagator_for(spec, p), propagator_for(axis, p)
    assert propagator_for.cache_info().currsize == 2
    assert propagator_for(spec, p) is h_prop and propagator_for(axis, p) is axis_prop
    # the axis entry is the spectrum of n.S: eigenvalues S, S - 1, ..., -S
    assert np.allclose(axis_prop.eigvals, np.sort(p.m_values()), atol=1e-12)
    assert np.allclose(rotation_matrix(p, axis, 0.4), axis_prop.unitary(0.4))
    for k in range(40):
        propagator_for(SpinAxis(theta=0.05 * k), p)
    assert propagator_for.cache_info().currsize == 32
    assert propagator_for.cache_info().maxsize == 32


@pytest.mark.parametrize(
    "spec",
    [HamiltonianSpec(chi=0.7, kind="OAT"), HamiltonianSpec(chi=0.7, omega=1.1), HamiltonianSpec(chi=0.7, kind="TAT")],
)
def test_hamiltonians_and_eigenvectors_are_real(spec):
    # every generator is real symmetric up to a diagonal phase: float64 H, float64 eigenvectors
    p = CollectiveSpinParams(40)
    for s in (spec, spec.reversed()):
        assert build_hamiltonian(s, p).dtype == np.float64, s
        prop = propagator_for(s, p)
        assert prop.eigvecs.dtype == np.float64 and prop.frame is None, s
    for axis in (AXIS_Z, SpinAxis(theta=0.7), SpinAxis(theta=0.7, phi=-1.3), SpinAxis.in_plane(0.4)):
        assert propagator_for(axis, p).eigvecs.dtype == np.float64, axis
    with pytest.raises(TypeError):
        dynamics.UnitaryPropagator(np.eye(p.dim, dtype=complex))


@pytest.mark.parametrize("n", [6, 40, 200])
@pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2, math.pi])
def test_axis_propagators_match_expm(n, theta):
    # n.S = e^(-i phi Sz) (sin theta Sx + cos theta Sz) e^(i phi Sz): the real eigensolve and
    # the frame e^(-i phi m) must reproduce expm of the dense complex n.S
    p = CollectiveSpinParams(n)
    ops = dense_spin_operators(p)
    rng = np.random.default_rng(n)
    psi, rho = random_pure_state(n, rng), random_density(n, rng)
    spec = HamiltonianSpec(chi=1.0, omega=0.7 * p.spin)
    t, angle, dphis = 0.4 / p.spin, 0.37, (-0.01, 0.0, 0.02)
    psi_t = expm(-1j * t * build_hamiltonian(spec, p)) @ psi.amplitudes
    for phi in (0.0, 0.4, math.pi / 2, -1.3):
        axis = SpinAxis(theta=theta, phi=phi)
        gen = dense_component(ops, axis)
        want = expm(-1j * angle * gen)
        prop = propagator_for(axis, p)
        assert (prop.frame is None) == (phi == 0.0)
        assert np.max(np.abs(prop.eigvals - np.sort(p.m_values()))) < 1e-12, phi
        assert np.max(np.abs(rotation_matrix(p, axis, angle) - want)) < 1e-12, phi
        assert np.max(np.abs(rotate(psi, axis, angle).amplitudes - want @ psi.amplitudes)) < 1e-12, phi
        rotated = rotate(rho, axis, angle).matrix
        assert np.max(np.abs(rotated - want @ rho.matrix @ want.conj().T)) < 1e-12, phi
        for sample in fotoc(spec, psi, axis, t, dphis):
            echo = abs(psi_t.conj() @ expm(-1j * sample.delta_phi * gen) @ psi_t) ** 2
            assert abs(sample.fidelity - echo) < 1e-12, (phi, sample.delta_phi)


def test_forward_backward_echo():
    p = CollectiveSpinParams(60)
    spec = HamiltonianSpec(chi=1.0, omega=p.spin)
    state = css(p, math.pi / 2, 0.0)
    echoed = evolve_unitary(spec.reversed(), evolve_unitary(spec, state, 0.02), 0.02)
    assert abs(abs(echoed.overlap(state)) - 1.0) < 1e-12


def test_stable_regime_variance_is_periodic():
    # ratio 3: quadratic expansion gives w = sqrt(3) S chi; var(Sz) returns
    # after pi / w and stays bounded, unlike the critical point at the same t
    n = 200
    p = CollectiveSpinParams(n)
    s = p.spin
    ops = dense_spin_operators(p)
    state0 = css(p, math.pi / 2, 0.0)
    rep = classify_stability(1.0, 3.0 * s, s)
    period = math.pi / rep.omega_hp

    def var_z(spec, t):
        st = evolve_unitary(spec, state0, t)
        mean = st.expectation(ops.sz).real
        return st.expectation(ops.sz @ ops.sz).real - mean * mean

    spec_stable = HamiltonianSpec(chi=1.0, omega=3.0 * s)
    v0 = var_z(spec_stable, 0.0)
    assert abs(var_z(spec_stable, period) - v0) / v0 < 0.02
    samples = [var_z(spec_stable, t) for t in np.linspace(0.0, 2.0 * period, 17)]
    assert max(samples) < 4.0 * v0
    spec_critical = HamiltonianSpec(chi=1.0, omega=s)
    assert var_z(spec_critical, period) > 10.0 * v0


def test_lindblad_gamma_zero_matches_unitary():
    p = CollectiveSpinParams(20)
    spec = HamiltonianSpec(chi=1.0, omega=p.spin)
    state = css(p, math.pi / 2, 0.0)
    t = 0.4 / p.spin
    rho = evolve_lindblad(spec, LindbladSpec(gamma=0.0), state, t).matrix
    target = evolve_unitary(spec, state, t).to_density().matrix
    assert np.max(np.abs(rho - target)) < 1e-8


def test_lindblad_matches_dephased_closed_form():
    n, chi, gamma = 20, 1.0, 0.8
    p = CollectiveSpinParams(n)
    spec = HamiltonianSpec(chi=chi, kind="OAT")
    state = css(p, math.pi / 2, 0.0)
    t = 0.3 / p.spin
    rho = evolve_lindblad(spec, LindbladSpec(gamma=gamma), state, t).matrix
    target = dephased_oat_density(state.to_density().matrix, n, chi, gamma, t)
    assert np.max(np.abs(rho - target)) < 1e-8
    assert abs(np.trace(rho).real - 1.0) < 1e-12


@pytest.mark.parametrize("n", [6, 12])
@pytest.mark.parametrize("axis", [AXIS_Z])  # the one jump operator: collective Sz dephasing
@pytest.mark.parametrize("gamma", [0.3, 2.0])
def test_lindblad_matches_expm_of_dense_generator(n, axis, gamma):
    p = CollectiveSpinParams(n)
    ops = dense_spin_operators(p)
    spec = HamiltonianSpec(chi=1.0, omega=p.spin)
    h = build_hamiltonian(spec, p)
    nx, ny, nz = axis.unit_vector
    jump = nx * ops.sx + ny * ops.sy + nz * ops.sz
    jump2 = jump @ jump
    eye = np.eye(p.dim)
    # row-major vec: vec(A X B) = (A kron B^T) vec(X)
    generator = -1j * (np.kron(h, eye) - np.kron(eye, h.T)) + gamma * (
        np.kron(jump, jump.T) - 0.5 * np.kron(jump2, eye) - 0.5 * np.kron(eye, jump2.T)
    )
    state = css(p, math.pi / 2, 0.0)
    t = 0.5 / p.spin
    target = (expm(t * generator) @ state.to_density().matrix.ravel()).reshape(p.dim, p.dim)
    rho = evolve_lindblad(spec, LindbladSpec(gamma=gamma), state, t).matrix
    assert np.max(np.abs(rho - target)) < 1e-8
    assert np.array_equal(rho, rho.conj().T)
    assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_lindblad_dephasing_shrinks_coherence_not_populations():
    p = CollectiveSpinParams(12)
    spec = HamiltonianSpec(chi=1.0, omega=2.0)
    state = css(p, math.pi / 2, 0.0)
    rho0 = state.to_density().matrix
    rho = evolve_lindblad(spec, LindbladSpec(gamma=3.0), state, 0.2).matrix
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    # strong collective dephasing pushes the state toward the diagonal
    off0 = np.abs(rho0 - np.diag(np.diag(rho0))).sum()
    off = np.abs(rho - np.diag(np.diag(rho))).sum()
    assert off < off0


def test_lindblad_trace_guard_fires_on_coarse_step(monkeypatch):
    p = CollectiveSpinParams(10)
    spec = HamiltonianSpec(chi=1.0, omega=5.0)
    state = css(p, math.pi / 2, 0.0)
    monkeypatch.setattr(dynamics, "default_lindblad_dt", lambda *args: 0.5)
    with pytest.raises(RuntimeError, match="trace drifted"):
        evolve_lindblad(spec, LindbladSpec(gamma=0.5), state, t=2.0)


def test_default_dt_scales_down_with_gamma():
    p = CollectiveSpinParams(10)
    spec = HamiltonianSpec(chi=1.0, omega=5.0)
    dt0 = default_lindblad_dt(spec, LindbladSpec(gamma=0.0), p)
    dt1 = default_lindblad_dt(spec, LindbladSpec(gamma=10.0), p)
    assert 0.0 < dt1 < dt0


def test_lindblad_rejects_negative_gamma():
    with pytest.raises(ValueError):
        LindbladSpec(gamma=-0.1)
