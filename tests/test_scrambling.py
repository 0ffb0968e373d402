"""Echo fidelity, curvature extraction, and the operator-growth crosscheck."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from lmgsim import (
    CollectiveSpinParams,
    FotocSample,
    HamiltonianSpec,
    SpinAxis,
    build_hamiltonian,
    css,
    evolve_unitary,
    fotoc,
    heisenberg_operator,
    otoc_from_fotoc,
    otoc_trace_form,
    rotation_matrix,
)
from helpers import dense_component, dense_spin_operators, dephased_oat_density, random_pure_state
from lmgsim import DensityMatrix


@pytest.mark.parametrize("n", [2, 20, 200])
def test_fotoc_at_t_zero_closed_form(n):
    # no dynamics: F(dphi) = |<css| e^{-i dphi Sz} |css>|^2 = cos^{2N}(dphi / 2)
    p = CollectiveSpinParams(n)
    state = css(p, math.pi / 2, 0.0)
    spec = HamiltonianSpec(chi=1.0, omega=p.spin)
    dphis = (-0.1, -0.05, -0.01, 0.0, 0.01, 0.05, 0.1)
    samples = fotoc(spec, state, SpinAxis(theta=0.0, phi=0.0), 0.0, dphis)
    for s in samples:
        assert abs(s.fidelity - math.cos(s.delta_phi / 2.0) ** (2 * n)) < 1e-12


def test_fotoc_matches_expm_oracle_pure():
    n, t = 8, 0.3
    p = CollectiveSpinParams(n)
    spec = HamiltonianSpec(chi=1.0, omega=0.7 * p.spin)
    axis = SpinAxis.in_plane(math.pi / 4)
    gen = dense_component(dense_spin_operators(p), axis)
    state = css(p, math.pi / 2, 0.0)
    samples = fotoc(spec, state, axis, t)
    h = build_hamiltonian(spec, p)
    for s in samples:
        u = expm(1j * h * t) @ expm(-1j * s.delta_phi * gen) @ expm(-1j * h * t)
        want = abs(state.amplitudes.conj() @ (u @ state.amplitudes)) ** 2
        assert abs(s.fidelity - want) < 1e-10


@pytest.mark.parametrize("s_chi_t", [0.3, 0.8])
def test_pure_fotoc_matches_density_echo_at_n200(s_chi_t):
    p = CollectiveSpinParams(200)
    spec = HamiltonianSpec(chi=1.0, omega=p.spin)
    axis = SpinAxis.in_plane(math.pi / 4)
    state = css(p, math.pi / 2, 0.0)
    t = s_chi_t / p.spin
    pure = fotoc(spec, state, axis, t)
    dense = fotoc(spec, state.to_density(), axis, t)
    assert [s.delta_phi for s in pure] == [s.delta_phi for s in dense]
    assert max(abs(a.fidelity - b.fidelity) for a, b in zip(pure, dense)) < 1e-12
    assert min(s.fidelity for s in pure) < 0.999  # the probe visibly reduces the echo


def test_fotoc_mixed_state_matches_trace_oracle():
    n, t = 6, 0.25
    p = CollectiveSpinParams(n)
    spec = HamiltonianSpec(chi=1.0, omega=0.5 * p.spin)
    axis = SpinAxis.in_plane(0.6)
    gen = dense_component(dense_spin_operators(p), axis)
    rho0 = css(p, math.pi / 2, 0.0).to_density().matrix
    rho = DensityMatrix(dephased_oat_density(rho0, n, 1.0, 0.4, 0.1))
    samples = fotoc(spec, rho, axis, t, delta_phis=(-0.02, -0.01, 0.0, 0.01, 0.02))
    h = build_hamiltonian(spec, p)
    for s in samples:
        u = expm(1j * h * t) @ expm(-1j * s.delta_phi * gen) @ expm(-1j * h * t)
        want = np.real(np.trace(u @ rho.matrix @ u.conj().T @ rho.matrix))
        assert abs(s.fidelity - want) < 1e-10


def test_parabola_fit_recovers_synthetic_curvature():
    value, center, offset = 37.5, 0.0012, 0.98
    dphis = np.array([-0.01, -0.005, -0.002, 0.0, 0.002, 0.005, 0.01])
    samples = [
        FotocSample(delta_phi=float(d), fidelity=float(offset - value * (d - center) ** 2))
        for d in dphis
    ]
    fit = otoc_from_fotoc(samples)
    assert abs(fit.value - value) < 1e-6
    assert abs(fit.center - center) < 1e-9
    assert abs(fit.offset - offset) < 1e-9


def test_parabola_fit_flat_series_gives_zero():
    samples = [FotocSample(d, 1.0) for d in (-0.01, -0.005, 0.0, 0.005, 0.01)]
    fit = otoc_from_fotoc(samples)
    assert abs(fit.value) < 1e-9  # conditioning residue only
    assert abs(fit.offset - 1.0) < 1e-12


def test_parabola_fit_input_validation():
    with pytest.raises(ValueError):
        otoc_from_fotoc([FotocSample(0.001 * i, 1.0) for i in range(4)])  # too few
    with pytest.raises(ValueError):
        otoc_from_fotoc([FotocSample(0.001 * (i + 1), 1.0) for i in range(6)])  # one sign
    with pytest.raises(ValueError):
        # both signs but only two distinct probe values: singular quadratic
        otoc_from_fotoc([FotocSample(d, 1.0) for d in (-0.01, -0.01, -0.01, 0.01, 0.01, 0.01)])


@pytest.mark.parametrize("s_chi_t", [0.3, 0.6])
def test_curvature_equals_heisenberg_variance(s_chi_t):
    # for pure states the fitted curvature is var(S_alpha(t)) up to O(dphi^2)
    n = 20
    p = CollectiveSpinParams(n)
    spec = HamiltonianSpec(chi=1.0, omega=p.spin)
    axis = SpinAxis.in_plane(math.pi / 4)
    state = css(p, math.pi / 2, 0.0)
    t = s_chi_t / p.spin
    fit = otoc_from_fotoc(fotoc(spec, state, axis, t))
    op_t = heisenberg_operator(spec, dense_component(dense_spin_operators(p), axis), t)
    mean = state.expectation(op_t).real
    var = state.expectation(op_t @ op_t).real - mean * mean
    assert abs(fit.value - var) / var < 0.02


def test_trace_form_is_mean_squared_for_pure():
    n, t = 10, 0.2
    p = CollectiveSpinParams(n)
    spec = HamiltonianSpec(chi=1.0, omega=p.spin)
    axis = SpinAxis.in_plane(1.0)
    state = css(p, math.pi / 2, 0.0)
    got = otoc_trace_form(spec, state, axis, t)
    op_t = heisenberg_operator(spec, dense_component(dense_spin_operators(p), axis), t)
    assert abs(got - state.expectation(op_t).real ** 2) < 1e-9


def test_heisenberg_operator_basics():
    p = CollectiveSpinParams(8)
    spec = HamiltonianSpec(chi=1.0, omega=2.0)
    ops = dense_spin_operators(p)
    a0 = heisenberg_operator(spec, ops.sy, 0.0)
    assert np.allclose(a0, ops.sy, atol=1e-12)
    at = heisenberg_operator(spec, ops.sy, 0.37)
    assert np.allclose(at, at.conj().T, atol=1e-12)
    # spectrum is invariant under conjugation
    assert np.allclose(np.linalg.eigvalsh(at), np.linalg.eigvalsh(ops.sy), atol=1e-10)


def test_fotoc_peak_sits_at_zero_probe():
    n = 16
    p = CollectiveSpinParams(n)
    spec = HamiltonianSpec(chi=1.0, omega=p.spin)
    state = css(p, math.pi / 2, 0.0)
    fit = otoc_from_fotoc(fotoc(spec, state, SpinAxis.in_plane(math.pi / 4), 0.4 / p.spin))
    assert fit.value > 0.0
    assert abs(fit.center) < 1e-6
    assert abs(fit.offset - 1.0) < 1e-6
