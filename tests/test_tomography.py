"""Sampling, maximum-likelihood reconstruction, fidelity, pipeline, bootstrap."""

import math

import numpy as np
import pytest

from lmgsim import (
    AXIS_X,
    AXIS_Z,
    CollectiveSpinParams,
    DensityMatrix,
    FotocPipelineConfig,
    HamiltonianSpec,
    LindbladSpec,
    MeasurementRecord,
    MeasurementSetting,
    ReconstructionConfig,
    SatinConfig,
    SpinAxis,
    bootstrap_otoc,
    born_probabilities,
    build_hamiltonian,
    css,
    evolve_lindblad,
    evolve_unitary,
    fibonacci_directions,
    fotoc,
    infinite_shot_records,
    otoc_from_fotoc,
    reconstruct,
    records_from_json_lines,
    records_to_json_lines,
    run_satin,
    simulate_measurements,
    tomographic_fotoc_pipeline,
    uhlmann_fidelity,
)
from helpers import random_density, random_pure_state


def _lmg_state(n, s_chi_t):
    p = CollectiveSpinParams(n)
    h = build_hamiltonian(HamiltonianSpec(chi=1.0, omega=p.spin), p)
    return p, evolve_unitary(h, css(p, math.pi / 2, 0.0), s_chi_t / p.spin)


def test_fibonacci_directions_properties():
    axes = fibonacci_directions(41)
    assert len(axes) == 41
    assert len({(a.theta, a.phi) for a in axes}) == 41
    for a in axes:
        assert 0.0 <= a.theta <= math.pi
        assert 0.0 <= a.phi < 2.0 * math.pi
    # deterministic
    again = fibonacci_directions(41)
    assert all(a.theta == b.theta and a.phi == b.phi for a, b in zip(axes, again))
    with pytest.raises(ValueError):
        fibonacci_directions(0)


def test_born_probabilities_known_cases():
    n = 12
    p = CollectiveSpinParams(n)
    state = css(p, math.pi / 2, 0.0)
    along_x = born_probabilities(state, SpinAxis(theta=math.pi / 2, phi=0.0))
    assert abs(along_x[0] - 1.0) < 1e-12  # first slot is m = +S along the axis
    along_z = born_probabilities(state, AXIS_Z)
    binom = np.array([math.comb(n, k) for k in range(n, -1, -1)], dtype=float) / 2.0**n
    assert np.max(np.abs(along_z - binom)) < 1e-12
    assert abs(np.sum(along_z) - 1.0) < 1e-14


def test_simulate_measurements_deterministic_per_seed():
    p, state = _lmg_state(8, 0.4)
    settings = [MeasurementSetting(axis=a, shots=50) for a in fibonacci_directions(7)]
    a = simulate_measurements(state, settings, seed=5)
    b = simulate_measurements(state, settings, seed=5)
    c = simulate_measurements(state, settings, seed=6)
    assert all(np.array_equal(x.counts, y.counts) for x, y in zip(a, b))
    assert any(not np.array_equal(x.counts, y.counts) for x, y in zip(a, c))
    assert all(x.total == 50 for x in a)


def test_sampler_statistics_match_born_rule():
    p, state = _lmg_state(6, 0.3)
    axis = SpinAxis(theta=1.0, phi=0.5)
    shots = 100_000
    rec = simulate_measurements(state, [MeasurementSetting(axis=axis, shots=shots)], seed=17)[0]
    freq = rec.counts / shots
    prob = born_probabilities(state, axis)
    sigma = np.sqrt(np.clip(prob * (1.0 - prob), 1e-12, None) / shots)
    assert np.max(np.abs(freq - prob) / (sigma + 1e-12)) < 5.0


def test_records_json_round_trip():
    p, state = _lmg_state(5, 0.2)
    recs = simulate_measurements(
        state, [MeasurementSetting(axis=a, shots=30) for a in fibonacci_directions(4)], seed=1
    )
    text = "# manifest_sha256=deadbeef\n" + records_to_json_lines(recs, p)
    back = records_from_json_lines(text, p)
    assert len(back) == len(recs)
    for x, y in zip(recs, back):
        assert x.axis.theta == y.axis.theta and x.axis.phi == y.axis.phi
        assert np.array_equal(x.counts, y.counts)
    with pytest.raises(ValueError):
        records_from_json_lines('{"theta": 0.1, "phi": 0.0, "counts": {"7.5": 3}}', p)


def test_reconstruct_pure_from_exact_probabilities():
    p, state = _lmg_state(8, 0.57)
    recs = infinite_shot_records(state, fibonacci_directions(15))
    out = reconstruct(recs, p)
    ll = out.log_likelihoods
    assert all(b >= a - 1e-9 for a, b in zip(ll, ll[1:]))
    assert uhlmann_fidelity(state, out.rho) > 0.999


def test_reconstruct_mixed_state_converges():
    n = 8
    p = CollectiveSpinParams(n)
    h = build_hamiltonian(HamiltonianSpec(chi=1.0, omega=p.spin), p)
    target = evolve_lindblad(h, LindbladSpec(gamma=2.0), css(p, math.pi / 2, 0.0), 0.3 / p.spin)
    out = reconstruct(infinite_shot_records(target, fibonacci_directions(15)), p)
    assert out.converged
    assert uhlmann_fidelity(target, out.rho) > 0.9999


def test_reconstruct_finite_shots():
    p, state = _lmg_state(8, 0.57)
    settings = [MeasurementSetting(axis=a, shots=500) for a in fibonacci_directions(15)]
    recs = simulate_measurements(state, settings, seed=42)
    out = reconstruct(recs, p)
    assert uhlmann_fidelity(state, out.rho) > 0.98


def test_reconstruct_respects_iteration_budget():
    p, state = _lmg_state(6, 0.4)
    recs = infinite_shot_records(state, fibonacci_directions(10))
    out = reconstruct(recs, p, ReconstructionConfig(max_iterations=7))
    assert out.iterations <= 7
    assert not out.converged or out.iterations < 7


def test_reconstruct_input_validation():
    p = CollectiveSpinParams(4)
    with pytest.raises(ValueError):
        reconstruct([], p)
    bad = MeasurementRecord(axis=AXIS_Z, counts=np.ones(3))
    with pytest.raises(ValueError):
        reconstruct([bad], p)
    empty = MeasurementRecord(axis=AXIS_Z, counts=np.zeros(5))
    with pytest.raises(ValueError):
        reconstruct([empty], p)


def test_uhlmann_fidelity_identities():
    rng = np.random.default_rng(9)
    psi = random_pure_state(6, rng)
    chi_state = random_pure_state(6, rng)
    assert abs(uhlmann_fidelity(psi, psi) - 1.0) < 1e-12
    assert abs(uhlmann_fidelity(psi, chi_state) - abs(psi.overlap(chi_state)) ** 2) < 1e-12
    rho = random_density(6, rng)
    # matrix-sqrt roundoff near the zero eigenvalues dominates here
    assert abs(uhlmann_fidelity(rho, rho) - 1.0) < 1e-7
    f_pd = uhlmann_fidelity(psi, rho)
    want = float(np.real(psi.amplitudes.conj() @ (rho.matrix @ psi.amplitudes)))
    assert abs(f_pd - want) < 1e-12
    assert abs(uhlmann_fidelity(rho, psi) - f_pd) < 1e-12
    # maximally mixed against anything pure: 1/d
    eye = DensityMatrix(np.eye(7, dtype=complex) / 7.0)
    assert abs(uhlmann_fidelity(eye, psi) - 1.0 / 7.0) < 1e-12
    sigma = random_density(6, rng)
    assert abs(uhlmann_fidelity(rho, sigma) - uhlmann_fidelity(sigma, rho)) < 1e-7
    assert uhlmann_fidelity(rho, sigma) < 1.0


def test_pipeline_infinite_shots_matches_direct_fotoc():
    n = 8
    p = CollectiveSpinParams(n)
    spec = HamiltonianSpec(chi=1.0, omega=p.spin)
    dphis = (-0.1, -0.05, -0.02, 0.0, 0.02, 0.05, 0.1)
    pipe = FotocPipelineConfig(
        params=p,
        satin=SatinConfig(hamiltonian=spec, t=0.5 / p.spin),
        delta_phis=dphis,
        n_directions=15,
        shots=None,
    )
    result = tomographic_fotoc_pipeline(pipe)
    h = build_hamiltonian(spec, p)
    direct = otoc_from_fotoc(
        fotoc(h, css(p, math.pi / 2, 0.0), SpinAxis.in_plane(math.pi / 4), 0.5 / p.spin, dphis)
    )
    assert abs(result.otoc.value - direct.value) / direct.value < 0.01
    for sample, dphi in zip(result.samples, dphis):
        assert sample.delta_phi == dphi
        assert 0.0 <= sample.fidelity <= 1.0 + 1e-9
    assert len(result.records) == len(dphis)
    assert len(result.reconstructions) == len(dphis)


def test_pipeline_finite_shots_deterministic():
    p = CollectiveSpinParams(6)
    pipe = FotocPipelineConfig(
        params=p,
        satin=SatinConfig(hamiltonian=HamiltonianSpec(chi=1.0, omega=p.spin), t=0.1),
        delta_phis=(-0.1, -0.05, 0.0, 0.05, 0.1),
        n_directions=8,
        shots=40,
        seed=21,
    )
    a = tomographic_fotoc_pipeline(pipe)
    b = tomographic_fotoc_pipeline(pipe)
    assert a.otoc.value == b.otoc.value
    for ra, rb in zip(a.records, b.records):
        assert all(np.array_equal(x.counts, y.counts) for x, y in zip(ra, rb))
    # distinct probe angles see distinct measurement streams
    assert any(
        not np.array_equal(x.counts, y.counts) for x, y in zip(a.records[0], a.records[1])
    )


def test_bootstrap_zero_variance_records():
    # one-hot histograms resample to themselves, so the interval has width 0
    p = CollectiveSpinParams(4)
    axes = fibonacci_directions(6)
    dphis = (-0.1, -0.05, 0.0, 0.05, 0.1)
    records = []
    for k, dphi in enumerate(dphis):
        recs = []
        for j, a in enumerate(axes):
            counts = np.zeros(p.dim)
            counts[(j + k) % p.dim] = 12.0
            recs.append(MeasurementRecord(axis=a, counts=counts))
        records.append((dphi, recs))
    reference = css(p, math.pi / 2, 0.0)
    boot = bootstrap_otoc(records, p, reference, n_boot=100, seed=3)
    assert boot.ci_high - boot.ci_low == 0.0
    assert boot.resampled.shape == (100,)
    assert np.all(boot.resampled == boot.resampled[0])


@pytest.mark.slow
def test_bootstrap_interval_shrinks_with_shots():
    p = CollectiveSpinParams(6)
    spec = HamiltonianSpec(chi=1.0, omega=p.spin)
    dphis = (-0.1, -0.05, 0.0, 0.05, 0.1)
    axes = fibonacci_directions(8)
    reference = css(p, math.pi / 2, 0.0)
    cfg = SatinConfig(hamiltonian=spec, t=0.6 / p.spin)
    finals = [run_satin(reference, cfg, d) for d in dphis]

    def median_width(shots):
        widths = []
        for seed in range(3):
            streams = np.random.SeedSequence([seed, shots]).spawn(len(dphis))
            recs = [
                simulate_measurements(f, [MeasurementSetting(axis=a, shots=shots) for a in axes], s)
                for f, s in zip(finals, streams)
            ]
            boot = bootstrap_otoc(list(zip(dphis, recs)), p, reference, n_boot=100, seed=seed + 50)
            widths.append(boot.ci_high - boot.ci_low)
        return float(np.median(widths))

    assert median_width(100) < median_width(25)


def test_bootstrap_requires_enough_resamples():
    p = CollectiveSpinParams(4)
    rec = MeasurementRecord(axis=AXIS_X, counts=np.array([5.0, 5.0, 0.0, 0.0, 0.0]))
    records = [(d, [rec]) for d in (-0.1, -0.05, 0.0, 0.05, 0.1)]
    with pytest.raises(ValueError):
        bootstrap_otoc(records, p, css(p, math.pi / 2, 0.0), n_boot=50)
