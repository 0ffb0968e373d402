"""Sampling, maximum-likelihood reconstruction, fidelity, pipeline, bootstrap."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lmgsim import (
    AXIS_X,
    AXIS_Z,
    CollectiveSpinParams,
    DensityMatrix,
    FotocPipelineConfig,
    PureState,
    HamiltonianSpec,
    LindbladSpec,
    MeasurementRecord,
    MeasurementSetting,
    SatinConfig,
    SpinAxis,
    as_density,
    bootstrap_otoc,
    born_probabilities,
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
import lmgsim
from lmgsim import tomography
from lmgsim.tomography import _basis_tables, _real_probabilities, _real_r_operator
from helpers import measurement_basis, random_density, random_pure_state


def _lmg_state(n, s_chi_t):
    p = CollectiveSpinParams(n)
    spec = HamiltonianSpec(chi=1.0, omega=p.spin)
    return p, evolve_unitary(spec, css(p, math.pi / 2, 0.0), s_chi_t / p.spin)


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
    along_x = born_probabilities(state, [SpinAxis(theta=math.pi / 2, phi=0.0)])[0]
    assert abs(along_x[0] - 1.0) < 1e-12  # first slot is m = +S along the axis
    along_z = born_probabilities(state, [AXIS_Z])[0]
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
    prob = born_probabilities(state, [axis])[0]
    sigma = np.sqrt(np.clip(prob * (1.0 - prob), 1e-12, None) / shots)
    assert np.max(np.abs(freq - prob) / (sigma + 1e-12)) < 5.0


@pytest.mark.parametrize("n", [40, 200])
def test_sampled_counts_ignore_ulp_perturbations_of_the_target(n):
    # criterion 10's target and seed: a few ulps on the amplitudes must not
    # redraw any setting, since they move no Born probability across the flush
    p, target = _lmg_state(n, 0.57)
    settings = [MeasurementSetting(axis=a, shots=30) for a in fibonacci_directions(41)]
    reference = simulate_measurements(target, settings, seed=12345)
    rng = np.random.default_rng(n)
    amps = target.amplitudes
    for _ in range(3):
        re, im = (x + rng.integers(-4, 5, size=x.shape) * np.spacing(x) for x in (amps.real, amps.imag))
        nudged = simulate_measurements(PureState(re + 1j * im), settings, seed=12345)
        assert all(np.array_equal(a.counts, b.counts) for a, b in zip(reference, nudged))


# Samples fig4's seven final states at N = 200 and prints their records.
_FIG4_RECORDS = """
import math, sys
import numpy as np
from lmgsim import (CollectiveSpinParams, HamiltonianSpec, MeasurementSetting, SatinConfig, css,
                    expand_config, fibonacci_directions, records_to_json_lines, run_satin,
                    simulate_measurements)
cfg = expand_config({"experiment": "fig4", "n_atoms": 200})
p = CollectiveSpinParams(cfg["n_atoms"])
scale = p.spin * cfg["chi"]
spec = HamiltonianSpec(chi=cfg["chi"], omega=cfg["ratio"] * scale)
satin = SatinConfig(hamiltonian=spec, t=cfg["s_chi_t"] / scale, alpha=cfg["alpha"])
settings = [MeasurementSetting(axis=a, shots=cfg["shots"]) for a in fibonacci_directions(cfg["n_directions"])]
streams = np.random.SeedSequence(cfg["seed"]).spawn(len(cfg["delta_phis"]))
for dphi, stream in zip(cfg["delta_phis"], streams):
    final = run_satin(css(p, math.pi / 2, 0.0), satin, dphi)
    sys.stdout.write(records_to_json_lines(simulate_measurements(final, settings, seed=stream), p))
"""


def test_fig4_records_at_n200_do_not_depend_on_blas_threads():
    # threadpoolctl is not a dependency: set the OpenBLAS pool size per process
    src = str(Path(lmgsim.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", _FIG4_RECORDS], env=env, capture_output=True, check=True)
        out.append(run.stdout)
    assert out[0].count(b"\n") == 7 * 41
    assert out[0] == out[1]


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


@pytest.mark.parametrize(
    "line",
    [
        '{"theta": 0.1, "phi": 0.0}',
        "[1]",
        '{"theta": 0.1, "phi": 0.0, "counts": {"1": -3}}',
        '{"theta": 0.1, "phi": 0.0, "counts": {"1": NaN}}',
        '{"theta": 0.1, "phi": 0.0, "counts": {"1": Infinity}}',
        '{"theta": 0.1, "phi": 0.0, "counts": {"1": true}}',
        '{"theta": 0.1, "phi": 0.0, "counts": {"1": "3"}}',
        '{"theta": 0.1, "phi": 0.0, "counts": [3]}',
        '{"theta": null, "phi": 0.0, "counts": {"1": 3}}',
        '{"theta": NaN, "phi": 0.0, "counts": {"1": 3}}',
    ],
)
def test_records_json_rejects_bad_input_with_value_error(line):
    with pytest.raises(ValueError):
        records_from_json_lines(line, CollectiveSpinParams(4))


def test_reconstruct_pure_from_exact_probabilities():
    p, state = _lmg_state(8, 0.57)
    recs = infinite_shot_records(state, fibonacci_directions(15))
    out = reconstruct(recs, p)
    ll = out.log_likelihoods
    assert all(b >= a - 1e-9 for a, b in zip(ll, ll[1:]))
    assert uhlmann_fidelity(state, out.rho) > 0.999


@pytest.mark.parametrize("n", [6, 40, 200])
def test_real_probability_kernel_matches_born_probabilities(n):
    rng = np.random.default_rng(n)
    p, pure = _lmg_state(n, 0.57)
    axes = fibonacci_directions(12)
    assert any(a.phi != 0.0 for a in axes)
    ry, _, phase = _basis_tables(p, axes)
    for state in (random_density(n, rng, rank=n + 1), pure):
        rho = as_density(state).matrix
        dense = np.stack([
            np.real(np.einsum("ji,jk,ki->i", b.conj(), rho, b))
            for b in (measurement_basis(p, a) for a in axes)
        ])
        assert np.max(np.abs(_real_probabilities(rho, ry, phase) - dense)) < 1e-12
        assert np.max(np.abs(born_probabilities(state, axes) - dense)) < 1e-12


@pytest.mark.parametrize("n", [6, 40, 200])
def test_real_r_operator_matches_dense_sum(n):
    p = CollectiveSpinParams(n)
    axes = fibonacci_directions(12)
    weights = np.random.default_rng(n).random((len(axes), p.dim))
    dense = np.zeros((p.dim, p.dim), dtype=complex)
    for a, w in zip(axes, weights):
        b = measurement_basis(p, a)
        dense += (b * w) @ b.conj().T
    r_op = _real_r_operator(weights, *_basis_tables(p, axes))
    assert np.max(np.abs(r_op - dense)) < 1e-12 * np.max(np.abs(dense))


def test_reconstruct_pure_at_n40_from_exact_probabilities():
    p, state = _lmg_state(40, 0.57)
    out = reconstruct(infinite_shot_records(state, fibonacci_directions(41)), p)
    ll = out.log_likelihoods
    assert all(b >= a - 1e-9 for a, b in zip(ll, ll[1:]))
    assert uhlmann_fidelity(state, out.rho) > 0.999


def test_reconstruct_mixed_state_converges():
    n = 8
    p = CollectiveSpinParams(n)
    spec = HamiltonianSpec(chi=1.0, omega=p.spin)
    target = evolve_lindblad(spec, LindbladSpec(gamma=2.0), css(p, math.pi / 2, 0.0), 0.3 / p.spin)
    out = reconstruct(infinite_shot_records(target, fibonacci_directions(15)), p)
    assert out.converged
    assert uhlmann_fidelity(target, out.rho) > 0.9999


def test_reconstruct_finite_shots():
    p, state = _lmg_state(8, 0.57)
    settings = [MeasurementSetting(axis=a, shots=500) for a in fibonacci_directions(15)]
    recs = simulate_measurements(state, settings, seed=42)
    out = reconstruct(recs, p)
    assert uhlmann_fidelity(state, out.rho) > 0.98


def test_reconstruct_respects_iteration_budget(monkeypatch):
    p, state = _lmg_state(6, 0.4)
    recs = infinite_shot_records(state, fibonacci_directions(10))
    monkeypatch.setattr(tomography, "MAX_ITERATIONS", 7)
    out = reconstruct(recs, p)
    assert out.iterations <= 7
    assert not out.converged or out.iterations < 7


def _dense_log_likelihood(recs, rho):
    return sum(
        float(np.sum(rec.counts * np.log(np.maximum(born_probabilities(rho, [rec.axis])[0], tomography.PROB_FLOOR))))
        for rec in recs
    )


def _finite_shot_records(n, seed):
    p, state = _lmg_state(n, 0.57)
    settings = [MeasurementSetting(axis=a, shots=30) for a in fibonacci_directions(41)]
    return p, simulate_measurements(state, settings, seed=seed)


@pytest.mark.parametrize("n", [6, 40])
def test_certified_stop_bounds_the_likelihood_still_to_gain(n, monkeypatch):
    p, recs = _finite_shot_records(n, seed=7)
    total = sum(rec.total for rec in recs)
    out = reconstruct(recs, p)
    with monkeypatch.context() as m:
        m.setattr(tomography, "GAP_TOL", 1e-12)
        m.setattr(tomography, "MAX_ITERATIONS", 20000)
        long = reconstruct(recs, p)
    assert out.converged and out.iterations < long.iterations
    assert 0.0 <= out.gap <= tomography.GAP_TOL * total
    still_to_gain = _dense_log_likelihood(recs, long.rho) - _dense_log_likelihood(recs, out.rho)
    assert still_to_gain <= out.gap
    assert abs(out.log_likelihoods[-1] - _dense_log_likelihood(recs, out.rho)) < 1e-9 * total


@pytest.mark.parametrize("n", [6, 40])
def test_certified_stop_fires_at_first_certified_iteration(n, monkeypatch):
    """Every R the loop builds is recorded; the stop must come at the first
    iteration whose gate is open (last gain <= GAP_TOL * total) and whose
    lambda_max(R) - 1 <= GAP_TOL, whatever eigensolves the loop skipped."""
    p, recs = _finite_shot_records(n, seed=7)
    total = sum(rec.total for rec in recs)
    built = []

    def spy(*args):
        built.append(_real_r_operator(*args))
        return built[-1]

    monkeypatch.setattr(tomography, "_real_r_operator", spy)
    out = reconstruct(recs, p)
    assert out.converged and len(built) == out.iterations + 1
    ll = out.log_likelihoods
    certified = [
        k >= 2 and ll[k - 1] - ll[k - 2] <= tomography.GAP_TOL * total
        and np.linalg.eigvalsh(r_op)[-1] - 1.0 <= tomography.GAP_TOL
        for k, r_op in enumerate(built, start=1)
    ]
    assert certified.index(True) == out.iterations


@pytest.mark.parametrize("n", [6, 40])
@pytest.mark.parametrize("max_iterations", [7, 2000])
def test_reported_gap_matches_dense_r_operator(n, max_iterations, monkeypatch):
    p, recs = _finite_shot_records(n, seed=11)
    monkeypatch.setattr(tomography, "MAX_ITERATIONS", max_iterations)
    out = reconstruct(recs, p)
    total = sum(rec.total for rec in recs)
    rho = out.rho.matrix
    dense = np.zeros((p.dim, p.dim), dtype=complex)
    for rec in recs:
        b = measurement_basis(p, rec.axis)
        probs = np.real(np.einsum("ji,jk,ki->i", b.conj(), rho, b))
        dense += (b * (rec.counts / total / probs)) @ b.conj().T
    lam = np.linalg.eigvalsh(dense)[-1]
    assert abs(1.0 + out.gap / total - lam) < 1e-10 * lam


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
    direct = otoc_from_fotoc(
        fotoc(spec, css(p, math.pi / 2, 0.0), SpinAxis.in_plane(math.pi / 4), 0.5 / p.spin, dphis)
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
