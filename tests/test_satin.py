"""Time-reversal amplification protocol: echo, gain, noise, sweeps."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from lmgsim import (
    CollectiveSpinParams,
    DensityMatrix,
    HamiltonianSpec,
    LindbladSpec,
    SatinConfig,
    SpinAxis,
    build_spin_operators,
    css,
    gain_vs_time_sweep,
    metrological_gain,
    noise_n2,
    rotate,
    run_satin,
    signal_gain,
    spin_component,
)
from lmgsim.satin import _css_reference_response

N = 40


def _config(s_chi_t, **kwargs):
    p = CollectiveSpinParams(N)
    spec = HamiltonianSpec(chi=1.0, omega=p.spin)
    return p, SatinConfig(hamiltonian=spec, t=s_chi_t / p.spin, **kwargs)


def test_zero_probe_echo_is_identity():
    p, cfg = _config(0.8)
    state = css(p, math.pi / 2, 0.0)
    final = run_satin(state, cfg, 0.0)
    assert abs(final.overlap(state)) ** 2 >= 1.0 - 1e-12


def test_gain_is_unity_without_dynamics():
    p, cfg = _config(0.0)
    state = css(p, math.pi / 2, 0.0)
    assert abs(signal_gain(state, cfg) - 1.0) < 1e-9
    res = metrological_gain(state, cfg)
    assert abs(res.n_sq - 1.0) < 1e-9
    assert abs(res.gain_db) < 1e-6


@pytest.mark.parametrize("s_chi_t", [0.2, 0.5, 0.8, 1.0])
def test_ideal_noise_stays_at_sql(s_chi_t):
    p, cfg = _config(s_chi_t)
    state = css(p, math.pi / 2, 0.0)
    assert abs(noise_n2(state, cfg) - 1.0) < 1e-6


def test_gain_grows_with_time_at_critical_drive():
    state = css(CollectiveSpinParams(N), math.pi / 2, 0.0)
    values = []
    for s_chi_t in (0.2, 0.4, 0.6, 0.8):
        _, cfg = _config(s_chi_t)
        values.append(signal_gain(state, cfg))
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 1.5


def test_metrological_gain_consistency():
    p, cfg = _config(0.7)
    state = css(p, math.pi / 2, 0.0)
    res = metrological_gain(state, cfg)
    g = signal_gain(state, cfg)
    n2 = noise_n2(state, cfg, readout_alpha=res.readout_alpha)
    assert abs(res.g_sq - g * g) < 1e-12
    assert abs(res.n_sq - n2) < 1e-12
    assert abs(res.gain_db - 10.0 * math.log10(res.g_sq / res.n_sq)) < 1e-12
    assert 0.0 <= res.readout_alpha < math.pi
    assert abs(res.s_chi_t - 0.7) < 1e-12


@pytest.mark.parametrize("n, gamma", [(N, 0.0), (10, 0.3)])
def test_metrological_gain_matches_separate_runs(n, gamma):
    # the shared forward leg must give exactly what separate protocol runs give
    p = CollectiveSpinParams(n)
    lindblad = LindbladSpec(gamma=gamma) if gamma else None
    cfg = SatinConfig(hamiltonian=HamiltonianSpec(chi=1.0, omega=p.spin), t=0.6 / p.spin, lindblad=lindblad)
    state = css(p, math.pi / 2, 0.0)
    res = metrological_gain(state, cfg)
    g = signal_gain(state, cfg)
    assert res.g_sq == g * g
    assert res.n_sq == noise_n2(state, cfg, readout_alpha=res.readout_alpha)
    assert res.n_sq == noise_n2(state, cfg)

    # independent readout of the three run_satin final states along the chosen axis
    dphi = cfg.delta_phi_probe
    a = spin_component(build_spin_operators(p), SpinAxis.in_plane(res.readout_alpha))
    plus, minus, zero = (run_satin(state, cfg, x) for x in (dphi, -dphi, 0.0))
    response = (plus.expectation(a) - minus.expectation(a)).real / (2.0 * dphi)
    reference = p.spin * math.sin(dphi) / dphi * math.sin(cfg.alpha - res.readout_alpha)
    assert abs(res.g_sq - (response / reference) ** 2) < 1e-10 * res.g_sq
    var = zero.expectation(a @ a).real - zero.expectation(a).real ** 2
    assert abs(res.n_sq - var / (p.spin / 2.0)) < 1e-10


def test_css_reference_closed_form_matches_central_difference():
    p = CollectiveSpinParams(200)
    ops = build_spin_operators(p)
    ref = css(p, math.pi / 2, 0.0)
    for alpha, beta in itertools.product((0.0, 0.3, math.pi / 4, 2.0), (0.1, math.pi / 2, 2.9)):
        cfg = SatinConfig(hamiltonian=HamiltonianSpec(chi=1.0), t=0.0, alpha=alpha)
        axis = SpinAxis.in_plane(alpha)
        readout = spin_component(ops, SpinAxis.in_plane(beta))
        dphi = cfg.delta_phi_probe
        plus, minus = rotate(ref, axis, dphi), rotate(ref, axis, -dphi)
        want = (plus.expectation(readout) - minus.expectation(readout)).real / (2.0 * dphi)
        got = _css_reference_response(p, cfg, beta)
        assert abs(got - want) <= 1e-12 * abs(want), (alpha, beta, got, want)


def test_degenerate_readout_axis_is_rejected():
    p, cfg = _config(0.6, alpha=0.7, readout_alpha=0.7)
    with pytest.raises(ValueError, match="degenerate readout axis"):
        metrological_gain(css(p, math.pi / 2, 0.0), cfg)


def test_detection_noise_adds_to_n2():
    p, base = _config(0.5)
    noisy = replace(base, detection_noise_var=0.3)
    state = css(p, math.pi / 2, 0.0)
    res0 = metrological_gain(state, base)
    res1 = metrological_gain(state, noisy)
    assert abs(res1.n_sq - (res0.n_sq + 0.3)) < 1e-9
    assert res1.gain_db < res0.gain_db


def test_dephasing_degrades_the_echo():
    p, ideal = _config(0.5)
    lossy = replace(ideal, lindblad=LindbladSpec(gamma=0.5))
    state = css(p, math.pi / 2, 0.0)
    final = run_satin(state, lossy, 0.0)
    assert isinstance(final, DensityMatrix)
    assert abs(np.trace(final.matrix).real - 1.0) < 1e-8
    res_ideal = metrological_gain(state, ideal)
    res_lossy = metrological_gain(state, lossy)
    assert res_lossy.g_sq < res_ideal.g_sq
    assert res_lossy.n_sq > 1.0 - 1e-9
    assert res_lossy.gain_db < res_ideal.gain_db


def test_forced_readout_axis_is_respected():
    p, cfg = _config(0.6)
    state = css(p, math.pi / 2, 0.0)
    res = metrological_gain(state, cfg)
    forced = replace(cfg, readout_alpha=res.readout_alpha)
    assert abs(noise_n2(state, forced) - res.n_sq) < 1e-12


def test_sweep_is_ordered_and_worker_invariant():
    p = CollectiveSpinParams(20)
    cfg = SatinConfig(hamiltonian=HamiltonianSpec(chi=1.0, omega=p.spin), t=1.0)
    times = [0.2, 0.4, 0.6]
    serial = gain_vs_time_sweep(p, cfg, times, workers=1)
    threaded = gain_vs_time_sweep(p, cfg, times, workers=3)
    assert [r.s_chi_t for r in serial] == times
    for a, b in zip(serial, threaded):
        assert a.g_sq == b.g_sq and a.n_sq == b.n_sq and a.gain_db == b.gain_db


@pytest.mark.parametrize(
    "kwargs",
    [
        {"delta_phi_probe": 0.0},
        {"delta_phi_probe": 0.02},
        {"alpha": -0.1},
        {"alpha": math.pi},
        {"detection_noise_var": -1.0},
    ],
)
def test_config_validation(kwargs):
    spec = HamiltonianSpec(chi=1.0, omega=10.0)
    with pytest.raises(ValueError):
        SatinConfig(hamiltonian=spec, t=0.1, **kwargs)
