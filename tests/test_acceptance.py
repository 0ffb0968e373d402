"""Acceptance checks, one test per criterion.

Each test records a PASS/FAIL line through the session fixture in conftest;
the collected lines are printed after the terminal summary. Tolerances and
grids are fixed here on purpose: loosening them is a behavior change, not a
test refactor.
"""

import functools
import math
import time

import numpy as np
import pytest

from lmgsim import (
    AXIS_Z,
    CollectiveSpinParams,
    HamiltonianSpec,
    LindbladSpec,
    MeasurementSetting,
    ReconstructionConfig,
    SatinConfig,
    SpinAxis,
    antisqueezing,
    as_density,
    bootstrap_otoc,
    build_hamiltonian,
    build_spin_operators,
    css,
    evolve_lindblad,
    evolve_unitary,
    fibonacci_directions,
    fit_exponent,
    fotoc,
    heisenberg_operator,
    metrological_gain,
    otoc_from_fotoc,
    reconstruct,
    run_experiment,
    run_satin,
    signal_gain,
    simulate_measurements,
    spin_component,
    uhlmann_fidelity,
)

CHI = 1.0
N_BIG = 200
FIT_GRID = tuple(round(0.2 + 0.05 * k, 10) for k in range(13))  # S chi t in [0.2, 0.8]


def _critical_spec(params: CollectiveSpinParams) -> HamiltonianSpec:
    return HamiltonianSpec(chi=CHI, omega=params.spin * CHI)


@functools.lru_cache(maxsize=1)
def _squeezing_series_200():
    params = CollectiveSpinParams(N_BIG)
    h = build_hamiltonian(_critical_spec(params), params)
    state0 = css(params, math.pi / 2, 0.0)
    scale = params.spin * CHI
    return [antisqueezing(evolve_unitary(h, state0, st / scale)).xi_plus_sq for st in FIT_GRID]


def test_criterion_1_lyapunov_exponent(acceptance):
    start = time.monotonic()
    series = _squeezing_series_200()
    fit = fit_exponent(FIT_GRID, series, (0.2, 0.8))
    elapsed = time.monotonic() - start
    lam = fit.lyapunov / CHI  # exponent in units of S chi since the grid is S chi t
    ok = abs(lam - 1.0) <= 0.05 and elapsed < 60.0
    acceptance(1, f"xi_plus_sq exponent N=200 window [0.2,0.8]: lambda={lam:.4f} ({elapsed:.1f}s)", ok)
    assert ok, (lam, elapsed)


def test_criterion_2_drive_sweep_peak(acceptance):
    params = CollectiveSpinParams(N_BIG)
    state0 = css(params, math.pi / 2, 0.0)
    scale = params.spin * CHI
    t = 1.9 / scale
    ratios = [round(-1.0 + 0.125 * k, 10) for k in range(33)]
    values = []
    for r in ratios:
        h = build_hamiltonian(HamiltonianSpec(chi=CHI, omega=r * scale), params)
        values.append(antisqueezing(evolve_unitary(h, state0, t)).xi_plus_sq)
    peak = ratios[int(np.argmax(values))]
    ok = abs(peak - 1.0) <= 0.125 + 1e-12
    acceptance(2, f"antisqueezing peak over drive at S-chi-t=1.9: ratio={peak:g}", ok)
    assert ok, peak


def test_criterion_3_exponent_agreement(acceptance):
    params = CollectiveSpinParams(N_BIG)
    spec = _critical_spec(params)
    h = build_hamiltonian(spec, params)
    state0 = css(params, math.pi / 2, 0.0)
    axis = SpinAxis.in_plane(math.pi / 4)
    scale = params.spin * CHI

    g2, otoc = [], []
    for st in FIT_GRID:
        t = st / scale
        g = signal_gain(state0, SatinConfig(hamiltonian=spec, t=t))
        g2.append(g * g)
        otoc.append(otoc_from_fotoc(fotoc(h, state0, axis, t)).value / (params.spin / 2.0))
    lams = {
        "xi": fit_exponent(FIT_GRID, _squeezing_series_200(), (0.2, 0.8)).lyapunov,
        "g2": fit_exponent(FIT_GRID, g2, (0.2, 0.8)).lyapunov,
        "otoc": fit_exponent(FIT_GRID, otoc, (0.2, 0.8)).lyapunov,
    }
    vals = list(lams.values())
    spread = max(
        abs(a - b) / (0.5 * (a + b)) for i, a in enumerate(vals) for b in vals[i + 1 :]
    )
    ok = spread <= 0.10
    pretty = ", ".join(f"{k}={v:.4f}" for k, v in lams.items())
    acceptance(3, f"squeezing/gain/otoc exponents agree pairwise: {pretty}", ok)
    assert ok, lams


def test_criterion_4_echo_and_noise(acceptance):
    params = CollectiveSpinParams(N_BIG)
    spec = _critical_spec(params)
    state0 = css(params, math.pi / 2, 0.0)
    scale = params.spin * CHI
    worst_echo, worst_noise = 1.0, 0.0
    for st in [round(0.1 * k, 10) for k in range(1, 11)]:
        cfg = SatinConfig(hamiltonian=spec, t=st / scale)
        final = run_satin(state0, cfg, 0.0)
        echo = abs(np.vdot(state0.amplitudes, final.amplitudes)) ** 2
        worst_echo = min(worst_echo, echo)
        worst_noise = max(worst_noise, abs(metrological_gain(state0, cfg).n_sq - 1.0))
    ok = worst_echo >= 1.0 - 1e-9 and worst_noise <= 1e-6
    acceptance(
        4, f"ideal echo >= 1-1e-9 and N^2 = 1+-1e-6 for S-chi-t <= 1: echo={worst_echo:.12f}", ok
    )
    assert ok, (worst_echo, worst_noise)


def test_criterion_5_metrological_gain(acceptance):
    params = CollectiveSpinParams(N_BIG)
    spec = _critical_spec(params)
    state0 = css(params, math.pi / 2, 0.0)
    scale = params.spin * CHI
    best = max(
        metrological_gain(state0, SatinConfig(hamiltonian=spec, t=st / scale)).gain_db
        for st in (0.8, 0.9, 1.0)
    )
    ok = best >= 6.8
    acceptance(5, f"ideal N=200 gain reaches {best:.2f} dB by S-chi-t = 1", ok)
    assert ok, best


def test_criterion_6_otoc_equals_heisenberg_variance(acceptance):
    params = CollectiveSpinParams(50)
    spec = _critical_spec(params)
    h = build_hamiltonian(spec, params)
    state0 = css(params, math.pi / 2, 0.0)
    axis = SpinAxis.in_plane(math.pi / 4)
    gen = spin_component(build_spin_operators(params), axis)
    scale = params.spin * CHI
    worst = 0.0
    for st in (0.38, 0.57, 0.77, 0.96):
        t = st / scale
        curved = otoc_from_fotoc(fotoc(h, state0, axis, t)).value
        op = heisenberg_operator(h, gen, t)
        mean = np.real(np.vdot(state0.amplitudes, op @ state0.amplitudes))
        mean_sq = np.real(np.vdot(op @ state0.amplitudes, op @ state0.amplitudes))
        var = mean_sq - mean**2
        worst = max(worst, abs(curved - var) / var)
    ok = worst <= 0.02
    acceptance(6, f"fitted curvature vs var(S_a(t)) at 4 times, N=50: max rel dev {worst:.4f}", ok)
    assert ok, worst


def test_criterion_7_fotoc_closed_form(acceptance):
    dphis = (-0.1, -0.05, -0.02, 0.02, 0.05, 0.1)
    worst = 0.0
    for n in (2, 20, 200):
        params = CollectiveSpinParams(n)
        h = build_hamiltonian(HamiltonianSpec(chi=CHI), params)
        state0 = css(params, math.pi / 2, 0.0)
        for s in fotoc(h, state0, AXIS_Z, 0.0, dphis):
            exact = math.cos(s.delta_phi / 2.0) ** (2 * n)
            worst = max(worst, abs(s.fidelity - exact))
    ok = worst <= 1e-8
    acceptance(7, f"t=0 fidelity matches cos^2N(dphi/2), N in (2,20,200): max dev {worst:.2e}", ok)
    assert ok, worst


def test_criterion_8_lindblad_correctness(acceptance):
    from helpers import dephased_oat_density

    params = CollectiveSpinParams(50)
    state0 = css(params, math.pi / 2, 0.0)
    scale = params.spin * CHI
    t = 0.5 / scale

    h_lmg = build_hamiltonian(_critical_spec(params), params)
    rho_free = evolve_lindblad(h_lmg, LindbladSpec(gamma=0.0), state0, t)
    rho_unitary = as_density(evolve_unitary(h_lmg, state0, t))
    dev_free = float(np.max(np.abs(rho_free.matrix - rho_unitary.matrix)))

    gamma = 0.5
    h_oat = build_hamiltonian(HamiltonianSpec(chi=CHI, kind="OAT"), params)
    rho_num = evolve_lindblad(h_oat, LindbladSpec(gamma=gamma), state0, t)
    rho_exact = dephased_oat_density(as_density(state0).matrix, 50, CHI, gamma, t)
    dev_deph = float(np.max(np.abs(rho_num.matrix - rho_exact)))

    rho_long = evolve_lindblad(h_lmg, LindbladSpec(gamma=gamma), state0, 1.0 / scale)
    drift = abs(float(np.real(np.trace(rho_long.matrix))) - 1.0)  # per unit S chi t

    ok = dev_free <= 1e-7 and dev_deph <= 1e-6 and drift < 1e-8
    acceptance(
        8,
        f"lindblad vs unitary {dev_free:.1e}, vs dephasing form {dev_deph:.1e}, drift {drift:.1e}",
        ok,
    )
    assert ok, (dev_free, dev_deph, drift)


def test_criterion_9_tat_correspondence(acceptance):
    params = CollectiveSpinParams(N_BIG)
    h_lmg = build_hamiltonian(_critical_spec(params), params)
    h_tat = build_hamiltonian(HamiltonianSpec(chi=CHI / 2.0, kind="TAT"), params)
    state0 = css(params, math.pi / 2, 0.0)
    scale = params.spin * CHI
    worst = 0.0
    for st in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
        t = st / scale
        v_lmg = antisqueezing(evolve_unitary(h_lmg, state0, t)).xi_plus_sq
        v_tat = antisqueezing(evolve_unitary(h_tat, state0, t)).xi_plus_sq
        worst = max(worst, abs(v_lmg - v_tat) / v_tat)
    ok = worst <= 0.05
    acceptance(9, f"critical drive tracks two-axis twisting to S-chi-t=0.3: max dev {worst:.4f}", ok)
    assert ok, worst


@pytest.mark.slow
def test_criterion_10_tomography_fidelity(acceptance):
    params = CollectiveSpinParams(N_BIG)
    h = build_hamiltonian(_critical_spec(params), params)
    scale = params.spin * CHI
    target = evolve_unitary(h, css(params, math.pi / 2, 0.0), 0.57 / scale)
    settings = [MeasurementSetting(axis=a, shots=30) for a in fibonacci_directions(41)]
    records = simulate_measurements(target, settings, seed=12345)
    result = reconstruct(records, params, ReconstructionConfig())
    fid = uhlmann_fidelity(target, result.rho)
    lls = np.asarray(result.log_likelihoods)
    monotone = bool(np.all(np.diff(lls) >= -1e-9 * np.abs(lls[:-1])))
    ok = fid >= 0.95 and monotone
    acceptance(10, f"41 directions x 30 shots, seed 12345: fidelity {fid:.4f}", ok)
    assert ok, (fid, monotone)


@pytest.mark.slow
def test_criterion_11_bootstrap_sanity(acceptance):
    from lmgsim import MeasurementRecord

    # zero-variance records: every histogram one-hot, so resamples are identical
    p4 = CollectiveSpinParams(4)
    dphis = (-0.1, -0.05, 0.0, 0.05, 0.1)
    frozen = []
    for k, dphi in enumerate(dphis):
        recs = []
        for j, a in enumerate(fibonacci_directions(6)):
            counts = np.zeros(p4.dim)
            counts[(j + k) % p4.dim] = 15.0
            recs.append(MeasurementRecord(axis=a, counts=counts))
        frozen.append((dphi, recs))
    boot0 = bootstrap_otoc(frozen, p4, css(p4, math.pi / 2, 0.0), n_boot=100, seed=1)
    width0 = boot0.ci_high - boot0.ci_low

    # sampled records: median interval width shrinks as shots double
    p = CollectiveSpinParams(6)
    spec = HamiltonianSpec(chi=CHI, omega=p.spin * CHI)
    axes = fibonacci_directions(10)
    reference = css(p, math.pi / 2, 0.0)
    cfg = SatinConfig(hamiltonian=spec, t=0.6 / (p.spin * CHI))
    finals = [run_satin(reference, cfg, d) for d in dphis]

    def median_width(shots):
        widths = []
        for seed in range(5):
            streams = np.random.SeedSequence([seed, shots]).spawn(len(dphis))
            recs = [
                simulate_measurements(f, [MeasurementSetting(axis=a, shots=shots) for a in axes], s)
                for f, s in zip(finals, streams)
            ]
            boot = bootstrap_otoc(list(zip(dphis, recs)), p, reference, n_boot=100, seed=seed + 50)
            widths.append(boot.ci_high - boot.ci_low)
        return float(np.median(widths))

    w25, w50, w100 = (median_width(s) for s in (25, 50, 100))
    ok = width0 == 0.0 and w25 > w50 > w100
    acceptance(
        11,
        f"bootstrap width 0 on frozen records; medians {w25:.2f} > {w50:.2f} > {w100:.2f}",
        ok,
    )
    assert ok, (width0, w25, w50, w100)


def test_criterion_12_deterministic_outputs(acceptance):
    import tempfile
    from pathlib import Path

    configs = [
        (
            "gain_vs_time.csv",
            {
                "experiment": "custom",
                "task": "gain_vs_time",
                "n_atoms": 12,
                "s_chi_t_grid": [0.2, 0.4, 0.6, 0.8],
            },
        ),
        (
            "antisqueezing_vs_drive.csv",
            {
                "experiment": "custom",
                "task": "antisqueezing_drive_sweep",
                "n_atoms": 10,
                "s_chi_t": 1.0,
                "ratio_min": 0.0,
                "ratio_max": 2.0,
                "ratio_step": 0.25,
            },
        ),
    ]
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for i, (csv_name, cfg) in enumerate(configs):
            run_experiment(cfg, base / f"t{i}w1", workers=1)
            run_experiment(cfg, base / f"t{i}w8", workers=8)
            ok = ok and (
                (base / f"t{i}w1" / csv_name).read_bytes() == (base / f"t{i}w8" / csv_name).read_bytes()
            )
    acceptance(12, "byte-identical CSV outputs under 1-thread and 8-thread runs", ok)
    assert ok
