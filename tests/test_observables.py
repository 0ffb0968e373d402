"""Moments, antisqueezing, Binder cumulant, QFI, multipoles, Wigner function."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln

from lmgsim import (
    AXIS_X,
    AXIS_Z,
    CollectiveSpinParams,
    DensityMatrix,
    HamiltonianSpec,
    PureState,
    SpinAxis,
    as_density,
    antisqueezing,
    binder_cumulant,
    binder_from_central_moments,
    css,
    evolve_unitary,
    multipole_components,
    qfi,
    rotate,
    spin_moments,
    wigner,
    wigner_points,
)
from lmgsim import observables
from helpers import (
    dense_component,
    dense_multipoles,
    dense_spin_operators,
    dephased_oat_density,
    oat_closed_form_moments,
    oat_max_transverse_variance,
    oat_transverse_variance,
    random_density,
    random_pure_state,
)

N_OAT = 24
CHI = 1.0


def _twisted(n, t):
    p = CollectiveSpinParams(n)
    spec = HamiltonianSpec(chi=CHI, kind="OAT")
    return evolve_unitary(spec, css(p, math.pi / 2, 0.0), t)


@pytest.mark.parametrize("t", [0.03, 0.11, 0.25])
def test_moments_match_twisting_closed_form(t):
    state = _twisted(N_OAT, t)
    ref = oat_closed_form_moments(N_OAT, CHI, t)
    assert abs(spin_moments(state, AXIS_X).mean - ref["mean_x"]) < 1e-10
    assert abs(spin_moments(state, SpinAxis.in_plane(0.0)).var - ref["var_y"]) < 1e-10
    assert abs(spin_moments(state, AXIS_Z).var - ref["var_z"]) < 1e-10


@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.1, 2.2, 3.0])
def test_transverse_variance_quadratic_form(alpha):
    t = 0.13
    state = _twisted(N_OAT, t)
    ours = spin_moments(state, SpinAxis.in_plane(alpha)).var
    assert abs(ours - oat_transverse_variance(N_OAT, CHI, t, alpha)) < 1e-9


def test_css_antisqueezing_is_sql():
    p = CollectiveSpinParams(50)
    a = antisqueezing(css(p, math.pi / 2, 0.0))
    assert abs(a.xi_plus_sq - 1.0) < 1e-9


@pytest.mark.parametrize("t", [0.05, 0.13, 0.3])
def test_antisqueezing_matches_covariance_eigenvalue(t):
    state = _twisted(N_OAT, t)
    a = antisqueezing(state)
    expected = oat_max_transverse_variance(N_OAT, CHI, t) / (N_OAT / 4.0)
    assert abs(a.xi_plus_sq - expected) < 1e-8
    assert 0.0 <= a.alpha_max < math.pi
    # the top eigenvector of the dense 2x2 (Sy, Sz) covariance points along alpha_max
    rho = as_density(state).matrix
    ops = dense_spin_operators(state.params)
    mean = [np.trace(rho @ s).real for s in (ops.sy, ops.sz)]
    cov = np.array([
        [np.trace(rho @ (si @ sj + sj @ si)).real / 2.0 - mi * mj for sj, mj in zip((ops.sy, ops.sz), mean)]
        for si, mi in zip((ops.sy, ops.sz), mean)
    ])
    v = np.linalg.eigh(cov)[1][:, 1]
    angle = math.atan2(v[1], v[0])
    assert abs((a.alpha_max - angle + math.pi / 2) % math.pi - math.pi / 2) < 1e-12
    # the returned angle is a genuine maximum of the variance
    v_at = spin_moments(state, SpinAxis.in_plane(a.alpha_max)).var
    for eps in (-0.02, 0.02):
        assert v_at >= spin_moments(state, SpinAxis.in_plane(a.alpha_max + eps)).var - 1e-12


def test_antisqueezing_axis_folds_into_half_open_range(monkeypatch):
    # a covariance within rounding of 0 below the y axis gives an angle of
    # -1e-20 rad, which % pi rounds up to pi; the axis is the same as 0
    monkeypatch.setattr(observables, "yz_moments", lambda state: (0.0, 0.0, 2.0, 1.0, -1e-20))
    a = antisqueezing(css(CollectiveSpinParams(4), math.pi / 2, 0.0))
    assert a.alpha_max == 0.0
    assert a.xi_plus_sq == 2.0  # top eigenvalue 2 over S/2 = 1


def test_binder_two_point_distribution():
    # equal-weight superposition of m = +S and m = -S measured along z:
    # mu4 / mu2^2 = 1, so B = 2/3
    p = CollectiveSpinParams(8)
    amp = np.zeros(p.dim, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    b = binder_cumulant(PureState(amp), AXIS_Z)
    assert abs(b - 2.0 / 3.0) < 1e-12


@pytest.mark.parametrize("n", [20, 200])
def test_binder_css_finite_size(n):
    # binomial statistics: excess kurtosis -2/N, so B = 2/(3N)
    p = CollectiveSpinParams(n)
    b = binder_cumulant(css(p, math.pi / 2, 0.0), AXIS_Z)
    assert abs(b - 2.0 / (3.0 * n)) < 1e-10


def test_binder_gaussian_samples_near_zero():
    rng = np.random.default_rng(2024)
    x = rng.normal(size=200_000)
    mu2 = float(np.mean(x**2)) - float(np.mean(x)) ** 2
    mu4 = float(np.mean((x - np.mean(x)) ** 4))
    assert abs(binder_from_central_moments(mu2, mu4)) < 0.02


def test_binder_rejects_zero_variance():
    with pytest.raises(ValueError):
        binder_from_central_moments(0.0, 1.0)


def test_qfi_css_along_z_is_n():
    n = 40
    state = css(CollectiveSpinParams(n), math.pi / 2, 0.0)
    assert abs(qfi(state, AXIS_Z).f_q - n) < 1e-8


@pytest.mark.parametrize("alpha", [0.0, 0.7, 1.9])
def test_qfi_pure_equals_four_variances(alpha):
    state = _twisted(16, 0.12)
    axis = SpinAxis.in_plane(alpha)
    assert abs(qfi(state, axis).f_q - 4.0 * spin_moments(state, axis).var) < 1e-8


def _qfi_reference(rho, op):
    """Plain double-loop spectral QFI, kept deliberately naive."""
    q, v = np.linalg.eigh(rho)
    q = np.clip(q, 0.0, None)
    comp = v.conj().T @ op @ v
    total = 0.0
    for i in range(len(q)):
        for j in range(len(q)):
            s = q[i] + q[j]
            if s > 1e-12:
                total += 2.0 * (q[i] - q[j]) ** 2 / s * abs(comp[i, j]) ** 2
    return total


@pytest.mark.parametrize("alpha", [0.2, 1.3])
def test_qfi_mixed_matches_naive_spectral_sum(alpha):
    n = 6
    p = CollectiveSpinParams(n)
    rho0 = css(p, math.pi / 2, 0.0).to_density().matrix
    rho = DensityMatrix(dephased_oat_density(rho0, n, 1.0, 0.9, 0.2))
    axis = SpinAxis.in_plane(alpha)
    ops = dense_spin_operators(p)
    ours = qfi(rho, axis)
    assert abs(ours.f_q - _qfi_reference(rho.matrix, dense_component(ops, axis))) < 1e-10
    # gamma_q consistency: f_q = n . Gamma . n, and the matrix is symmetric PSD
    nvec = np.asarray(axis.unit_vector)
    assert abs(ours.f_q - nvec @ ours.gamma_q @ nvec) < 1e-10
    assert np.allclose(ours.gamma_q, ours.gamma_q.T, atol=1e-10)
    assert np.min(np.linalg.eigvalsh(ours.gamma_q)) > -1e-10


def test_qfi_optimal_direction_dominates():
    state = _twisted(12, 0.2)
    res = qfi(state, AXIS_Z)
    assert res.f_q_max >= res.f_q - 1e-12
    best = res.optimal_direction
    gamma_best = best @ res.gamma_q @ best
    assert abs(gamma_best - res.f_q_max) < 1e-9


def test_multipoles_parseval_and_symmetry():
    rng = np.random.default_rng(77)
    for state in (random_pure_state(10, rng), random_density(10, rng)):
        r = multipole_components(state)
        k_dim = r.shape[0]
        assert r.shape == (k_dim, 2 * k_dim - 1)
        rho = as_density(state)
        # Parseval over the orthonormal tensor basis: sum |r_kq|^2 = Tr rho^2
        total = sum(
            abs(r[k, q + k_dim - 1]) ** 2 for k in range(k_dim) for q in range(-k, k + 1)
        )
        assert abs(total - rho.purity()) < 1e-10
        # monopole fixed by normalization; negative q by hermiticity
        assert abs(r[0, k_dim - 1] - 1.0 / math.sqrt(rho.matrix.shape[0])) < 1e-12
        for k in range(k_dim):
            for q in range(1, k + 1):
                assert abs(r[k, -q + k_dim - 1] - (-1) ** q * np.conj(r[k, q + k_dim - 1])) < 1e-10


def test_multipoles_top_css_is_axial():
    p = CollectiveSpinParams(8)
    r = multipole_components(css(p, 0.0, 0.0))
    K = p.n_atoms
    off_axis = [abs(r[k, q + K]) for k in range(K + 1) for q in range(-k, k + 1) if q != 0]
    assert max(off_axis) < 1e-12
    assert all(abs(r[k, K]) > 1e-6 for k in range(K + 1))


@pytest.mark.parametrize("n", [1, 4, 7, 12])
def test_multipoles_match_dense_commutator_reference(n):
    rng = np.random.default_rng(100 + n)
    for state in (random_pure_state(n, rng), random_density(n, rng), css(CollectiveSpinParams(n), 0.7, 2.0)):
        assert np.max(np.abs(multipole_components(state) - dense_multipoles(state))) < 1e-12


def _top_css_abs_rk0(n: int) -> np.ndarray:
    """|r_k0| of the top coherent state: (2S)! sqrt(2k+1) / sqrt((2S-k)! (2S+k+1)!)."""
    k = np.arange(n + 1)
    return np.exp(gammaln(n + 1) + 0.5 * np.log(2 * k + 1) - 0.5 * (gammaln(n - k + 1) + gammaln(n + k + 2)))


@pytest.mark.parametrize("n", [200, 400])
def test_multipoles_stay_exact_at_large_n(n):
    state = random_pure_state(n, np.random.default_rng(n))
    r = multipole_components(state)
    assert abs(np.sum(np.abs(r) ** 2) - 1.0) < 1e-12
    r_top = multipole_components(css(CollectiveSpinParams(n), 0.0, 0.0))
    assert np.max(np.abs(np.abs(r_top[:, n]) - _top_css_abs_rk0(n))) < 1e-12


@pytest.mark.parametrize("n", [14, 200])
@pytest.mark.parametrize("theta0,phi0", [(0.0, 0.0), (math.pi, 0.0), (1.1, 2.3)])
def test_wigner_at_css_direction_matches_closed_form(n, theta0, phi0):
    # rotation invariance: W at a CSS's own direction is the top CSS's W at
    # the north pole, sum_k r_k0 Y_k0(0), and every r_k0 there is positive
    k = np.arange(n + 1)
    want = float(np.sum(_top_css_abs_rk0(n) * np.sqrt((2 * k + 1) / (4.0 * math.pi))))
    state = css(CollectiveSpinParams(n), theta0, phi0)
    got = wigner_points(state, [theta0], [phi0])[0]
    assert abs(got / want - 1.0) < 1e-10


@pytest.mark.parametrize("theta0,phi0", [(0.0, 0.0), (math.pi / 2, 0.0), (1.1, 2.3)])
def test_wigner_css_peaks_at_pointing_direction(theta0, phi0):
    p = CollectiveSpinParams(14)
    state = css(p, theta0, phi0)
    thetas = np.linspace(0.0, math.pi, 61)
    phis = np.linspace(0.0, 2.0 * math.pi, 120, endpoint=False)
    w = wigner(state, thetas, phis)
    assert np.max(np.abs(np.imag(w))) == 0.0  # construction is real
    i, j = np.unravel_index(np.argmax(w), w.shape)
    # compare via the dot product of directions; grid resolution ~ 0.06 rad
    peak = np.array([
        math.sin(thetas[i]) * math.cos(phis[j]),
        math.sin(thetas[i]) * math.sin(phis[j]),
        math.cos(thetas[i]),
    ])
    want = np.array([
        math.sin(theta0) * math.cos(phi0),
        math.sin(theta0) * math.sin(phi0),
        math.cos(theta0),
    ])
    assert peak @ want > math.cos(0.08)


def test_wigner_rotation_covariance_about_z():
    p = CollectiveSpinParams(10)
    state = _twisted(10, 0.15)
    delta = 0.9
    rotated = rotate(state, AXIS_Z, delta)
    thetas = np.full(40, 1.2)
    phis = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
    w_rot = wigner_points(rotated, thetas, phis)
    w_orig = wigner_points(state, thetas, phis - delta)
    assert np.max(np.abs(w_rot - w_orig)) < 1e-10


@pytest.mark.parametrize("n", [6, 21, 200])
def test_wigner_integral_is_state_independent(n):
    # integral of W over the sphere equals sqrt(4 pi / d) for any unit-trace state
    rng = np.random.default_rng(n)
    x, gl_w = leggauss(n + 2)
    thetas = np.arccos(x)
    n_phi = 2 * n + 3
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    for state in (random_pure_state(n, rng), random_density(n, rng), css(CollectiveSpinParams(n), 0.4, 1.0)):
        w = wigner(state, thetas, phis)
        integral = (gl_w @ w).sum() * (2.0 * math.pi / n_phi)
        assert abs(integral - math.sqrt(4.0 * math.pi / (n + 1))) < 1e-9


def test_wigner_points_agree_with_grid():
    state = _twisted(8, 0.2)
    thetas = np.array([0.3, 1.2, 2.8])
    phis = np.array([0.1, 4.0, 5.5])
    grid = wigner(state, thetas, phis)
    paired = wigner_points(state, thetas, phis)
    assert np.allclose(paired, np.diag(grid), atol=1e-12)


@pytest.mark.parametrize("n", [20, 200])
def test_wigner_blocked_legendre_table_matches_single_block(n, monkeypatch):
    state = random_density(n, np.random.default_rng(n))
    thetas = np.linspace(0.0, math.pi, 23)
    phis = np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False)
    point_phis = np.linspace(0.3, 5.9, thetas.size)
    per_theta = 8 * (n + 1) * (2 * n + 1)
    monkeypatch.setattr(observables, "LEGENDRE_BLOCK_BYTES", per_theta * thetas.size)
    grid_one, points_one = wigner(state, thetas, phis), wigner_points(state, thetas, point_phis)
    monkeypatch.setattr(observables, "LEGENDRE_BLOCK_BYTES", 4 * per_theta - 1)  # blocks of 3 thetas
    grid_blocks, points_blocks = wigner(state, thetas, phis), wigner_points(state, thetas, point_phis)
    assert np.max(np.abs(grid_blocks - grid_one)) < 1e-12
    assert np.max(np.abs(points_blocks - points_one)) < 1e-12


_SCIPY_SUBPACKAGES = ("scipy.linalg", "scipy.sparse", "scipy.special")


def _scipy_subpackages_after(code, *args):
    """Which of _SCIPY_SUBPACKAGES a fresh interpreter holds after running code."""
    report = f"\nimport sys; print(sorted(m for m in {_SCIPY_SUBPACKAGES!r} if m in sys.modules))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code + report, *args], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.strip()


def test_import_leaves_scipy_linalg_sparse_and_special_unloaded():
    assert _scipy_subpackages_after("import lmgsim") == "[]"


_PRESET_RUNS = """
import sys
from pathlib import Path
from lmgsim import run_experiment
out = Path(sys.argv[1])
for fig in ("fig2b", "fig2c", "fig2d", "fig3", "fig5"):
    run_experiment({"experiment": fig, "n_atoms": 12}, out / fig)
run_experiment({"experiment": "fig3", "n_atoms": 6, "gamma": 0.1, "s_chi_t_grid": [0.3, 0.6]}, out / "dephased")
"""


def test_preset_runs_leave_scipy_linalg_sparse_and_special_unloaded(tmp_path):
    assert _scipy_subpackages_after(_PRESET_RUNS, str(tmp_path)) == "[]"
    assert len(list(tmp_path.rglob("*.csv"))) == 6
    # the probe sees the lazy imports once a caller needs them
    wigner_call = "import lmgsim; lmgsim.wigner(lmgsim.css(lmgsim.CollectiveSpinParams(4), 1.0), [0.5], [0.5])"
    assert _scipy_subpackages_after(wigner_call) == "['scipy.linalg', 'scipy.special']"
