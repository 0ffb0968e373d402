"""Basis, operators, coherent states, rotations, serialization."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from lmgsim import (
    AXIS_X,
    AXIS_Y,
    AXIS_Z,
    CollectiveSpinParams,
    DensityMatrix,
    PureState,
    SX,
    SY,
    SZ,
    SpinAxis,
    apply_spin,
    as_density,
    css,
    ladder,
    rotate,
    rotation_matrix,
    spin_component,
    state_from_json,
    state_to_json,
)
from helpers import dense_component, dense_spin_operators, random_density, random_pure_state


def test_params_basics():
    p = CollectiveSpinParams(10)
    assert p.spin == 5.0
    assert p.dim == 11
    assert np.array_equal(p.m_values(), np.arange(5, -6, -1))


@pytest.mark.parametrize("bad", [0, -3, 2.5, "8"])
def test_params_rejects_bad_n(bad):
    with pytest.raises((ValueError, TypeError)):
        CollectiveSpinParams(bad)


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_operator_algebra(n):
    p = CollectiveSpinParams(n)
    sx, sy, sz = (spin_component(p, e) for e in (SX, SY, SZ))
    s = n / 2.0
    eye = np.eye(n + 1)
    for a in (sx, sy, sz):
        assert np.allclose(a, a.conj().T, atol=1e-12)
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
    assert np.allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-12)
    assert np.allclose(sz @ sx - sx @ sz, 1j * sy, atol=1e-12)
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.allclose(casimir, s * (s + 1) * eye, atol=1e-10)


def test_ladder_is_the_band_of_s_plus():
    p = CollectiveSpinParams(9)
    ops = dense_spin_operators(p)
    splus = ops.sx + 1j * ops.sy
    assert np.allclose(ladder(p), np.diagonal(splus, offset=1), atol=1e-14)
    assert np.allclose(np.triu(splus, 2) + np.tril(splus), 0.0, atol=1e-14)


def test_exact_triples_are_the_dense_components_bit_for_bit():
    # AXIS_X.unit_vector carries cos(pi/2) = 6e-17 in z; the exact triples do not
    for n in (1, 6, 200):
        p = CollectiveSpinParams(n)
        ops = dense_spin_operators(p)
        assert spin_component(p, SX).tobytes() == ops.sx.tobytes()
        assert spin_component(p, SZ).tobytes() == ops.sz.tobytes()
        assert np.array_equal(spin_component(p, SY), ops.sy)


def _directions(rng):
    axes = [SpinAxis(theta=rng.uniform(0.0, math.pi), phi=rng.uniform(0.0, 2 * math.pi)) for _ in range(3)]
    return [SX, SY, SZ, AXIS_X.unit_vector, AXIS_Y.unit_vector] + [a.unit_vector for a in axes]


@pytest.mark.parametrize("n", [1, 2, 9, 200])
def test_spin_component_and_apply_spin_match_dense(n):
    p = CollectiveSpinParams(n)
    ops = dense_spin_operators(p)
    rng = np.random.default_rng(n)
    vec = random_pure_state(n, rng).amplitudes
    cols = rng.normal(size=(p.dim, 3)) + 1j * rng.normal(size=(p.dim, 3))
    for direction in _directions(rng):
        dense = dense_component(ops, direction)
        assert np.max(np.abs(spin_component(p, direction) - dense)) < 1e-14 * max(1.0, p.spin)
        tol = 1e-12 * max(1.0, p.spin)
        assert np.max(np.abs(apply_spin(direction, vec) - dense @ vec)) < tol
        assert np.max(np.abs(apply_spin(direction, cols) - dense @ cols)) < tol
        assert np.max(np.abs(apply_spin(direction, cols.real) - dense @ cols.real)) < tol


def test_spin_component_directions():
    p = CollectiveSpinParams(4)
    ops = dense_spin_operators(p)
    assert np.allclose(spin_component(p, AXIS_X.unit_vector), ops.sx)
    assert np.allclose(spin_component(p, AXIS_Y.unit_vector), ops.sy)
    assert np.allclose(spin_component(p, AXIS_Z.unit_vector), ops.sz)
    alpha = 0.8
    in_plane = SpinAxis.in_plane(alpha)
    assert np.allclose(in_plane.unit_vector, (0.0, math.cos(alpha), math.sin(alpha)), atol=1e-15)


@pytest.mark.parametrize("n", [2, 9, 200])
def test_css_poles(n):
    p = CollectiveSpinParams(n)
    up = css(p, 0.0, 0.3).amplitudes
    down = css(p, math.pi, 0.0).amplitudes
    # exact poles: one nonzero amplitude each, carrying the e^(-ik phi) phase, k = N up spins
    assert np.count_nonzero(up) == 1 and abs(up[0] - np.exp(-0.3j * n)) < 1e-15
    assert np.count_nonzero(down) == 1 and down[-1] == 1.0


@pytest.mark.parametrize("n", [3, 24, 200])
@pytest.mark.parametrize("theta,phi", [(math.pi / 2, 0.0), (0.7, 1.9), (2.4, -0.6)])
def test_css_points_along_axis(n, theta, phi):
    p = CollectiveSpinParams(n)
    ops = dense_spin_operators(p)
    state = css(p, theta, phi)
    direction = SpinAxis(theta=theta, phi=phi)
    mean = state.expectation(dense_component(ops, direction)).real
    assert abs(mean - p.spin) < 1e-9 * p.spin
    # transverse variance of a CSS sits exactly at the SQL
    var_z = state.expectation(ops.sz @ ops.sz).real - state.expectation(ops.sz).real ** 2
    if abs(theta - math.pi / 2) < 1e-12 and abs(phi) < 1e-12:
        assert abs(var_z - p.spin / 2.0) < 1e-9


@pytest.mark.parametrize("n", [30, 200, 2000])
def test_css_amplitudes_are_binomial(n):
    # exact integers, one correctly rounded division each: no formula shared with css
    probs = np.abs(css(CollectiveSpinParams(n), math.pi / 2, 0.0).amplitudes) ** 2
    expected = np.array([math.comb(n, k) / 2**n for k in range(n, -1, -1)])  # k up spins per slot
    # the ratio recurrence rounds once per step outward from the mode: relative
    # 4e-16, 3e-15 and 1.2e-14 at N = 30, 200, 2000 (a log-space lgamma sum gives 1.5e-14 to 3e-12)
    kept = expected > 1e-300
    assert kept.sum() > n // 2
    assert np.max(np.abs(probs[kept] / expected[kept] - 1.0)) < 1e-13


def _log_space_css(n: int, theta: float, phi: float) -> np.ndarray:
    """The log-binomial CSS formula, |c_k| = exp(lgamma sums + k log cos + (N - k) log sin), 0 < theta < pi."""
    k = np.arange(n, -1, -1)  # up spins per slot
    log_binom = np.array([math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) for j in k])
    log_amp = 0.5 * log_binom + k * math.log(math.cos(theta / 2)) + (n - k) * math.log(math.sin(theta / 2))
    amp = np.exp(log_amp) * np.exp(-1j * k * phi)
    return amp / np.linalg.norm(amp)


@pytest.mark.parametrize("n", [30, 200, 2000])
@pytest.mark.parametrize("theta,phi", [(0.3, 0.0), (1.1, 2.0), (2.4, -0.6), (3.0, 1.3)])
def test_css_matches_log_space_formula(n, theta, phi):
    # at any theta the recurrence agrees with the log-space formula within that formula's own
    # error, a few ulps of log N! on log|c_k|^2
    ours = css(CollectiveSpinParams(n), theta, phi).amplitudes
    ref = _log_space_css(n, theta, phi)
    kept = np.abs(ref) ** 2 > 1e-300
    assert kept.sum() > min(n // 4, 30)
    assert np.max(np.abs(ours[kept] / ref[kept] - 1.0)) < 4 * np.finfo(float).eps * math.lgamma(n + 1)


def test_css_rejects_bad_theta():
    with pytest.raises(ValueError):
        css(CollectiveSpinParams(4), -0.1)
    with pytest.raises(ValueError):
        css(CollectiveSpinParams(4), math.pi + 0.1)


def test_rotation_matrix_is_unitary():
    p = CollectiveSpinParams(12)
    u = rotation_matrix(p, SpinAxis(theta=1.1, phi=0.4), 0.77)
    assert np.allclose(u @ u.conj().T, np.eye(p.dim), atol=1e-12)


@pytest.mark.parametrize("axis", [AXIS_X, SpinAxis(theta=1.1, phi=0.4), SpinAxis.in_plane(2.5)])
def test_pure_rotate_matches_expm_at_n200(axis):
    p = CollectiveSpinParams(200)
    state = random_pure_state(200, np.random.default_rng(5))
    angle = 0.37
    want = expm(-1j * angle * dense_component(dense_spin_operators(p), axis)) @ state.amplitudes
    assert np.max(np.abs(rotate(state, axis, angle).amplitudes - want)) < 1e-12


def test_z_rotation_carries_css_phase():
    p = CollectiveSpinParams(16)
    start = css(p, 1.2, 0.0)
    target = css(p, 1.2, 0.9)
    rotated = rotate(start, AXIS_Z, 0.9)
    assert abs(abs(rotated.overlap(target)) - 1.0) < 1e-12


def test_full_turn_is_identity_up_to_phase():
    for n in (4, 5):
        rng = np.random.default_rng(11 + n)
        state = random_pure_state(n, rng)
        turned = rotate(state, SpinAxis(theta=0.3, phi=2.0), 2.0 * math.pi)
        assert abs(abs(turned.overlap(state)) - 1.0) < 1e-12


def test_rotate_density_matches_pure():
    rng = np.random.default_rng(5)
    state = random_pure_state(6, rng)
    axis = SpinAxis(theta=0.9, phi=-1.3)
    direct = rotate(state, axis, 0.31).to_density().matrix
    via_density = rotate(state.to_density(), axis, 0.31).matrix
    assert np.allclose(direct, via_density, atol=1e-12)


def test_pure_state_norm_validation():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0, 0.0]))


def test_density_validation():
    good = np.diag([0.5, 0.5, 0.0]).astype(complex)
    DensityMatrix(good)
    with pytest.raises(ValueError):
        DensityMatrix(good * 2.0)  # trace 2
    bad_herm = good.copy()
    bad_herm[0, 1] = 0.2
    with pytest.raises(ValueError):
        DensityMatrix(bad_herm)
    not_psd = np.diag([1.5, -0.5, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(not_psd)


def test_as_density_and_purity():
    rng = np.random.default_rng(3)
    pure = random_pure_state(5, rng)
    assert abs(as_density(pure).purity() - 1.0) < 1e-12
    mixed = random_density(5, rng)
    assert as_density(mixed) is mixed
    assert mixed.purity() < 1.0


@pytest.mark.parametrize("n", [3, 17])
def test_state_json_round_trip(n):
    rng = np.random.default_rng(n)
    pure = random_pure_state(n, rng)
    back = state_from_json(state_to_json(pure))
    assert isinstance(back, PureState)
    assert np.allclose(back.amplitudes, pure.amplitudes, atol=1e-15)
    mixed = random_density(n, rng)
    back2 = state_from_json(state_to_json(mixed))
    assert isinstance(back2, DensityMatrix)
    assert np.allclose(back2.matrix, mixed.matrix, atol=1e-15)


def test_state_json_rejects_malformed():
    with pytest.raises(ValueError):
        state_from_json('{"N": 2, "kind": "pure", "re": [1, 0], "im": [0, 0]}')  # wrong length
    with pytest.raises(ValueError):
        state_from_json('{"N": 2, "kind": "wat", "re": [1, 0, 0], "im": [0, 0, 0]}')
    with pytest.raises(ValueError):
        state_from_json('{"kind": "pure"}')


@pytest.mark.parametrize(
    "text",
    [
        '{"N": "3", "kind": "density", "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}',
        '{"N": 1.0, "kind": "pure", "re": [1, 0], "im": [0, 0]}',
        '{"N": true, "kind": "pure", "re": [1, 0], "im": [0, 0]}',
        '{"N": null, "kind": "pure", "re": [1, 0], "im": [0, 0]}',
    ],
)
def test_state_json_rejects_bad_input_with_value_error(text):
    with pytest.raises(ValueError):
        state_from_json(text)
