"""Independent oracles shared across test modules: dense spin matrices,
closed-form twisting moments, the analytically dephased state, brute-force
expm evolution and the dense measurement basis."""

import math
from types import SimpleNamespace

import numpy as np
from scipy.linalg import expm

from lmgsim import AXIS_Y, AXIS_Z, CollectiveSpinParams, DensityMatrix, PureState, as_density, rotation_matrix


def dense_spin_operators(params: CollectiveSpinParams) -> SimpleNamespace:
    """Dense complex Sx, Sy, Sz from S+ = sum_m sqrt(S(S+1) - m(m+1)) |m+1><m|,
    built apart from the package's ladder."""
    s = params.spin
    m = params.m_values()
    splus = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), k=1)
    sminus = splus.T
    return SimpleNamespace(sx=0.5 * (splus + sminus) + 0j, sy=-0.5j * (splus - sminus), sz=np.diag(m) + 0j)


def dense_component(ops: SimpleNamespace, axis) -> np.ndarray:
    """n.S from the dense matrices, for a SpinAxis or a direction (nx, ny, nz)."""
    nx, ny, nz = getattr(axis, "unit_vector", axis)
    return nx * ops.sx + ny * ops.sy + nz * ops.sz


def oat_closed_form_moments(n_atoms: int, chi: float, t: float) -> dict:
    """Twisting moments for an initial +x CSS under H = chi Sz^2.

    Classic results: <Sx> = S cos^{N-1}(chi t), var(Sz) = S/2 frozen,
    var(Sy) and the yz covariance from the two-spin correlators.
    """
    s = n_atoms / 2.0
    c = math.cos(chi * t)
    return {
        "mean_x": s * c ** (n_atoms - 1),
        "var_y": 0.5 * s * (1.0 + (s - 0.5) * (1.0 - math.cos(2.0 * chi * t) ** (n_atoms - 2))),
        "var_z": 0.5 * s,
        "cov_yz": s * (s - 0.5) * math.sin(chi * t) * c ** (n_atoms - 2),
    }


def oat_transverse_variance(n_atoms: int, chi: float, t: float, alpha: float) -> float:
    """var(Sy cos a + Sz sin a) from the closed-form quadratic form."""
    m = oat_closed_form_moments(n_atoms, chi, t)
    ca, sa = math.cos(alpha), math.sin(alpha)
    return m["var_y"] * ca * ca + m["var_z"] * sa * sa + 2.0 * m["cov_yz"] * sa * ca


def oat_max_transverse_variance(n_atoms: int, chi: float, t: float) -> float:
    """Largest eigenvalue of the 2x2 transverse covariance matrix."""
    m = oat_closed_form_moments(n_atoms, chi, t)
    half_diff = 0.5 * (m["var_y"] - m["var_z"])
    return 0.5 * (m["var_y"] + m["var_z"]) + math.hypot(half_diff, m["cov_yz"])


def dephased_oat_density(rho0: np.ndarray, n_atoms: int, chi: float, gamma: float, t: float) -> np.ndarray:
    """Closed form for H = chi Sz^2 with collective Sz dephasing at rate gamma:
    rho_mm'(t) = exp(-i chi t (m^2 - m'^2) - gamma t (m - m')^2 / 2) rho_mm'(0)."""
    m = CollectiveSpinParams(n_atoms).m_values()
    dm = m[:, None] - m[None, :]
    sm = m[:, None] ** 2 - m[None, :] ** 2
    return rho0 * np.exp(-1j * chi * t * sm - 0.5 * gamma * t * dm**2)


def brute_force_evolve(hamiltonian: np.ndarray, state, t: float):
    """scipy.linalg.expm propagation, independent of the package's eigh path."""
    u = expm(-1j * t * hamiltonian)
    if isinstance(state, PureState):
        return PureState(u @ state.amplitudes)
    rho = as_density(state).matrix
    return DensityMatrix(u @ rho @ u.conj().T)


def measurement_basis(params: CollectiveSpinParams, axis) -> np.ndarray:
    """Columns are the n.S eigenstates |m_n>, m = S..-S: the dense complex
    product R_z(phi) R_y(theta), not the package's real per-direction tables."""
    return rotation_matrix(params, AXIS_Z, axis.phi) @ rotation_matrix(params, AXIS_Y, axis.theta)


def random_pure_state(n_atoms: int, rng: np.random.Generator) -> PureState:
    v = rng.normal(size=n_atoms + 1) + 1j * rng.normal(size=n_atoms + 1)
    return PureState(v / np.linalg.norm(v))


def random_density(n_atoms: int, rng: np.random.Generator, rank: int = 3) -> DensityMatrix:
    d = n_atoms + 1
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def dense_multipoles(state) -> np.ndarray:
    """r[k, q + K] = Tr(T_kq^dag rho) over dense tensor operators, for small N.

    T_kk is (-1)^k (S+)^k and T_k,q-1 the matrix commutator [S-, T_kq], each
    scaled to unit Hilbert-Schmidt norm; every q, negative ones included, is
    projected directly rather than through a symmetry.
    """
    rho = as_density(state).matrix
    d = rho.shape[0]
    big_k = d - 1
    s = big_k / 2.0
    m = s - np.arange(d)
    splus = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), k=1)
    sminus = splus.T
    out = np.zeros((d, 2 * d - 1), dtype=complex)
    for k in range(d):
        t = (-1.0) ** k * np.linalg.matrix_power(splus, k)
        for q in range(k, -k - 1, -1):
            t = t / np.linalg.norm(t)
            out[k, q + big_k] = np.trace(t.conj().T @ rho)
            t = sminus @ t - t @ sminus
    return out
