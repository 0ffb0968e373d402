"""State characterization: spin moments, antisqueezing, Binder cumulant,
quantum Fisher information, and the spherical Wigner function."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .dicke import (
    PureState,
    SX,
    SY,
    SZ,
    SpinAxis,
    State,
    apply_spin,
    as_density,
)

LEGENDRE_BLOCK_BYTES = 8 * 2**20


@dataclass(frozen=True)
class SpinMoments:
    """Central moments of n.S up to fourth order."""

    mean: float
    var: float
    third: float
    fourth: float


def spin_moments(state: State, axis: SpinAxis) -> SpinMoments:
    """Mean and central moments (up to 4th) of the spin component n.S."""
    n = axis.unit_vector
    pure = isinstance(state, PureState)
    start = state.amplitudes if pure else state.matrix
    raw, cur = [], start
    for _ in range(4):
        cur = apply_spin(n, cur)  # A^k psi, or A^k rho with <A^k> = Tr(A^k rho)
        raw.append(float(np.real(start.conj() @ cur if pure else np.trace(cur))))
    m1, m2, m3, m4 = raw
    var = m2 - m1**2
    third = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    fourth = m4 - 4.0 * m1 * m3 + 6.0 * m1**2 * m2 - 3.0 * m1**4
    return SpinMoments(mean=m1, var=var, third=third, fourth=fourth)


def yz_moments(state: State) -> tuple[float, float, float, float, float]:
    """(<Sy>, <Sz>, vy, vz, cov): the means and the symmetrized 2x2 covariance,
    so var(Sy cos a + Sz sin a) = vy cos^2 a + vz sin^2 a + 2 cov sin a cos a."""
    if isinstance(state, PureState):
        vec = state.amplitudes
        yv, zv = apply_spin(SY, vec), apply_spin(SZ, vec)
        ey, ez = (vec.conj() @ yv).real, (vec.conj() @ zv).real
        eyy, ezz = (yv.conj() @ yv).real, (zv.conj() @ zv).real
        cross = (yv.conj() @ zv).real  # Re<Sy Sz> = symmetrized product
    else:
        y_rho, z_rho = apply_spin(SY, state.matrix), apply_spin(SZ, state.matrix)
        ey, ez = np.trace(y_rho).real, np.trace(z_rho).real
        eyy, ezz = np.trace(apply_spin(SY, y_rho)).real, np.trace(apply_spin(SZ, z_rho)).real
        cross = np.trace(apply_spin(SY, z_rho)).real  # Re Tr(Sy Sz rho)
    ey, ez = float(ey), float(ez)
    return ey, ez, float(eyy - ey**2), float(ezz - ez**2), float(cross - ey * ez)


@dataclass(frozen=True)
class Antisqueezing:
    xi_plus_sq: float
    alpha_max: float


def antisqueezing(state: State) -> Antisqueezing:
    """Maximal transverse variance ratio max_a var(S_a) / (S/2), a in [0, pi).

    S_a = Sy cos a + Sz sin a spans the plane orthogonal to the +x mean-spin
    direction; the maximum is the top eigenvalue of the 2x2 (Sy, Sz)
    covariance and alpha_max the angle of its eigenvector. alpha_max is 0
    where the two eigenvalues coincide, as for a coherent state.
    """
    params = state.params
    _, _, vy, vz, cov = yz_moments(state)
    half_diff = 0.5 * (vy - vz)
    top = 0.5 * (vy + vz) + math.hypot(half_diff, cov)
    alpha_max = 0.5 * math.atan2(cov, half_diff) % math.pi
    if alpha_max == math.pi:  # a negative angle within rounding of 0; the axis has period pi
        alpha_max = 0.0
    return Antisqueezing(xi_plus_sq=top / (params.spin / 2.0), alpha_max=alpha_max)


def binder_from_central_moments(mu2: float, mu4: float) -> float:
    """B = 1 - mu4 / (3 mu2^2); shared by the quantum and sampled estimators."""
    if mu2 <= 0.0:
        raise ValueError(f"Binder cumulant undefined for non-positive variance {mu2:.3e}")
    return 1.0 - mu4 / (3.0 * mu2 * mu2)


def binder_cumulant(state: State, axis: SpinAxis) -> float:
    """Binder cumulant of the n.S distribution; 0 for Gaussian statistics."""
    mom = spin_moments(state, axis)
    return binder_from_central_moments(mom.var, mom.fourth)


@dataclass(frozen=True)
class QfiResult:
    """Fisher information for the given axis plus the 3x3 generator matrix."""

    f_q: float
    gamma_q: np.ndarray

    @property
    def optimal_direction(self) -> np.ndarray:
        """Rotation axis maximizing F_Q: top eigenvector of gamma_q."""
        w, v = np.linalg.eigh(self.gamma_q)
        return v[:, -1]

    @property
    def f_q_max(self) -> float:
        return float(np.linalg.eigvalsh(self.gamma_q)[-1])


def qfi(state: State, axis: SpinAxis) -> QfiResult:
    """Spectral QFI: F_Q = 2 sum_{q_k + q_k' > cutoff} (q_k - q_k')^2 / (q_k + q_k')
    |<k'|n.S|k>|^2, assembled together with the full 3x3 matrix over x, y, z."""
    q, v = np.linalg.eigh(as_density(state).matrix)
    q = np.clip(q, 0.0, None)
    ssum = q[:, None] + q[None, :]
    diff = q[:, None] - q[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.where(ssum > tolerances.EIG_CUTOFF, 2.0 * diff**2 / ssum, 0.0)
    comps = [v.conj().T @ apply_spin(e, v) for e in (SX, SY, SZ)]
    gamma = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            gamma[i, j] = gamma[j, i] = float(np.real(np.sum(weight * comps[i] * comps[j].conj())))
    n = axis.unit_vector
    return QfiResult(f_q=float(n @ gamma @ n), gamma_q=gamma)


def multipole_components(state: State) -> np.ndarray:
    """Spherical-tensor components r[k, q + K], K = N, k = 0..N, |q| <= k.

    r_kq = Tr(T_kq^dagger rho) over the unit Hilbert-Schmidt-norm tensor
    operators, with T_kk proportional to (-1)^k (S+)^k and T_k,q-1 a positive
    multiple of [S-, T_kq]. T_kq lives on the q-th diagonal, where the
    Casimir superoperator sum_i [S_i, [S_i, .]] is a real symmetric
    tridiagonal matrix with eigenvalues k(k+1), k = q..K; its eigenvectors
    are the T_kq bands up to sign. They satisfy T_k,-q = (-1)^q T_kq^dagger,
    so for the Hermitian input r[k, -q] = (-1)^q conj(r[k, q]).
    """
    from scipy.linalg import eigh_tridiagonal  # lazy: keeps scipy out of `import lmgsim`

    rho = as_density(state).matrix
    d = rho.shape[0]
    S = (d - 1) / 2.0
    K = d - 1
    m = S - np.arange(d)
    a = np.zeros(d + 1)  # a[j] = <m_j + 1|S+|m_j>, zero at j = 0 and j = d
    a[1:d] = np.sqrt(S * (S + 1) - m[1:] * (m[1:] + 1))

    out = np.zeros((K + 1, 2 * K + 1), dtype=complex)
    above = None  # bands of q + 1, columns k = q + 1..K
    for q in range(K, -1, -1):
        # band entry i is T_kq[i, i + q] = <m_i|T_kq|m_i - q>, i = 0..d-q-1
        n = d - q
        i = np.arange(n)
        off = -a[1:n] * a[q + 1 : d]
        diag = q * q + 2.0 * S * (S + 1) - (S - i) ** 2 - (S - i - q) ** 2
        _, bands = eigh_tridiagonal(diag, off)  # ascending k(k+1): columns k = q..K
        bands[:, 0] *= (-1.0) ** q * np.sign(bands[:, 0].sum())
        if above is not None:
            lowered = np.zeros((n, K - q))  # [S-, T_k,q+1] on the q-th diagonal
            lowered[1:] += a[1:n, None] * above
            lowered[:-1] -= a[q + 1 : d, None] * above
            bands[:, 1:] *= np.sign(np.einsum("ij,ij->j", bands[:, 1:], lowered))
        out[q:, q + K] = bands.T @ np.diagonal(rho, offset=q)
        above = bands

    # negative q by the hermiticity symmetry of the tensor basis
    for k in range(K + 1):
        qs = np.arange(1, k + 1)
        out[k, K - qs] = (-1.0) ** qs * np.conj(out[k, K + qs])
    return out


def _weighted_profiles(state: State, thetas: np.ndarray) -> np.ndarray:
    """w_q C[q, i], where C[q, i] = sum_k r_kq Ybar_kq(theta_i), Y = Ybar e^{iq phi},
    and w_q = 1 at q = 0, 2 otherwise: W = Re sum_q w_q C[q] e^{iq phi}.

    The Legendre table is built for a block of theta at a time, each block's
    (K+1, 2K+1, block) table within LEGENDRE_BLOCK_BYTES.
    """
    from scipy.special import sph_legendre_p_all  # lazy, like eigh_tridiagonal above

    rkq = multipole_components(state)
    K = rkq.shape[0] - 1
    block = max(1, LEGENDRE_BLOCK_BYTES // (8 * (K + 1) * (2 * K + 1)))
    c = np.empty((K + 1, thetas.size), dtype=complex)
    for start in range(0, thetas.size, block):
        cols = slice(start, start + block)
        ybar = sph_legendre_p_all(K, K, thetas[cols])[0]  # (K+1, 2K+1, block), real
        for q in range(K + 1):
            c[q, cols] = (1.0 if q == 0 else 2.0) * (rkq[q:, q + K] @ ybar[q:, q])
    return c


def wigner(state: State, thetas, phis) -> np.ndarray:
    """Spherical Wigner function on the product grid, shape (len(thetas), len(phis)).

    W = sum_kq r_kq Y_kq; real by construction for Hermitian input. A faithful
    (alias-free) rendering needs at least 2S+1 samples per direction.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    c = _weighted_profiles(state, thetas)
    phase = np.exp(1j * np.outer(np.arange(c.shape[0]), phis))  # (K+1, n_phi)
    return np.real(c.T @ phase)


def wigner_points(state: State, thetas, phis) -> np.ndarray:
    """Wigner function at paired points (theta_i, phi_i), shape (n_points,)."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    if thetas.shape != phis.shape:
        raise ValueError("thetas and phis must have matching shapes")
    c = _weighted_profiles(state, thetas)  # (K+1, n_points)
    phase = np.exp(1j * np.outer(np.arange(c.shape[0]), phis))
    return np.real(np.sum(c * phase, axis=0))
