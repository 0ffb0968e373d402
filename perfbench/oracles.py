"""Reference physics computed apart from lmgsim.

Operators come straight from the ladder matrix elements and states from the
binomial coherent-state formula. Rotations are scipy.linalg.expm of n.S;
pure states evolve under the sparse H by scipy.sparse.linalg.expm_multiply
(a dense expm of H t costs 6-7 s at N = 800, where the phases reach ~S^2 t);
mixed states evolve by expm of the dense vectorised Lindblad generator. No
result here shares code with the package's eigh-based propagators, its RK4
integrator or its readout search. Basis order is m = S, S-1, ..., -S.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply


class Spin:
    """Collective operators and the +x coherent state for N atoms, chi = 1."""

    def __init__(self, n_atoms: int):
        self.n = n_atoms
        self.s = n_atoms / 2.0
        self.d = n_atoms + 1
        m = self.s - np.arange(self.d)
        # <m+1|S+|m> = sqrt(S(S+1) - m(m+1)) sits one row above the diagonal
        splus = np.diag(np.sqrt(self.s * (self.s + 1.0) - m[1:] * (m[1:] + 1.0)), 1)
        self.sx = 0.5 * (splus + splus.T).astype(complex)
        self.sy = -0.5j * (splus - splus.T)
        self.sz = np.diag(m).astype(complex)
        k = np.arange(self.n, -1, -1)  # up-spin count S + m
        log_amp = 0.5 * np.array([math.lgamma(self.n + 1) - math.lgamma(j + 1) - math.lgamma(self.n - j + 1)
                                  for j in k]) - 0.5 * self.n * math.log(2.0)
        self.css_x = np.exp(log_amp).astype(complex)
        self._rotations: dict[tuple, np.ndarray] = {}
        self._states: dict[tuple, np.ndarray] = {}

    def hamiltonian(self, ratio: float) -> np.ndarray:
        """chi Sz^2 + Omega Sx with Omega = ratio * S * chi."""
        return self.sz @ self.sz + ratio * self.s * self.sx

    def in_plane(self, alpha: float) -> np.ndarray:
        """S_alpha = cos(alpha) Sy + sin(alpha) Sz."""
        return math.cos(alpha) * self.sy + math.sin(alpha) * self.sz

    def propagate(self, ratio: float, s_chi_t: float, psi: np.ndarray) -> np.ndarray:
        """expm(-i H t) psi at dimensionless time S chi t; negative times run backward."""
        return expm_multiply(csr_matrix(-1j * (s_chi_t / self.s) * self.hamiltonian(ratio)), psi)

    def rotation(self, alpha: float, angle: float) -> np.ndarray:
        """expm(-i angle S_alpha); the inverse rotation is the adjoint."""
        key = (alpha, abs(angle))
        if key not in self._rotations:
            self._rotations[key] = expm(-1j * abs(angle) * self.in_plane(alpha))
        u = self._rotations[key]
        return u if angle >= 0 else u.conj().T

    def evolved(self, ratio: float, s_chi_t: float) -> np.ndarray:
        """The +x coherent state after time S chi t, memoised per (ratio, time)."""
        key = (ratio, s_chi_t)
        if key not in self._states:
            self._states[key] = self.propagate(ratio, s_chi_t, self.css_x)
        return self._states[key]


def mean(op: np.ndarray, psi: np.ndarray) -> float:
    return float(np.real(psi.conj() @ (op @ psi)))


def transverse_covariance(spin: Spin, psi: np.ndarray) -> np.ndarray:
    """2x2 covariance of (Sy, Sz) with the symmetrised cross term."""
    vy, vz = spin.sy @ psi, spin.sz @ psi
    ey, ez = float(np.real(psi.conj() @ vy)), float(np.real(psi.conj() @ vz))
    cyy = float(np.real(vy.conj() @ vy)) - ey * ey
    czz = float(np.real(vz.conj() @ vz)) - ez * ez
    cyz = float(np.real(vy.conj() @ vz)) - ey * ez
    return np.array([[cyy, cyz], [cyz, czz]])


def antisqueezing(spin: Spin, psi: np.ndarray) -> tuple[float, float, float]:
    """(xi_+^2, its axis angle in [0, pi), eigenvalue gap / (S/2)).

    xi_+^2 is the top eigenvalue of the transverse covariance over S/2; the
    axis is undefined when the gap vanishes, as for a coherent state.
    """
    w, v = np.linalg.eigh(transverse_covariance(spin, psi))
    alpha = math.atan2(v[1, 1], v[0, 1]) % math.pi
    return w[1] / (spin.s / 2.0), alpha, (w[1] - w[0]) / (spin.s / 2.0)


def oat_xi_plus_sq(n_atoms: int, s_chi_t: float) -> float:
    """Closed-form xi_+^2 for one-axis twisting of the +x coherent state.

    Kitagawa-Ueda moments with mu = chi t: var(Sz) = S/2,
    var(Sy) = S/2 (1 + (S - 1/2)(1 - cos^(N-2)(2 mu))),
    cov(Sy, Sz) = S (S - 1/2) sin(mu) cos^(N-2)(mu).
    """
    s = n_atoms / 2.0
    mu = s_chi_t / s
    vy = 0.5 * s * (1.0 + (s - 0.5) * (1.0 - math.cos(2.0 * mu) ** (n_atoms - 2)))
    vz = 0.5 * s
    cyz = s * (s - 0.5) * math.sin(mu) * math.cos(mu) ** (n_atoms - 2)
    top = 0.5 * (vy + vz) + math.hypot(0.5 * (vy - vz), cyz)
    return top / (s / 2.0)


def binder(spin: Spin, psi: np.ndarray, alpha: float) -> float:
    """1 - mu4 / (3 mu2^2) of the S_alpha distribution."""
    a = spin.in_plane(alpha)
    shifted = a @ psi - mean(a, psi) * psi
    mu2 = float(np.real(shifted.conj() @ shifted))
    second = a @ shifted - mean(a, psi) * shifted
    mu4 = float(np.real(second.conj() @ second))
    return 1.0 - mu4 / (3.0 * mu2 * mu2)


READOUT_SCAN = 64  # the readout rule: best |response| over beta = k pi / 64


def _yz_means(spin: Spin, rho_or_psi: np.ndarray) -> np.ndarray:
    if rho_or_psi.ndim == 1:
        return np.array([mean(spin.sy, rho_or_psi), mean(spin.sz, rho_or_psi)])
    return np.array([np.real(np.trace(rho_or_psi @ spin.sy)), np.real(np.trace(rho_or_psi @ spin.sz))])


def _response(spin: Spin, echo, alpha: float, probe: float) -> np.ndarray:
    """Central-difference derivative of (<Sy>, <Sz>) after echo(R(+-probe))."""
    plus = _yz_means(spin, echo(spin.rotation(alpha, probe)))
    minus = _yz_means(spin, echo(spin.rotation(alpha, -probe)))
    return (plus - minus) / (2.0 * probe)


def satin_gain(spin: Spin, ratio: float, s_chi_t: float, alpha: float, probe: float,
               readout: float | None = None, legs=None, detection_var: float = 0.0) -> dict:
    """Signal gain G^2 and noise N^2 of forward twist, probe, backward twist.

    legs=None evolves the pure state unitarily; otherwise legs holds the
    forward and backward dephasing maps of lindblad_legs. The reference is the
    bare coherent state's response along the same readout. readout=None picks
    the best angle on the 64-point scan.
    """
    psi0 = spin.css_x
    if legs is None:
        mid = spin.evolved(ratio, s_chi_t)
        echo = lambda r: spin.propagate(ratio, -s_chi_t, r @ mid)
        final = spin.propagate(ratio, -s_chi_t, mid)
    else:
        fwd, bwd = legs
        rho_mid = fwd(np.outer(psi0, psi0.conj()))
        echo = lambda r: bwd(r @ rho_mid @ r.conj().T)
        final = bwd(rho_mid)
    dy, dz = _response(spin, echo, alpha, probe)
    ry, rz = _response(spin, lambda r: r @ psi0, alpha, probe)
    betas = np.arange(READOUT_SCAN) * math.pi / READOUT_SCAN
    scan = np.abs(np.cos(betas) * dy + np.sin(betas) * dz)
    if readout is None:
        readout = float(betas[int(np.argmax(scan))])
    c, s = math.cos(readout), math.sin(readout)
    response = abs(c * dy + s * dz)
    g = response / abs(c * ry + s * rz)
    a = spin.in_plane(readout)
    if final.ndim == 1:
        var = mean(a @ a, final) - mean(a, final) ** 2
    else:
        var = float(np.real(np.trace(final @ a @ a)) - np.real(np.trace(final @ a)) ** 2)
    return {"g_sq": g * g, "n_sq": var / (spin.s / 2.0) + detection_var, "readout": readout,
            "response": response, "best_response": float(np.max(scan))}


def lindblad_legs(spin: Spin, ratio: float, gamma: float, times) -> dict:
    """{S chi t: (forward, backward)} exact maps for rho' = -i[+-H, rho] +
    gamma (Sz rho Sz - {Sz^2, rho}/2).

    Each map is expm of the column-stacked generator; later times compose the
    propagator of the previous time with expm over the gap, and equal gaps
    share one expm.
    """
    d = spin.d
    eye = np.eye(d)
    jump2 = spin.sz @ spin.sz
    dissipator = gamma * (np.kron(spin.sz.T, spin.sz) - 0.5 * np.kron(eye, jump2) - 0.5 * np.kron(jump2.T, eye))
    h = spin.hamiltonian(ratio)
    gens = [-1j * (np.kron(eye, sign * h) - np.kron(sign * h.T, eye)) + dissipator for sign in (1.0, -1.0)]
    steps: dict[float, list[np.ndarray]] = {}
    props = [np.eye(d * d, dtype=complex)] * 2
    legs, last = {}, 0.0
    for st in sorted(times):
        gap = round(st - last, 12)
        if gap not in steps:
            steps[gap] = [expm((gap / spin.s) * g) for g in gens]
        props = [step @ prop for step, prop in zip(steps[gap], props)]
        legs[st] = tuple(_superop_map(p, d) for p in props)
        last = st
    return legs


def _superop_map(prop: np.ndarray, d: int):
    return lambda rho: (prop @ rho.reshape(-1, order="F")).reshape(d, d, order="F")


def echo_fidelities(spin: Spin, ratio: float, s_chi_t: float, alpha: float, delta_phis) -> list[float]:
    """F(dphi) = |<psi0| U^dag R(dphi) U |psi0>|^2 by direct matrix products."""
    psi_t = spin.evolved(ratio, s_chi_t)
    return [float(abs(psi_t.conj() @ (spin.rotation(alpha, x) @ psi_t)) ** 2) for x in delta_phis]


def curvature(delta_phis, fidelities) -> float:
    """-p2 of the least-squares parabola through (dphi, F)."""
    return float(-np.polyfit(np.asarray(delta_phis, float), np.asarray(fidelities, float), 2)[0])


def growth_rate(times, values, window) -> tuple[float, float]:
    """(lambda, stderr) of ln y = c + 2 lambda t on the window, by np.polyfit."""
    t = np.asarray(times, float)
    y = np.asarray(values, float)
    keep = (t >= window[0] - 1e-12) & (t <= window[1] + 1e-12)
    (slope, intercept), cov = np.polyfit(t[keep], np.log(y[keep]), 1, cov="unscaled")
    resid = np.log(y[keep]) - (intercept + slope * t[keep])
    sigma_sq = float(resid @ resid) / (keep.sum() - 2)
    return slope / 2.0, math.sqrt(sigma_sq * cov[0, 0]) / 2.0


def wigner_quadrature(n_atoms: int):
    """Nodes and weights integrating any degree-N spherical function exactly:
    Gauss-Legendre in cos(theta), uniform in phi."""
    x, w = np.polynomial.legendre.leggauss(n_atoms // 2 + 2)
    n_phi = 2 * n_atoms + 2
    return np.arccos(x), w, np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False), 2.0 * math.pi / n_phi


def parseval_gap(rkq: np.ndarray, purity: float) -> float:
    """|sum |r_kq|^2 - Tr rho^2|, zero for any orthonormal tensor basis."""
    return abs(float(np.sum(np.abs(rkq) ** 2)) - purity)


def sphere_integral_gap(w_grid: np.ndarray, weights: np.ndarray, dphi: float, dim: int) -> float:
    """|int W dOmega - sqrt(4 pi / d)|: only the k = 0 multipole, Tr(rho)/sqrt(d), integrates."""
    return abs(float(np.sum(weights[:, None] * w_grid) * dphi) - math.sqrt(4.0 * math.pi / dim))


def wigner_bound(dim: int, purity: float) -> float:
    """|W| <= d sqrt(Tr rho^2 / (4 pi)), by Cauchy-Schwarz with sum_q |Y_kq|^2 = (2k+1)/(4 pi)."""
    return dim * math.sqrt(purity / (4.0 * math.pi))
