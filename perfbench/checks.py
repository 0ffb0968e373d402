"""Checks of lmgsim's outputs against the oracles in oracles.py.

Each check reads what the program wrote (the CSV/JSON datasets and the
expanded config in manifest.json) or returned, recomputes the same quantity
apart from the program, and returns a list of failure messages.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracles

# Tolerances. Outputs are written with 12 significant digits. Moments, gains
# and OTOCs agree with the oracles to 4e-11 relative or better on every
# checked point at N <= 800, RK4 at the package's step included; fit
# statistics recomputed from the CSV values agree to 1e-9. Antisqueezing's
# golden-section search stops at 1e-6 rad.
REL_TOL = 1e-8
ANGLE_TOL = 1e-5  # rad, for the antisqueezing axis where it is defined
GAP_MIN = 1e-3  # covariance eigenvalue gap / (S/2) below which the axis is undefined
FIDELITY_GATE = 0.95  # Uhlmann fidelity of each reconstruction to the exact state
LL_SLACK = 1e-9  # relative decrease of the log-likelihood counted as roundoff
WIGNER_TOL = 1e-8  # Parseval and sphere-integral deviations
FOTOC_GRID = (-0.01, -0.005, -0.002, 0.0, 0.002, 0.005, 0.01)  # scrambling_panel's FOTOC probe angles
FIG5_PROBE = 0.005  # scrambling_panel's gain uses SatinConfig's default probe rotation


def _close(label: str, got: float, want: float, rel: float = REL_TOL, floor: float = 1e-12) -> list[str]:
    if math.isfinite(got) and abs(got - want) <= rel * abs(want) + floor:
        return []
    return [f"{label}: program {float(got)!r}, oracle {float(want)!r}"]


def _angle(label: str, got: float, want: float) -> list[str]:
    diff = abs((got - want + math.pi / 2) % math.pi - math.pi / 2)
    return [] if diff <= ANGLE_TOL else [f"{label}: axis {got!r}, oracle {want!r}"]


def _points(values, check_points) -> list[tuple[int, float]]:
    """(row, value) of the grid values the oracles visit; None visits all."""
    return [(i, v) for i, v in enumerate(values)
            if check_points is None or any(abs(v - c) < 1e-9 for c in check_points)]


def read_csv(path: Path) -> tuple[str, list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    digest = lines[0].removeprefix("# manifest_sha256=")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:] if line.strip()])
    return digest, lines[1].split(","), rows


class Checker:
    """Holds one oracles.Spin per atom number, so unitaries are built once."""

    def __init__(self):
        self._spins: dict[int, oracles.Spin] = {}

    def spin(self, n_atoms: int) -> oracles.Spin:
        if n_atoms not in self._spins:
            self._spins[n_atoms] = oracles.Spin(n_atoms)
        return self._spins[n_atoms]

    def task(self, op, outdir: Path, reconstructions: list) -> list[str]:
        manifest = json.loads((outdir / "manifest.json").read_text())
        cfg = manifest["config"]
        fails = [f"config {k}: passed {v!r}, manifest {cfg.get(k)!r}"
                 for k, v in op.config.items() if cfg.get(k) != v]
        files = {}
        for name in manifest["outputs"]:
            path = outdir / name
            if name.endswith(".csv"):
                digest, header, rows = read_csv(path)
                files[name] = dict(zip(header, rows.T)) if rows.size else {}
            elif name.endswith(".json"):
                doc = json.loads(path.read_text())
                digest = doc["manifest_sha256"]
                files[name] = doc
            else:
                text = path.read_text()
                digest = text.splitlines()[0].removeprefix("# manifest_sha256=")
                files[name] = text
            if digest != manifest["manifest_sha256"]:
                fails.append(f"{name}: manifest hash {digest} differs from manifest.json")
        check = getattr(self, f"_{cfg['task']}")
        return fails + check(cfg, files, op.check_points, reconstructions)

    def _antisqueezing_drive_sweep(self, cfg, files, points, _):
        spin = self.spin(cfg["n_atoms"])
        cols = files["antisqueezing_vs_drive.csv"]
        n = int(round((cfg["ratio_max"] - cfg["ratio_min"]) / cfg["ratio_step"])) + 1
        fails = [] if len(cols["omega_over_schi"]) == n else [f"fig2b: {len(cols['omega_over_schi'])} rows, want {n}"]
        for i, r in _points(cols["omega_over_schi"], points):
            xi, alpha, gap = oracles.antisqueezing(spin, spin.evolved(r, cfg["s_chi_t"]))
            fails += _close(f"fig2b xi_plus_sq at ratio {r}", cols["xi_plus_sq"][i], xi)
            fails += _close(f"fig2b omega at ratio {r}", cols["omega"][i], r * spin.s * cfg["chi"])
            if gap > GAP_MIN:
                fails += _angle(f"fig2b alpha_max at ratio {r}", cols["alpha_max"][i], alpha)
        return fails

    def _antisqueezing_vs_time(self, cfg, files, points, _):
        spin = self.spin(cfg["n_atoms"])
        cols = files["antisqueezing_vs_time.csv"]
        fails = []
        for ratio in cfg["ratios"]:
            col = cols[f"xi_plus_sq_r{ratio:g}"]
            if ratio == 0:  # closed form at every grid point
                for t, got in zip(cols["s_chi_t"], col):
                    fails += _close(f"fig2c OAT xi_plus_sq at {t}", got, oracles.oat_xi_plus_sq(spin.n, t))
                continue
            for i, t in _points(cols["s_chi_t"], points):
                xi = oracles.antisqueezing(spin, spin.evolved(ratio, t))[0]
                fails += _close(f"fig2c xi_plus_sq ratio {ratio} at {t}", col[i], xi)
        return fails

    def _binder_vs_time(self, cfg, files, points, _):
        spin = self.spin(cfg["n_atoms"])
        cols = files["binder_vs_time.csv"]
        fails = []
        for i, t in _points(cols["s_chi_t"], points):
            psi = spin.evolved(cfg["ratio"], t)
            _, alpha, gap = oracles.antisqueezing(spin, psi)
            if gap > GAP_MIN:
                fails += _angle(f"fig2d alpha_max at {t}", cols["alpha_max"][i], alpha)
            fails += _close(f"fig2d binder at {t}", cols["binder"][i],
                            oracles.binder(spin, psi, cols["alpha_max"][i]), floor=1e-9)
        return fails

    def _gain_vs_time(self, cfg, files, points, _):
        spin = self.spin(cfg["n_atoms"])
        cols = files["gain_vs_time.csv"]
        checked = _points(cols["s_chi_t"], points)
        legs = (oracles.lindblad_legs(spin, cfg["ratio"], cfg["gamma"], [t for _, t in checked])
                if cfg["gamma"] > 0 else {})
        fails = []
        for i, t in checked:
            ref = oracles.satin_gain(spin, cfg["ratio"], t, cfg["alpha"], cfg["delta_phi_probe"],
                                     readout=cols["readout_alpha"][i], legs=legs.get(t),
                                     detection_var=cfg["detection_noise_var"])
            fails += _close(f"fig3 g_sq at {t}", cols["g_sq"][i], ref["g_sq"])
            fails += _close(f"fig3 n_sq at {t}", cols["n_sq"][i], ref["n_sq"])
            if ref["response"] < ref["best_response"] * (1.0 - REL_TOL):
                fails.append(f"fig3 readout at {t}: response {ref['response']} below the scan's best "
                             f"{ref['best_response']}")
        db = 10.0 * np.log10(cols["g_sq"] / cols["n_sq"])
        fails += [f"fig3 gain_db row {i}: {got} != 10 log10(g_sq/n_sq) = {want}"
                  for i, (got, want) in enumerate(zip(cols["gain_db"], db)) if abs(got - want) > 1e-9]
        return fails

    def _scrambling_panel(self, cfg, files, points, _):
        spin = self.spin(cfg["n_atoms"])
        cols = files["scrambling_panel.csv"]
        fails = []
        for i, t in _points(cols["s_chi_t"], points):
            fails += _close(f"fig5 xi_plus_sq at {t}", cols["xi_plus_sq"][i],
                            oracles.antisqueezing(spin, spin.evolved(cfg["ratio"], t))[0])
            gain = oracles.satin_gain(spin, cfg["ratio"], t, cfg["alpha"], FIG5_PROBE)
            fails += _close(f"fig5 g_sq at {t}", cols["g_sq"][i], gain["g_sq"])
            fids = oracles.echo_fidelities(spin, cfg["ratio"], t, cfg["alpha"], FOTOC_GRID)
            fails += _close(f"fig5 otoc_scaled at {t}", cols["otoc_scaled"][i],
                            oracles.curvature(FOTOC_GRID, fids) / (spin.s / 2.0), rel=1e-6)
        fits = files["exponents.json"]["fits"]
        for name, fit in fits.items():
            lam, err = oracles.growth_rate(cols["s_chi_t"], cols[name], cfg["fit_window"])
            fails += _close(f"fig5 lambda of {name}", fit["lambda"], lam, rel=1e-9)
            fails += _close(f"fig5 stderr of {name}", fit["stderr"], err, rel=1e-6, floor=1e-9)
        return fails

    def _tomographic_fotoc(self, cfg, files, points, reconstructions):
        spin = self.spin(cfg["n_atoms"])
        dphis = cfg["delta_phis"]
        if len(reconstructions) != len(dphis):
            return [f"fig4: observed {len(reconstructions)} reconstructions for {len(dphis)} probe angles"]
        psi0, psi_t = spin.css_x, spin.evolved(cfg["ratio"], cfg["s_chi_t"])
        fails = []
        cols = files["fotoc.csv"]
        for i, (dphi, rec) in enumerate(zip(dphis, reconstructions)):
            rho = rec.rho.matrix
            exact = spin.propagate(cfg["ratio"], -cfg["s_chi_t"], spin.rotation(cfg["alpha"], dphi) @ psi_t)
            fid = float(np.real(exact.conj() @ rho @ exact))
            if not fid >= FIDELITY_GATE:
                fails.append(f"fig4 reconstruction at dphi {dphi}: fidelity {fid:.4f} < {FIDELITY_GATE}")
            ll = np.asarray(rec.log_likelihoods)
            if np.any(np.diff(ll) < -LL_SLACK * np.abs(ll[:-1])):
                fails.append(f"fig4 reconstruction at dphi {dphi}: log-likelihood decreases")
            fails += _close(f"fig4 delta_phi row {i}", cols["delta_phi"][i], dphi, floor=1e-15)
            fails += _close(f"fig4 fidelity at dphi {dphi}", cols["fidelity"][i],
                            float(np.real(psi0.conj() @ rho @ psi0)), rel=0.0, floor=1e-11)
        value = oracles.curvature(cols["delta_phi"], cols["fidelity"])
        otoc = files["otoc.json"]
        fails += _close("fig4 otoc value", otoc["value"], value, rel=1e-6)
        fails += _close("fig4 otoc scaled_value", otoc["scaled_value"], value / (spin.s / 2.0), rel=1e-6)

        records = [json.loads(line) for line in files["records.jsonl"].splitlines()[1:] if line.strip()]
        if len(records) != cfg["n_directions"] or any(abs(sum(r["counts"].values()) - cfg["shots"]) > 0
                                                      for r in records):
            fails.append(f"fig4 records.jsonl: want {cfg['n_directions']} directions of {cfg['shots']} shots")

        rho0 = reconstructions[int(np.argmin(np.abs(dphis)))].rho
        w = files["wigner.csv"]["w"]
        if w.size != cfg["wigner_n_theta"] * cfg["wigner_n_phi"]:
            fails.append(f"fig4 wigner.csv: {w.size} samples")
        return fails + wigner_failures(rho0, *evaluate_wigner(rho0), extra=w)


def evaluate_wigner(state):
    """lmgsim's multipoles of `state` and its Wigner function on the exact quadrature grid."""
    import lmgsim

    thetas, _, phis, _ = oracles.wigner_quadrature(state.params.n_atoms)
    return lmgsim.observables.multipole_components(state), lmgsim.observables.wigner(state, thetas, phis)


def wigner_failures(state, rkq, w_grid, extra=()) -> list[str]:
    """Parseval, sphere integral and the pointwise bound; `extra` holds more
    Wigner samples of the same state to bound."""
    dim = state.params.dim
    rho = getattr(state, "matrix", None)
    purity = 1.0 if rho is None else float(np.sum(np.abs(rho) ** 2))
    _, weights, _, dphi = oracles.wigner_quadrature(dim - 1)
    fails = []
    gap = oracles.parseval_gap(rkq, purity)
    if not gap <= WIGNER_TOL:
        fails.append(f"N={dim - 1} multipoles: |sum |r_kq|^2 - Tr rho^2| = {gap:.3e}")
    gap = oracles.sphere_integral_gap(w_grid, weights, dphi, dim)
    if not gap <= WIGNER_TOL:
        fails.append(f"N={dim - 1} Wigner: sphere integral off sqrt(4 pi/d) by {gap:.3e}")
    peak = max(float(np.max(np.abs(w_grid))), float(np.max(np.abs(extra), initial=0.0)))
    bound = oracles.wigner_bound(dim, purity)
    if not peak <= bound * (1.0 + 1e-9):
        fails.append(f"N={dim - 1} Wigner: |W| reaches {peak:.3e}, bound d sqrt(Tr rho^2/4pi) = {bound:.3e}")
    return fails
