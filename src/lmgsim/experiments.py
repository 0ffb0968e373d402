"""Config-driven experiment runner: each task rebuilds one published dataset
(CSV/JSON plus a manifest) from a flat JSON config with a fixed seed."""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .dicke import CollectiveSpinParams, SpinAxis, css
from .dynamics import HamiltonianSpec, LindbladSpec, evolve_unitary
from .observables import antisqueezing, binder_cumulant, wigner
from .satin import SatinConfig, metrological_gain, signal_gain
from .scrambling import DEFAULT_DELTA_PHI_GRID, check_probe_grid, fotoc, otoc_from_fotoc
from .tomography import (
    DEFAULT_N_DIRECTIONS,
    DEFAULT_SHOTS,
    FotocPipelineConfig,
    bootstrap_otoc,
    records_to_json_lines,
    tomographic_fotoc_pipeline,
)

class ConfigError(ValueError):
    """Raised for unparseable, incomplete, or out-of-range configs."""


def _grid(start: float, stop: float, step: float) -> list[float]:
    n = int(round((stop - start) / step)) + 1
    return [round(start + i * step, 12) for i in range(n)]


# Defaults per task; expansion makes every key explicit in the manifest.
TASK_DEFAULTS = {
    "antisqueezing_drive_sweep": {
        "chi": 1.0,
        "s_chi_t": 1.9,
        "ratio_min": -1.0,
        "ratio_max": 3.0,
        "ratio_step": 0.125,
        "seed": 0,
    },
    "antisqueezing_vs_time": {
        "chi": 1.0,
        "ratios": [0.0, 1.0],
        "s_chi_t_grid": _grid(0.0, 2.0, 0.05),
        "seed": 0,
    },
    "binder_vs_time": {
        "chi": 1.0,
        "ratio": 1.0,
        "s_chi_t_grid": _grid(0.0, 2.0, 0.05),
        "seed": 0,
    },
    "gain_vs_time": {
        "chi": 1.0,
        "ratio": 1.0,
        "alpha": math.pi / 4,
        "s_chi_t_grid": _grid(0.1, 1.2, 0.05),
        "delta_phi_probe": 0.005,
        "gamma": 0.0,
        "detection_noise_var": 0.0,
        "seed": 0,
    },
    "tomographic_fotoc": {
        "chi": 1.0,
        "ratio": 1.0,
        "alpha": math.pi / 4,
        "s_chi_t": 0.57,
        "delta_phis": list(DEFAULT_DELTA_PHI_GRID),
        "n_directions": DEFAULT_N_DIRECTIONS,
        "shots": DEFAULT_SHOTS,
        "n_boot": 0,
        "wigner_n_theta": 61,
        "wigner_n_phi": 121,
        "seed": 12345,
    },
    "scrambling_panel": {
        "chi": 1.0,
        "ratio": 1.0,
        "alpha": math.pi / 4,
        "s_chi_t_grid": _grid(0.05, 1.0, 0.05),
        "fit_window": [0.2, 0.8],
        "seed": 0,
    },
}

# Figure-numbered ids are aliases for fully explicit task configs.
ALIASES = {
    "fig2b": "antisqueezing_drive_sweep",
    "fig2c": "antisqueezing_vs_time",
    "fig2d": "binder_vs_time",
    "fig3": "gain_vs_time",
    "fig4": "tomographic_fotoc",
    "fig5": "scrambling_panel",
}

COMMON_KEYS = ("experiment", "task", "n_atoms", "outdir")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _require_number(cfg, key, minimum=None, strict=False):
    v = cfg[key]
    if not _is_number(v):
        raise ConfigError(f"{key} must be a finite number, got {v!r}")
    if minimum is not None and (v <= minimum if strict else v < minimum):
        op = ">" if strict else ">="
        raise ConfigError(f"{key} must be {op} {minimum}, got {v}")
    return float(v)


def _require_int(cfg, key, minimum):
    v = cfg[key]
    if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {v!r}")
    return int(v)


def _require_alpha(cfg):
    """In-plane probe angle in [0, pi), the range SatinConfig and SpinAxis accept."""
    alpha = _require_number(cfg, "alpha", 0.0)
    if alpha >= math.pi:
        raise ConfigError(f"alpha must lie in [0, pi), got {alpha}")


def _require_grid(cfg, key, minimum=0.0):
    v = cfg[key]
    if not isinstance(v, (list, tuple)) or len(v) == 0:
        raise ConfigError(f"{key} must be a non-empty list, got {v!r}")
    for x in v:
        if not _is_number(x) or x < minimum:
            raise ConfigError(f"{key} entries must be finite numbers >= {minimum}, got {x!r}")
    return [float(x) for x in v]


def expand_config(raw: dict) -> dict:
    """Resolve aliases and defaults into a fully explicit, validated config."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    if "experiment" not in raw:
        raise ConfigError("config is missing the 'experiment' key")
    experiment = raw["experiment"]
    if experiment in ALIASES:
        task = ALIASES[experiment]
        if "task" in raw and raw["task"] != task:
            raise ConfigError(f"experiment {experiment} implies task {task}, got {raw['task']!r}")
        defaults = {"n_atoms": 200, **TASK_DEFAULTS[task]}
    elif experiment == "custom":
        task = raw.get("task")
        if task not in TASK_DEFAULTS:
            raise ConfigError(f"custom config needs a 'task' key, one of {sorted(TASK_DEFAULTS)}, got {task!r}")
        if "n_atoms" not in raw:
            raise ConfigError("custom config must set n_atoms")
        defaults = dict(TASK_DEFAULTS[task])
    else:
        raise ConfigError(f"unknown experiment id {experiment!r}; expected one of {sorted(ALIASES) + ['custom']}")

    allowed = set(defaults) | set(COMMON_KEYS)
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys for task {task}: {unknown}")

    cfg = {"experiment": experiment, "task": task, "outdir": None, **defaults}
    cfg.update({k: v for k, v in raw.items() if k not in ("experiment", "task")})
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    task = cfg["task"]
    _require_int(cfg, "n_atoms", 1)
    _require_number(cfg, "chi", 0.0, strict=True)
    _require_int(cfg, "seed", 0)
    if cfg["outdir"] is not None and not isinstance(cfg["outdir"], str):
        raise ConfigError(f"outdir must be a string path or null, got {cfg['outdir']!r}")
    if task == "antisqueezing_drive_sweep":
        _require_number(cfg, "s_chi_t", 0.0)
        _require_number(cfg, "ratio_min")
        _require_number(cfg, "ratio_max")
        _require_number(cfg, "ratio_step", 0.0, strict=True)
        if cfg["ratio_max"] < cfg["ratio_min"]:
            raise ConfigError("ratio_max must be >= ratio_min")
    elif task == "antisqueezing_vs_time":
        ratios = cfg["ratios"]
        if not isinstance(ratios, (list, tuple)) or not ratios or not all(_is_number(r) for r in ratios):
            raise ConfigError(f"ratios must be a non-empty list of finite numbers, got {ratios!r}")
        labels = [f"{float(r):g}" for r in ratios]  # the CSV column suffixes
        if len(set(labels)) != len(labels):
            raise ConfigError(f"ratios must give distinct column labels xi_plus_sq_r<ratio>, got {labels}")
        _require_grid(cfg, "s_chi_t_grid")
    elif task == "binder_vs_time":
        _require_number(cfg, "ratio")
        _require_grid(cfg, "s_chi_t_grid")
    elif task == "gain_vs_time":
        _require_number(cfg, "ratio")
        _require_alpha(cfg)
        _require_grid(cfg, "s_chi_t_grid", minimum=0.0)
        if _require_number(cfg, "delta_phi_probe", 0.0, strict=True) > 0.01:
            raise ConfigError(f"delta_phi_probe must lie in (0, 0.01], got {cfg['delta_phi_probe']}")
        _require_number(cfg, "gamma", 0.0)
        _require_number(cfg, "detection_noise_var", 0.0)
    elif task == "tomographic_fotoc":
        _require_number(cfg, "ratio")
        _require_alpha(cfg)
        _require_number(cfg, "s_chi_t", 0.0)
        dphis = cfg["delta_phis"]
        if not isinstance(dphis, (list, tuple)) or not all(_is_number(x) for x in dphis):
            raise ConfigError(f"delta_phis must be a list of finite probe angles, got {dphis!r}")
        try:
            check_probe_grid(dphis)
        except ValueError as exc:
            raise ConfigError(f"delta_phis: {exc}") from exc
        _require_int(cfg, "n_directions", 1)
        if cfg["shots"] is not None:
            _require_int(cfg, "shots", 1)
        n_boot = _require_int(cfg, "n_boot", 0)
        if n_boot and n_boot < 100:
            raise ConfigError(f"n_boot must be 0 (off) or >= 100, got {n_boot}")
        if n_boot and cfg["shots"] is None:
            raise ConfigError("bootstrap needs finite shots, not the infinite-shot limit")
        _require_int(cfg, "wigner_n_theta", 2)
        _require_int(cfg, "wigner_n_phi", 1)
    elif task == "scrambling_panel":
        _require_number(cfg, "ratio")
        _require_alpha(cfg)
        _require_grid(cfg, "s_chi_t_grid")
        win = cfg["fit_window"]
        if (not isinstance(win, (list, tuple)) or len(win) != 2
                or not all(_is_number(x) for x in win) or win[0] >= win[1]):
            raise ConfigError(f"fit_window must be [a, b] with a < b, got {win!r}")
        inside = int(np.count_nonzero(_in_window(cfg["s_chi_t_grid"], win)))
        if inside < 4:
            raise ConfigError(f"s_chi_t_grid needs at least 4 points in fit_window {win}, got {inside}")


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return expand_config(raw)


def manifest_hash(config: dict) -> str:
    """sha256 over the canonical (config, seed, version) triple.

    Wall time is deliberately outside the hash so reruns of the same config
    cross-reference identically.
    """
    payload = {"config": {k: v for k, v in config.items() if k != "outdir"},
               "seed": config["seed"], "version": __version__}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _csv_text(header: list[str], rows, digest: str) -> str:
    lines = [f"# manifest_sha256={digest}", ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _rounded(obj):
    """obj with every float cut to the 12 significant digits of the CSV rows."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _json_text(obj: dict, digest: str) -> str:
    return json.dumps({"manifest_sha256": digest, **_rounded(obj)}, sort_keys=True, indent=2) + "\n"


def _map_grid(fn, items, workers: int) -> list:
    items = list(items)
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))  # order-stable by grid index


def _spec_for(cfg: dict, ratio: float) -> HamiltonianSpec:
    scale = cfg["n_atoms"] / 2.0 * cfg["chi"]
    return HamiltonianSpec(chi=cfg["chi"], omega=ratio * scale)


def _run_antisqueezing_drive_sweep(cfg, workers):
    params = CollectiveSpinParams(cfg["n_atoms"])
    scale = params.spin * cfg["chi"]
    ratios = _grid(cfg["ratio_min"], cfg["ratio_max"], cfg["ratio_step"])
    state0 = css(params, math.pi / 2, 0.0)
    t = cfg["s_chi_t"] / scale

    def point(r):
        a = antisqueezing(evolve_unitary(_spec_for(cfg, r), state0, t))
        return (r, r * scale, a.xi_plus_sq, a.alpha_max)

    rows = _map_grid(point, ratios, workers)
    return [("antisqueezing_vs_drive.csv", ["omega_over_schi", "omega", "xi_plus_sq", "alpha_max"], rows)]


def _run_antisqueezing_vs_time(cfg, workers):
    params = CollectiveSpinParams(cfg["n_atoms"])
    scale = params.spin * cfg["chi"]
    state0 = css(params, math.pi / 2, 0.0)
    ratios = [float(r) for r in cfg["ratios"]]
    times = [float(t) for t in cfg["s_chi_t_grid"]]
    pairs = [(r, t) for r in ratios for t in times]

    def point(pair):
        r, st = pair
        return antisqueezing(evolve_unitary(_spec_for(cfg, r), state0, st / scale)).xi_plus_sq

    vals = _map_grid(point, pairs, workers)
    cols = np.asarray(vals).reshape(len(ratios), len(times))
    header = ["s_chi_t"] + [f"xi_plus_sq_r{r:g}" for r in ratios]
    rows = [[times[j]] + [cols[i, j] for i in range(len(ratios))] for j in range(len(times))]
    return [("antisqueezing_vs_time.csv", header, rows)]


def _run_binder_vs_time(cfg, workers):
    params = CollectiveSpinParams(cfg["n_atoms"])
    scale = params.spin * cfg["chi"]
    state0 = css(params, math.pi / 2, 0.0)
    spec = _spec_for(cfg, cfg["ratio"])

    def point(st):
        state = evolve_unitary(spec, state0, st / scale)
        a = antisqueezing(state)
        b = binder_cumulant(state, SpinAxis.in_plane(a.alpha_max))
        return (st, b, a.alpha_max)

    rows = _map_grid(point, cfg["s_chi_t_grid"], workers)
    return [("binder_vs_time.csv", ["s_chi_t", "binder", "alpha_max"], rows)]


def _run_gain_vs_time(cfg, workers):
    params = CollectiveSpinParams(cfg["n_atoms"])
    scale = params.spin * cfg["chi"]
    state0 = css(params, math.pi / 2, 0.0)
    spec = _spec_for(cfg, cfg["ratio"])
    lindblad = LindbladSpec(gamma=cfg["gamma"]) if cfg["gamma"] > 0 else None

    def point(st):
        satin = SatinConfig(
            hamiltonian=spec,
            t=st / scale,
            alpha=cfg["alpha"],
            delta_phi_probe=cfg["delta_phi_probe"],
            lindblad=lindblad,
            detection_noise_var=cfg["detection_noise_var"],
        )
        r = metrological_gain(state0, satin)
        # column 1 keeps the protocol's (st / scale) * scale, which may differ from st in the last bit
        return (r.s_chi_t, r.g_sq, r.n_sq, r.gain_db, r.readout_alpha)

    rows = _map_grid(point, cfg["s_chi_t_grid"], workers)
    return [("gain_vs_time.csv", ["s_chi_t", "g_sq", "n_sq", "gain_db", "readout_alpha"], rows)]


def _run_tomographic_fotoc(cfg, workers):
    del workers  # reconstruction order is part of the seeded stream layout
    params = CollectiveSpinParams(cfg["n_atoms"])
    scale = params.spin * cfg["chi"]
    satin = SatinConfig(hamiltonian=_spec_for(cfg, cfg["ratio"]), t=cfg["s_chi_t"] / scale, alpha=cfg["alpha"])
    pipe = FotocPipelineConfig(
        params=params,
        satin=satin,
        delta_phis=tuple(float(x) for x in cfg["delta_phis"]),
        n_directions=cfg["n_directions"],
        shots=cfg["shots"],
        seed=cfg["seed"],
    )
    result = tomographic_fotoc_pipeline(pipe)
    s = params.spin
    otoc = {
        "s_chi_t": cfg["s_chi_t"],
        "value": result.otoc.value,
        "scaled_value": result.otoc.value / (s / 2.0),
        "center": result.otoc.center,
        "offset": result.otoc.offset,
        "mle_iterations": [r.iterations for r in result.reconstructions],
        "mle_converged": [r.converged for r in result.reconstructions],
        "mle_gap": [r.gap for r in result.reconstructions],
    }
    if cfg["n_boot"]:
        boot = bootstrap_otoc(
            list(zip(pipe.delta_phis, result.records)),
            params,
            reference=css(params, math.pi / 2, 0.0),
            n_boot=cfg["n_boot"],
            seed=cfg["seed"] + 1,  # independent of the measurement streams
        )
        otoc.update(ci_low=boot.ci_low, ci_high=boot.ci_high, n_boot=cfg["n_boot"])

    idx = int(np.argmin(np.abs(pipe.delta_phis)))
    rho = result.reconstructions[idx].rho
    thetas = np.linspace(0.0, math.pi, cfg["wigner_n_theta"])
    phis = np.linspace(0.0, 2.0 * math.pi, cfg["wigner_n_phi"], endpoint=False)
    w = wigner(rho, thetas, phis)
    wigner_rows = [(th, ph, w[i, j]) for i, th in enumerate(thetas) for j, ph in enumerate(phis)]

    files = [
        ("fotoc.csv", ["delta_phi", "fidelity"], [(x.delta_phi, x.fidelity) for x in result.samples]),
        ("otoc.json", None, otoc),
        ("wigner.csv", ["theta", "phi", "w"], wigner_rows),
    ]
    if cfg["shots"] is not None:
        files.append(("records.jsonl", "raw", records_to_json_lines(result.records[idx], params)))
    return files


def _run_scrambling_panel(cfg, workers):
    params = CollectiveSpinParams(cfg["n_atoms"])
    scale = params.spin * cfg["chi"]
    state0 = css(params, math.pi / 2, 0.0)
    spec = _spec_for(cfg, cfg["ratio"])
    axis = SpinAxis.in_plane(cfg["alpha"])

    def point(st):
        t = st / scale
        xi = antisqueezing(evolve_unitary(spec, state0, t)).xi_plus_sq
        g = signal_gain(state0, SatinConfig(hamiltonian=spec, t=t, alpha=cfg["alpha"]))
        i_val = otoc_from_fotoc(fotoc(spec, state0, axis, t)).value
        return (st, xi, g * g, i_val / (params.spin / 2.0))

    rows = _map_grid(point, cfg["s_chi_t_grid"], workers)
    times = [r[0] for r in rows]
    lo, hi = cfg["fit_window"]
    fits = {}
    for j, name in ((1, "xi_plus_sq"), (2, "g_sq"), (3, "otoc_scaled")):
        fit = fit_exponent(times, [r[j] for r in rows], (lo, hi))
        fits[name] = {"lambda": fit.lyapunov, "stderr": fit.stderr}
    exponents = {"window": [lo, hi], "fits": fits}
    return [
        ("scrambling_panel.csv", ["s_chi_t", "xi_plus_sq", "g_sq", "otoc_scaled"], rows),
        ("exponents.json", None, exponents),
    ]


TASK_RUNNERS = {
    "antisqueezing_drive_sweep": _run_antisqueezing_drive_sweep,
    "antisqueezing_vs_time": _run_antisqueezing_vs_time,
    "binder_vs_time": _run_binder_vs_time,
    "gain_vs_time": _run_gain_vs_time,
    "tomographic_fotoc": _run_tomographic_fotoc,
    "scrambling_panel": _run_scrambling_panel,
}


@dataclass
class RunResult:
    outdir: Path
    manifest: dict
    paths: list[Path]


def run_experiment(config: dict, outdir, workers: int = 1) -> RunResult:
    """Execute one experiment config and write its datasets plus manifest.json.

    Outputs are deterministic in (config, seed) and independent of the worker
    count; the manifest hash covers config, seed, and software version only.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cfg = expand_config(config)
    digest = manifest_hash(cfg)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    files = TASK_RUNNERS[cfg["task"]](cfg, workers)
    wall = time.perf_counter() - t0

    paths = []
    for name, header, payload in files:
        path = out / name
        if header is None:
            path.write_text(_json_text(payload, digest))
        elif header == "raw":
            path.write_text(f"# manifest_sha256={digest}\n" + payload)
        else:
            path.write_text(_csv_text(header, payload, digest))
        paths.append(path)

    manifest = {
        "config": {k: v for k, v in cfg.items() if k != "outdir"},
        "seed": cfg["seed"],
        "version": __version__,
        "manifest_sha256": digest,
        "wall_time_s": round(wall, 3),
        "outputs": [p.name for p in paths],
    }
    mpath = out / "manifest.json"
    mpath.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return RunResult(outdir=out, manifest=manifest, paths=paths + [mpath])


@dataclass(frozen=True)
class ExponentFit:
    """Growth rate fitted from ln y = const + 2 lambda t."""

    lyapunov: float
    stderr: float
    n_points: int


def _in_window(times, window) -> np.ndarray:
    """Mask of the times inside [a, b], with 1e-12 slack for grid rounding."""
    t = np.asarray(times, dtype=float)
    return (t >= float(window[0]) - 1e-12) & (t <= float(window[1]) + 1e-12)


def fit_exponent(times, values, window) -> ExponentFit:
    """Least-squares exponent of y ~ e^{2 lambda t} on a time window.

    Needs at least 4 window points, all strictly positive; returns lambda and
    its standard error (both half the slope statistics of the log-linear fit).
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError(f"times and values must be matching 1-d arrays, got {t.shape} vs {y.shape}")
    mask = _in_window(t, window)
    t, y = t[mask], y[mask]
    if t.size < 4:
        raise ValueError(f"need at least 4 points in window [{window[0]}, {window[1]}], got {t.size}")
    if np.min(y) <= 0.0:
        raise ValueError(f"non-positive value {np.min(y):.3e} in fit window; cannot take log")
    ln_y = np.log(y)
    tc = t - np.mean(t)
    sxx = float(tc @ tc)
    slope = float(tc @ (ln_y - np.mean(ln_y))) / sxx
    resid = ln_y - (np.mean(ln_y) + slope * tc)
    sigma_sq = float(resid @ resid) / (t.size - 2)
    stderr = math.sqrt(sigma_sq / sxx)
    return ExponentFit(lyapunov=slope / 2.0, stderr=stderr / 2.0, n_points=int(t.size))
