"""Config expansion, experiment runner outputs, exponent fit, CLI verbs."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lmgsim
from lmgsim import (
    ALIASES,
    ConfigError,
    expand_config,
    fit_exponent,
    manifest_hash,
    run_experiment,
)
from lmgsim.cli import main


def test_alias_expansion_fills_defaults():
    cfg = expand_config({"experiment": "fig2c"})
    assert cfg["task"] == "antisqueezing_vs_time"
    assert cfg["n_atoms"] == 200
    assert cfg["ratios"] == [0.0, 1.0]
    assert cfg["s_chi_t_grid"][0] == 0.0 and cfg["s_chi_t_grid"][-1] == 2.0
    override = expand_config({"experiment": "fig2c", "n_atoms": 24})
    assert override["n_atoms"] == 24


@pytest.mark.parametrize("experiment", sorted(ALIASES))
def test_all_aliases_expand(experiment):
    cfg = expand_config({"experiment": experiment})
    assert cfg["experiment"] == experiment
    assert cfg["task"] == ALIASES[experiment]
    assert cfg["n_atoms"] == 200


@pytest.mark.parametrize(
    "raw",
    [
        {},
        {"experiment": "fig9"},
        {"experiment": "custom"},
        {"experiment": "custom", "task": "antisqueezing_vs_time"},  # missing n_atoms
        {"experiment": "custom", "task": "wat", "n_atoms": 10},
        {"experiment": "fig2b", "bogus_key": 1},
        {"experiment": "fig2b", "task": "gain_vs_time"},  # alias/task mismatch
        {"experiment": "fig2c", "s_chi_t_grid": []},
        {"experiment": "fig2c", "n_atoms": 10.5},
        {"experiment": "fig2c", "chi": 0.0},
        {"experiment": "fig2c", "seed": -1},
        {"experiment": "fig3", "gamma": -0.5},
        {"experiment": "fig4", "n_boot": 50},
        {"experiment": "fig4", "shots": None, "n_boot": 100},
        {"experiment": "fig4", "delta_phis": [0.0, 0.01]},
        {"experiment": "fig5", "fit_window": [0.8, 0.2]},
        {"experiment": "fig2b", "ratio_step": 0.0},
    ],
)
def test_config_validation_errors(raw):
    with pytest.raises(ConfigError):
        expand_config(raw)


def test_manifest_hash_depends_on_config_not_outdir():
    a = expand_config({"experiment": "fig2b", "n_atoms": 10})
    b = expand_config({"experiment": "fig2b", "n_atoms": 10, "outdir": "/somewhere"})
    c = expand_config({"experiment": "fig2b", "n_atoms": 12})
    d = expand_config({"experiment": "fig2b", "n_atoms": 10, "seed": 9})
    assert manifest_hash(a) == manifest_hash(b)
    assert manifest_hash(a) != manifest_hash(c)
    assert manifest_hash(a) != manifest_hash(d)


def test_fit_exponent_exact_series():
    t = np.linspace(0.0, 1.0, 11)
    fit = fit_exponent(t, np.exp(2.0 * t), (0.0, 1.0))
    assert abs(fit.lyapunov - 1.0) < 1e-12
    assert fit.stderr < 1e-12
    flat = fit_exponent(t, np.ones_like(t), (0.0, 1.0))
    assert abs(flat.lyapunov) < 1e-12


def test_fit_exponent_window_and_errors():
    t = np.linspace(0.0, 1.0, 11)
    y = np.exp(2.0 * t)
    fit = fit_exponent(t, y, (0.35, 0.75))
    assert fit.n_points == 4
    with pytest.raises(ValueError):
        fit_exponent(t, y, (0.35, 0.55))  # 3 points only
    bad = y.copy()
    bad[5] = -1.0
    with pytest.raises(ValueError):
        fit_exponent(t, bad, (0.0, 1.0))


def test_fit_exponent_tolerates_noise():
    rng = np.random.default_rng(8)
    t = np.linspace(0.0, 2.0, 40)
    y = np.exp(2.0 * 0.7 * t) * np.exp(rng.normal(scale=0.01, size=t.size))
    fit = fit_exponent(t, y, (0.0, 2.0))
    assert abs(fit.lyapunov - 0.7) < 0.02
    assert 0.0 < fit.stderr < 0.02


def _tiny_drive_sweep(n_atoms=10):
    return {
        "experiment": "custom",
        "task": "antisqueezing_drive_sweep",
        "n_atoms": n_atoms,
        "s_chi_t": 1.0,
        "ratio_min": 0.0,
        "ratio_max": 2.0,
        "ratio_step": 0.5,
    }


def test_run_experiment_outputs_and_hash(tmp_path):
    result = run_experiment(_tiny_drive_sweep(), tmp_path / "out")
    names = sorted(p.name for p in result.paths)
    assert names == ["antisqueezing_vs_drive.csv", "manifest.json"]
    digest = result.manifest["manifest_sha256"]
    csv_text = (tmp_path / "out" / "antisqueezing_vs_drive.csv").read_text()
    assert csv_text.startswith(f"# manifest_sha256={digest}\n")
    header, *rows = csv_text.strip().splitlines()[1:]
    assert header == "omega_over_schi,omega,xi_plus_sq,alpha_max"
    assert len(rows) == 5
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["ratio_step"] == 0.5
    assert manifest["seed"] == 0
    assert "wall_time_s" in manifest


def test_run_experiment_byte_identical_across_workers(tmp_path):
    cfg = {
        "experiment": "custom",
        "task": "gain_vs_time",
        "n_atoms": 12,
        "s_chi_t_grid": [0.2, 0.5, 0.8],
    }
    run_experiment(cfg, tmp_path / "w1", workers=1)
    run_experiment(cfg, tmp_path / "w4", workers=4)
    a = (tmp_path / "w1" / "gain_vs_time.csv").read_bytes()
    b = (tmp_path / "w4" / "gain_vs_time.csv").read_bytes()
    assert a == b
    rows = a.decode().strip().splitlines()[2:]
    assert [float(row.split(",")[0]) for row in rows] == cfg["s_chi_t_grid"]


_PRESET_FILES = """
import sys
from pathlib import Path
from lmgsim import run_experiment
for fig in ("fig2b", "fig2c", "fig2d", "fig3", "fig5"):
    run_experiment({"experiment": fig}, Path(sys.argv[1]) / fig)
"""


def test_preset_datasets_at_n200_do_not_depend_on_blas_threads(tmp_path):
    # threadpoolctl is not a dependency: set the OpenBLAS pool size per process
    src = str(Path(lmgsim.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", _PRESET_FILES, str(tmp_path / threads)], env=env, check=True)
    files = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").rglob("*.*") if p.name != "manifest.json")
    assert len(files) == 6  # exponents.json beside the five CSVs
    for name in files:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_are_rejected(tmp_path, capsys, workers):
    with pytest.raises(ValueError, match="workers"):
        run_experiment(_tiny_drive_sweep(6), tmp_path / "api", workers=workers)
    cfg_path = _write_config(tmp_path, _tiny_drive_sweep(6))
    out = tmp_path / "cli"
    assert main(["run", cfg_path, "--out", str(out), "--workers", str(workers)]) == 2
    assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "api").exists() and not out.exists()


def test_version_does_not_depend_on_install_state(tmp_path):
    # distribution metadata on the path must not change the version the manifest hashes
    dist = tmp_path / "lmgsim-9.9.9.dist-info"
    dist.mkdir()
    (dist / "METADATA").write_text("Metadata-Version: 2.1\nName: lmgsim\nVersion: 9.9.9\n")
    src = Path(lmgsim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(src)]))
    run = subprocess.run([sys.executable, "-c", "import lmgsim; print(lmgsim.__version__)"],
                         env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == lmgsim.__version__
    assert lmgsim.__version__ != "0.0.0+local"


def test_run_experiment_rerun_is_byte_identical(tmp_path):
    cfg = _tiny_drive_sweep()
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "antisqueezing_vs_drive.csv").read_bytes() == (
        tmp_path / "b" / "antisqueezing_vs_drive.csv"
    ).read_bytes()


def test_lmg_curve_dominates_twisting_curve(tmp_path):
    # transverse drive at the critical strength amplifies faster than bare twisting
    cfg = {
        "experiment": "custom",
        "task": "antisqueezing_vs_time",
        "n_atoms": 30,
        "ratios": [0.0, 1.0],
        "s_chi_t_grid": [round(0.1 * k, 10) for k in range(1, 11)],
    }
    result = run_experiment(cfg, tmp_path / "curves")
    lines = (tmp_path / "curves" / "antisqueezing_vs_time.csv").read_text().strip().splitlines()
    header = lines[1].split(",")
    assert header == ["s_chi_t", "xi_plus_sq_r0", "xi_plus_sq_r1"]
    for line in lines[2:]:
        _, oat, lmg = (float(v) for v in line.split(","))
        assert lmg > oat


def test_binder_task_structure(tmp_path):
    cfg = {
        "experiment": "custom",
        "task": "binder_vs_time",
        "n_atoms": 12,
        "s_chi_t_grid": [0.0, 0.5, 1.0],
    }
    run_experiment(cfg, tmp_path / "b")
    lines = (tmp_path / "b" / "binder_vs_time.csv").read_text().strip().splitlines()
    assert lines[1] == "s_chi_t,binder,alpha_max"
    first = [float(v) for v in lines[2].split(",")]
    assert abs(first[1] - 2.0 / (3.0 * 12)) < 1e-9  # CSS binomial value at t = 0


def test_tomographic_task_files(tmp_path):
    cfg = {
        "experiment": "custom",
        "task": "tomographic_fotoc",
        "n_atoms": 8,
        "s_chi_t": 0.4,
        "delta_phis": [-0.1, -0.05, 0.0, 0.05, 0.1],
        "n_directions": 10,
        "shots": 60,
        "wigner_n_theta": 7,
        "wigner_n_phi": 10,
        "seed": 11,
    }
    result = run_experiment(cfg, tmp_path / "tomo")
    names = sorted(p.name for p in result.paths)
    assert names == ["fotoc.csv", "manifest.json", "otoc.json", "records.jsonl", "wigner.csv"]
    otoc = json.loads((tmp_path / "tomo" / "otoc.json").read_text())
    assert {"value", "scaled_value", "center", "offset", "manifest_sha256"} <= set(otoc)
    wigner_rows = (tmp_path / "tomo" / "wigner.csv").read_text().strip().splitlines()[2:]
    assert len(wigner_rows) == 7 * 10
    # infinite-shot variant drops the records file
    cfg2 = dict(cfg, shots=None, seed=0)
    result2 = run_experiment(cfg2, tmp_path / "tomo_inf")
    assert "records.jsonl" not in {p.name for p in result2.paths}


def test_tomographic_fotoc_reports_mle_counters(tmp_path, monkeypatch):
    from lmgsim import experiments

    pipeline = experiments.tomographic_fotoc_pipeline
    results = []

    def recording_pipeline(config):
        results.append(pipeline(config))
        return results[-1]

    monkeypatch.setattr(experiments, "tomographic_fotoc_pipeline", recording_pipeline)
    cfg = {
        "experiment": "fig4",
        "n_atoms": 6,
        "delta_phis": [-0.1, -0.05, 0.0, 0.05, 0.1],
        "n_directions": 10,
        "shots": 30,
        "wigner_n_theta": 3,
        "wigner_n_phi": 4,
        "seed": 3,
    }
    run_experiment(cfg, tmp_path / "tomo")
    otoc = json.loads((tmp_path / "tomo" / "otoc.json").read_text())
    (result,) = results
    assert otoc["mle_iterations"] == [r.iterations for r in result.reconstructions]
    assert otoc["mle_converged"] == [r.converged for r in result.reconstructions]
    # JSON floats carry the 12 significant digits of the CSV rows
    assert otoc["mle_gap"] == [float(f"{r.gap:.12g}") for r in result.reconstructions]
    assert len(otoc["mle_iterations"]) == 5 and all(n > 0 for n in otoc["mle_iterations"])


def test_scrambling_panel_files(tmp_path):
    cfg = {
        "experiment": "custom",
        "task": "scrambling_panel",
        "n_atoms": 16,
        "s_chi_t_grid": [round(0.1 * k, 10) for k in range(1, 9)],
        "fit_window": [0.2, 0.8],
    }
    run_experiment(cfg, tmp_path / "panel")
    exponents = json.loads((tmp_path / "panel" / "exponents.json").read_text())
    fits = exponents["fits"]
    assert set(fits) == {"xi_plus_sq", "g_sq", "otoc_scaled"}
    for fit in fits.values():
        assert fit["lambda"] > 0.0
        assert fit["stderr"] >= 0.0


def _write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_validate_and_run(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, _tiny_drive_sweep())
    assert main(["validate", cfg_path]) == 0
    expanded = json.loads(capsys.readouterr().out)
    assert expanded["task"] == "antisqueezing_drive_sweep"

    out = tmp_path / "results"
    assert main(["run", cfg_path, "--out", str(out), "--workers", "2"]) == 0
    printed = capsys.readouterr().out
    assert "manifest_sha256=" in printed
    assert (out / "antisqueezing_vs_drive.csv").exists()


@pytest.mark.parametrize(
    "raw",
    [
        {"experiment": "fig3", "alpha": 3.5},
        {"experiment": "fig4", "alpha": 3.5},
        {"experiment": "fig5", "alpha": math.pi},
        {"experiment": "fig3", "delta_phi_probe": 0.02},
        # grids the final fit cannot use, which would otherwise fail only after the whole run
        {"experiment": "fig4", "delta_phis": [0.001, 0.002, 0.003, 0.004, 0.005]},  # one sign
        {"experiment": "fig4", "delta_phis": [-0.01, -0.01, 0.01, 0.01, 0.01]},  # two distinct values
        {"experiment": "fig5", "s_chi_t_grid": [0.1, 0.5, 0.9]},  # one point in fit_window
        # ratios whose CSV column labels f"{r:g}" would repeat
        {"experiment": "fig2c", "ratios": [1.0, 1.0]},
        {"experiment": "fig2c", "ratios": [1.0000001, 1.0000002]},
    ],
)
def test_cli_rejects_probe_out_of_range_before_writing(tmp_path, capsys, raw):
    cfg_path = _write_config(tmp_path, raw)
    out = tmp_path / "results"
    assert main(["validate", cfg_path]) == 2
    assert main(["run", cfg_path, "--out", str(out)]) == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_fit_round_trip(tmp_path, capsys):
    csv = tmp_path / "series.csv"
    t = np.linspace(0.0, 1.0, 9)
    lines = ["# manifest_sha256=0", "t,y"] + [f"{ti:.6f},{math.exp(2.0 * ti):.12f}" for ti in t]
    csv.write_text("\n".join(lines) + "\n")
    assert main(["fit", str(csv), "--window", "0,1"]) == 0
    fit = json.loads(capsys.readouterr().out)
    assert abs(fit["lambda"] - 1.0) < 1e-6
    assert fit["column"] == "y"


def test_cli_exit_codes(tmp_path, capsys):
    bad = _write_config(tmp_path, {"experiment": "nope"})
    assert main(["validate", bad]) == 2
    assert main(["run", bad]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2

    csv = tmp_path / "series.csv"
    csv.write_text("t,y\n0,1\n1,2\n2,4\n3,8\n")
    assert main(["fit", str(csv), "--window", "zz"]) == 2

    # unwritable output: the target path is an existing file
    good = _write_config(tmp_path, _tiny_drive_sweep(6))
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    assert main(["run", good, "--out", str(blocker)]) == 1
    capsys.readouterr()


def test_cli_env_var_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LMGSIM_OUTPUT_DIR", str(tmp_path / "envbase"))
    cfg_path = _write_config(tmp_path, _tiny_drive_sweep(6))
    assert main(["run", cfg_path]) == 0
    capsys.readouterr()
    target = tmp_path / "envbase" / "custom-antisqueezing_drive_sweep"
    assert (target / "antisqueezing_vs_drive.csv").exists()
    assert (target / "manifest.json").exists()
