"""Simulated projective spin measurements and maximum-likelihood state
reconstruction, plus the tomographic echo-fidelity pipeline built on them."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .dicke import (
    AXIS_Y,
    AXIS_Z,
    CollectiveSpinParams,
    DensityMatrix,
    PureState,
    SpinAxis,
    State,
    as_density,
    css,
    rotation_matrix,
)
from .satin import SatinConfig, run_satin
from .scrambling import FotocSample, OtocResult, otoc_from_fotoc

DEFAULT_N_DIRECTIONS = 41
DEFAULT_SHOTS = 30


def fibonacci_directions(n: int) -> list[SpinAxis]:
    """Deterministic quasi-uniform directions on the sphere (Fibonacci lattice)."""
    if n < 1:
        raise ValueError(f"need at least one direction, got {n}")
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    axes = []
    for i in range(n):
        z = 1.0 - 2.0 * (i + 0.5) / n
        theta = math.acos(z)
        phi = (2.0 * math.pi * i / golden) % (2.0 * math.pi)
        axes.append(SpinAxis(theta=theta, phi=phi))
    return axes


@dataclass(frozen=True)
class MeasurementSetting:
    axis: SpinAxis
    shots: int = DEFAULT_SHOTS

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be positive, got {self.shots}")


@dataclass(frozen=True)
class MeasurementRecord:
    """Histogram over n.S outcomes m = S..-S for one measured direction.

    counts is float-valued so exact Born probabilities can be injected as an
    infinite-shot record (they then sum to 1 instead of an integer).
    """

    axis: SpinAxis
    counts: np.ndarray

    @property
    def total(self) -> float:
        return float(np.sum(self.counts))


def _measurement_basis(params: CollectiveSpinParams, axis: SpinAxis) -> np.ndarray:
    """Columns are the n.S eigenstates |m_n>, m = S..-S."""
    r_y = rotation_matrix(params, AXIS_Y, axis.theta)
    r_z = rotation_matrix(params, AXIS_Z, axis.phi)
    return r_z @ r_y


def born_probabilities(state: State, axis: SpinAxis) -> np.ndarray:
    """p(m) = <m_n| rho |m_n> along the measured direction."""
    rho = as_density(state).matrix
    basis = _measurement_basis(CollectiveSpinParams(rho.shape[0] - 1), axis)
    p = np.real(np.einsum("ji,jk,ki->i", basis.conj(), rho, basis))
    if np.min(p) < -tolerances.BORN_NEG_TOL:
        raise ValueError(
            f"Born probability {np.min(p):.3e} below -{tolerances.BORN_NEG_TOL:.1e}; state is not physical"
        )
    p = np.clip(p, 0.0, None)
    return p / np.sum(p)


def simulate_measurements(
    state: State,
    settings: list[MeasurementSetting],
    seed: int | np.random.SeedSequence,
) -> list[MeasurementRecord]:
    """Multinomial sampling of each setting; per-setting RNG streams are
    spawned from the master seed, so results do not depend on evaluation order."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = root.spawn(len(settings))
    records = []
    for setting, stream in zip(settings, streams):
        p = born_probabilities(state, setting.axis)
        rng = np.random.default_rng(stream)
        counts = rng.multinomial(setting.shots, p).astype(float)
        records.append(MeasurementRecord(axis=setting.axis, counts=counts))
    return records


def infinite_shot_records(state: State, axes: list[SpinAxis]) -> list[MeasurementRecord]:
    """Noise-free records carrying the exact Born probabilities as weights."""
    return [MeasurementRecord(axis=a, counts=born_probabilities(state, a)) for a in axes]


def records_to_json_lines(records: list[MeasurementRecord], params: CollectiveSpinParams) -> str:
    m = params.m_values()
    lines = []
    for rec in records:
        counts = {f"{mv:g}": cv for mv, cv in zip(m, rec.counts) if cv != 0.0}
        lines.append(json.dumps({"theta": rec.axis.theta, "phi": rec.axis.phi, "counts": counts}))
    return "\n".join(lines) + "\n"


def records_from_json_lines(text: str, params: CollectiveSpinParams) -> list[MeasurementRecord]:
    m = params.m_values()
    index = {f"{mv:g}": i for i, mv in enumerate(m)}
    records = []
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        doc = json.loads(line)
        counts = np.zeros(params.dim)
        for key, val in doc["counts"].items():
            if key not in index:
                raise ValueError(f"outcome {key!r} is not an Sz eigenvalue for N={params.n_atoms}")
            counts[index[key]] = float(val)
        records.append(MeasurementRecord(axis=SpinAxis(float(doc["theta"]), float(doc["phi"])), counts=counts))
    return records


@dataclass(frozen=True)
class ReconstructionConfig:
    max_iterations: int = 2000
    tol: float = 1e-10  # stop once the log-likelihood gain falls below this
    prob_floor: float = 1e-12


@dataclass
class ReconstructionResult:
    rho: DensityMatrix
    log_likelihoods: list[float]
    iterations: int
    converged: bool


def reconstruct(
    records: list[MeasurementRecord],
    params: CollectiveSpinParams,
    config: ReconstructionConfig = ReconstructionConfig(),
) -> ReconstructionResult:
    """Iterative maximum-likelihood reconstruction (R rho R fixed point).

    The log-likelihood is guaranteed nondecreasing: whenever a full step would
    lower it, the update falls back to diluted steps (I + eps R) with eps
    halved until the likelihood is restored or the sequence has stagnated.
    """
    if not records:
        raise ValueError("cannot reconstruct from an empty record list")
    d = params.dim
    for rec in records:
        if rec.counts.size != d:
            raise ValueError(f"record histogram has {rec.counts.size} bins, expected {d}")
    bases = np.hstack([_measurement_basis(params, rec.axis) for rec in records])  # d x (n_rec d)
    counts = np.concatenate([rec.counts for rec in records])
    total = float(np.sum(counts))
    if total <= 0.0:
        raise ValueError("records carry no counts")
    freqs = counts / total

    def probabilities(rho: np.ndarray) -> np.ndarray:
        return np.real(np.einsum("ij,ij->j", bases.conj(), rho @ bases))

    def log_likelihood(p: np.ndarray) -> float:
        return float(np.sum(counts * np.log(np.clip(p, config.prob_floor, None))))

    rho = np.eye(d, dtype=complex) / d
    p = probabilities(rho)
    ll = log_likelihood(p)
    history = [ll]
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        weights = freqs / np.clip(p, config.prob_floor, None)
        r_op = (bases * weights) @ bases.conj().T
        candidate = r_op @ rho @ r_op
        candidate = 0.5 * (candidate + candidate.conj().T)
        candidate /= np.trace(candidate).real
        p_new = probabilities(candidate)
        ll_new = log_likelihood(p_new)
        if ll_new < ll:
            # dilute toward the identity direction until monotone again
            eps = 0.5
            eye = np.eye(d)
            while eps > 1e-8:
                step = eye + eps * r_op
                candidate = step @ rho @ step.conj().T
                candidate = 0.5 * (candidate + candidate.conj().T)
                candidate /= np.trace(candidate).real
                p_new = probabilities(candidate)
                ll_new = log_likelihood(p_new)
                if ll_new >= ll:
                    break
                eps *= 0.5
            if ll_new < ll:
                converged = True  # numerical plateau: no ascent direction left
                iterations -= 1
                break
        gain = ll_new - ll
        rho, p, ll = candidate, p_new, ll_new
        history.append(ll)
        if gain < config.tol:
            converged = True
            break
    return ReconstructionResult(
        rho=DensityMatrix(rho, psd_tol=1e-6),
        log_likelihoods=history,
        iterations=iterations,
        converged=converged,
    )


def uhlmann_fidelity(state_a: State, state_b: State) -> float:
    """(Tr sqrt(sqrt(rho_a) rho_b sqrt(rho_a)))^2, with pure-state shortcuts."""
    if isinstance(state_a, PureState) and isinstance(state_b, PureState):
        return float(abs(state_a.overlap(state_b)) ** 2)
    if isinstance(state_a, PureState):
        return float(np.real(state_a.expectation(as_density(state_b).matrix)))
    if isinstance(state_b, PureState):
        return float(np.real(state_b.expectation(as_density(state_a).matrix)))
    a = state_a.matrix
    w, v = np.linalg.eigh(a)
    sqrt_a = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = sqrt_a @ state_b.matrix @ sqrt_a
    evals = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(np.sum(np.sqrt(np.clip(evals, 0.0, None))) ** 2)


@dataclass(frozen=True)
class FotocPipelineConfig:
    """End-to-end tomographic echo-fidelity estimation.

    shots = None injects exact Born probabilities (infinite-shot limit).
    """

    params: CollectiveSpinParams
    satin: SatinConfig
    delta_phis: tuple = (-0.01, -0.005, -0.002, 0.0, 0.002, 0.005, 0.01)
    n_directions: int = DEFAULT_N_DIRECTIONS
    shots: int | None = DEFAULT_SHOTS
    seed: int = 0
    reconstruction: ReconstructionConfig = field(default_factory=ReconstructionConfig)


@dataclass
class TomographicFotoc:
    samples: list[FotocSample]
    otoc: OtocResult
    records: list[list[MeasurementRecord]]  # per delta_phi
    reconstructions: list[ReconstructionResult]


def tomographic_fotoc_pipeline(config: FotocPipelineConfig) -> TomographicFotoc:
    """Protocol -> simulated measurements -> MLE -> overlap with the initial
    CSS -> quadratic fit, mirroring an experimental scrambling measurement."""
    params = config.params
    reference = css(params, math.pi / 2, 0.0)
    axes = fibonacci_directions(config.n_directions)
    dphi_seeds = np.random.SeedSequence(config.seed).spawn(len(config.delta_phis))
    samples, all_records, recons = [], [], []
    for dphi, stream in zip(config.delta_phis, dphi_seeds):
        final = run_satin(reference, config.satin, dphi)
        if config.shots is None:
            records = infinite_shot_records(final, axes)
        else:
            settings = [MeasurementSetting(axis=a, shots=config.shots) for a in axes]
            records = simulate_measurements(final, settings, seed=stream)
        recon = reconstruct(records, params, config.reconstruction)
        fid = float(np.real(reference.expectation(recon.rho.matrix)))
        samples.append(FotocSample(delta_phi=float(dphi), fidelity=fid))
        all_records.append(records)
        recons.append(recon)
    return TomographicFotoc(
        samples=samples,
        otoc=otoc_from_fotoc(samples),
        records=all_records,
        reconstructions=recons,
    )


@dataclass(frozen=True)
class BootstrapOtoc:
    value: float
    ci_low: float
    ci_high: float
    resampled: np.ndarray


def bootstrap_otoc(
    records_by_dphi: list[tuple[float, list[MeasurementRecord]]],
    params: CollectiveSpinParams,
    reference: PureState,
    n_boot: int = 100,
    seed: int = 0,
    reconstruction: ReconstructionConfig = ReconstructionConfig(),
) -> BootstrapOtoc:
    """Percentile bootstrap (68% interval) of the fitted curvature.

    Each resample redraws every record's histogram from its empirical
    distribution with the original shot count, re-runs the reconstruction and
    the quadratic fit. Resample RNG streams are spawned from the master seed.
    """
    if n_boot < 100:
        raise ValueError(f"need at least 100 bootstrap resamples, got {n_boot}")

    def fit_from(recs_by_dphi) -> float:
        samples = []
        for dphi, recs in recs_by_dphi:
            recon = reconstruct(recs, params, reconstruction)
            fid = float(np.real(reference.expectation(recon.rho.matrix)))
            samples.append(FotocSample(delta_phi=dphi, fidelity=fid))
        return otoc_from_fotoc(samples).value

    point = fit_from(records_by_dphi)
    streams = np.random.SeedSequence(seed).spawn(n_boot)
    values = np.empty(n_boot)
    for b, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        resampled = []
        for dphi, recs in records_by_dphi:
            new_recs = []
            for rec in recs:
                shots = int(round(rec.total))
                if shots < 1:
                    raise ValueError("cannot bootstrap a record with no counts")
                p = rec.counts / rec.total
                new_recs.append(MeasurementRecord(axis=rec.axis, counts=rng.multinomial(shots, p).astype(float)))
            resampled.append((dphi, new_recs))
        values[b] = fit_from(resampled)
    lo, hi = np.percentile(values, [16.0, 84.0])
    return BootstrapOtoc(value=point, ci_low=float(lo), ci_high=float(hi), resampled=values)
