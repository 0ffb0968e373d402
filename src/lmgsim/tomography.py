"""Simulated projective spin measurements and maximum-likelihood state
reconstruction, plus the tomographic echo-fidelity pipeline built on them."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .dicke import (
    AXIS_Y,
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
from .scrambling import DEFAULT_DELTA_PHI_GRID, FotocSample, OtocResult, otoc_from_fotoc

DEFAULT_N_DIRECTIONS = 41
DEFAULT_SHOTS = 30
# Certified stop of `reconstruct`: the likelihood still to gain is at most
# GAP_TOL per unit of recorded weight.
GAP_TOL = 1e-6
# Stall guards for records the certified stop cannot close (exact
# probabilities of a mixed state): an iteration cap, a floor on the
# log-likelihood gain, and a floor on the probabilities the likelihood reads.
MAX_ITERATIONS = 2000
STALL_TOL = 1e-10
PROB_FLOOR = 1e-12


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


def born_probabilities(state: State, axes: list[SpinAxis]) -> np.ndarray:
    """p[r, i] = <m_i| rho |m_i> along each measured direction r, m = S..-S.

    Entries below tolerances.BORN_FLUSH are set to exactly 0 before each row
    is renormalised: a seeded multinomial draw consumes a uniform for every
    nonzero entry, so a tail that rounding could move between 0 and 1e-17
    would otherwise redraw the whole setting.
    """
    rho = as_density(state).matrix
    ry, _, phase = _basis_tables(CollectiveSpinParams(rho.shape[0] - 1), axes)
    p = _real_probabilities(rho, ry, phase)
    if np.min(p) < -tolerances.BORN_NEG_TOL:
        raise ValueError(
            f"Born probability {np.min(p):.3e} below -{tolerances.BORN_NEG_TOL:.1e}; state is not physical"
        )
    p[p < tolerances.BORN_FLUSH] = 0.0
    return p / np.sum(p, axis=1, keepdims=True)


def simulate_measurements(
    state: State,
    settings: list[MeasurementSetting],
    seed: int | np.random.SeedSequence,
) -> list[MeasurementRecord]:
    """Multinomial sampling of each setting; per-setting RNG streams are
    spawned from the master seed, so results do not depend on evaluation order."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = root.spawn(len(settings))
    probs = born_probabilities(state, [setting.axis for setting in settings])
    records = []
    for setting, stream, p in zip(settings, streams, probs):
        counts = np.random.default_rng(stream).multinomial(setting.shots, p).astype(float)
        records.append(MeasurementRecord(axis=setting.axis, counts=counts))
    return records


def infinite_shot_records(state: State, axes: list[SpinAxis]) -> list[MeasurementRecord]:
    """Noise-free records carrying the exact Born probabilities as weights."""
    return [MeasurementRecord(axis=a, counts=p) for a, p in zip(axes, born_probabilities(state, axes))]


def records_to_json_lines(records: list[MeasurementRecord], params: CollectiveSpinParams) -> str:
    m = params.m_values()
    lines = []
    for rec in records:
        counts = {f"{mv:g}": cv for mv, cv in zip(m, rec.counts) if cv != 0.0}
        lines.append(json.dumps({"theta": rec.axis.theta, "phi": rec.axis.phi, "counts": counts}))
    return "\n".join(lines) + "\n"


def records_from_json_lines(text: str, params: CollectiveSpinParams) -> list[MeasurementRecord]:
    """Parse the lines `records_to_json_lines` writes; any malformed line raises ValueError."""
    m = params.m_values()
    index = {f"{mv:g}": i for i, mv in enumerate(m)}
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            doc = json.loads(line)
            axis = SpinAxis(float(doc["theta"]), float(doc["phi"]))
            items = list(doc["counts"].items())
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"malformed record on line {lineno}: {exc!r}") from exc
        if not (math.isfinite(axis.theta) and math.isfinite(axis.phi)):
            raise ValueError(f"record on line {lineno} has a non-finite direction ({axis.theta}, {axis.phi})")
        counts = np.zeros(params.dim)
        for key, val in items:
            if key not in index:
                raise ValueError(f"outcome {key!r} is not an Sz eigenvalue for N={params.n_atoms}")
            if not isinstance(val, (int, float)) or isinstance(val, bool) or not 0.0 <= val < math.inf:
                raise ValueError(f"count for outcome {key} on line {lineno} must be finite and >= 0, got {val!r}")
            counts[index[key]] = float(val)
        records.append(MeasurementRecord(axis=axis, counts=counts))
    return records


@dataclass
class ReconstructionResult:
    rho: DensityMatrix
    log_likelihoods: list[float]
    iterations: int
    converged: bool
    gap: float  # total (lambda_max(R) - 1) at rho: bounds L(sigma) - L(rho) over every state sigma


def _basis_tables(params: CollectiveSpinParams, axes: list[SpinAxis]):
    """Per-direction factors of the measurement basis R_z(phi) d(theta): the real
    Wigner d(theta) = e^{-i theta Sy}, its transpose, and e^{i phi (m_j - m_k)}."""
    ry = np.stack([rotation_matrix(params, AXIS_Y, a.theta).real for a in axes])
    m = params.m_values()
    phis = np.array([a.phi for a in axes])
    phase = np.exp(1j * phis[:, None, None] * (m[:, None] - m[None, :]))
    return ry, np.ascontiguousarray(ry.transpose(0, 2, 1)), phase


def _real_probabilities(rho: np.ndarray, ry: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Born probabilities p[r, i] for every record r, in real arithmetic.

    With the tables of `_basis_tables`, p_r = diag(d_r^T Re(rho o phase_r) d_r):
    the imaginary part of the Hermitian rho o phase_r drops out of the real form.
    """
    return np.einsum("rji,rji->ri", ry, (rho * phase).real @ ry)


def _real_r_operator(weights: np.ndarray, ry: np.ndarray, ry_t: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """R = sum_{r,i} w[r, i] |b_ri><b_ri| = sum_r (d_r diag(w_r) d_r^T) o conj(phase_r)."""
    n_rec, d = weights.shape
    real_part = ((ry * weights[:, None, :]) @ ry_t).reshape(n_rec, d * d)
    return np.einsum("rk,rk->k", real_part, phase.reshape(n_rec, d * d)).reshape(d, d).conj()


def reconstruct(records: list[MeasurementRecord], params: CollectiveSpinParams) -> ReconstructionResult:
    """Iterative maximum-likelihood reconstruction (R rho R fixed point).

    The log-likelihood is guaranteed nondecreasing: whenever a full step would
    lower it, the update falls back to diluted steps (I + eps R) with eps
    halved until the likelihood is restored or the sequence has stagnated.

    Stopping: with R = sum_i (f_i / p_i) Pi_i at rho, concavity of the log gives
    L(sigma) - L(rho) <= total (Tr sigma R - 1) <= total (lambda_max(R) - 1)
    for every state sigma (Glancy, Knill & Girard, New J. Phys. 14, 095017
    (2012)). The loop returns rho once lambda_max(R) - 1 <= GAP_TOL. The
    eigensolve is skipped while the last gain still exceeds GAP_TOL * total, or
    while v^H R v - 1 > GAP_TOL for the top eigenvector v of the last
    eigensolve: that Rayleigh quotient is at most lambda_max(R), so the bound
    would fail too. Neither skip moves the iteration that stops (up to
    rounding). The gain rule STALL_TOL, the dilution plateau and MAX_ITERATIONS
    remain as stall guards: on exact probabilities of a mixed state the bound
    can stay large.
    """
    if not records:
        raise ValueError("cannot reconstruct from an empty record list")
    d = params.dim
    for rec in records:
        if rec.counts.size != d:
            raise ValueError(f"record histogram has {rec.counts.size} bins, expected {d}")
    ry, ry_t, phase = _basis_tables(params, [rec.axis for rec in records])
    counts = np.stack([rec.counts for rec in records])  # (n_rec, d)
    total = float(np.sum(counts))
    if total <= 0.0:
        raise ValueError("records carry no counts")
    freqs = counts / total

    def log_likelihood(p: np.ndarray) -> float:
        return float(np.sum(counts * np.log(np.maximum(p, PROB_FLOOR))))

    rho = np.eye(d, dtype=complex) / d
    p = _real_probabilities(rho, ry, phase)
    ll = log_likelihood(p)
    history = [ll]
    converged = False
    iterations = 0
    gain = math.inf
    gap = None
    top = None  # top eigenvector of R at the last eigensolve

    def r_operator(p: np.ndarray) -> np.ndarray:
        return _real_r_operator(freqs / np.maximum(p, PROB_FLOOR), ry, ry_t, phase)

    for iterations in range(1, MAX_ITERATIONS + 1):
        r_op = r_operator(p)
        if gain <= GAP_TOL * total:
            if top is not None:
                rayleigh = float(np.vdot(top, r_op @ top).real)
            if top is None or rayleigh - 1.0 <= GAP_TOL:
                evals, evecs = np.linalg.eigh(r_op)
                bound = float(evals[-1]) - 1.0
                if bound <= GAP_TOL:
                    gap = total * bound
                    converged = True  # certified: rho is within GAP_TOL * total of the maximum
                    iterations -= 1
                    break
                top = evecs[:, -1]
        candidate = r_op @ rho @ r_op
        candidate = 0.5 * (candidate + candidate.conj().T)
        candidate /= np.trace(candidate).real
        p_new = _real_probabilities(candidate, ry, phase)
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
                p_new = _real_probabilities(candidate, ry, phase)
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
        if gain < STALL_TOL:
            converged = True
            break
    if gap is None:
        gap = total * (float(np.linalg.eigvalsh(r_operator(p))[-1]) - 1.0)
    return ReconstructionResult(
        rho=DensityMatrix(rho, psd_tol=1e-6),
        log_likelihoods=history,
        iterations=iterations,
        converged=converged,
        gap=gap,
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
    delta_phis: tuple = DEFAULT_DELTA_PHI_GRID
    n_directions: int = DEFAULT_N_DIRECTIONS
    shots: int | None = DEFAULT_SHOTS
    seed: int = 0


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
        recon = reconstruct(records, params)
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
            recon = reconstruct(recs, params)
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
