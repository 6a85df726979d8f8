"""Randomization structure and estimator distributions for 2^p designs.

A design runs all n = 2^p treatment combinations; each randomization stage
restricts the run order through the batches of a defining contrast subspace
S_i.  Batch errors inflate the variance of exactly the effect estimators
whose contrast lies in S_i, which is what makes separate half-normal plots
per variance group necessary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from statistics import NormalDist

import numpy as np

from .geometry import Effect, Subspace

__all__ = [
    "Design",
    "VarianceSpec",
    "VarianceGroup",
    "VarianceReport",
    "HalfNormalRow",
    "batch_indices",
    "incidence_matrix",
    "check_lemma1",
    "effect_variance",
    "variance_groups",
    "simulate",
    "check_gls_equals_ols",
    "halfnormal_emit",
]


@dataclass(frozen=True)
class Design:
    """Full 2^p factorial with an ordered list of randomization stages."""

    p: int
    stages: tuple[Subspace, ...]

    def __post_init__(self) -> None:
        for i, s in enumerate(self.stages, start=1):
            if s.p != self.p:
                raise ValueError(f"stage {i} lives in p={s.p}, design has p={self.p}")
            if not 0 < s.dim < self.p:
                raise ValueError(f"stage {i} dimension must satisfy 0 < t < p")

    @property
    def n(self) -> int:
        return 1 << self.p

    @cached_property
    def run_matrix(self) -> np.ndarray:
        """n x p factor levels in {0,1}; factor j is bit j of the run index."""
        runs = np.arange(self.n, dtype=np.int64)
        return ((runs[:, None] >> np.arange(self.p)[None, :]) & 1).astype(np.uint8)

    @cached_property
    def model_matrix(self) -> np.ndarray:
        """n x n matrix of +-1 contrasts; column c is the effect with mask c.

        Level 0 recodes to +1 and level 1 to -1, so entry (r, c) is
        (-1)^popcount(r & c); column 0 is the all-ones mean column.
        """
        h = np.array([[1, 1], [1, -1]], dtype=np.int8)
        return reduce(np.kron, [h] * self.p, np.ones((1, 1), dtype=np.int8))


def batch_indices(design: Design, stage: int) -> np.ndarray:
    """Batch label of each run at the given stage (0-based stage index).

    Run r lands in the batch whose t-bit label reads the GF(2) inner products
    of r with the stage basis b_1..b_t, b_1 most significant.
    """
    sub = design.stages[stage]
    runs = np.arange(design.n, dtype=np.int64)
    idx = np.zeros(design.n, dtype=np.int64)
    for b in sub.basis:
        idx = (idx << 1) | (np.bitwise_count(runs & b) & 1).astype(np.int64)
    return idx


def incidence_matrix(design: Design, stage: int) -> np.ndarray:
    """n x 2^t 0/1 matrix assigning each run to its batch at the stage."""
    t = design.stages[stage].dim
    idx = batch_indices(design, stage)
    out = np.zeros((design.n, 1 << t), dtype=np.uint8)
    out[np.arange(design.n), idx] = 1
    return out


def check_lemma1(design: Design) -> bool:
    """True iff N_i' N_i = 2^(p - t_i) I holds exactly at every stage."""
    for i, sub in enumerate(design.stages):
        inc = incidence_matrix(design, i).astype(np.int64)
        expected = (1 << (design.p - sub.dim)) * np.eye(1 << sub.dim, dtype=np.int64)
        if not np.array_equal(inc.T @ inc, expected):
            return False
    return True


@dataclass(frozen=True)
class VarianceSpec:
    """Error variances: sigma2 for replication, one entry per stage."""

    sigma2: float
    stage_variances: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.sigma2 < 0 or any(v < 0 for v in self.stage_variances):
            raise ValueError("variances must be nonnegative")


def _check_spec(design: Design, spec: VarianceSpec) -> None:
    if len(spec.stage_variances) != len(design.stages):
        raise ValueError(
            f"spec has {len(spec.stage_variances)} stage variances for "
            f"{len(design.stages)} stages"
        )


def _membership(design: Design, bits: int) -> tuple[int, ...]:
    return tuple(i for i, s in enumerate(design.stages) if bits in s.point_masks)


def effect_variance(effect: Effect, design: Design, spec: VarianceSpec) -> float:
    """Var of the effect estimator: sigma2/n plus (n_i/n) sigma_i^2 over T_E."""
    _check_spec(design, spec)
    if effect.p != design.p:
        raise ValueError("effect width does not match design")
    n = design.n
    var = spec.sigma2 / n
    for i in _membership(design, effect.bits):
        var += ((1 << (design.p - design.stages[i].dim)) / n) * spec.stage_variances[i]
    return var


@dataclass(frozen=True)
class VarianceGroup:
    """Effects sharing one stage-membership set, hence one estimator variance."""

    stage_indices: tuple[int, ...]
    effects: tuple[Effect, ...]
    variance: float | None
    flags: tuple[str, ...]

    @property
    def label(self) -> str:
        if not self.stage_indices:
            return "rest"
        return "+".join(f"s{i + 1}" for i in self.stage_indices)


@dataclass(frozen=True)
class VarianceReport:
    """Partition of the 2^p - 1 effects by stage membership."""

    groups: tuple[VarianceGroup, ...]
    entries: tuple[tuple[Effect, tuple[int, ...], float | None], ...]
    notes: tuple[str, ...]


def variance_groups(design: Design, spec: VarianceSpec | None = None) -> VarianceReport:
    """Group effects by T_E; flags mark small and mixed-variance groups.

    Groups of fewer than 7 effects are too thin for a half-normal plot, and
    effects inside two or more stages carry summed batch variances, leaving
    no clean reference group for judging their significance.
    """
    if spec is not None:
        _check_spec(design, spec)
    by_t: dict[tuple[int, ...], list[Effect]] = {}
    entries = []
    for bits in range(1, design.n):
        e = Effect(bits, design.p)
        t_e = _membership(design, bits)
        by_t.setdefault(t_e, []).append(e)
        var = effect_variance(e, design, spec) if spec is not None else None
        entries.append((e, t_e, var))
    groups = []
    for t_e in sorted(by_t, key=lambda t: (t == (), len(t), t)):
        effects = tuple(by_t[t_e])
        flags = []
        if len(effects) < 7:
            flags.append("small group: fewer than 7 effects for a half-normal plot")
        if len(t_e) >= 2:
            flags.append(
                "overlap: variance sums several stage components; "
                "significance assessment lacks a clean reference group"
            )
        var = (
            effect_variance(effects[0], design, spec) if spec is not None else None
        )
        groups.append(
            VarianceGroup(
                stage_indices=t_e, effects=effects, variance=var, flags=tuple(flags)
            )
        )
    notes = []
    masks = [s.point_masks for s in design.stages]
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if masks[i] == masks[j]:
                notes.append(
                    f"stages {i + 1} and {j + 1} use the same subspace; "
                    "their variance components add"
                )
    return VarianceReport(
        groups=tuple(groups), entries=tuple(entries), notes=tuple(notes)
    )


def simulate(
    design: Design,
    spec: VarianceSpec,
    beta: np.ndarray | None = None,
    reps: int = 1,
    seed: int = 0,
) -> np.ndarray:
    """Monte Carlo draws of the effect estimators under the stage error model.

    Each rep draws Y = X beta + eps_0 + sum_i N_i eps_i and returns
    X'Y / n; row r of the result is rep r, column c the effect with mask c.
    Rep r uses the substream seeded by (seed, r), so results do not depend on
    execution order.
    """
    _check_spec(design, spec)
    if reps < 1:
        raise ValueError("reps must be at least 1")
    n = design.n
    if beta is None:
        beta = np.zeros(n)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (n,):
        raise ValueError(f"beta must have length n={n}")
    x = design.model_matrix.astype(np.float64)
    mean = x @ beta
    batches = [batch_indices(design, i) for i in range(len(design.stages))]
    out = np.empty((reps, n))
    for rep in range(reps):
        rng = np.random.default_rng((seed, rep))
        y = mean + rng.normal(0.0, np.sqrt(spec.sigma2), n)
        for i, sub in enumerate(design.stages):
            eps = rng.normal(0.0, np.sqrt(spec.stage_variances[i]), 1 << sub.dim)
            y = y + eps[batches[i]]
        out[rep] = (x.T @ y) / n
    return out


def check_gls_equals_ols(
    design: Design, spec: VarianceSpec, seed: int = 0, tol: float = 1e-9
) -> bool:
    """Verify the generalized and ordinary least squares estimators agree.

    Small-n numerical oracle (n <= 64): builds the full error covariance,
    solves the GLS normal equations on random responses and compares with
    X'Y/n at relative tolerance tol.
    """
    _check_spec(design, spec)
    if design.n > 64:
        raise ValueError("GLS comparison is a small-n oracle; need n <= 64")
    if spec.sigma2 <= 0:
        raise ValueError("singular error covariance: sigma2 must be positive")
    n = design.n
    sigma = spec.sigma2 * np.eye(n)
    for i, sub in enumerate(design.stages):
        inc = incidence_matrix(design, i).astype(np.float64)
        sigma += spec.stage_variances[i] * (inc @ inc.T)
    x = design.model_matrix.astype(np.float64)
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1.0, n)
    siginv_x = np.linalg.solve(sigma, x)
    siginv_y = np.linalg.solve(sigma, y)
    gls = np.linalg.solve(x.T @ siginv_x, x.T @ siginv_y)
    ols = (x.T @ y) / n
    scale = max(1.0, float(np.linalg.norm(ols)))
    return float(np.linalg.norm(gls - ols)) / scale < tol


@dataclass(frozen=True)
class HalfNormalRow:
    group: str
    effect: str
    abs_estimate: float
    quantile: float


def halfnormal_emit(
    estimates: np.ndarray | dict[Effect, float], report: VarianceReport
) -> tuple[HalfNormalRow, ...]:
    """Half-normal plot coordinates, one table per variance group.

    Within a group of size g, effects sort by |estimate| and rank k pairs
    with the quantile Phi^-1((k - 0.5 + g) / (2g)).
    """
    if isinstance(estimates, dict):
        values = {e.bits: float(v) for e, v in estimates.items()}
    else:
        arr = np.asarray(estimates, dtype=float).ravel()
        values = {bits: float(arr[bits]) for bits in range(1, arr.shape[0])}
    nd = NormalDist()
    rows: list[HalfNormalRow] = []
    for group in report.groups:
        g = len(group.effects)
        if g == 0:
            continue
        ordered = sorted(group.effects, key=lambda e: (abs(values[e.bits]), e.bits))
        for k, e in enumerate(ordered, start=1):
            rows.append(
                HalfNormalRow(
                    group=group.label,
                    effect=e.word,
                    abs_estimate=abs(values[e.bits]),
                    quantile=nd.inv_cdf((k - 0.5 + g) / (2 * g)),
                )
            )
    return tuple(rows)
