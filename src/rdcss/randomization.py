"""Randomization structure and estimator distributions for 2^p designs.

A design runs all n = 2^p treatment combinations; each randomization stage
restricts the run order through the batches of a defining contrast subspace
S_i.  Batch errors inflate the variance of exactly the effect estimators
whose contrast lies in S_i, which is what makes separate half-normal plots
per variance group necessary.

The layer works on arrays over the 2^p effect masks: X'v is a Walsh-Hadamard
transform, variance_groups sorts one stage-membership code per mask, and
halfnormal_emit returns each group's plot coordinates as columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .geometry import Effect, Subspace

__all__ = [
    "Design",
    "VarianceSpec",
    "VarianceGroup",
    "VarianceReport",
    "HalfNormalTable",
    "batch_indices",
    "check_lemma1",
    "check_orthogonal",
    "effect_variance",
    "variance_groups",
    "simulate",
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


def _walsh_hadamard(values) -> np.ndarray:
    """X'v along the last axis, X the n x n model matrix of +-1 contrasts.

    Level 0 recodes to +1 and level 1 to -1, so X[r, c] = (-1)^popcount(r & c):
    column c is the effect with mask c and column 0 the all-ones mean column.
    X is the Sylvester-Hadamard matrix, so X'v takes p butterfly passes over a
    copy of v; integer input gives exact results.
    """
    out = np.array(values)
    n = out.shape[-1]
    h = 1
    while h < n:
        pairs = out.reshape(*out.shape[:-1], n // (2 * h), 2, h)
        top, bottom = pairs[..., 0, :], pairs[..., 1, :]
        first = top.copy()
        top += bottom
        np.subtract(first, bottom, out=bottom)
        h *= 2
    return out


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


def check_lemma1(design: Design) -> bool:
    """True iff N_i' N_i = 2^(p - t_i) I holds exactly at every stage.

    N_i' N_i is diagonal with the batch sizes on it, so the identity says
    that every batch of stage i holds 2^(p - t_i) runs.
    """
    for i, sub in enumerate(design.stages):
        sizes = np.bincount(batch_indices(design, i), minlength=1 << sub.dim)
        if not np.all(sizes == 1 << (design.p - sub.dim)):
            return False
    return True


def check_orthogonal(design: Design) -> bool:
    """True iff the model matrix of the run matrix satisfies X'X = n I.

    X'X[c, c'] depends only on d = c ^ c': it is the transform at d of the
    histogram h of the runs packed as masks, so X'X = n I iff that transform
    is n at 0 and 0 elsewhere.
    """
    runs = design.run_matrix.astype(np.int64) @ (1 << np.arange(design.p))
    gram = _walsh_hadamard(np.bincount(runs, minlength=design.n))
    return bool(gram[0] == design.n and not gram[1:].any())


@dataclass(frozen=True)
class VarianceSpec:
    """Error variances: sigma2 for replication, one entry per stage."""

    sigma2: float
    stage_variances: tuple[float, ...]

    def __post_init__(self) -> None:
        values = (self.sigma2, *self.stage_variances)
        for v in values:
            if not math.isfinite(v):
                raise ValueError(f"variances must be finite, got {v}")
        if any(v < 0 for v in values):
            raise ValueError("variances must be nonnegative")
        # -0.0 + 0 is 0.0 (numpy refuses the scale -0.0); other values keep their type.
        object.__setattr__(self, "sigma2", self.sigma2 + 0)
        object.__setattr__(self, "stage_variances", tuple(v + 0 for v in self.stage_variances))


def _check_spec(design: Design, spec: VarianceSpec) -> None:
    if len(spec.stage_variances) != len(design.stages):
        raise ValueError(
            f"spec has {len(spec.stage_variances)} stage variances for "
            f"{len(design.stages)} stages"
        )


def _membership(design: Design, bits: int) -> tuple[int, ...]:
    return tuple(i for i, s in enumerate(design.stages) if bits in s.point_masks)


def _variance(design: Design, spec: VarianceSpec, t_e: tuple[int, ...]) -> float:
    n = design.n
    var = spec.sigma2 / n
    for i in t_e:
        var += ((1 << (design.p - design.stages[i].dim)) / n) * spec.stage_variances[i]
    return var


def effect_variance(effect: Effect, design: Design, spec: VarianceSpec) -> float:
    """Var of the effect estimator: sigma2/n plus (n_i/n) sigma_i^2 over T_E."""
    _check_spec(design, spec)
    if effect.p != design.p:
        raise ValueError("effect width does not match design")
    return _variance(design, spec, _membership(design, effect.bits))


@dataclass(frozen=True)
class VarianceGroup:
    """Ascending effect masks sharing one stage-membership set, hence one variance."""

    stage_indices: tuple[int, ...]
    masks: tuple[int, ...]
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
    notes: tuple[str, ...]


def _membership_codes(design: Design) -> np.ndarray:
    """Stage-membership code of every mask: bit i is set when it lies in stage i.

    The codes are int64 for up to 63 stages and Python ints beyond.
    """
    codes = np.zeros(design.n, dtype=np.int64 if len(design.stages) < 64 else object)
    for i, s in enumerate(design.stages):
        codes[np.fromiter(s.point_masks, dtype=np.int64, count=len(s))] |= 1 << i
    return codes


def variance_groups(design: Design, spec: VarianceSpec | None = None) -> VarianceReport:
    """Group effects by T_E; flags mark small and mixed-variance groups.

    Groups of fewer than 7 effects are too thin for a half-normal plot, and
    effects inside two or more stages carry summed batch variances, leaving
    no clean reference group for judging their significance.
    """
    if spec is not None:
        _check_spec(design, spec)
    # A stable sort keeps each group's masks ascending.
    codes = _membership_codes(design)[1:]
    order = np.argsort(codes, kind="stable")
    distinct, starts = np.unique(codes[order], return_index=True)
    masks = (order + 1).tolist()
    bounds = [*starts.tolist(), len(masks)]
    by_t = {
        tuple(i for i in range(len(design.stages)) if code >> i & 1): tuple(masks[a:b])
        for code, a, b in zip(distinct.tolist(), bounds, bounds[1:])
    }
    groups = []
    for t_e in sorted(by_t, key=lambda t: (t == (), len(t), t)):
        masks = by_t[t_e]
        flags = []
        if len(masks) < 7:
            flags.append("small group: fewer than 7 effects for a half-normal plot")
        if len(t_e) >= 2:
            flags.append(
                "overlap: variance sums several stage components; "
                "significance assessment lacks a clean reference group"
            )
        var = _variance(design, spec, t_e) if spec is not None else None
        groups.append(
            VarianceGroup(
                stage_indices=t_e, masks=masks, variance=var, flags=tuple(flags)
            )
        )
    notes = []
    points = [s.point_masks for s in design.stages]
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if points[i] == points[j]:
                notes.append(
                    f"stages {i + 1} and {j + 1} use the same subspace; "
                    "their variance components add"
                )
    return VarianceReport(groups=tuple(groups), notes=tuple(notes))


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
    execution order.  Both products with X are Walsh-Hadamard transforms.
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
    mean = _walsh_hadamard(beta)
    batches = [batch_indices(design, i) for i in range(len(design.stages))]
    y = np.empty((reps, n))
    for rep in range(reps):
        rng = np.random.default_rng((seed, rep))
        y[rep] = mean + rng.normal(0.0, np.sqrt(spec.sigma2), n)
        for i, sub in enumerate(design.stages):
            eps = rng.normal(0.0, np.sqrt(spec.stage_variances[i]), 1 << sub.dim)
            y[rep] += eps[batches[i]]
    return _walsh_hadamard(y) / n


@dataclass(frozen=True, eq=False)
class HalfNormalTable:
    """Half-normal plot coordinates of one variance group, held as columns.

    masks sort by (|estimate|, mask); abs_estimates and quantiles run
    alongside them.
    """

    group: str
    masks: np.ndarray
    abs_estimates: np.ndarray
    quantiles: np.ndarray


def halfnormal_emit(
    estimates: np.ndarray, report: VarianceReport
) -> tuple[HalfNormalTable, ...]:
    """Half-normal plot coordinates, one table per variance group.

    estimates holds one value per effect mask (entry 0, the mean, is unused).
    Within a group of size g, masks sort by (|estimate|, mask) and rank k
    pairs with the quantile Phi^-1((k - 0.5 + g) / (2g)).
    """
    values = np.abs(np.asarray(estimates, dtype=float).ravel())
    inv_cdf = NormalDist().inv_cdf
    tables = []
    for group in report.groups:
        masks = np.asarray(group.masks, dtype=np.int64)
        masks = masks[np.lexsort((masks, values[masks]))]
        g = len(masks)
        quantiles = np.array([inv_cdf((k - 0.5 + g) / (2 * g)) for k in range(1, g + 1)])
        tables.append(HalfNormalTable(group.label, masks, values[masks], quantiles))
    return tuple(tables)
