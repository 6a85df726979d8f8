"""Independent reference implementations that pin the expected test values.

Nothing here touches the package's packed-int code paths: polynomials are
coefficient lists, spans come from enumerating XOR subsets, subspaces are
found by brute force over point combinations, a relabeling matrix comes
from the paper's formulation, a p^2-unknown linear system solved by Gaussian
elimination, and the statistical layer is restated with the dense n x n
model and incidence matrices.  Slow but transparently correct at the sizes
under test.  The exceptions are the enumerated relabeling search and the
enumerated feasibility tally, kept on the package's bit-matrix helpers
because they pin what the elimination search and the subspace-weighted
tally return (candidate counts, matrices, tallies), not their arithmetic.
The variance grouping and the half-normal rows are the per-mask loops the
array code replaced, kept to pin its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from statistics import NormalDist
from typing import Iterator, Sequence

import numpy as np

from rdcss import bitlin
from rdcss.collineation import (
    Collineation,
    FeasibilityCount,
    SearchResult,
    StageRequirement,
    _extend,
    _validated_requirements,
)
from rdcss.geometry import Effect, Subspace, mask_word, span
from rdcss.randomization import Design, VarianceGroup, VarianceReport, VarianceSpec
from rdcss.spreads import Spread

# ---------------------------------------------------------------- GF(2)[x]
# Schoolbook polynomial arithmetic on coefficient lists, index k = x^k.


def poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] ^= bj
    return poly_trim(out)


def poly_mod(a: list[int], m: list[int]) -> list[int]:
    a = list(a)
    poly_trim(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        for j, mj in enumerate(m):
            a[shift + j] ^= mj
        poly_trim(a)
    return a


def poly_pow_x_mod(e: int, m: list[int]) -> list[int]:
    """x^e mod m by square and multiply on coefficient lists."""
    acc = [1]
    base = poly_mod([0, 1], m)
    while e:
        if e & 1:
            acc = poly_mod(poly_mul(acc, base), m)
        base = poly_mod(poly_mul(base, base), m)
        e >>= 1
    return acc


def exponents_to_coeffs(exponents: tuple[int, ...]) -> list[int]:
    out = [0] * (max(exponents) + 1)
    for e in exponents:
        out[e] = 1
    return out


def field_power_mask(i: int, exponents: tuple[int, ...], p: int) -> int:
    """Packed coordinates of w^i under the coords[0] <-> w^(p-1) convention."""
    c = poly_pow_x_mod(i, exponents_to_coeffs(exponents))
    c = c + [0] * (p - len(c))
    return sum(c[j] << (p - 1 - j) for j in range(p))


def field_mul_mask(a: int, b: int, exponents: tuple[int, ...], p: int) -> int:
    """Product of two packed field elements (coords[0] <-> w^(p-1))."""

    def coeffs(mask: int) -> list[int]:
        return [(mask >> (p - 1 - k)) & 1 for k in range(p)]

    c = poly_mod(poly_mul(coeffs(a), coeffs(b)), exponents_to_coeffs(exponents))
    c = c + [0] * (p - len(c))
    return sum(c[k] << (p - 1 - k) for k in range(p))


# ---------------------------------------------------------------- words


def mask_word_join(bits: int) -> str:
    """Factor word of a mask, one letter per set bit in ascending bit order."""
    letters = "ABCDEFGHIJKLMNOPQRSTUVWX"
    return "".join(letters[j] for j in range(bits.bit_length()) if bits >> j & 1)


# ---------------------------------------------------------------- spans


def xor_span(masks) -> frozenset[int]:
    """All nonzero XOR combinations of the given masks."""
    out = {0}
    for m in masks:
        out |= {x ^ m for x in out}
    return frozenset(out - {0})


def greedy_basis(vectors) -> list[int]:
    """Each vector outside the span of those before it, in input order."""
    basis: list[int] = []
    spanned = {0}
    for v in vectors:
        if v not in spanned:
            basis.append(v)
            spanned |= {x ^ v for x in spanned}
    return basis


def subspace_from_points(points: Sequence[Effect]) -> Subspace:
    """Subspace from its full point set, on the greedy basis of the sorted points.

    Refuses an empty or repeated point set and one that is not closed: the
    points span a rank-t subspace, so they fill it iff there are 2^t - 1.
    """
    if not points:
        raise ValueError("empty point set")
    masks = {e.bits for e in points}
    if len(masks) != len(points):
        raise ValueError("duplicate points")
    basis = greedy_basis(sorted(masks))
    if len(masks) != (1 << len(basis)) - 1:
        raise ValueError(
            f"point set of size {len(masks)} does not fill a rank-{len(basis)} subspace"
        )
    return Subspace(p=points[0].p, basis=tuple(basis))


def complete_basis_scan(vectors, n: int) -> list[int]:
    """Independent vectors completed by scanning 1, 2, 3, ...: each integer
    outside the span of those kept before it is kept."""
    return greedy_basis([*vectors, *range(1, 1 << n)])


def rank_of(masks) -> int:
    return (len(xor_span(masks)) + 1).bit_length() - 1


def all_subspaces_brute(p: int, t: int) -> set[frozenset[int]]:
    """Every (t-1)-dimensional projective subspace as a point-mask set."""
    found: set[frozenset[int]] = set()
    for combo in combinations(range(1, 1 << p), t):
        s = xor_span(combo)
        if len(s) == (1 << t) - 1:
            found.add(s)
    return found


def disjoint_subspaces_fit(p: int, dims: Sequence[int]) -> bool:
    """Whether pairwise-disjoint subspaces of these dimensions exist, by backtracking."""
    pools = {
        t: sorted(sum(1 << x for x in s) for s in all_subspaces_brute(p, t))
        for t in set(dims)
    }
    order = sorted(dims, reverse=True)

    def place(i: int, used: int, start: int) -> bool:
        if i == len(order):
            return True
        pool = pools[order[i]]
        for j in range(start, len(pool)):
            if not pool[j] & used:
                # Equal dimensions take members in increasing order.
                nxt = j + 1 if i + 1 < len(order) and order[i + 1] == order[i] else 0
                if place(i + 1, used | pool[j], nxt):
                    return True
        return False

    return place(0, 0, 0)


# ---------------------------------------------------------------- edge helpers
# Conveniences that no package code calls: one effect's image, a membership
# probe, Andre's divisibility test and a pair of subspaces that overlap as
# little as their dimensions allow.


def apply(m: Collineation, e: Effect) -> Effect:
    """Image z'M of an effect: the XOR of the rows of M that z selects."""
    if e.p != m.p:
        raise ValueError("effect width does not match collineation size")
    image = 0
    for i, row in enumerate(m.rows):
        if e.bits >> i & 1:
            image ^= row
    return Effect(image, m.p)


def contains(sub: Subspace, effect: Effect) -> bool:
    return effect.bits in xor_span(sub.basis)


def full_spread_exists(p: int, t: int) -> bool:
    """Andre divisibility: a full (t-1)-spread of PG(p-1,2) exists iff t | p."""
    if not 0 < t < p:
        raise ValueError(f"stage dimension must satisfy 0 < t < p, got t={t}, p={p}")
    return p % t == 0


def overlap_witness(p: int, t1: int, t2: int) -> tuple[Subspace, Subspace]:
    """Subspaces of dims t1 and t2 on the first t1 and the last t2 coordinates.

    They share only the span of the coordinates in both, so they meet in
    exactly 2^(t1+t2-p) - 1 effects when t1 + t2 > p, and in none otherwise.
    """
    first = Subspace(p=p, basis=tuple(1 << j for j in range(t1)))
    last = Subspace(p=p, basis=tuple(1 << j for j in range(p - t2, p)))
    return first, last


# ---------------------------------------------------------------- linear system
# The paper's relabeling formulation: the p^2 entries of M are the unknowns,
# and each source-target pair contributes p coordinate equations.


def solve(rows: list[int], rhs_bits: list[int]) -> int | None:
    """One solution of the system {row_i . x = rhs_i}, or None if inconsistent.

    Free variables are set to 0; the returned int packs x bit-wise.
    """
    # Augment each row with its right-hand side in bit 0.
    pivots: dict[int, int] = {}
    for row, b in zip(rows, rhs_bits):
        aug = (row << 1) | (b & 1)
        while aug >> 1:
            top = (aug >> 1).bit_length() - 1
            if top not in pivots:
                break
            aug ^= pivots[top]
        if aug >> 1:
            pivots[(aug >> 1).bit_length() - 1] = aug
        elif aug & 1:
            return None
    x = 0
    # Ascending pivot order: each row's lower mask bits are already decided.
    for top in sorted(pivots):
        aug = pivots[top]
        mask = (aug >> 1) & ~(1 << top)
        if (aug & 1) ^ ((mask & x).bit_count() & 1):
            x |= 1 << top
    return x


@dataclass(frozen=True)
class LinearSystem:
    """Stacked constraints Qx = delta for the p^2 unknown matrix entries.

    Unknown x at index i*p + j is the matrix entry (i, j).  Row block s holds
    the p coordinate equations of pair s; q_rows[r] packs equation r's
    coefficients, bit i*p + j multiplying entry (i, j); delta packs the
    right-hand sides.
    """

    p: int
    q_rows: tuple[int, ...]
    delta: int


def build_system(assignment, p: int) -> LinearSystem:
    """Linear system forcing source'M = target' for each of the p Effect pairs."""
    if len(assignment) != p:
        raise ValueError(f"need exactly {p} source-target pairs, got {len(assignment)}")
    sources = [s.bits for s, _ in assignment]
    targets = [t.bits for _, t in assignment]
    if any(e.p != p for pair in assignment for e in pair):
        raise ValueError("effect width does not match p")
    if rank_of(sources) < p:
        raise ValueError("source effects are not independent")
    if rank_of(targets) < p:
        raise ValueError("target effects are not independent")
    q_rows: list[int] = []
    delta = 0
    for s, (src, tgt) in enumerate(zip(sources, targets)):
        for rho in range(p):
            # Equation for coordinate rho of pair s: the unknowns M[tau][rho]
            # over the source's set bits tau.
            q_rows.append(
                sum(1 << (tau * p + rho) for tau in range(p) if (src >> tau) & 1)
            )
            if (tgt >> rho) & 1:
                delta |= 1 << (s * p + rho)
    return LinearSystem(p=p, q_rows=tuple(q_rows), delta=delta)


def solve_gf2(system: LinearSystem) -> int | None:
    """One solution of the system (free variables 0), or None if inconsistent."""
    rhs = [(system.delta >> i) & 1 for i in range(len(system.q_rows))]
    return solve(list(system.q_rows), rhs)


def collineation_from_solution(x: int, p: int) -> Collineation:
    """Unpack a solution vector into the p x p matrix it encodes."""
    mask = (1 << p) - 1
    return Collineation(p, tuple((x >> (i * p)) & mask for i in range(p)))


# ---------------------------------------------------------------- enumerated search
# The relabeling search as it was first written: every candidate is a full
# list of p source-target pairs, inverted and checked by mapping every point
# of every chosen member.  It is the reference for the elimination walk.


def find_collineation_enumerated(
    spread: Spread,
    requirements: Sequence[StageRequirement],
    max_candidates: int | None = None,
) -> SearchResult:
    """Search for a collineation meeting every stage requirement.

    Deterministic enumeration: stage-to-member injections in member-index
    order, then per-stage source subsets in combination order over each
    member's sorted points, each subset paired sorted-source to listed-target.
    When the stage ranks do not sum to p, the assignment is completed from the
    points of unassigned members (lexicographic order, all completions
    enumerated on backtracking) against a fixed lexicographic target-basis
    completion.  Every complete candidate assignment counts against
    max_candidates; the first feasible one wins.
    """
    p = spread.p
    stage_targets, ranks, min_dims = _validated_requirements(spread, requirements)
    m = len(requirements)
    total_rank = sum(ranks)
    need = p - total_rank

    flat_targets = [mask for ms in stage_targets for mask in ms]
    completion_targets = bitlin.complete_basis(flat_targets, p)[total_rank:]
    exact_sets = [
        span(tuple(req.required_effects)).point_masks if req.exact else None
        for req in requirements
    ]

    candidates: list[list[int]] = []
    for i, req in enumerate(requirements):
        if req.exact:
            cand = [j for j, mem in enumerate(spread.members) if mem.dim == ranks[i]]
        else:
            cand = [j for j, mem in enumerate(spread.members) if mem.dim >= min_dims[i]]
        candidates.append(cand)

    member_points = [sorted(mem.point_masks) for mem in spread.members]

    def injections(stage: int, used: set[int], chosen: list[int]) -> Iterator[tuple[int, ...]]:
        if stage == m:
            yield tuple(chosen)
            return
        for j in candidates[stage]:
            if j in used:
                continue
            used.add(j)
            chosen.append(j)
            yield from injections(stage + 1, used, chosen)
            chosen.pop()
            used.remove(j)

    def candidate_assignments(inj: tuple[int, ...]) -> Iterator[list[tuple[int, int]] | None]:
        # Yields complete p-pair candidates; a None marks a stage-source
        # choice admitting no independent completion (one failed candidate).
        pool = sorted(
            pt
            for j in range(len(spread.members))
            if j not in inj
            for pt in member_points[j]
        )

        def rec(stage: int, acc: list[tuple[int, int]]) -> Iterator[list[tuple[int, int]] | None]:
            if stage == m:
                if need == 0:
                    yield list(acc)
                    return
                chosen_src = [s for s, _ in acc]
                complete = False
                for extra in combinations(pool, need):
                    if bitlin.is_independent(chosen_src + list(extra)):
                        complete = True
                        yield list(acc) + list(zip(extra, completion_targets))
                if not complete:
                    yield None
                return
            for subset in combinations(member_points[inj[stage]], ranks[stage]):
                acc.extend(zip(subset, stage_targets[stage]))
                yield from rec(stage + 1, acc)
                del acc[-ranks[stage]:]

        yield from rec(0, [])

    def attempt(pairs: list[tuple[int, int]], inj: tuple[int, ...]) -> Collineation | None:
        # M = S^-1 T maps each source row onto its target; dependent sources
        # admit no such M, and independent targets make M invertible.
        inv = bitlin.invert([s for s, _ in pairs], p)
        if inv is None:
            return None
        rows = bitlin.matmul(inv, [t for _, t in pairs])
        for i in range(m):
            image = {bitlin.apply_rows(rows, pt) for pt in member_points[inj[i]]}
            if not all(mask in image for mask in stage_targets[i]):
                return None
            if exact_sets[i] is not None and image != exact_sets[i]:
                return None
        return Collineation(p, tuple(rows))

    tried = 0
    for inj in injections(0, set(), []):
        for cand in candidate_assignments(inj):
            if max_candidates is not None and tried >= max_candidates:
                return SearchResult("budget-exhausted", None, None, tried)
            tried += 1
            if cand is None:
                continue
            coll = attempt(cand, inj)
            if coll is not None:
                return SearchResult("found", coll, inj, tried)
    return SearchResult("infeasible", None, None, tried)


# ---------------------------------------------------------------- enumerated tally
# The feasibility tally as it was first written: every source subset of every
# stage is reduced against the pivots of the stages before it.  It is the
# reference for the subspace-weighted count.


def count_feasible_enumerated(
    spread: Spread, requirements: Sequence[StageRequirement]
) -> FeasibilityCount:
    """Exhaustively tally feasible candidates for stage requirements.

    Convention: unordered member m-subsets in member order (the i-th smallest
    member index serves the i-th listed stage), crossed with unordered source
    subsets per stage; a candidate is feasible iff its linear system is
    consistent with invertible solution.  With the p targets jointly
    independent that holds iff the p chosen sources are independent, which is
    what the stage-by-stage elimination checks; the equivalence is exercised
    against the paper's linear-system solve in the test suite.
    """
    p = spread.p
    stage_targets, ranks, _ = _validated_requirements(spread, requirements)
    if sum(ranks) != p:
        raise ValueError("feasibility counting needs stage ranks summing to p")
    m = len(requirements)
    if any(mem.dim < max(ranks) for mem in spread.members):
        raise ValueError("every spread member must accommodate every stage")
    member_points = [sorted(mem.point_masks) for mem in spread.members]
    subset_cache: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def subsets(member: int, k: int) -> list[tuple[int, ...]]:
        key = (member, k)
        if key not in subset_cache:
            subset_cache[key] = list(combinations(member_points[member], k))
        return subset_cache[key]

    feasible = 0
    total = 0
    for combo in combinations(range(len(spread.members)), m):
        per_stage = [subsets(combo[i], ranks[i]) for i in range(m)]
        total += math.prod(len(s) for s in per_stage)

        def walk(stage: int, pivots: dict[int, int]) -> int:
            hits = 0
            for subset in per_stage[stage]:
                extended = _extend(pivots, subset)
                if extended is not None:
                    hits += 1 if stage == m - 1 else walk(stage + 1, extended)
            return hits

        feasible += walk(0, {})
    return FeasibilityCount(feasible=feasible, total=total)


# ---------------------------------------------------------------- dense statistics
# The paper's matrices written out in full: X is the n x n model matrix, N_i
# the n x 2^t_i run-to-batch incidence matrix of stage i.


def model_matrix(design: Design) -> np.ndarray:
    """n x n matrix of +-1 contrasts; column c is the effect with mask c.

    Level 0 recodes to +1 and level 1 to -1, so entry (r, c) is
    (-1)^popcount(r & c); column 0 is the all-ones mean column.
    """
    h = np.array([[1, 1], [1, -1]], dtype=np.int8)
    return reduce(np.kron, [h] * design.p, np.ones((1, 1), dtype=np.int8))


def incidence_matrix(design: Design, stage: int) -> np.ndarray:
    """n x 2^t 0/1 matrix assigning each run to its batch at the stage.

    Run r's batch label reads the parities of r & b_1, ..., r & b_t over the
    stage basis, b_1 most significant.
    """
    basis = design.stages[stage].basis
    out = np.zeros((design.n, 1 << len(basis)), dtype=np.uint8)
    for r in range(design.n):
        label = 0
        for b in basis:
            label = (label << 1) | (bin(r & b).count("1") & 1)
        out[r, label] = 1
    return out


def lemma1_holds(design: Design) -> bool:
    """N_i' N_i = 2^(p - t_i) I at every stage, by dense products."""
    for i, sub in enumerate(design.stages):
        inc = incidence_matrix(design, i).astype(np.int64)
        expected = (1 << (design.p - sub.dim)) * np.eye(1 << sub.dim, dtype=np.int64)
        if not np.array_equal(inc.T @ inc, expected):
            return False
    return True


def simulate_dense(
    design: Design, spec: VarianceSpec, beta=None, reps: int = 1, seed: int = 0
) -> np.ndarray:
    """Monte Carlo estimates X'Y/n with one dense matvec per rep.

    Draws Y in the package's order: rep r from the substream (seed, r), the
    replication errors first, then one error per batch of each stage.
    """
    n = design.n
    x = model_matrix(design).astype(np.float64)
    mean = x @ (np.zeros(n) if beta is None else np.asarray(beta, dtype=float))
    incs = [incidence_matrix(design, i) for i in range(len(design.stages))]
    out = np.empty((reps, n))
    for rep in range(reps):
        rng = np.random.default_rng((seed, rep))
        y = mean + rng.normal(0.0, np.sqrt(spec.sigma2), n)
        for i, sub in enumerate(design.stages):
            eps = rng.normal(0.0, np.sqrt(spec.stage_variances[i]), 1 << sub.dim)
            y = y + incs[i] @ eps
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
    if len(spec.stage_variances) != len(design.stages):
        raise ValueError("spec needs one stage variance per stage")
    if design.n > 64:
        raise ValueError("GLS comparison is a small-n oracle; need n <= 64")
    if spec.sigma2 <= 0:
        raise ValueError("singular error covariance: sigma2 must be positive")
    n = design.n
    sigma = spec.sigma2 * np.eye(n)
    for i in range(len(design.stages)):
        inc = incidence_matrix(design, i).astype(np.float64)
        sigma += spec.stage_variances[i] * (inc @ inc.T)
    x = model_matrix(design).astype(np.float64)
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1.0, n)
    siginv_x = np.linalg.solve(sigma, x)
    siginv_y = np.linalg.solve(sigma, y)
    gls = np.linalg.solve(x.T @ siginv_x, x.T @ siginv_y)
    ols = (x.T @ y) / n
    scale = max(1.0, float(np.linalg.norm(ols)))
    return float(np.linalg.norm(gls - ols)) / scale < tol


# ---------------------------------------------------------------- variance groups
# One membership probe per mask and stage, and one row per effect.


def variance_groups_loop(design: Design, spec: VarianceSpec | None = None) -> VarianceReport:
    """Effects grouped by the set of stages containing them, probed mask by mask.

    Groups order by (unbatched last, stage count, stage indices); each
    group's masks ascend.  Flags and notes read as in the package.
    """
    by_t: dict[tuple[int, ...], list[int]] = {}
    for bits in range(1, design.n):
        t_e = tuple(i for i, s in enumerate(design.stages) if bits in s.point_masks)
        by_t.setdefault(t_e, []).append(bits)
    groups = []
    for t_e in sorted(by_t, key=lambda t: (t == (), len(t), t)):
        masks = tuple(by_t[t_e])
        flags = []
        if len(masks) < 7:
            flags.append("small group: fewer than 7 effects for a half-normal plot")
        if len(t_e) >= 2:
            flags.append(
                "overlap: variance sums several stage components; "
                "significance assessment lacks a clean reference group"
            )
        var = None
        if spec is not None:
            var = spec.sigma2 / design.n
            for i in t_e:
                var += (
                    (1 << (design.p - design.stages[i].dim)) / design.n
                ) * spec.stage_variances[i]
        groups.append(VarianceGroup(t_e, masks, var, tuple(flags)))
    notes = tuple(
        f"stages {i + 1} and {j + 1} use the same subspace; their variance components add"
        for i, j in combinations(range(len(design.stages)), 2)
        if design.stages[i].point_masks == design.stages[j].point_masks
    )
    return VarianceReport(groups=tuple(groups), notes=notes)


def halfnormal_rows(estimates, report: VarianceReport) -> list[tuple[str, str, float, float]]:
    """(group, effect word, |estimate|, quantile) per effect, group by group.

    Within a group of size g, masks sort by (|estimate|, mask) and rank k
    pairs with Phi^-1((k - 0.5 + g) / (2g)).
    """
    values = np.abs(np.asarray(estimates, dtype=float).ravel()).tolist()
    inv_cdf = NormalDist().inv_cdf
    rows = []
    for group in report.groups:
        g = len(group.masks)
        ordered = sorted(group.masks, key=lambda m: (values[m], m))
        for k, m in enumerate(ordered, start=1):
            rows.append(
                (group.label, mask_word(m), values[m], inv_cdf((k - 0.5 + g) / (2 * g)))
            )
    return rows
