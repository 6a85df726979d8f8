"""Command-line interface for staged-design construction and analysis.

Commands: exists, spread, construct, transform, simulate, fraction, rank.
Exit codes are a stable contract: 0 success, 2 invalid input (a request too
large for memory included), 3 proven infeasible, 4 search budget exhausted.
All commands are deterministic given their full flag set; --seed falls back
to the RDCSS_SEED environment variable, then to 0.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from itertools import combinations
from pathlib import Path
from typing import Iterable

import numpy as np

from . import collineation as coll
from . import existence, fractional, spreads
from .construction import BudgetExhausted, Infeasible, build, choose_spread, required_rank, search
from .geometry import LETTERS, MAX_FACTORS, Subspace, intersect, mask_word, parse_effect, span
from .randomization import (
    Design,
    VarianceSpec,
    check_lemma1,
    check_orthogonal,
    halfnormal_emit,
    simulate,
    variance_groups,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4

MAX_CONSTRUCT_P = 12


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("RDCSS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"RDCSS_SEED must be an integer, got {env!r}") from None
    return 0


def _parse_poly(text: str | None, p: int) -> int | None:
    if text is None:
        return None
    try:
        poly = int(text, 0)
    except ValueError:
        raise ValueError(
            f"polynomial must be an integer bit mask such as 0x43, got {text!r}"
        ) from None
    if poly <= 1:
        raise ValueError("polynomial mask must encode degree >= 1")
    if poly.bit_length() - 1 != p:
        raise ValueError(f"polynomial degree {poly.bit_length() - 1} does not match p={p}")
    return poly


def _parse_stage(text: str, p: int) -> coll.StageRequirement:
    """One --stage flag: required effect words plus options after a colon."""
    words_part, _, opts_part = text.partition(":")
    words = [w.strip() for w in words_part.split(",") if w.strip()]
    if not words:
        raise ValueError(f"stage {text!r} names no effects")
    exact = False
    min_dim: int | None = None
    if opts_part:
        for opt in opts_part.split(","):
            opt = opt.strip()
            if opt == "exact":
                exact = True
            elif opt.startswith("min="):
                try:
                    min_dim = int(opt[4:])
                except ValueError:
                    raise ValueError(
                        f"stage option {opt!r} in {text!r} needs an integer dimension"
                    ) from None
            else:
                raise ValueError(f"unknown stage option {opt!r} in {text!r}")
    return coll.StageRequirement(
        required_effects=tuple(parse_effect(w, p) for w in words),
        min_dim=min_dim,
        exact=exact,
    )


def _matrix_rows(m: coll.Collineation) -> list[list[int]]:
    return [[(row >> j) & 1 for j in range(m.p)] for row in m.rows]


def _words(masks: Iterable[int]) -> list[str]:
    return [mask_word(m) for m in masks]


def _point_words(sub: Subspace) -> list[str]:
    return _words(sorted(sub.point_masks))


def _member_words(spread: spreads.Spread) -> list[list[str]]:
    return [_point_words(mem) for mem in spread.members]


# ---------------------------------------------------------------- exists


def cmd_exists(args: argparse.Namespace) -> int:
    # Three spellings of one stage list, one per request: --t T, --stages L and
    # --t1 T1 --t-list L.
    if args.t_list is not None and args.t1 is None:
        raise ValueError("--t-list needs --t1 with the first stage dimension")
    if args.stages:
        dims = tuple(int(x) for x in args.stages.split(","))
    elif args.t1 is not None:
        if not args.t_list:
            raise ValueError("--t1 needs --t-list with the companion dimensions")
        dims = (args.t1, *(int(x) for x in args.t_list.split(",")))
    elif args.t is not None:
        dims = (args.t,)
    else:
        raise ValueError("need one of --t, --stages, or --t1 with --t-list")
    report = existence.feasibility_report(args.p, dims)
    print(json.dumps(report.to_json(), indent=2))
    return EXIT_OK


# ---------------------------------------------------------------- spread


def _spread_grid(spread: spreads.Spread) -> str:
    """Tab-separated member-per-column grid, cyclic columns in field order."""
    header = "\t".join(f"S_{i + 1}" for i in range(len(spread.members)))
    if spread.cycle_table is not None:
        columns = [_words(col) for col in spread.cycle_table]
    else:
        columns = _member_words(spread)
    depth = max(len(col) for col in columns)
    lines = [header]
    for row in range(depth):
        lines.append(
            "\t".join(col[row] if row < len(col) else "" for col in columns)
        )
    return "\n".join(lines)


def cmd_spread(args: argparse.Namespace) -> int:
    if args.p > MAX_FACTORS:
        raise ValueError(
            f"spread is limited to p <= {MAX_FACTORS}, the factor letters A..X, got p={args.p}"
        )
    poly = _parse_poly(args.poly, args.p)
    spread = choose_spread(args.p, args.t, [args.t], poly, partial=args.partial)
    print(_spread_grid(spread))
    return EXIT_OK


# ---------------------------------------------------------------- construct


def load_design(path: str | Path):
    """Read a design file back into (base design, fraction or None, payload)."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read design file {path}: {exc}") from None
    try:
        if payload["schema"] != 1:
            raise ValueError(f"unsupported design schema {payload['schema']!r}")
        base_p = payload["base_p"] if payload["kind"] == "fraction" else payload["p"]
        if base_p > MAX_CONSTRUCT_P:
            raise ValueError(
                f"design files are limited to base p <= {MAX_CONSTRUCT_P}, got {base_p}"
            )
        stages = tuple(
            span(tuple(parse_effect(w, base_p) for w in st["basis"]))
            for st in payload["stages"]
        )
        design = Design(p=base_p, stages=stages)
        fraction = None
        if payload["kind"] == "fraction":
            spec = fractional.parse_fraction_spec(payload["fraction"])
            fraction = fractional.build_fraction(design, spec)
        return design, fraction, payload
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed design file {path}: {exc!r}") from None


def verification_payload(
    design: Design,
    fraction: fractional.FractionalDesign | None,
    payload: dict,
) -> dict:
    """Recomputable verification report for a constructed design."""
    p_total = payload["p"]
    stages = fraction.stages if fraction is not None else design.stages
    disjoint = all(
        intersect(a, b) is None for a, b in combinations(design.stages, 2)
    )
    met = []
    for st, sub in zip(payload["stages"], stages):
        words = [parse_effect(w, p_total) for w in st["required"]]
        ok = all(e.bits in sub.point_masks for e in words)
        if st["exact"] and fraction is None:
            ok = ok and span(tuple(words)).point_masks == sub.point_masks
        met.append(ok)
    report = {
        "schema": 1,
        "runs": payload["runs"],
        "stage_sizes": [len(s) for s in stages],
        "pairwise_disjoint": disjoint,
        "requirements_met": met,
        "lemma1": check_lemma1(design),
        "model_orthogonal": check_orthogonal(design),
        "defining_words_satisfied": None,
        "resolution": None,
        "stage_factor_sets": None,
    }
    if fraction is not None:
        satisfied = all(
            (run & w).bit_count() % 2 == 0
            for run in fraction.run_masks
            for w in fraction.subgroup.words
        )
        report["defining_words_satisfied"] = satisfied
        report["resolution"] = fraction.subgroup.resolution
        report["stage_factor_sets"] = [
            list(s) for s in fractional.stage_factor_sets(fraction)
        ]
    return report


def _write_runs_csv(path: Path, matrix: np.ndarray, letters: str, coding: str) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(letters))
        levels = matrix.astype(np.int64)
        writer.writerows((1 - 2 * levels if coding == "pm1" else levels).tolist())


def cmd_construct(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    if args.p is not None and args.factors is not None:
        raise ValueError(
            "--p and --factors cannot be combined: --p asks for a full design, "
            "--factors for a fraction"
        )
    if args.factors is None:
        if args.p is None:
            raise ValueError("construct needs --p (full design) or --factors (fraction)")
        if args.basic is not None:
            raise ValueError(
                "--p and --basic cannot be combined: --basic gives the base of a fraction"
            )
        if args.p > MAX_CONSTRUCT_P:
            raise ValueError(f"run-matrix export is limited to p <= {MAX_CONSTRUCT_P}")
        r = u = args.p
    else:
        r, u = args.factors, args.basic
        if u is None:
            raise ValueError("fraction construction needs --basic with --factors")
        if not 2 <= u < r <= len(LETTERS):
            raise ValueError(
                f"fraction construction needs 2 <= basic < factors <= {len(LETTERS)}, "
                f"got basic={u}, factors={r}"
            )
        if u > MAX_CONSTRUCT_P:
            raise ValueError(
                f"fraction construction is limited to basic <= {MAX_CONSTRUCT_P}, got {u}"
            )
        if args.t is None:
            raise ValueError("fraction construction needs --t for the base spread")
    stages = [_parse_stage(text, r) for text in args.stage]
    if not stages:
        raise ValueError("construct needs at least one --stage")
    built = build(r, u, stages, t=args.t, poly=_parse_poly(args.poly, u), budget=args.budget)
    design, fraction = built.design, built.fraction
    payload = {
        "schema": 1,
        "kind": "full" if fraction is None else "fraction",
        "p": r,
        "runs": design.n,
        "factors": LETTERS[:r],
        **({} if fraction is None else {"base_p": u}),
        "seed": seed,
        "stages": [
            {
                "name": f"S_{i + 1}",
                "required": [e.word for e in stage.required_effects],
                "exact": stage.exact,
                "member_index": built.members[i],
                "basis": _words(sub.basis),
                "points": _point_words(sub),
                **({} if fraction is None else {
                    "lifted_basis": _words(fraction.stages[i].basis),
                    "lifted_points": _point_words(fraction.stages[i]),
                }),
            }
            for i, (stage, sub) in enumerate(zip(stages, design.stages))
        ],
        "collineation": _matrix_rows(built.collineation),
        "spread": {"kind": built.spread.kind, "members": _member_words(built.spread)},
        "fraction": None if fraction is None else fractional.fraction_spec_to_dict(fraction.spec),
    }
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "design.json").write_text(json.dumps(payload, indent=2) + "\n")
    _write_runs_csv(
        out / "runs.csv",
        (design if fraction is None else fraction).run_matrix,
        payload["factors"],
        args.coding,
    )
    verification = verification_payload(design, fraction, payload)
    (out / "verification.json").write_text(json.dumps(verification, indent=2) + "\n")
    print(
        f"wrote design.json, runs.csv, verification.json to {out} "
        f"({payload['runs']} runs, {len(payload['stages'])} stages)"
    )
    return EXIT_OK


# ---------------------------------------------------------------- transform


def cmd_transform(args: argparse.Namespace) -> int:
    p = args.p
    stages_cli = [_parse_stage(text, p) for text in args.stage]
    if not stages_cli:
        raise ValueError("transform needs at least one --stage")
    dims = [args.t if args.t else required_rank(s) for s in stages_cli]
    spread = choose_spread(p, args.t, dims, _parse_poly(args.poly, p))
    result, transformed = search(spread, stages_cli, args.budget)
    print(
        json.dumps(
            {
                "status": result.status,
                "candidates_tried": result.candidates_tried,
                "collineation": _matrix_rows(result.collineation),
                "stage_members": [j + 1 for j in result.stage_members],
                "members": _member_words(transformed),
            },
            indent=2,
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------- simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    design, fraction, payload = load_design(args.design)
    if len(args.stage_var) != len(design.stages):
        raise ValueError(
            f"need one --stage-var per stage ({len(design.stages)}), "
            f"got {len(args.stage_var)}"
        )
    seed = _resolve_seed(args.seed)
    spec = VarianceSpec(sigma2=args.sigma2, stage_variances=tuple(args.stage_var))
    beta = np.zeros(design.n)
    given: set[int] = set()
    for text in args.beta:
        word, _, value = text.partition("=")
        if not value:
            raise ValueError(f"--beta expects WORD=VALUE, got {text!r}")
        bits = parse_effect(word.strip(), design.p).bits
        if bits in given:
            raise ValueError(f"--beta gives effect {mask_word(bits)} twice")
        given.add(bits)
        beta[bits] = float(value)
        if not np.isfinite(beta[bits]):
            raise ValueError(f"--beta {text!r}: the value for {mask_word(bits)} must be finite")
    report = variance_groups(design, spec)
    # Huge finite inputs can overflow; such a run is refused below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        estimates = simulate(design, spec, beta=beta, reps=args.reps, seed=seed)
        empirical = [
            float(np.mean(np.var(estimates[:, group.masks], axis=0, ddof=1)))
            if args.reps > 1
            else None
            for group in report.groups
        ]
    variances = [g.variance for g in report.groups] + [v for v in empirical if v is not None]
    if not (np.isfinite(estimates).all() and np.isfinite(variances).all()):
        raise ValueError(
            "the simulated values overflow the float range; "
            "give smaller --sigma2, --stage-var or --beta values"
        )

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = ["I"] + _words(range(1, design.n))
    # Same bytes as csv.writer: CRLF line ends, and no number or word needs quoting.
    with (out / "estimates.csv").open("w", newline="") as fh:
        np.savetxt(
            fh,
            estimates,
            fmt="%.10g",
            delimiter=",",
            newline="\r\n",
            header=",".join(header),
            comments="",
        )
    # One %-format per group; the bytes match csv.writer's as above.
    with (out / "halfnormal.csv").open("w", newline="") as fh:
        fh.write("group,effect,abs_estimate,quantile\r\n")
        for table in halfnormal_emit(estimates[0], report):
            g = len(table.masks)
            cells = [table.group] * (4 * g)
            cells[1::4] = [header[m] for m in table.masks.tolist()]
            cells[2::4] = table.abs_estimates.tolist()
            cells[3::4] = table.quantiles.tolist()
            fh.write("%s,%s,%.10g,%.10g\r\n" * g % tuple(cells))
    groups_json = [
        {
            "group": group.label,
            "stages": [i + 1 for i in group.stage_indices],
            "size": len(group.masks),
            "theoretical_variance": group.variance,
            "empirical_variance": emp,
            "flags": list(group.flags),
        }
        for group, emp in zip(report.groups, empirical)
    ]
    summary = {
        "design": str(args.design),
        "reps": args.reps,
        "seed": seed,
        "sigma2": spec.sigma2,
        "stage_variances": list(spec.stage_variances),
        "groups": groups_json,
        "notes": list(report.notes),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"wrote estimates.csv, halfnormal.csv, summary.json to {out} "
        f"({args.reps} reps, {len(report.groups)} variance groups)"
    )
    return EXIT_OK


# ---------------------------------------------------------------- fraction


def _load_fraction_spec(text: str) -> fractional.FractionSpec:
    if text.lstrip().startswith("{"):
        return fractional.parse_fraction_spec(text)
    try:
        raw = Path(text).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read fraction spec {text}: {exc}") from None
    return fractional.parse_fraction_spec(raw)


def cmd_fraction(args: argparse.Namespace) -> int:
    if args.out_dir and not args.design:
        raise ValueError("--out-dir writes the runs of a fraction on a design; it needs --design")
    spec = _load_fraction_spec(args.spec)
    subgroup = fractional.defining_subgroup(spec)
    clear = fractional.clear_effects(subgroup)
    out = {
        "factors": spec.factors,
        "basic": spec.basic,
        "words": _words(subgroup.words),
        "wlp": list(subgroup.wlp),
        "resolution": subgroup.resolution,
        "clear_mains": list(clear.clear_mains),
        "clear_two_fis": list(clear.clear_two_fis),
    }
    if args.design:
        design, _, _ = load_design(args.design)
        fraction = fractional.build_fraction(design, spec)
        out["stage_factor_sets"] = [
            list(s) for s in fractional.stage_factor_sets(fraction)
        ]
        out["lifted_stage_sizes"] = [len(s) for s in fraction.stages]
        if args.out_dir:
            d = Path(args.out_dir)
            d.mkdir(parents=True, exist_ok=True)
            _write_runs_csv(
                d / "runs.csv",
                fraction.run_matrix,
                LETTERS[: fraction.factors],
                args.coding,
            )
    print(json.dumps(out, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------- rank


def cmd_rank(args: argparse.Namespace) -> int:
    try:
        raw = json.loads(Path(args.candidates).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read candidates file {args.candidates}: {exc}") from None
    if not isinstance(raw, list) or not raw:
        raise ValueError("candidates file must hold a nonempty JSON list of fraction specs")
    specs = [fractional.parse_fraction_spec(entry) for entry in raw]
    ranked = fractional.rank_designs(specs, criterion=args.criterion)
    out = [
        {
            "rank": i + 1,
            "spec": fractional.fraction_spec_to_dict(rd.spec),
            "resolution": rd.resolution,
            "wlp": list(rd.wlp),
            "clear_mains": len(rd.clear.clear_mains),
            "clear_two_fis": len(rd.clear.clear_two_fis),
        }
        for i, rd in enumerate(ranked)
    ]
    print(json.dumps(out, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------- parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdcss",
        description="Randomization defining contrast subspaces for 2^p designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exists = sub.add_parser("exists", help="existence numbers for stage layouts")
    p_exists.add_argument("--p", type=int, required=True)
    spelling = p_exists.add_mutually_exclusive_group()
    spelling.add_argument("--t", type=int, help="one stage of this dimension")
    spelling.add_argument("--stages", help="comma-separated stage dimensions")
    spelling.add_argument("--t1", type=int, help="first stage dimension, before --t-list")
    p_exists.add_argument("--t-list", help="dimensions of the stages after --t1")
    p_exists.set_defaults(func=cmd_exists)

    p_spread = sub.add_parser("spread", help="print a spread as a member-per-column grid")
    p_spread.add_argument("--p", type=int, required=True)
    p_spread.add_argument("--t", type=int, required=True)
    p_spread.add_argument("--poly", help="primitive polynomial bit mask, e.g. 0x43")
    p_spread.add_argument("--partial", action="store_true")
    p_spread.set_defaults(func=cmd_spread)

    p_construct = sub.add_parser("construct", help="build a design and write its files")
    p_construct.add_argument("--p", type=int)
    p_construct.add_argument("--factors", type=int, help="total factors r of a fraction")
    p_construct.add_argument("--basic", type=int, help="basic factor count u")
    p_construct.add_argument("--t", type=int, help="spread member dimension")
    p_construct.add_argument(
        "--stage",
        action="append",
        default=[],
        metavar="WORDS[:exact|:min=K]",
        help="required effects of one stage, e.g. 'ABC,BDE,CEF:exact'",
    )
    p_construct.add_argument("--poly")
    p_construct.add_argument("--seed", type=int)
    p_construct.add_argument("--budget", type=int)
    p_construct.add_argument("--coding", choices=["01", "pm1"], default="01")
    p_construct.add_argument("--out-dir", default=".")
    p_construct.set_defaults(func=cmd_construct)

    p_transform = sub.add_parser(
        "transform", help="find a collineation for stage requirements"
    )
    p_transform.add_argument("--p", type=int, required=True)
    p_transform.add_argument("--t", type=int)
    p_transform.add_argument(
        "--stage", action="append", default=[], metavar="WORDS[:exact|:min=K]"
    )
    p_transform.add_argument("--poly")
    p_transform.add_argument("--budget", type=int)
    p_transform.set_defaults(func=cmd_transform)

    p_sim = sub.add_parser("simulate", help="Monte Carlo effect estimates for a design")
    p_sim.add_argument("--design", required=True, help="path to design.json")
    p_sim.add_argument("--sigma2", type=float, default=1.0)
    p_sim.add_argument(
        "--stage-var", type=float, action="append", default=[], metavar="VAR"
    )
    p_sim.add_argument("--beta", action="append", default=[], metavar="WORD=VALUE")
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out-dir", default=".")
    p_sim.set_defaults(func=cmd_simulate)

    p_frac = sub.add_parser("fraction", help="analyze a fraction spec")
    p_frac.add_argument("--spec", required=True, help="JSON file or literal JSON")
    p_frac.add_argument("--design", help="base design.json to attach the fraction to")
    p_frac.add_argument("--out-dir")
    p_frac.add_argument("--coding", choices=["01", "pm1"], default="01")
    p_frac.set_defaults(func=cmd_fraction)

    p_rank = sub.add_parser("rank", help="order candidate fractions best-first")
    p_rank.add_argument(
        "--criterion",
        choices=["wlp-aberration", "clear-count"],
        default="wlp-aberration",
    )
    p_rank.add_argument("--candidates", required=True, help="JSON list of fraction specs")
    p_rank.set_defaults(func=cmd_rank)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does).  Pointing fd 1 at
        # devnull keeps the interpreter's flush at exit quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        print("error: the request does not fit in memory", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
