"""Batch command-line interface.

Subcommands: score one video, evaluate a cohort (cross-validation or
independent-test mode), write a stratified split, generate synthetic
cohorts / run noise sweeps, and re-render saved reports.

Exit codes are stable: 0 success, 2 validation or malformed input,
3 no assessable frames, 4 I/O or corrupt raster files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import cohort as cohort_mod
from . import maskio, pipeline, synth
from .core import STATION_SLUGS, ScoringConstants, _read_json
from .errors import CarcinoError, MaskFormatError, NoAssessableFramesError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_FRAMES = 3
EXIT_IO = 4


_COMMON_FLAGS = {
    "--config": {"metavar": "FILE", "help": "JSON file overriding scoring constants"},
    "--seed": {"type": int, "default": None, "help": "seed override"},
    "--jobs": {
        "type": int,
        "default": None,
        "help": "worker count (default: CARCINO_JOBS or 1); results do not depend on it",
    },
    "--format": {"choices": ("json", "text"), "default": "json", "help": "stdout format"},
}


def _add_common_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Give a subcommand the common flags it reads; argparse rejects the
    others as unknown, so none is accepted and then ignored."""
    for flag in flags:
        parser.add_argument(flag, **_COMMON_FLAGS[flag])


def _resolve_jobs(args: argparse.Namespace) -> int:
    if args.jobs is not None:
        return max(1, args.jobs)
    env = os.environ.get("CARCINO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise CarcinoError(f"CARCINO_JOBS must be an integer, got {env!r}") from None
    return 1


def _resolve_constants(args: argparse.Namespace) -> ScoringConstants:
    if args.config:
        return ScoringConstants.from_json_file(args.config)
    return ScoringConstants()


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_score(args: argparse.Namespace) -> int:
    constants = _resolve_constants(args)
    manifest = maskio.load_manifest(args.manifest)
    assessment = pipeline.score_video(manifest, constants)
    if args.format == "text":
        positives = [s for s, flag in zip(STATION_SLUGS, assessment.station_positive) if flag]
        lines = [
            f"video:        {assessment.video_id}",
            f"frames used:  {assessment.frames_used}",
            f"stations:     {', '.join(positives) if positives else '(none)'}",
            f"FS:           {assessment.fs}",
            f"indication:   {assessment.its.value}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(assessment.to_json(), args.out)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    constants = _resolve_constants(args)
    jobs = _resolve_jobs(args)
    cohort = cohort_mod.load_cohort(args.index)
    if args.independent:
        runs, mode = cohort_mod.independent_runs(cohort), "independent"
    else:  # a FoldAssignment: evaluate_cohort makes one run per fold, in cross_validation mode
        runs, mode = cohort_mod.load_folds(args.folds), None
    report = cohort_mod.evaluate_cohort(
        cohort,
        runs,
        constants,
        predictor=args.predictor,
        jobs=jobs,
        dice_average=args.dice_average,
        compute_dice=not args.no_dice,
        compute_roi=not args.no_roi,
        mode=mode,
    )
    if args.out_json:
        Path(args.out_json).write_text(maskio.canonical_json(report), encoding="utf-8")
    if args.out_text:
        Path(args.out_text).write_text(cohort_mod.render_report_text(report), encoding="utf-8")
    if args.format == "text":
        sys.stdout.write(cohort_mod.render_report_text(report))
    elif not args.out_json and not args.out_text:
        sys.stdout.write(maskio.canonical_json(report))
    return EXIT_OK


def cmd_split(args: argparse.Namespace) -> int:
    cohort = cohort_mod.load_cohort(args.index)
    seed = args.seed if args.seed is not None else 0
    folds = cohort_mod.stratified_kfold(cohort, args.k, seed)
    text = maskio.canonical_json(folds.to_dict())
    _emit(text, args.out)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = synth.SynthSpec.from_json_file(args.spec)
    if args.seed is not None:
        spec = synth.SynthSpec.from_dict({**spec.to_dict(), "seed": args.seed})
    jobs = _resolve_jobs(args)
    if args.sweep:
        if not args.levels:
            raise CarcinoError("--sweep requires --levels")
        try:
            levels = [float(x) for x in args.levels.split(",") if x != ""]
        except ValueError:
            raise CarcinoError(f"--levels must be comma-separated numbers, got {args.levels!r}") from None
        constants = _resolve_constants(args)
        report = synth.monte_carlo_sweep(
            spec, args.sweep, levels, args.replicates, constants, jobs=jobs
        )
        if args.out_json:
            Path(args.out_json).write_text(maskio.canonical_json(report), encoding="utf-8")
        if args.out_csv:
            Path(args.out_csv).write_text(synth.render_sweep_csv(report), encoding="utf-8")
        if args.format == "text":
            sys.stdout.write(synth.render_sweep_text(report))
        elif not args.out_json:
            sys.stdout.write(maskio.canonical_json(report))
        return EXIT_OK
    if not args.out:
        raise CarcinoError("simulate needs --out DIR to write the cohort")
    index_path = synth.generate_cohort(spec, args.out, jobs=jobs)
    sys.stdout.write(str(index_path) + "\n")
    return EXIT_OK


_RENDERERS = {
    "cohort_evaluation": cohort_mod.render_report_text,
    "monte_carlo_sweep": synth.render_sweep_text,
}


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is beyond the float range")
    return value


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def cmd_report(args: argparse.Namespace) -> int:
    report = _read_json(
        args.report, CarcinoError, parse_float=_finite_float, parse_constant=_reject_constant
    )
    if not isinstance(report, dict):
        raise CarcinoError(f"{args.report}: expected a JSON object")
    if args.format == "json":
        sys.stdout.write(maskio.canonical_json(report))
        return EXIT_OK
    kind = report.get("kind")
    if not isinstance(kind, str) or kind not in _RENDERERS:
        raise CarcinoError(f"{args.report}: unknown report kind {kind!r}")
    try:
        text = _RENDERERS[kind](report)
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        # the renderers read the layout evaluate and simulate write; any
        # other layout fails on the key, index or value it lacks
        raise CarcinoError(
            f"{args.report}: malformed {kind} report ({type(exc).__name__}: {exc})"
        ) from exc
    sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carcino",
        description=(
            "Deterministic video-level carcinomatosis scoring and evaluation "
            "over per-frame segmentation outputs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="score one video manifest")
    p_score.add_argument("manifest", help="path to the video manifest JSON")
    p_score.add_argument("--out", metavar="FILE", help="write the assessment here")
    _add_common_flags(p_score, "--config", "--format")
    p_score.set_defaults(func=cmd_score)

    p_eval = sub.add_parser("evaluate", help="evaluate a cohort")
    p_eval.add_argument("index", help="cohort index JSON")
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--folds", metavar="FILE", help="fold assignment file")
    group.add_argument(
        "--independent", action="store_true", help="evaluate one run on the full cohort"
    )
    p_eval.add_argument(
        "--predictor", choices=("pipeline", "oracle"), default="pipeline"
    )
    p_eval.add_argument("--dice-average", choices=("frame", "video"), default="frame")
    p_eval.add_argument("--no-dice", action="store_true", help="skip Dice computation")
    p_eval.add_argument("--no-roi", action="store_true", help="skip ROI accuracy")
    p_eval.add_argument("--out-json", metavar="FILE")
    p_eval.add_argument("--out-text", metavar="FILE")
    _add_common_flags(p_eval, "--config", "--jobs", "--format")
    p_eval.set_defaults(func=cmd_evaluate)

    p_split = sub.add_parser("split", help="write a stratified fold assignment")
    p_split.add_argument("index", help="cohort index JSON")
    p_split.add_argument("--k", type=int, required=True, help="fold count")
    p_split.add_argument("--out", metavar="FILE", help="fold file (default: stdout)")
    _add_common_flags(p_split, "--seed")
    p_split.set_defaults(func=cmd_split)

    p_sim = sub.add_parser("simulate", help="generate a synthetic cohort or run a sweep")
    p_sim.add_argument("spec", help="synthetic cohort spec JSON")
    p_sim.add_argument(
        "--out",
        metavar="DIR",
        help="output directory for the cohort; a --sweep writes nothing there",
    )
    p_sim.add_argument(
        "--sweep", metavar="PARAM", help="noise parameter to sweep (e.g. miss_rate)"
    )
    p_sim.add_argument("--levels", metavar="X,Y,...", help="comma-separated sweep levels")
    p_sim.add_argument("--replicates", type=int, default=1)
    p_sim.add_argument("--out-json", metavar="FILE", help="write the sweep report here")
    p_sim.add_argument("--out-csv", metavar="FILE", help="write a per-replicate CSV table")
    _add_common_flags(p_sim, "--config", "--seed", "--jobs", "--format")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="render a saved report")
    p_rep.add_argument("report", help="report JSON produced by evaluate or simulate")
    _add_common_flags(p_rep, "--format")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoAssessableFramesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_FRAMES
    except MaskFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CarcinoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
