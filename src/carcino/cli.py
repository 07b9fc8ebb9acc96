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
        text.encode("utf-8")  # a string escape such as "\ud800" has no UTF-8 form
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        # the renderers read the layout evaluate and simulate write; any
        # other layout fails on the key, index or value it lacks
        raise CarcinoError(
            f"{args.report}: malformed {kind} report ({type(exc).__name__}: {exc})"
        ) from exc
    sys.stdout.write(text)
    return EXIT_OK


def _score_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("manifest", help="path to the video manifest JSON")
    p.add_argument("--out", metavar="FILE", help="write the assessment here")
    _add_common_flags(p, "--config", "--format")


def _evaluate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("index", help="cohort index JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--folds", metavar="FILE", help="fold assignment file")
    group.add_argument(
        "--independent", action="store_true", help="evaluate one run on the full cohort"
    )
    p.add_argument("--predictor", choices=("pipeline", "oracle"), default="pipeline")
    p.add_argument("--dice-average", choices=("frame", "video"), default="frame")
    p.add_argument("--no-dice", action="store_true", help="skip Dice computation")
    p.add_argument("--no-roi", action="store_true", help="skip ROI accuracy")
    p.add_argument("--out-json", metavar="FILE")
    p.add_argument("--out-text", metavar="FILE")
    _add_common_flags(p, "--config", "--jobs", "--format")


def _split_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("index", help="cohort index JSON")
    p.add_argument("--k", type=int, required=True, help="fold count")
    p.add_argument("--out", metavar="FILE", help="fold file (default: stdout)")
    _add_common_flags(p, "--seed")


def _simulate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec", help="synthetic cohort spec JSON")
    p.add_argument(
        "--out",
        metavar="DIR",
        help="output directory for the cohort; a --sweep writes nothing there",
    )
    p.add_argument("--sweep", metavar="PARAM", help="noise parameter to sweep (e.g. miss_rate)")
    p.add_argument("--levels", metavar="X,Y,...", help="comma-separated sweep levels")
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--out-json", metavar="FILE", help="write the sweep report here")
    p.add_argument("--out-csv", metavar="FILE", help="write a per-replicate CSV table")
    _add_common_flags(p, "--config", "--seed", "--jobs", "--format")


def _report_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("report", help="report JSON produced by evaluate or simulate")
    _add_common_flags(p, "--format")


# name -> (help line, handler, function adding the subcommand's arguments)
_SUBCOMMANDS = {
    "score": ("score one video manifest", cmd_score, _score_arguments),
    "evaluate": ("evaluate a cohort", cmd_evaluate, _evaluate_arguments),
    "split": ("write a stratified fold assignment", cmd_split, _split_arguments),
    "simulate": (
        "generate a synthetic cohort or run a sweep",
        cmd_simulate,
        _simulate_arguments,
    ),
    "report": ("render a saved report", cmd_report, _report_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The carcino parser; given a subcommand's name, a parser of that
    subcommand alone. In Python 3.11 every add_argument builds a help
    formatter, which asks for the terminal size, so building all five
    subcommands costs about 1 ms a call. The usage line still names
    every subcommand, so for an argv that starts with that name both
    parsers give the same namespace, help and errors."""
    parser = argparse.ArgumentParser(
        prog="carcino",
        description=(
            "Deterministic video-level carcinomatosis scoring and evaluation "
            "over per-frame segmentation outputs."
        ),
    )
    names = list(_SUBCOMMANDS) if command is None else [command]
    # the full parser's usage spells the choices out from the subparsers; this
    # metavar spells them the same way where only one subparser is built
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_line, handler, add_arguments = _SUBCOMMANDS[name]
        subparser = sub.add_parser(name, help=help_line)
        add_arguments(subparser)
        subparser.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # no subcommand or an unknown one: the full parser gives the usual help and errors
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
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
