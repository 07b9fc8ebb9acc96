import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carcino import cli, errors, maskio, synth
from carcino.cli import build_parser, main
from carcino.cohort import _summarize_report, load_cohort, save_cohort_index
from carcino.synth import NoiseSpec, SynthSpec

from conftest import blank_organ_conf, write_video
from oracles import oracle_fs


def _mini_cohort(tmp_path, n_videos=3, **spec_kwargs) -> Path:
    spec = SynthSpec(
        seed=21,
        n_videos=n_videos,
        frame_size=(32, 32),
        frames_per_video=2,
        **spec_kwargs,
    )
    return synth.generate_cohort(spec, tmp_path / "cohort")


def _uniform_manifest_cohort(tmp_path, n=101) -> Path:
    """Index of manifests carrying only ground truth (no frames); enough
    for split, which never touches rasters."""
    root = tmp_path / "gtcohort"
    root.mkdir()
    entries = []
    for i in range(n):
        fs_level = i % 7
        stations = tuple(s < fs_level for s in range(6))
        manifest = maskio.VideoManifest(
            video_id=f"v{i:04d}",
            frames=(),
            ground_truth=maskio.VideoGroundTruth(stations),
        )
        rel = f"v{i:04d}.json"
        maskio.save_manifest(manifest, root / rel)
        entries.append((f"v{i:04d}", rel))
    index = root / "index.json"
    save_cohort_index("uniform", entries, index)
    return index


# --- flags -------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["score", "manifest.json"], ["--seed", "7"]),
        (["score", "manifest.json"], ["--jobs", "2"]),
        (["evaluate", "index.json", "--independent"], ["--seed", "7"]),
        (["split", "index.json", "--k", "4"], ["--jobs", "2"]),
        (["split", "index.json", "--k", "4"], ["--config", "config.json"]),
        (["split", "index.json", "--k", "4"], ["--format", "text"]),
        (["report", "report.json"], ["--seed", "7"]),
        (["report", "report.json"], ["--jobs", "2"]),
        (["report", "report.json"], ["--config", "config.json"]),
    ],
    ids=lambda value: " ".join(value),
)
def test_subcommands_reject_common_flags_they_do_not_read(argv, flag, capsys):
    """A common flag that a subcommand would ignore is an unknown
    argument there (exit 2), so no call only looks seeded or configured."""
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


_ACCEPTED_ARGV = [
    ["score", "m.json"],
    ["score", "m.json", "--out", "o.json", "--config", "c.json", "--format", "text"],
    ["evaluate", "i.json", "--independent", "--jobs", "3", "--no-dice"],
    ["evaluate", "i.json", "--folds", "f.json", "--dice-average", "video", "--predictor", "oracle"],
    ["split", "i.json", "--k", "4", "--seed", "2", "--out", "f.json"],
    ["simulate", "s.json", "--sweep", "miss_rate", "--levels", "0,1", "--replicates", "2"],
    ["simulate", "s.json", "--out", "d", "--jobs", "2", "--seed", "5", "--format", "text"],
    ["report", "r.json", "--format", "text"],
]
_REJECTED_ARGV = [  # each prints help or an error and exits
    ["score"],
    ["score", "m.json", "--seed", "7"],
    ["score", "m.json", "extra"],
    ["score", "--help"],
    ["evaluate", "i.json"],
    ["evaluate", "i.json", "--folds", "f.json", "--independent"],
    ["evaluate", "i.json", "--independent", "--predictor", "magic"],
    ["evaluate", "--help"],
    ["split", "i.json"],
    ["split", "i.json", "--k", "four"],
    ["split", "--help"],
    ["simulate", "s.json", "--replicates", "many"],
    ["simulate", "--help"],
    ["report", "r.json", "--format", "xml"],
    ["report", "--help"],
]


def _parse(parse, argv):
    """What parse(argv) gives: its result, or the code it exits with,
    and what it prints to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed = parse(argv)
        except SystemExit as exc:
            parsed = exc.code
    return parsed, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _ACCEPTED_ARGV + _REJECTED_ARGV, ids=" ".join)
def test_one_subcommand_parser_parses_like_the_full_one(argv):
    full = _parse(build_parser().parse_args, argv)
    assert _parse(build_parser(argv[0]).parse_args, argv) == full


@pytest.mark.parametrize(
    "argv", [[], ["--help"], ["-h"], ["bogus", "x"], ["--help", "score"], *_REJECTED_ARGV],
    ids=" ".join,
)
def test_main_prints_the_full_parsers_help_and_errors(argv):
    """main builds one subcommand's parser when argv starts with its name
    and the full parser otherwise; either way it prints the full parser's
    help, usage and error text."""
    assert _parse(main, argv) == _parse(build_parser().parse_args, argv)


def test_main_adds_only_the_chosen_subcommands_arguments(monkeypatch, tmp_path):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *names, **kwargs):
        added.append(names[0])
        return add_argument(self, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    main(["score", str(tmp_path / "missing.json")])
    # carcino's -h, then score's -h and its own four arguments
    assert added == ["-h", "-h", "manifest", "--out", "--config", "--format"]


_EXIT_CODES = {"CarcinoError": 2, "MaskFormatError": 4, "NoAssessableFramesError": 3}


def test_errors_define_one_class_per_exit_code(monkeypatch, capsys):
    """carcino.errors defines exactly one class per exit code, and main
    maps each onto its code with the message alone on stderr."""
    classes = {
        name: value
        for name, value in vars(errors).items()
        if inspect.isclass(value) and value.__module__ == errors.__name__
    }
    assert set(classes) == set(_EXIT_CODES)
    help_line, _, add_arguments = cli._SUBCOMMANDS["report"]
    for name, error in classes.items():

        def fail(args, error=error):
            raise error(f"a {name}")

        monkeypatch.setitem(cli._SUBCOMMANDS, "report", (help_line, fail, add_arguments))
        assert main(["report", "r.json"]) == _EXIT_CODES[name]
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: a {name}\n"


# --- score -------------------------------------------------------------------


def test_score_outputs_assessment(tmp_path, capsys):
    index = _mini_cohort(tmp_path)
    cohort = load_cohort(index)
    video = cohort.videos[0]
    code = main(["score", str(video.manifest_path)])
    out = capsys.readouterr().out
    assert code == 0
    record = json.loads(out)
    assert record["fs"] == oracle_fs(video)
    assert set(record["station_positive"]) == {
        "diaphragm",
        "liver",
        "stomach_spleen_lesser_omentum",
        "greater_omentum",
        "parietal_peritoneum",
        "bowel",
    }


def test_score_text_format(tmp_path, capsys):
    index = _mini_cohort(tmp_path)
    video = load_cohort(index).videos[0]
    code = main(["score", str(video.manifest_path), "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FS:" in out and "indication:" in out


def test_score_writes_output_file(tmp_path, capsys):
    index = _mini_cohort(tmp_path)
    video = load_cohort(index).videos[0]
    out = tmp_path / "assessment.json"
    assert main(["score", str(video.manifest_path), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["video_id"] == video.video_id


def test_evaluate_no_dice_no_roi_flags(tmp_path):
    index = _mini_cohort(tmp_path, n_videos=2)
    out = tmp_path / "r.json"
    code = main(
        ["evaluate", str(index), "--independent", "--no-dice", "--no-roi",
         "--out-json", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["runs"][0]["dice"] is None
    assert report["runs"][0]["roi_balanced_accuracy"] is None


def test_score_bad_magic_exits_4(tmp_path, capsys):
    index = _mini_cohort(tmp_path, n_videos=1)
    video = load_cohort(index).videos[0]
    raster = video.manifest_path.parent / "frames" / "f0000.organ.msk"
    blob = bytearray(raster.read_bytes())
    blob[:4] = b"MSK2"
    raster.write_bytes(bytes(blob))
    code = main(["score", str(video.manifest_path)])
    err = capsys.readouterr().err
    assert code == 4
    assert str(raster) in err


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (
            lambda blob: maskio._HEADER.pack(
                maskio.MAGIC, 65535, 65535, 255, maskio.DTYPE_CONFIDENCE
            ),
            f"payload is 0 bytes, expected {255 * 65535 * 65535 * 4}",
        ),
        (lambda blob: blob + b"\x00", "1 trailing bytes after payload"),
    ],
    ids=["oversized-header", "trailing-byte"],
)
def test_score_corrupt_raster_size_exits_4(tmp_path, capsys, corrupt, message):
    index = _mini_cohort(tmp_path, n_videos=1)
    video = load_cohort(index).videos[0]
    raster = video.manifest_path.parent / "frames" / "f0000.organ.msk"
    raster.write_bytes(corrupt(raster.read_bytes()))
    code = main(["score", str(video.manifest_path)])
    assert code == 4
    assert capsys.readouterr().err == f"error: {message} in {raster}\n"


def test_score_all_frames_filtered_exits_3(tmp_path, capsys):
    manifest = write_video(
        tmp_path,
        "dull",
        [
            {
                "organ_conf": blank_organ_conf((16, 16), 0.95),
                "pc_conf": np.zeros((16, 16), dtype=np.float32),
                "roi_score": 0.0,
            }
        ],
    )
    code = main(["score", str(manifest.base_dir / "manifest.json")])
    assert code == 3


def test_score_missing_manifest_exits_4(tmp_path, capsys):
    assert main(["score", str(tmp_path / "nope.json")]) == 4


def test_score_inconsistent_ground_truth_exits_2(tmp_path, capsys):
    index = _mini_cohort(tmp_path, n_videos=1)
    video = load_cohort(index).videos[0]
    data = json.loads(video.manifest_path.read_text())
    data["ground_truth"]["fs"] = 12  # break fs/stations consistency
    bad = video.manifest_path.parent / "broken.json"
    bad.write_text(json.dumps(data))
    assert main(["score", str(bad)]) == 2


def test_score_constants_override_changes_result(tmp_path, capsys):
    index = _mini_cohort(tmp_path, n_videos=1, station_prevalence=(1.0,) * 6)
    video = load_cohort(index).videos[0]
    config = tmp_path / "constants.json"
    config.write_text(json.dumps({"pc_confidence_threshold": 0.99}))
    code = main(["score", str(video.manifest_path), "--config", str(config)])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    assert record["fs"] == 0  # 0.97 plateau no longer reaches the threshold


def test_ground_truth_rasters_are_read_only_for_dice(tmp_path, capsys):
    """A missing and a truncated gt_labels raster change nothing for
    score and evaluate --no-dice, which never open them; evaluate with
    Dice fails exactly those two videos, with the messages of the read."""
    index = _mini_cohort(tmp_path)
    broken = tmp_path / "broken"
    shutil.copytree(index.parent, broken)
    videos = load_cohort(broken / "index.json").videos
    missing = videos[0].manifest_path.parent / "frames" / "f0000.gtlab.msk"
    truncated = videos[1].manifest_path.parent / "frames" / "f0000.gtlab.msk"
    missing.unlink()
    os.truncate(truncated, truncated.stat().st_size - 3)

    def stdout_of(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    for video in videos:
        intact = index.parent / video.manifest_path.relative_to(broken)
        assert stdout_of(["score", str(video.manifest_path)]) == stdout_of(["score", str(intact)])

    def report(cohort_index, *flags):
        out = tmp_path / "report.json"
        assert main(["evaluate", str(cohort_index), "--independent", *flags,
                     "--out-json", str(out)]) == 0
        return out.read_text()

    no_dice = report(broken / "index.json", "--no-dice")
    assert json.loads(no_dice)["runs"][0]["failed"] == {}
    assert no_dice == report(index, "--no-dice")
    assert json.loads(report(broken / "index.json"))["runs"][0]["failed"] == {
        videos[0].video_id: f"[Errno 2] No such file or directory: '{missing}'",
        videos[1].video_id: f"payload is 1021 bytes, expected 1024 in {truncated}",
    }


def _frame(size: int, roi_score: float = 1.0) -> dict:
    return {
        "organ_conf": blank_organ_conf((size, size), 0.95),
        "pc_conf": np.zeros((size, size), dtype=np.float32),
        "roi_score": roi_score,
    }


@pytest.mark.parametrize(
    "frames, score_exit, message",
    [
        ([_frame(16, roi_score=0.0)] * 2, 3, "no frame reached the ROI threshold 0.5"),
        ([_frame(16), _frame(17)], 2, "frame 1: raster size (17, 17) differs from (16, 16)"),
        (
            [{**_frame(16), "pc_conf": np.zeros((8, 8), dtype=np.float32)}],
            2,
            "frame 0: pc_conf is (8, 8), the organ planes are (16, 16)",
        ),
    ],
    ids=["no-roi-frame", "mixed-sizes", "pc-of-another-size"],
)
def test_score_and_evaluate_fail_a_video_alike(tmp_path, capsys, frames, score_exit, message):
    """score and evaluate run one chain: the video score rejects is the
    one evaluate lists as failed, with the same message."""
    gt = maskio.VideoGroundTruth((False,) * 6)
    bad = write_video(tmp_path, "bad", frames, ground_truth=gt)
    write_video(tmp_path, "good", [_frame(16)], ground_truth=gt)
    index = tmp_path / "index.json"
    save_cohort_index("c", [("bad", "bad/manifest.json"), ("good", "good/manifest.json")], index)

    assert main(["score", str(bad.base_dir / "manifest.json")]) == score_exit
    assert capsys.readouterr().err == f"error: {message}\n"
    out = tmp_path / "report.json"
    assert main(["evaluate", str(index), "--independent", "--out-json", str(out)]) == 0
    assert json.loads(out.read_text())["runs"][0]["failed"] == {"bad": message}


def _fuzz_video(root: Path) -> Path:
    """A two-frame 6x6 video with assigned and unassigned nodules and an
    id that needs escapes; returns its manifest path."""
    rng = np.random.default_rng(5)
    organ = np.where(rng.random((8, 6, 6)) < 0.3, 0.95, 0.0)
    organ[:, :, :2] = 0.0  # nodules in the first columns overlap no organ
    frames = [
        {"organ_conf": organ, "pc_conf": np.where(rng.random((6, 6)) < 0.4, 0.9, 0.1)}
        for _ in range(2)
    ]
    manifest = write_video(root, "v", frames).base_dir / "manifest.json"
    data = json.loads(manifest.read_text())
    data["video_id"] = 'v"\\\u00e9\u2603\x01'
    manifest.write_text(maskio.canonical_json(data))
    return manifest


def _byte_edits(files):
    """1-4 edits of the named files, each (file, offset, kind, value)."""
    return st.lists(
        st.tuples(
            st.sampled_from(files),
            st.integers(0, 2**20),  # taken modulo the file size
            st.sampled_from(["flip", "set"]),
            st.integers(0, 255),  # the bit to flip (modulo 8) or the byte to write
        ),
        min_size=1,
        max_size=4,
    )


def _edit_bytes(directory: Path, edits) -> None:
    for name, offset, kind, value in edits:
        path = directory / name
        data = bytearray(path.read_bytes())
        offset %= len(data)
        data[offset] = data[offset] ^ (1 << value % 8) if kind == "flip" else value
        path.write_bytes(bytes(data))


_FUZZ_FILES = (
    "manifest.json", "frames/f000.organ.msk", "frames/f000.pc.msk",
    "frames/f001.organ.msk", "frames/f001.pc.msk",
)


@settings(max_examples=120, deadline=None)
@given(edits=_byte_edits(_FUZZ_FILES))
def test_score_survives_byte_edits(edits):
    """Byte edits to a small video's manifest and rasters make score exit
    0, 2, 3 or 4, never raise; what it writes on 0 is canonical JSON,
    also when an edit reaches the video id."""
    with tempfile.TemporaryDirectory() as tmp:
        manifest = _fuzz_video(Path(tmp))
        _edit_bytes(manifest.parent, edits)
        out = Path(tmp) / "score.json"
        code = main(["score", str(manifest), "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code == 0:
            text = out.read_text(encoding="utf-8")
            assert text == maskio.canonical_json(json.loads(text))


@pytest.fixture(scope="module")
def edit_cohort(tmp_path_factory):
    """A 3-video 16x16 cohort and its unedited independent report."""
    root = tmp_path_factory.mktemp("edit-cohort")
    spec = SynthSpec(seed=3, n_videos=3, frame_size=(16, 16), frames_per_video=2)
    index = synth.generate_cohort(spec, root / "cohort")
    out = root / "report.json"
    assert main(["evaluate", str(index), "--independent", "--out-json", str(out)]) == 0
    return index.parent, json.loads(out.read_text())


_EDIT_COHORT_FILES = (
    "manifest.json",
    *(f"frames/f{f:04d}.{plane}.msk" for f in range(2) for plane in ("organ", "pc", "gtlab", "gtpc")),
)


@settings(max_examples=60, deadline=None)
@given(video=st.integers(0, 2), edits=_byte_edits(_EDIT_COHORT_FILES))
def test_evaluate_survives_byte_edits(edit_cohort, video, edits):
    """Byte edits to one video's manifest and rasters make evaluate exit
    0, 2, 3 or 4 alike at --jobs 1 and 2. On 0 the two reports are equal,
    every other video scores as in the unedited report, and only the
    edited video may be listed as failed."""
    source, clean = edit_cohort
    vid = f"v{video:04d}"
    with tempfile.TemporaryDirectory() as tmp:
        root = shutil.copytree(source, Path(tmp) / "cohort")
        _edit_bytes(root / "videos" / vid, edits)
        codes, reports = [], []
        for jobs in (1, 2):
            out = Path(tmp) / f"report-{jobs}.json"
            argv = ["evaluate", str(root / "index.json"), "--independent",
                    "--jobs", str(jobs), "--out-json", str(out)]
            codes.append(main(argv))
            reports.append(out.read_bytes() if out.exists() else None)
    assert codes[0] in (0, 2, 3, 4)
    assert codes[0] == codes[1]
    if codes[0] == 0:
        assert reports[0] == reports[1]
        run, clean_run = json.loads(reports[0])["runs"][0], clean["runs"][0]
        for other, entry in clean_run["videos"].items():
            if other != vid:
                assert run["videos"][other] == entry
        assert set(run["failed"]) <= {vid}


# --- split -------------------------------------------------------------------


def test_split_101_videos_k4(tmp_path, capsys):
    index = _uniform_manifest_cohort(tmp_path)
    out = tmp_path / "folds.json"
    code = main(["split", str(index), "--k", "4", "--seed", "9", "--out", str(out)])
    assert code == 0
    folds = json.loads(out.read_text())
    sizes = sorted(
        sum(1 for f in folds["assignment"].values() if f == fold) for fold in range(4)
    )
    assert sizes == [25, 25, 25, 26]
    first = out.read_bytes()
    code = main(["split", str(index), "--k", "4", "--seed", "9", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == first  # idempotent bytes


def test_split_k1_and_too_many(tmp_path, capsys):
    index = _mini_cohort(tmp_path, n_videos=3)
    code = main(["split", str(index), "--k", "1"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(data["assignment"].values()) == {0}
    assert main(["split", str(index), "--k", "5"]) == 2


# --- evaluate ----------------------------------------------------------------


def test_evaluate_oracle_predictor_perfect(tmp_path, capsys):
    index = _mini_cohort(tmp_path, n_videos=4)
    code = main(
        ["evaluate", str(index), "--independent", "--predictor", "oracle"]
    )
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["fs_rmse"]["mean"] == 0.0
    assert report["summary"]["its_average"]["f1"]["mean"] == 1.0


def test_evaluate_cross_validation_with_folds(tmp_path, capsys):
    index = _mini_cohort(tmp_path, n_videos=6)
    folds_path = tmp_path / "folds.json"
    assert main(["split", str(index), "--k", "2", "--out", str(folds_path)]) == 0
    out_json = tmp_path / "report.json"
    out_text = tmp_path / "report.txt"
    code = main(
        [
            "evaluate",
            str(index),
            "--folds",
            str(folds_path),
            "--out-json",
            str(out_json),
            "--out-text",
            str(out_text),
        ]
    )
    assert code == 0
    report = json.loads(out_json.read_text())
    assert report["mode"] == "cross_validation"
    assert len(report["runs"]) == 2
    assert report["summary"]["fs_rmse"]["mean"] == 0.0
    assert "AS Involvement Average" in out_text.read_text()


def test_evaluate_text_format_prints_the_table_whatever_files_are_written(tmp_path, capsys):
    """--format text prints the text table to stdout also when report
    files are written; the default format prints nothing then."""
    index = _mini_cohort(tmp_path, n_videos=4)
    out_json, out_text = tmp_path / "report.json", tmp_path / "report.txt"
    base = ["evaluate", str(index), "--independent"]
    assert main([*base, "--out-text", str(out_text)]) == 0
    assert capsys.readouterr().out == ""
    for files in (["--out-json", str(out_json)], ["--out-text", str(out_text)]):
        assert main([*base, *files, "--format", "text"]) == 0
        assert capsys.readouterr().out == out_text.read_text()


def test_evaluate_jobs_do_not_change_bytes(tmp_path, monkeypatch):
    """The report bytes do not depend on --jobs, and evaluate parses each
    manifest once: load_cohort's parse is the one its frames are scored
    from (counted in this process, where --jobs 1 scores)."""
    index = _mini_cohort(tmp_path, n_videos=5)
    parsed = []
    load_manifest = maskio.load_manifest
    monkeypatch.setattr(
        maskio, "load_manifest", lambda path: parsed.append(path) or load_manifest(path)
    )
    reports = []
    for jobs in ("1", "2", "8"):
        out = tmp_path / f"r{jobs}.json"
        parsed.clear()
        argv = ["evaluate", str(index), "--independent", "--jobs", jobs, "--out-json", str(out)]
        assert main(argv) == 0
        assert len(parsed) == len(set(parsed)) == 5
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_jobs_env_var_fallback(tmp_path, monkeypatch):
    index = _mini_cohort(tmp_path, n_videos=3)
    explicit = tmp_path / "explicit.json"
    via_env = tmp_path / "via_env.json"
    assert main(["evaluate", str(index), "--independent", "--jobs", "2", "--out-json", str(explicit)]) == 0
    monkeypatch.setenv("CARCINO_JOBS", "2")
    assert main(["evaluate", str(index), "--independent", "--out-json", str(via_env)]) == 0
    assert explicit.read_bytes() == via_env.read_bytes()
    monkeypatch.setenv("CARCINO_JOBS", "banana")
    assert main(["evaluate", str(index), "--independent"]) == 2


def test_jobs_default_to_the_cpus_this_process_may_run_on(monkeypatch):
    """Without --jobs or CARCINO_JOBS the worker count is the size of the
    affinity mask, else os.cpu_count(), else 1; CARCINO_JOBS=1 is serial."""
    monkeypatch.delenv("CARCINO_JOBS", raising=False)
    unset = argparse.Namespace(jobs=None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert cli._resolve_jobs(unset) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._resolve_jobs(unset) == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert cli._resolve_jobs(unset) == 7
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._resolve_jobs(unset) == 1
    monkeypatch.setenv("CARCINO_JOBS", "1")
    assert cli._resolve_jobs(unset) == 1
    assert cli._resolve_jobs(argparse.Namespace(jobs=2)) == 2


@pytest.mark.parametrize(
    "jobs, env, message",
    [
        ("0", None, "--jobs must be at least 1, got 0"),
        ("-3", None, "--jobs must be at least 1, got -3"),
        ("0", "4", "--jobs must be at least 1, got 0"),
        (None, "0", "CARCINO_JOBS must be at least 1, got 0"),
        (None, "-2", "CARCINO_JOBS must be at least 1, got -2"),
    ],
)
def test_jobs_below_one_exit_2_naming_their_source(
    tmp_path, capsys, monkeypatch, jobs, env, message
):
    """A worker count below 1 used to run as one worker; it now exits 2
    before evaluate or simulate reads or writes anything."""
    if env is None:
        monkeypatch.delenv("CARCINO_JOBS", raising=False)
    else:
        monkeypatch.setenv("CARCINO_JOBS", env)
    flag = [] if jobs is None else ["--jobs", jobs]
    spec_path = _sweep_spec(tmp_path)
    for argv in (
        ["evaluate", str(tmp_path / "missing.json"), "--independent", *flag],
        ["simulate", str(spec_path), "--out", str(tmp_path / "d"), *flag],
        ["simulate", str(spec_path), "--sweep", "miss_rate", "--levels", "0", *flag],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


def test_default_jobs_write_the_bytes_of_jobs_1(tmp_path, monkeypatch, capsys):
    """Without --jobs, simulate, evaluate and a sweep spread their videos
    over every CPU this process may run on (two workers on a 2-CPU
    machine) and write what --jobs 1 writes."""
    monkeypatch.delenv("CARCINO_JOBS", raising=False)
    spec_path = _sweep_spec(
        tmp_path, n_videos=5, noise={"confidence_jitter": 0.1, "false_blob_rate": 0.5}
    )
    spec = str(spec_path)
    sweep = ["--sweep", "miss_rate", "--levels", "0,0.5", "--replicates", "2"]
    index = str(tmp_path / "cohort-serial" / "index.json")  # a report names its cohort's directory
    outputs = {}
    for label, jobs in (("serial", ["--jobs", "1"]), ("default", [])):
        cohort = tmp_path / f"cohort-{label}"
        report, sweep_report = tmp_path / f"report-{label}.json", tmp_path / f"sweep-{label}.json"
        assert main(["simulate", spec, "--out", str(cohort), *jobs]) == 0
        assert main(["evaluate", index, "--independent", "--out-json", str(report), *jobs]) == 0
        assert main(["simulate", spec, *sweep, "--out-json", str(sweep_report), *jobs]) == 0
        tree = {str(p.relative_to(cohort)): p.read_bytes() for p in cohort.rglob("*") if p.is_file()}
        outputs[label] = (tree, report.read_bytes(), sweep_report.read_bytes())
    capsys.readouterr()
    assert len(outputs["serial"][0]) == 5 * (3 * 4 + 1) + 2
    assert outputs["default"] == outputs["serial"]


def test_evaluate_missing_ground_truth_exits_2(tmp_path, capsys):
    index = _mini_cohort(tmp_path, n_videos=2)
    cohort = load_cohort(index)
    target = cohort.videos[1].manifest_path
    data = json.loads(target.read_text())
    del data["ground_truth"]
    target.write_text(json.dumps(data))
    code = main(["evaluate", str(index), "--independent"])
    err = capsys.readouterr().err
    assert code == 2
    assert "v0001" in err


def test_evaluate_an_index_without_videos_exits_2(tmp_path, capsys):
    """An index of no videos makes an empty run, which is invalid input,
    not a run in which every video failed."""
    index = tmp_path / "index.json"
    save_cohort_index("empty", [], index)
    assert main(["evaluate", str(index), "--independent"]) == 2
    assert capsys.readouterr().err == "error: run 'model0' has no videos\n"


def test_missing_ground_truth_error_names_the_first_video_in_cohort_order(tmp_path):
    """With several videos lacking ground truth, the video named used to
    be the first of a set, so it changed with PYTHONHASHSEED."""
    index = _mini_cohort(tmp_path, n_videos=6)
    for video in load_cohort(index).videos[1::2]:  # v0001, v0003, v0005
        data = json.loads(video.manifest_path.read_text())
        del data["ground_truth"]
        video.manifest_path.write_text(json.dumps(data))
    src = str(Path(synth.__file__).resolve().parents[1])
    errors = set()
    for seed in range(6):
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "carcino.cli", "evaluate", str(index), "--independent"],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2
        errors.add(done.stderr)
    assert errors == {"error: video 'v0001' has no ground truth\n"}


def test_evaluate_rejects_missing_folds_file(tmp_path):
    index = _mini_cohort(tmp_path, n_videos=2)
    assert main(["evaluate", str(index), "--folds", str(tmp_path / "nope.json")]) == 4


def test_evaluate_rejects_out_of_range_fold_index(small_cohort_index, tmp_path, capsys):
    """A fold index of 9 with k=4 used to leave its video out of every
    run: 11 of 12 videos evaluated and exit 0."""
    folds_path = tmp_path / "folds.json"
    assert main(["split", str(small_cohort_index), "--k", "4", "--out", str(folds_path)]) == 0
    folds = json.loads(folds_path.read_text())
    folds["assignment"][sorted(folds["assignment"])[0]] = 9
    folds_path.write_text(json.dumps(folds))
    code = main(["evaluate", str(small_cohort_index), "--folds", str(folds_path)])
    assert code == 2
    assert "outside [0, 4)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "folds",
    [
        {"k": "x", "seed": 0, "assignment": {}},
        {"k": 2, "seed": 0, "assignment": []},
        {"k": 2, "seed": "0", "assignment": {}},
        {"k": 2, "seed": 0, "assignment": {"v0000": 1.5}},
        {"seed": 0, "assignment": {}},
        {"k": 2, "assignment": {}},
        {"k": 2, "seed": 0},
    ],
)
def test_evaluate_malformed_fold_file_exits_2(tmp_path, capsys, folds):
    """The first four used to escape main with ValueError or
    AttributeError; the others lack a field."""
    index = _mini_cohort(tmp_path, n_videos=2)
    folds_path = tmp_path / "folds.json"
    folds_path.write_text(json.dumps(folds))
    assert main(["evaluate", str(index), "--folds", str(folds_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fold file" in err


def test_evaluate_rejects_a_fold_without_videos(tmp_path, capsys):
    """Folds 2-4 of this file used to be evaluated as empty runs that
    printed "FAILED (all videos failed)" while evaluate exited 0."""
    index = _mini_cohort(tmp_path, n_videos=2)
    folds_path = tmp_path / "folds.json"
    folds_path.write_text(
        json.dumps({"k": 5, "seed": 0, "assignment": {"v0000": 0, "v0001": 1}})
    )
    assert main(["evaluate", str(index), "--folds", str(folds_path), "--format", "text"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: fold assignment leaves fold(s) [2, 3, 4] of 5 without a video\n"
    )


def test_evaluate_rejects_a_non_string_cohort_name(tmp_path, capsys):
    """The name {"a": [1]} used to be copied into both reports; a missing
    name still falls back to the name of the index's directory."""
    index = _mini_cohort(tmp_path, n_videos=2)
    data = json.loads(index.read_text())
    for name in ({"a": [1]}, 7, None):
        index.write_text(json.dumps({**data, "name": name}))
        assert main(["evaluate", str(index), "--independent", "--format", "text"]) == 2
        assert "'name' must be a string" in capsys.readouterr().err
    del data["name"]
    index.write_text(json.dumps(data))
    assert main(["evaluate", str(index), "--independent", "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("Cohort evaluation: cohort (2 videos")


@pytest.mark.parametrize("where, index_arg", [(".", "noname.json"), ("videos", "../noname.json")])
def test_unnamed_cohort_from_a_relative_index_path_takes_its_directory_name(
    tmp_path, capsys, monkeypatch, where, index_arg
):
    """A bare index file name used to give the cohort the name "" and a
    "../" path the name "..": the fallback reads the directory the index
    lies in."""
    index = _mini_cohort(tmp_path, n_videos=2)
    data = json.loads(index.read_text())
    del data["name"]
    (index.parent / "noname.json").write_text(json.dumps(data))
    monkeypatch.chdir(index.parent / where)
    assert main(["evaluate", index_arg, "--independent", "--out-json", "report.json"]) == 0
    assert json.loads(Path("report.json").read_text())["cohort"] == "cohort"
    assert main(["evaluate", index_arg, "--independent", "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("Cohort evaluation: cohort (2 videos")


@pytest.mark.parametrize(
    "config",
    [
        '{"pc_confidence_threshold": "x"}',
        '{"roi_threshold": Infinity}',
        '{"min_nodule_pixels": 1.5}',
        '{"its_cutoff": true}',
        '[0.5]',
    ],
)
def test_score_malformed_config_exits_2(tmp_path, capsys, config):
    """A string threshold used to raise TypeError; an infinite float field
    used to pass validation and crash in the JSON writer. A config that
    is not an object is rejected as such."""
    video = load_cohort(_mini_cohort(tmp_path, n_videos=1)).videos[0]
    config_path = tmp_path / "config.json"
    config_path.write_text(config)
    assert main(["score", str(video.manifest_path), "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("config", ['{"fs_step": 2}', '{"frame_sampling_interval": 5.0}'])
def test_config_naming_a_derived_constant_exits_2(tmp_path, capsys, config):
    """The score step is the points per station and the sampling interval
    is the generator's; a config naming either is an unknown field."""
    index = _mini_cohort(tmp_path, n_videos=2)
    config_path = tmp_path / "config.json"
    config_path.write_text(config)
    field = next(iter(json.loads(config)))
    for argv in (
        ["score", str(load_cohort(index).videos[0].manifest_path)],
        ["evaluate", str(index), "--independent"],
        ["simulate", str(_sweep_spec(tmp_path)), "--sweep", "miss_rate", "--levels", "0"],
    ):
        assert main([*argv, "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and field in captured.err


@pytest.mark.parametrize("field", ["organ_confidence_threshold", "pc_confidence_threshold"])
def test_config_threshold_zero_at_float32_exits_2(tmp_path, capsys, field):
    """A confidence threshold of 1e-320 lies in (0, 1] but is 0.0 at the
    float32 precision pixels are compared at, so pixels of confidence 0
    would enter the masks; every command reading a config rejects it."""
    index = _mini_cohort(tmp_path, n_videos=2)
    config_path = tmp_path / "config.json"
    config_path.write_text(f'{{"{field}": 1e-320}}')
    for argv in (
        ["score", str(load_cohort(index).videos[0].manifest_path)],
        ["evaluate", str(index), "--independent"],
        ["simulate", str(_sweep_spec(tmp_path)), "--sweep", "miss_rate", "--levels", "0"],
    ):
        assert main([*argv, "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and field in captured.err and "error:" in captured.err


@pytest.mark.parametrize(
    "points", [2**53 // 6 + 1, 10**155, 10**308], ids=["2**53//6+1", "1e155", "1e308"]
)
def test_config_points_per_station_beyond_exact_floats_exits_2(tmp_path, capsys, points):
    """Above 2**53 // 6 a score of six stations is no longer an exact
    float; 10**155 overflowed squaring a score error in fs_rmse, and
    10**308 converting the score to a float, each a traceback from
    evaluate and simulate --sweep. Every command reading a config now
    rejects such a value, naming the field."""
    index = _mini_cohort(tmp_path, n_videos=6, noise=NoiseSpec(miss_rate=0.7, false_blob_rate=1.0))
    config_path = tmp_path / "config.json"
    config_path.write_text(f'{{"points_per_positive_station": {points}}}')
    for argv in (
        ["score", str(load_cohort(index).videos[0].manifest_path)],
        ["evaluate", str(index), "--independent"],
        ["simulate", str(_sweep_spec(tmp_path)), "--sweep", "miss_rate", "--levels", "0"],
    ):
        assert main([*argv, "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: points_per_positive_station must be at most {2**53 // 6}\n"


def test_points_per_station_at_the_bound_evaluates_exactly(tmp_path):
    """At the largest accepted value every score is still exact: the
    normalized RMSE, which divides the score step out, is the one the
    default 2 points give."""
    index = _mini_cohort(tmp_path, n_videos=6, noise=NoiseSpec(miss_rate=0.7, false_blob_rate=1.0))
    config_path, out_json = tmp_path / "config.json", tmp_path / "report.json"
    normalized = []
    for points in (2, 2**53 // 6):
        config_path.write_text(f'{{"points_per_positive_station": {points}}}')
        argv = ["evaluate", str(index), "--independent", "--config", str(config_path)]
        assert main([*argv, "--out-json", str(out_json)]) == 0
        (run,) = json.loads(out_json.read_text())["runs"]
        normalized.append(run["fs_rmse_normalized"])
    assert normalized[0] > 0
    assert math.isclose(normalized[0], normalized[1], rel_tol=1e-15)


def test_evaluate_normalizes_rmse_by_points_per_station(tmp_path):
    """The normalized RMSE used to divide by a separate fs_step, which
    stayed 2 when a config made each station score 3 points."""
    index = _mini_cohort(tmp_path, n_videos=8, noise=NoiseSpec(miss_rate=0.5))
    folds_path, config, out_json = (tmp_path / name for name in ("f.json", "c.json", "r.json"))
    assert main(["split", str(index), "--k", "2", "--out", str(folds_path)]) == 0
    config.write_text('{"points_per_positive_station": 3}')
    argv = ["evaluate", str(index), "--folds", str(folds_path), "--config", str(config)]
    assert main([*argv, "--out-json", str(out_json)]) == 0
    report = json.loads(out_json.read_text())
    assert report["constants"]["fs_step"] == 3
    assert len(report["runs"]) == 2
    assert any(run["fs_rmse"] > 0 for run in report["runs"])
    for run in report["runs"]:
        assert run["fs_rmse_normalized"] == run["fs_rmse"] / 3


def _leaves(value, path=()):
    """(path, leaf) pairs of a JSON value, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, (*path, i))
    else:
        yield path, value


@pytest.fixture(scope="module")
def shuffle_cohort(tmp_path_factory):
    """A noisy 12-video 32x32 cohort, its 3-fold file and its report at
    each Dice average, in the generated index order."""
    root = tmp_path_factory.mktemp("shuffle-cohort")
    noise = NoiseSpec(confidence_jitter=0.1, boundary_morph=1, false_blob_rate=0.5, miss_rate=0.2)
    spec = SynthSpec(seed=0, n_videos=12, frame_size=(32, 32), frames_per_video=3, noise=noise)
    index = synth.generate_cohort(spec, root / "cohort")
    folds = root / "folds.json"
    assert main(["split", str(index), "--k", "3", "--out", str(folds)]) == 0
    reports = {}
    for average in ("frame", "video"):
        out = root / f"report-{average}.json"
        argv = ["evaluate", str(index), "--folds", str(folds), "--dice-average", average]
        assert main([*argv, "--out-json", str(out)]) == 0
        reports[average] = json.loads(out.read_text())
    return index, folds, reports


@pytest.mark.parametrize("average", ["frame", "video"])
@settings(max_examples=5, deadline=None)
@given(order=st.permutations(range(12)))
def test_reordering_the_cohort_index_leaves_the_report_unchanged(shuffle_cohort, average, order):
    """The videos of the index in any order, with the same fold file,
    give the same report: every leaf equal, but the Dice leaves, which
    are means summed in index order and may differ in the last bits.
    With a correctly rounded sum (math.fsum) in metrics these leaves
    would be exact too, and the tolerance could go; abs_tol covers a
    Dice std of exactly 0 on one side."""
    index, folds, reports = shuffle_cohort
    data = json.loads(index.read_text())
    shuffled = index.with_name("shuffled.json")  # beside index.json, for its relative paths
    shuffled.write_text(json.dumps({**data, "videos": [data["videos"][i] for i in order]}))
    out = index.with_name("shuffled-report.json")
    argv = ["evaluate", str(shuffled), "--folds", str(folds), "--dice-average", average]
    assert main([*argv, "--out-json", str(out)]) == 0
    got = dict(_leaves(json.loads(out.read_text())))
    want = dict(_leaves(reports[average]))
    assert list(got) == list(want)
    for path, value in want.items():
        if "dice" in path and value is not None and got[path] is not None:
            assert math.isclose(got[path], value, rel_tol=1e-12, abs_tol=1e-12), path
        else:
            assert got[path] == value, path


@pytest.mark.parametrize(
    "value", ["NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="int-1e400")]
)
def test_score_non_finite_manifest_number_exits_2(tmp_path, capsys, value):
    """Python's json reads NaN and Infinity; a manifest carrying one used
    to be scored and then crash in the JSON writer."""
    video = load_cohort(_mini_cohort(tmp_path, n_videos=1)).videos[0]
    text = video.manifest_path.read_text()
    video.manifest_path.write_text(text.replace('"time_s": 0.0', f'"time_s": {value}', 1))
    assert main(["score", str(video.manifest_path)]) == 2
    assert "time_s" in capsys.readouterr().err



def _assert_exits_2(argv, capsys, message):
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["organ_conf", "pc_conf", "gt_labels", "gt_pc"])
def test_nul_in_a_raster_path_exits_2(tmp_path, capsys, field):
    """A raster path holding NUL used to crash score and evaluate with
    ValueError: embedded null byte (exit 1)."""
    index = _mini_cohort(tmp_path, n_videos=2)
    manifest = load_cohort(index).videos[1].manifest_path
    data = json.loads(manifest.read_text())
    data["frames"][0][field] = "frames/f0000\u0000.msk"
    manifest.write_text(json.dumps(data))
    message = f"frame 0: {field!r} must not contain a NUL character"
    _assert_exits_2(["score", str(manifest)], capsys, message)
    _assert_exits_2(["evaluate", str(index), "--independent"], capsys, message)


def test_nul_in_a_cohort_index_manifest_path_exits_2(tmp_path, capsys):
    """It used to exit 2 as 'invalid JSON (embedded null byte)', naming
    the manifest path rather than the index entry."""
    index = _mini_cohort(tmp_path, n_videos=2)
    data = json.loads(index.read_text())
    data["videos"][1]["manifest"] = "videos/v0001\u0000/manifest.json"
    index.write_text(json.dumps(data))
    message = f"{index}: videos[1] 'manifest' must not contain a NUL character"
    _assert_exits_2(["evaluate", str(index), "--independent"], capsys, message)
    _assert_exits_2(["split", str(index), "--k", "2"], capsys, message)


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))  # ASCII: a lone surrogate is written as its escape


@pytest.mark.parametrize(
    "field", ["organ_conf", "pc_conf", "gt_labels", "gt_pc", "manifest", "name", "video_id"]
)
def test_lone_surrogate_exits_2(tmp_path, capsys, field):
    """A JSON escape such as "\\ud800" parses into a lone surrogate, which
    no file name and no UTF-8 writer can encode. In a raster path it used to
    make score and evaluate exit 1 with a UnicodeEncodeError; in an index
    'manifest' entry, exit 2 as "invalid JSON"; in an index name or a
    video id, make the text outputs exit 1. Each is now rejected on load,
    naming the field."""
    index = _mini_cohort(tmp_path, n_videos=2)
    manifest = load_cohort(index).videos[1].manifest_path
    out_text = tmp_path / "report.txt"
    evaluate = [
        ["evaluate", str(index), "--independent", "--jobs", jobs, *extra]
        for jobs in ("1", "2")
        for extra in ([], ["--format", "text"], ["--out-text", str(out_text)])
    ]
    if field == "manifest":
        _edit_json(index, lambda d: d["videos"][1].update(manifest="v0001\ud800/manifest.json"))
        message = f"{index}: videos[1] 'manifest' must not contain '\\ud800'"
        argvs = [*evaluate, ["split", str(index), "--k", "2"]]
    elif field == "name":
        _edit_json(index, lambda d: d.update(name="cohort\ud800"))
        message = f"{index}: 'name' must not contain '\\ud800'"
        argvs = [*evaluate, ["split", str(index), "--k", "2"]]
    elif field == "video_id":
        _edit_json(manifest, lambda d: d.update(video_id="v0001\ud800"))
        message = "manifest: 'video_id' must not contain '\\ud800'"
        argvs = [*evaluate, ["score", str(manifest), "--format", "text"]]
    else:
        _edit_json(manifest, lambda d: d["frames"][0].update({field: "frames/f0000\ud800.msk"}))
        message = f"frame 0: {field!r} must not contain '\\ud800'"
        argvs = [*evaluate, ["score", str(manifest)], ["score", str(manifest), "--format", "text"]]
    for argv in argvs:
        _assert_exits_2(argv, capsys, message)
    assert not out_text.exists()


def test_surrogate_escaped_byte_paths_read_as_bytes(tmp_path, capsys):
    """U+DC80-U+DCFF in a path stand for the file-name bytes 0x80-0xFF (the
    surrogateescape form Python gives such names), so they are not
    rejected: the file they name is read, and a missing one is an I/O error.
    An unnamed cohort takes such a name from its directory; its text report
    spells the byte as an escape (it used to exit 1 with a
    UnicodeEncodeError, and report --format text to exit 2)."""
    index = _mini_cohort(tmp_path, n_videos=2)
    unnamed = tmp_path / os.fsdecode(b"c\xff")
    shutil.copytree(index.parent, unnamed)
    _edit_json(unnamed / "index.json", lambda d: d.pop("name", None))
    report, text = tmp_path / "report.json", tmp_path / "report.txt"
    argv = ["evaluate", str(unnamed / "index.json"), "--independent"]
    assert main([*argv, "--out-json", str(report), "--out-text", str(text)]) == 0
    assert json.loads(report.read_text(encoding="utf-8"))["cohort"] == unnamed.name
    assert text.read_text(encoding="utf-8").startswith("Cohort evaluation: c\\xff (2 videos")
    assert main(["report", str(report), "--format", "text"]) == 0
    assert capsys.readouterr().out == text.read_text(encoding="utf-8")
    manifest = load_cohort(index).videos[1].manifest_path
    assert main(["score", str(manifest)]) == 0
    expected = capsys.readouterr().out
    frames = manifest.parent / "frames"
    odd_name = os.fsdecode(b"f0000\xff.organ.msk")
    (frames / "f0000.organ.msk").rename(frames / odd_name)
    _edit_json(manifest, lambda d: d["frames"][0].update(organ_conf=f"frames/{odd_name}"))
    assert main(["score", str(manifest)]) == 0
    assert capsys.readouterr().out == expected
    (frames / odd_name).unlink()
    assert main(["score", str(manifest)]) == 4
    assert capsys.readouterr().err.startswith("error:")
    _edit_json(index, lambda d: d["videos"][1].update(manifest="videos/v0001\udcff/manifest.json"))
    assert main(["evaluate", str(index), "--independent"]) == 4
    assert capsys.readouterr().err.startswith("error:")


def _json_inputs(tmp_path) -> dict[str, tuple[Path, list[str]]]:
    """Each JSON file the CLI reads, with a command line that reads it."""
    index = _mini_cohort(tmp_path, n_videos=2)
    manifest = load_cohort(index).videos[0].manifest_path
    folds, config, spec, report = (
        tmp_path / name for name in ("folds.json", "config.json", "spec.json", "report.json")
    )
    assert main(["split", str(index), "--k", "2", "--out", str(folds)]) == 0
    assert main(["evaluate", str(index), "--independent", "--out-json", str(report)]) == 0
    config.write_text("{}")
    spec.write_text(json.dumps({"seed": 1}))
    return {
        "manifest": (manifest, ["score", str(manifest)]),
        "index": (index, ["split", str(index), "--k", "2"]),
        "folds": (folds, ["evaluate", str(index), "--folds", str(folds)]),
        "config": (config, ["score", str(manifest), "--config", str(config)]),
        "spec": (spec, ["simulate", str(spec), "--out", str(tmp_path / "out")]),
        "report": (report, ["report", str(report)]),
    }


@pytest.mark.parametrize("name", ["manifest", "index", "folds", "config", "spec", "report"])
@pytest.mark.parametrize(
    "corrupt",
    [lambda text: text + b"\xff", lambda text: b"[" * 100_000 + b"]" * 100_000],
    ids=["non-utf8", "deep"],
)
def test_undecodable_or_deeply_nested_json_exits_2(tmp_path, capsys, name, corrupt):
    """Each used to escape main with UnicodeDecodeError or RecursionError
    (exit 1), except the report's non-UTF-8 case."""
    path, argv = _json_inputs(tmp_path)[name]
    path.write_bytes(corrupt(path.read_bytes()))
    capsys.readouterr()
    assert main(argv) == 2
    assert f"{path}: invalid JSON" in capsys.readouterr().err


# --- simulate ----------------------------------------------------------------


def test_simulate_generates_cohort(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "seed": 31,
                "n_videos": 2,
                "frame_size": [32, 32],
                "frames_per_video": 2,
            }
        )
    )
    out_dir = tmp_path / "generated"
    code = main(["simulate", str(spec_path), "--out", str(out_dir)])
    printed = capsys.readouterr().out.strip()
    assert code == 0
    assert Path(printed) == out_dir / "index.json"
    cohort = load_cohort(out_dir / "index.json")
    assert len(cohort.videos) == 2


def test_simulate_jobs_write_the_same_tree(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"seed": 32, "n_videos": 3, "frame_size": [32, 32], "frames_per_video": 2,
                    "nonroi_frames_per_video": 1, "noise": {"confidence_jitter": 0.1}})
    )
    trees = {}
    for jobs in (1, 2):
        out_dir = tmp_path / f"cohort{jobs}"
        assert main(["simulate", str(spec_path), "--out", str(out_dir), "--jobs", str(jobs)]) == 0
        trees[jobs] = {
            str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*"))
            if p.is_file()
        }
    capsys.readouterr()
    assert len(trees[1]) == 3 * (3 * 4 + 1) + 2  # rasters and manifest per video, index, spec
    assert trees[1] == trees[2]


def test_simulate_seed_override(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"seed": 1, "n_videos": 1, "frames_per_video": 1}))
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["simulate", str(spec_path), "--out", str(a)]) == 0
    assert main(["simulate", str(spec_path), "--out", str(b), "--seed", "2"]) == 0
    capsys.readouterr()
    raster = "videos/v0000/frames/f0000.organ.msk"
    assert (a / raster).read_bytes() != (b / raster).read_bytes()


def test_simulate_sweep_level_replicate_counts(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {"seed": 41, "n_videos": 2, "frame_size": [32, 32], "frames_per_video": 1}
        )
    )
    out_json = tmp_path / "sweep.json"
    code = main(
        [
            "simulate",
            str(spec_path),
            "--sweep",
            "miss_rate",
            "--levels",
            "0,0.5,1",
            "--replicates",
            "2",
            "--out",
            str(tmp_path / "work"),
            "--out-json",
            str(out_json),
        ]
    )
    assert code == 0
    report = json.loads(out_json.read_text())
    assert len(report["levels"]) == 3
    assert all(len(e["values"]["fs_rmse"]) == 2 for e in report["levels"])


def _sweep_spec(tmp_path, **fields) -> Path:
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"seed": 43, "n_videos": 3, "frame_size": [32, 32], "frames_per_video": 2,
                    "nonroi_frames_per_video": 1, **fields})
    )
    return spec_path


def test_simulate_sweep_bytes_identical_across_jobs_and_writes_nothing(tmp_path):
    spec_path = _sweep_spec(
        tmp_path, noise={"confidence_jitter": 0.2, "boundary_morph": 1, "false_blob_rate": 1.0}
    )
    reports = {}
    for jobs in (1, 2, 3):
        out_dir, out_json = tmp_path / f"work{jobs}", tmp_path / f"sweep{jobs}.json"
        code = main(
            ["simulate", str(spec_path), "--sweep", "miss_rate", "--levels", "0,0.5",
             "--replicates", "2", "--jobs", str(jobs), "--out", str(out_dir),
             "--out-json", str(out_json)]
        )
        assert code == 0
        assert not out_dir.exists()
        reports[jobs] = out_json.read_bytes()
    assert reports[1] == reports[2] == reports[3]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "spec.json", "sweep1.json", "sweep2.json", "sweep3.json"
    ]


def test_simulate_sweep_prints_the_out_json_bytes(tmp_path, capsys):
    """Without --out-json a sweep prints its report to stdout, the bytes
    it writes to --out-json."""
    argv = ["simulate", str(_sweep_spec(tmp_path)), "--sweep", "miss_rate", "--levels", "0,0.5"]
    out_json = tmp_path / "sweep.json"
    assert main([*argv, "--out-json", str(out_json)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out_json.read_bytes()


@pytest.mark.parametrize(
    "argv, message",
    [(["--sweep", "miss_rate"], "--sweep requires --levels"),
     ([], "simulate needs --out DIR to write the cohort")],
    ids=["sweep-without-levels", "no-out"],
)
def test_simulate_usage_error_exits_2(tmp_path, capsys, argv, message):
    spec_path = _sweep_spec(tmp_path)
    assert main(["simulate", str(spec_path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


def test_simulate_without_sweep_rejects_the_sweep_flags(tmp_path, capsys):
    """Without --sweep, simulate used to accept the sweep's flags, --config
    and --format and ignore them: it wrote the cohort and exited 0, but
    neither the report nor the table, and never opened the missing config."""
    spec_path = _sweep_spec(tmp_path)
    flags = [
        "--levels", "1,2",
        "--replicates", "3",
        "--out-json", str(tmp_path / "x.json"),
        "--out-csv", str(tmp_path / "y.csv"),
        "--config", str(tmp_path / "nope.json"),
        "--format", "text",
        "--format", "json",
    ]
    argv = ["simulate", str(spec_path), "--out", str(tmp_path / "d")]
    assert main([*argv, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: only a --sweep reads --levels, --replicates, --out-json, --out-csv, --config, "
        "--format\n"
    )
    for flag, value in zip(flags[::2], flags[1::2]):
        assert main([*argv, flag, value]) == 2
        assert capsys.readouterr().err == f"error: only a --sweep reads {flag}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


def test_simulate_sweep_fractional_int_level_exits_2(tmp_path, capsys):
    spec_path = _sweep_spec(tmp_path)
    code = main(["simulate", str(spec_path), "--sweep", "boundary_morph", "--levels", "0,1.7"])
    assert code == 2
    assert "whole-number" in capsys.readouterr().err


def test_simulate_sweep_boundary_morph_beyond_frame_exits_2(tmp_path, capsys):
    """A level of 1e20 used to reach the generator and crash there with
    ValueError."""
    spec_path = _sweep_spec(tmp_path)
    code = main(["simulate", str(spec_path), "--sweep", "boundary_morph", "--levels", "1,1e20"])
    assert code == 2
    assert "boundary_morph must be at most the frame size" in capsys.readouterr().err


def test_simulate_sweep_false_blob_rate_beyond_frame_area_exits_2(tmp_path, capsys):
    """A level of 1e300 used to reach rng.poisson and crash there with
    ValueError."""
    spec_path = _sweep_spec(tmp_path)
    code = main(["simulate", str(spec_path), "--sweep", "false_blob_rate", "--levels", "0,1e300"])
    assert code == 2
    assert "false_blob_rate must be at most the frame area" in capsys.readouterr().err


def test_simulate_sweep_with_no_scorable_video_exits_2(tmp_path, capsys):
    """No zero-jitter frame reaches an ROI threshold of 1.0 (ROI frames
    score 0.95), so every video of the replicate fails."""
    spec_path = _sweep_spec(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"roi_threshold": 1.0}))
    code = main(
        ["simulate", str(spec_path), "--sweep", "miss_rate", "--levels", "0",
         "--config", str(config)]
    )
    assert code == 2
    assert "every run failed" in capsys.readouterr().err


def test_simulate_bad_levels_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"seed": 1, "n_videos": 2, "frames_per_video": 1}))
    code = main(
        ["simulate", str(spec_path), "--sweep", "miss_rate", "--levels", "0,zero",
         "--out", str(tmp_path / "w")]
    )
    assert code == 2


def test_simulate_invalid_spec_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"seed": 1, "noise": {"confidence_jitter": -1.0}})
    )
    assert main(["simulate", str(spec_path), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "spec",
    [
        {"seed": 1, "frame_size": [32]},
        {"seed": "a"},
        {"seed": 1, "n_videos": 2.5},
        {"seed": True},
        {"seed": 1, "frames_per_video": "2"},
        {"seed": 1, "nodules_per_positive_station": [1.5, 2]},
        {"seed": 1, "station_prevalence": 0.5},
        {"seed": 1, "noise": 3},
        {"seed": 1, "noise": {"false_blob_rate": float("inf")}},
        {"seed": 1, "noise": {"boundary_morph": 1.5}},
        {"seed": 1, "noise": {"boundary_morph": 10**20}},
        {"seed": 1, "noise": {"false_blob_rate": 1e300}},
        {"seed": 1, "noise": {"boundary_morph": -1}},
        {"seed": 1, "noise": {"false_blob_rate": -0.5}},
        {"seed": 1, "n_videos": 0},
        {"seed": 1, "frames_per_video": 0},
        {"seed": 1, "nonroi_frames_per_video": -1},
        {"n_videos": 2},
        [{"seed": 1}],
    ],
)
def test_simulate_malformed_spec_field_exits_2_before_writing(tmp_path, capsys, spec):
    """The first twelve used to exit 1 with a traceback, some only after
    creating --out; the others are out of range, lack the seed or are not
    an object."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp_path / "x"
    assert main(["simulate", str(spec_path), "--out", str(out_dir)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out_dir.exists()


# --- report ------------------------------------------------------------------


def test_report_renders_saved_evaluation(tmp_path, capsys):
    index = _mini_cohort(tmp_path, n_videos=3)
    out_json = tmp_path / "report.json"
    assert main(["evaluate", str(index), "--independent", "--out-json", str(out_json)]) == 0
    code = main(["report", str(out_json), "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "AS Involvement" in out
    assert "ItS Average" in out


def test_report_renders_saved_sweep(tmp_path, capsys):
    """report --format text of a saved sweep prints the text simulate
    printed when it ran the sweep."""
    spec_path = _sweep_spec(tmp_path)
    out_json = tmp_path / "sweep.json"
    capsys.readouterr()
    assert main(["simulate", str(spec_path), "--sweep", "miss_rate", "--levels", "0,0.5",
                 "--replicates", "2", "--out-json", str(out_json), "--format", "text"]) == 0
    printed = capsys.readouterr().out
    assert main(["report", str(out_json), "--format", "text"]) == 0
    assert capsys.readouterr().out == printed
    assert printed.startswith("Noise sweep over miss_rate")


@pytest.mark.parametrize("kind", ["evaluation", "sweep"])
def test_report_format_json_prints_the_saved_bytes(tmp_path, capsys, kind):
    """report --format json of a saved report, and report without
    --format, print the file's bytes."""
    if kind == "evaluation":
        argv = ["evaluate", str(_mini_cohort(tmp_path, n_videos=2)), "--independent"]
    else:
        argv = ["simulate", str(_sweep_spec(tmp_path)), "--sweep", "miss_rate", "--levels", "0"]
    out_json = tmp_path / "report.json"
    assert main([*argv, "--out-json", str(out_json)]) == 0
    capsys.readouterr()
    for fmt in (["--format", "json"], []):
        assert main(["report", str(out_json), *fmt]) == 0
        assert capsys.readouterr().out.encode("utf-8") == out_json.read_bytes()


def test_report_rejects_unknown_kind(tmp_path):
    path = tmp_path / "weird.json"
    path.write_text(json.dumps({"kind": "mystery"}))
    assert main(["report", str(path), "--format", "text"]) == 2


def _evaluation_text(**changes) -> str:
    """A renderable cohort_evaluation report with no run, changed as given."""
    report = {"kind": "cohort_evaluation", "cohort": "c", "n_videos": 1, "mode": "custom",
              "predictor": "pipeline", "runs": [], "summary": _summarize_report([])}
    return json.dumps({**report, **changes})


def test_report_renders_a_run_free_evaluation(tmp_path, capsys):
    """The base of the malformed cases below renders."""
    path = tmp_path / "report.json"
    path.write_text(_evaluation_text())
    assert main(["report", str(path), "--format", "text"]) == 0
    assert "Videos failing to score: 0" in capsys.readouterr().out


_SWEEP_LEVEL = {"level": 0, "summary": dict.fromkeys(
    ("fs_rmse_normalized", "station_f1_average", "its_f1_average"), {"mean": 0.5, "std": 0.0}
)}


def _sweep_text(without=(), **changes) -> str:
    """A renderable monte_carlo_sweep report of one level, changed as
    given and without the keys named."""
    report = {"kind": "monte_carlo_sweep", "param": "miss_rate", "replicates": 1,
              "levels": [_SWEEP_LEVEL], **changes}
    return json.dumps({key: value for key, value in report.items() if key not in without})


def test_report_renders_a_one_level_sweep(tmp_path, capsys):
    """The base of the malformed sweep cases below renders."""
    path = tmp_path / "sweep.json"
    path.write_text(_sweep_text())
    assert main(["report", str(path), "--format", "text"]) == 0
    assert "0.5000 ± 0.0000" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, fmt",
    [
        ('{"kind": "cohort_evaluation", "fs_rmse": NaN}', "json"),
        ('{"kind": "cohort_evaluation", "fs_rmse": 1e400}', "json"),
        ("[1, 2]", "text"),
        ('{"kind": "cohort_evaluation", "cohort": "c", "n_videos": 1, "mode": "custom", '
         '"predictor": "pipeline", "runs": []}', "text"),
        (_evaluation_text(summary={}), "text"),
        (_evaluation_text(runs=[{}]), "text"),
        (_evaluation_text(summary={**_summarize_report([]), "stations": [1, 2]}), "text"),
        (_evaluation_text(cohort="c\ud800"), "text"),
        (_sweep_text(without=("param",)), "text"),
        (_sweep_text(levels=[{"level": 0}]), "text"),
        (_sweep_text(levels=[{**_SWEEP_LEVEL, "summary": {
            **_SWEEP_LEVEL["summary"], "its_f1_average": {"mean": "high", "std": 0.0}}}]), "text"),
        (_sweep_text(param="miss_rate\ud800"), "text"),
    ],
    ids=[
        "nan", "overflow", "list", "no-summary", "empty-summary", "empty-run", "stations-list",
        "lone-surrogate", "sweep-no-param", "sweep-level-without-summary",
        "sweep-non-numeric-mean", "sweep-lone-surrogate",
    ],
)
def test_report_malformed_file_exits_2(tmp_path, capsys, text, fmt):
    """Each of these used to escape main with a traceback."""
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["report", str(path), "--format", fmt]) == 2
    assert "error:" in capsys.readouterr().err


# --- pinned bytes --------------------------------------------------------------

# SHA-256 of the files test_report_and_sweep_bytes_are_pinned writes. They
# pin the run summaries and the renderers of evaluate and the sweep over
# several runs, several replicates, undefined values and a failed video; a
# refactor of that code must leave them unchanged.
PINNED_DIGESTS = {
    "sweep.json": "1ba1e3d5e4462cf3187bd80cd768c63c72c815740b18c9a04af38bb604ae2d1f",
    "sweep.csv": "3b9d180755d479c3b4716494b57ffd4a37b6d946b8a4e8a8fc46d3d70605b669",
    "sweep.txt": "2d90938ac922d567edcc5b26d40c25de9bc6013af5f19da4c1a3a8404fd2519a",
    "report.json": "14a3fc9f98cbbb151e982775e08c8cffa63076c2e613fffe62dd2321113e17c5",
    "report.txt": "93facd13e0db2cba0c141e343741c61e5e6740d0d6a34920742c642898314315",
}


def test_report_and_sweep_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    """A 2-level x 3-replicate miss_rate sweep (JSON, CSV, text) and a
    3-fold evaluation with Dice, ROI, per-video Dice averaging and one
    video failed by a truncated raster (JSON, text). Paths are relative
    to tmp_path, so the failure message holds no temporary directory."""
    monkeypatch.chdir(tmp_path)
    noise = {"confidence_jitter": 0.2, "boundary_morph": 1, "false_blob_rate": 1.0}
    spec_path = _sweep_spec(tmp_path, noise=noise)
    capsys.readouterr()
    assert main(["simulate", str(spec_path), "--sweep", "miss_rate", "--levels", "0,0.5",
                 "--replicates", "3", "--out-json", "sweep.json", "--out-csv", "sweep.csv",
                 "--format", "text"]) == 0
    Path("sweep.txt").write_text(capsys.readouterr().out, encoding="utf-8")

    synth.generate_cohort(
        SynthSpec(seed=21, n_videos=6, frame_size=(32, 32), frames_per_video=2,
                  nonroi_frames_per_video=1,
                  noise=synth.NoiseSpec(**noise, miss_rate=0.3)),
        "cohort",
    )
    raster = Path("cohort/videos/v0001/frames/f0000.organ.msk")
    raster.write_bytes(raster.read_bytes()[:-3])
    assert main(["split", "cohort/index.json", "--k", "3", "--out", "folds.json"]) == 0
    assert main(["evaluate", "cohort/index.json", "--folds", "folds.json",
                 "--dice-average", "video", "--out-json", "report.json",
                 "--out-text", "report.txt"]) == 0
    artifacts = {name: Path(name).read_bytes() for name in PINNED_DIGESTS}
    report = json.loads(artifacts["report.json"])
    assert [run["failed"] for run in report["runs"] if run["failed"]] == [
        {"v0001": "payload is 32765 bytes, expected 32768 in "
         "cohort/videos/v0001/frames/f0000.organ.msk"}
    ]
    assert report["summary"]["dice"] is not None
    assert report["summary"]["roi_balanced_accuracy"] is not None
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()}
    assert digests == PINNED_DIGESTS


# SHA-256 of the files test_failed_run_bytes_are_pinned writes: an evaluation
# in which every video of one fold fails while the other folds score.
PINNED_FAILED_RUN_DIGESTS = {
    "report.json": "7f3fbf4274aba22a439fbba21958e16a51a89d3a0cb07d2f76542af84add9539",
    "report.txt": "f5811eb44c82ad1120c153589ae74439c24bfc5198cdc545609e6c95de913bcc",
}


def test_failed_run_bytes_are_pinned(tmp_path, monkeypatch):
    """A 3-fold evaluation of 6 videos with Dice and ROI, whose fold 1
    loses every video to a truncated raster (JSON, text): that run keeps
    its counts and failures, with null metrics, and the summary is taken
    over the other two."""
    monkeypatch.chdir(tmp_path)
    synth.generate_cohort(
        SynthSpec(seed=5, n_videos=6, frame_size=(32, 32), frames_per_video=2,
                  nonroi_frames_per_video=1, noise=NoiseSpec(confidence_jitter=0.1)),
        "cohort",
    )
    assert main(["split", "cohort/index.json", "--k", "3", "--out", "folds.json"]) == 0
    assignment = json.loads(Path("folds.json").read_text(encoding="utf-8"))["assignment"]
    failing = sorted(vid for vid, fold in assignment.items() if fold == 1)
    for vid in failing:
        raster = Path(f"cohort/videos/{vid}/frames/f0001.pc.msk")
        raster.write_bytes(raster.read_bytes()[:-5])
    assert main(["evaluate", "cohort/index.json", "--folds", "folds.json",
                 "--out-json", "report.json", "--out-text", "report.txt"]) == 0
    artifacts = {name: Path(name).read_bytes() for name in PINNED_FAILED_RUN_DIGESTS}
    report = json.loads(artifacts["report.json"])
    failed_run = report["runs"][1]
    assert failed_run["error"] == "all videos failed"
    assert sorted(failed_run["failed"]) == failing and failed_run["n_failed"] == len(failing)
    assert failed_run["stations"] is None and failed_run["videos"] is None
    assert [run["error"] for run in report["runs"]] == [None, "all videos failed", None]
    assert report["summary"]["failed_videos_total"] == len(failing)
    assert "  fold1: FAILED (all videos failed)\n" in artifacts["report.txt"].decode()
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()}
    assert digests == PINNED_FAILED_RUN_DIGESTS


# SHA-256 of the JSON and the text that score writes for the video of
# _pinned_score_video, at default constants and at {"min_nodule_pixels": 3}.
# They pin the per-nodule id, size and organ of every frame, which neither
# the evaluate report nor the benchmark's score check carries.
PINNED_SCORE_DIGESTS = {
    None: {
        "json": "5efb95b1542eec727a68790060b282887a114fd99e8f1f2b77012529d17248b5",
        "text": "478ee55ca076a9e11abf0a16d18f3e76cc03f153e1b8a05800667d2241e53bcc",
    },
    3: {
        "json": "fb8831597e7efde1bf49eb392d25cf7a17f3780bdb157e34eaa0e7b7695e2793",
        "text": "478ee55ca076a9e11abf0a16d18f3e76cc03f153e1b8a05800667d2241e53bcc",
    },
}


def _pinned_score_video(tmp_path) -> Path:
    """A 40x36 video of 40 nodules over 5 ROI frames, some of them on no
    organ, one ROI frame whose carcinomatosis raster was zeroed (no
    nodule) and one non-ROI frame; returns its manifest path."""
    spec = SynthSpec(
        seed=2,
        n_videos=1,
        frame_size=(40, 36),
        frames_per_video=5,
        nonroi_frames_per_video=1,
        station_prevalence=(0.8,) * 6,
        nodules_per_positive_station=(3, 6),
        noise=synth.NoiseSpec(
            confidence_jitter=0.1, boundary_morph=1, false_blob_rate=6.0, miss_rate=0.2
        ),
    )
    synth.generate_cohort(spec, tmp_path / "cohort")
    manifest = tmp_path / "cohort" / "videos" / "v0000" / "manifest.json"
    pc = manifest.parent / maskio.load_manifest(manifest).frames[2].pc_conf
    maskio.write_raster(np.zeros_like(maskio.read_raster(pc)), pc)
    return manifest


@pytest.mark.parametrize("min_pixels", [None, 3])
def test_score_bytes_are_pinned(tmp_path, capsys, min_pixels):
    manifest = _pinned_score_video(tmp_path)
    config = []
    if min_pixels is not None:
        (tmp_path / "config.json").write_text(json.dumps({"min_nodule_pixels": min_pixels}))
        config = ["--config", str(tmp_path / "config.json")]
    assert main(["score", str(manifest), "--out", str(tmp_path / "score.json"), *config]) == 0
    data = json.loads((tmp_path / "score.json").read_text(encoding="utf-8"))
    frames = data["frames"]
    assert len(frames) == 5 and data["frames_used"] == 5  # the non-ROI frame is left out
    assert frames[2]["nodules"] == []
    assert any(n["organ"] is None for f in frames for n in f["nodules"])
    ids = [[n["id"] for n in f["nodules"]] for f in frames]
    assert sum(map(len, ids)) == (30 if min_pixels else 40)
    gaps = [frame_ids != list(range(len(frame_ids))) for frame_ids in ids]
    assert any(gaps) == (min_pixels is not None)  # ids are numbered before the filter
    capsys.readouterr()
    assert main(["score", str(manifest), "--format", "text", *config]) == 0
    outputs = {
        "json": (tmp_path / "score.json").read_bytes(),
        "text": capsys.readouterr().out.encode(),
    }
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == PINNED_SCORE_DIGESTS[min_pixels]
