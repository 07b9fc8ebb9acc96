import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carcino import maskio, synth
from carcino.cli import build_parser, main
from carcino.cohort import _summarize_report, load_cohort, save_cohort_index
from carcino.synth import SynthSpec

from conftest import blank_organ_conf, ground_truth_for, write_video
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
            ground_truth=ground_truth_for(stations),
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
    gt = ground_truth_for((False,) * 6)
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


_FUZZ_FILES = (
    "manifest.json", "frames/f000.organ.msk", "frames/f000.pc.msk",
    "frames/f001.organ.msk", "frames/f001.pc.msk",
)
_BYTE_EDITS = st.lists(
    st.tuples(
        st.sampled_from(_FUZZ_FILES),
        st.integers(0, 2**20),  # taken modulo the file size
        st.sampled_from(["flip", "set"]),
        st.integers(0, 255),  # the bit to flip (modulo 8) or the byte to write
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=120, deadline=None)
@given(edits=_BYTE_EDITS)
def test_score_survives_byte_edits(edits):
    """Byte edits to a small video's manifest and rasters make score exit
    0, 2, 3 or 4, never raise; what it writes on 0 is canonical JSON,
    also when an edit reaches the video id."""
    with tempfile.TemporaryDirectory() as tmp:
        manifest = _fuzz_video(Path(tmp))
        for name, offset, kind, value in edits:
            path = manifest.parent / name
            data = bytearray(path.read_bytes())
            offset %= len(data)
            data[offset] = data[offset] ^ (1 << value % 8) if kind == "flip" else value
            path.write_bytes(bytes(data))
        out = Path(tmp) / "score.json"
        code = main(["score", str(manifest), "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code == 0:
            text = out.read_text(encoding="utf-8")
            assert text == maskio.canonical_json(json.loads(text))


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
    ],
)
def test_evaluate_malformed_fold_file_exits_2(tmp_path, capsys, folds):
    """Each of these used to escape main with ValueError or AttributeError."""
    index = _mini_cohort(tmp_path, n_videos=2)
    folds_path = tmp_path / "folds.json"
    folds_path.write_text(json.dumps(folds))
    assert main(["evaluate", str(index), "--folds", str(folds_path)]) == 2
    assert "fold file" in capsys.readouterr().err


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
        '{"frame_sampling_interval": Infinity}',
        '{"min_nodule_pixels": 1.5}',
        '{"its_cutoff": true}',
    ],
)
def test_score_malformed_config_exits_2(tmp_path, capsys, config):
    """A string threshold used to raise TypeError; an infinite interval
    used to pass validation and crash in the JSON writer."""
    video = load_cohort(_mini_cohort(tmp_path, n_videos=1)).videos[0]
    config_path = tmp_path / "config.json"
    config_path.write_text(config)
    assert main(["score", str(video.manifest_path), "--config", str(config_path)]) == 2
    assert capsys.readouterr().out == ""


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
    ],
)
def test_simulate_malformed_spec_field_exits_2_before_writing(tmp_path, capsys, spec):
    """Each of these used to exit 1 with a traceback, some only after
    creating --out."""
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
    ],
    ids=["nan", "overflow", "list", "no-summary", "empty-summary", "empty-run", "stations-list"],
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
