"""Shared fixtures: hand-built frames/videos and session-scoped
synthetic cohorts reused by the module and acceptance tests."""

from __future__ import annotations

import numpy as np
import pytest

from carcino import maskio, pipeline, synth
from carcino.cohort import CohortVideo
from carcino.maskio import ConfidenceFrame, FrameRecord, VideoGroundTruth, VideoManifest


def make_frame(
    organ_conf,
    pc_conf,
    roi_score: float = 1.0,
    frame_index: int = 0,
    time_s: float = 0.0,
    **kwargs,
) -> ConfidenceFrame:
    """ConfidenceFrame from plain arrays; confidences are cast to the
    on-disk float32 so threshold semantics match production."""
    return ConfidenceFrame(
        frame_index=frame_index,
        time_s=time_s,
        organ_conf=np.asarray(organ_conf, dtype=np.float32),
        pc_conf=np.asarray(pc_conf, dtype=np.float32),
        roi_score=roi_score,
        **kwargs,
    )


def classify(frame: ConfidenceFrame, constants) -> tuple[np.ndarray, pipeline.NoduleTable]:
    """pipeline.classify_frame over one frame, its thresholded
    carcinomatosis mask and the organ confidences at the mask's pixels,
    then pipeline.decide over the table. Returns the (1, 6) station
    flags and the kept nodule table."""
    mask = pipeline.threshold_pc_mask(frame, constants)
    pixel_conf = frame.organ_conf.reshape(8, -1)[:, np.flatnonzero(mask)]
    kept, frame_stations, _ = pipeline.decide(
        pipeline.classify_frame(mask, pixel_conf, constants), 1, constants
    )
    return frame_stations, kept


def blank_organ_conf(shape=(8, 8), fill=0.0) -> np.ndarray:
    return np.full((8, *shape), fill, dtype=np.float32)


def write_video(
    tmp_path,
    video_id: str,
    frames: list[dict],
    ground_truth: VideoGroundTruth | None = None,
) -> VideoManifest:
    """Write rasters + manifest for a hand-built video under tmp_path.

    Each frame dict needs organ_conf (8,H,W) and pc_conf (H,W) arrays
    plus an optional roi_score / gt_labels / gt_pc / gt_roi.
    """
    video_dir = tmp_path / video_id
    frames_dir = video_dir / "frames"
    frames_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for i, frame in enumerate(frames):
        stem = f"f{i:03d}"
        organ = np.asarray(frame["organ_conf"], dtype=np.float32)
        pc = np.asarray(frame["pc_conf"], dtype=np.float32)
        maskio.write_raster(organ, video_dir / f"frames/{stem}.organ.msk")
        maskio.write_raster(pc[np.newaxis], video_dir / f"frames/{stem}.pc.msk")
        entry = {
            "frame_index": i,
            "time_s": 5.0 * i,
            "organ_conf": f"frames/{stem}.organ.msk",
            "pc_conf": f"frames/{stem}.pc.msk",
            "roi_score": frame.get("roi_score", 1.0),
        }
        if "gt_labels" in frame:
            maskio.write_raster(
                np.asarray(frame["gt_labels"], dtype=np.uint8)[np.newaxis],
                video_dir / f"frames/{stem}.gtlab.msk",
            )
            entry["gt_labels"] = f"frames/{stem}.gtlab.msk"
        if "gt_pc" in frame:
            maskio.write_raster(
                np.asarray(frame["gt_pc"], dtype=np.uint8)[np.newaxis],
                video_dir / f"frames/{stem}.gtpc.msk",
            )
            entry["gt_pc"] = f"frames/{stem}.gtpc.msk"
        if "gt_roi" in frame:
            entry["gt_roi"] = frame["gt_roi"]
        records.append(FrameRecord(**entry))
    manifest = VideoManifest(
        video_id=video_id,
        frames=tuple(records),
        ground_truth=ground_truth,
        base_dir=video_dir,
    )
    maskio.save_manifest(manifest, video_dir / "manifest.json")
    return maskio.load_manifest(video_dir / "manifest.json")


def cohort_video(video_id: str, ground_truth: VideoGroundTruth | None) -> CohortVideo:
    """A cohort video built in memory: no manifest file, a manifest of no
    frames carrying ground_truth."""
    return CohortVideo(video_id, None, VideoManifest(video_id, (), ground_truth))


@pytest.fixture(scope="session")
def small_cohort_index(tmp_path_factory):
    """12 videos x 4 frames at 32x32, zero noise, one non-ROI frame each."""
    out = tmp_path_factory.mktemp("cohort_small")
    spec = synth.SynthSpec(
        seed=7,
        n_videos=12,
        frame_size=(32, 32),
        frames_per_video=4,
        nonroi_frames_per_video=1,
    )
    return synth.generate_cohort(spec, out)


@pytest.fixture(scope="session")
def acceptance_cohort_index(tmp_path_factory):
    """The 50-video x 10-frame 64x64 zero-noise cohort used by the
    acceptance suite."""
    out = tmp_path_factory.mktemp("cohort_accept")
    spec = synth.SynthSpec(
        seed=7,
        n_videos=50,
        frame_size=(64, 64),
        frames_per_video=10,
    )
    return synth.generate_cohort(spec, out)


# one pass/fail line per acceptance criterion at the end of the run
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance.py" in str(report.nodeid):
                name = report.nodeid.split("::")[-1]
                lines.append((name, outcome.upper()))
    if lines:
        terminalreporter.section("acceptance criteria")
        for name, outcome in sorted(lines):
            terminalreporter.write_line(f"{outcome:<6} {name}")
