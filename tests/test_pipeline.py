import os
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carcino import maskio, pipeline, synth
from carcino.cohort import EvalRun, evaluate_cohort, load_cohort
from carcino.core import Indication, OrganClass, ScoringConstants, Station
from carcino.errors import (
    CarcinoError,
    ChannelCountMismatchError,
    DimensionMismatchError,
    NoAssessableFramesError,
)

from conftest import blank_organ_conf, make_frame, write_video
from oracles import (
    assess_frames,
    flood_components,
    loop_assign,
    naive_station_vector,
    padded_row_runs,
    pixel_set,
)

CONSTANTS = ScoringConstants()


# --- thresholding ------------------------------------------------------------


def test_threshold_organ_masks_boundaries():
    conf = blank_organ_conf((3, 3), fill=0.80)
    frame = make_frame(conf, np.zeros((3, 3)))
    masks = pipeline.threshold_organ_masks(frame, CONSTANTS)
    assert masks.shape == (8, 3, 3) and masks.all()

    conf = blank_organ_conf((3, 3), fill=0.69)
    frame = make_frame(conf, np.zeros((3, 3)))
    assert not pipeline.threshold_organ_masks(frame, CONSTANTS).any()

    # a pixel stored as float32 0.70 is included (>= at raster precision)
    conf = blank_organ_conf((3, 3))
    conf[2, 1, 1] = np.float32(0.70)
    frame = make_frame(conf, np.zeros((3, 3)))
    masks = pipeline.threshold_organ_masks(frame, CONSTANTS)
    assert masks[2, 1, 1] and masks.sum() == 1


def test_threshold_organ_masks_channel_count():
    """A frame of 7 organ planes fails when it is built, so no threshold
    ever sees one."""
    frame = make_frame(blank_organ_conf((2, 2)), np.zeros((2, 2)))
    assert pipeline.threshold_organ_masks(frame, CONSTANTS).shape == (8, 2, 2)
    with pytest.raises(ChannelCountMismatchError):
        maskio.ConfidenceFrame(
            frame_index=0,
            time_s=0.0,
            organ_conf=np.zeros((7, 2, 2), dtype=np.float32),
            pc_conf=frame.pc_conf,
            roi_score=1.0,
        )


def test_threshold_pc_mask_boundaries():
    pc = np.zeros((2, 2), dtype=np.float32)
    pc[0, 0] = np.float32(0.90)
    frame = make_frame(blank_organ_conf((2, 2)), pc)
    mask = pipeline.threshold_pc_mask(frame, CONSTANTS)
    assert mask[0, 0] and mask.sum() == 1
    assert not pipeline.threshold_pc_mask(
        make_frame(blank_organ_conf((2, 2)), np.zeros((2, 2))), CONSTANTS
    ).any()


def test_threshold_subset_monotonicity_random_frames():
    rng = np.random.default_rng(123)
    for _ in range(50):
        conf = rng.random((8, 12, 12), dtype=np.float32)
        pc = rng.random((12, 12), dtype=np.float32)
        frame = make_frame(conf, pc)
        for t in (0.5, 0.7, 0.9):
            lo = ScoringConstants(organ_confidence_threshold=t, pc_confidence_threshold=t)
            hi = ScoringConstants(
                organ_confidence_threshold=t + 0.05, pc_confidence_threshold=t + 0.05
            )
            organ_hi = pipeline.threshold_organ_masks(frame, hi)
            organ_lo = pipeline.threshold_organ_masks(frame, lo)
            assert not (organ_hi & ~organ_lo).any()
            pc_hi = pipeline.threshold_pc_mask(frame, hi)
            pc_lo = pipeline.threshold_pc_mask(frame, lo)
            assert not (pc_hi & ~pc_lo).any()


# --- connected components ----------------------------------------------------


def test_connected_components_empty_and_singleton():
    assert pipeline.connected_components(np.zeros((4, 4), dtype=bool)) == []
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = True
    nodules = pipeline.connected_components(mask)
    assert len(nodules) == 1
    assert pixel_set(nodules[0]) == {(1, 1)}
    assert nodules[0].id == 0


def test_connected_components_diagonal_adjacency():
    mask = np.zeros((5, 5), dtype=bool)
    mask[0, 0] = mask[1, 1] = True
    assert len(pipeline.connected_components(mask, connectivity=8)) == 1
    assert len(pipeline.connected_components(mask, connectivity=4)) == 2


def test_connected_components_ordering_and_partition():
    mask = np.zeros((6, 8), dtype=bool)
    mask[4:6, 0:2] = True  # lower-left blob
    mask[0, 5] = True  # upper-right pixel
    mask[2, 3] = True
    nodules = pipeline.connected_components(mask)
    firsts = [tuple(n.pixels[0]) for n in nodules]
    assert firsts == sorted(firsts)  # ordered by first pixel, row-major
    assert [n.id for n in nodules] == [0, 1, 2]
    union = set()
    total = 0
    for n in nodules:
        assert not (union & pixel_set(n))
        union |= pixel_set(n)
        total += n.size
    assert union == {(r, c) for r, c in zip(*np.nonzero(mask))}
    assert total == int(mask.sum())


@settings(max_examples=120, deadline=None)
@given(
    height=st.integers(1, 16),
    width=st.integers(1, 16),
    density=st.floats(0.05, 0.95),
    connectivity=st.sampled_from([4, 8]),
    seed=st.integers(0, 2**31 - 1),
)
def test_connected_components_match_flood_fill(height, width, density, connectivity, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((height, width)) < density
    nodules = pipeline.connected_components(mask, connectivity=connectivity)
    expected = flood_components(mask, connectivity=connectivity)
    assert [pixel_set(n) for n in nodules] == expected


def test_connected_components_pixels_are_row_major_sorted():
    rng = np.random.default_rng(5)
    mask = rng.random((10, 10)) < 0.6
    for nodule in pipeline.connected_components(mask):
        flat = nodule.pixels[:, 0] * 10 + nodule.pixels[:, 1]
        assert np.all(np.diff(flat) > 0)


def _comb(n):
    mask = np.zeros((n, n), dtype=bool)
    mask[:, ::2] = True  # teeth, joined only by the last row
    mask[-1] = True
    return mask


def _checkerboard(n):
    rows, cols = np.indices((n, n))
    return (rows + cols) % 2 == 0


def _serpentine(n):
    mask = np.zeros((n, n), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True  # links alternate between the right and left ends
    mask[3::4, 0] = True
    return mask


def _spiral(n):
    """A one-pixel path winding inwards with one-pixel gaps."""
    mask = np.zeros((n, n), dtype=bool)
    steps = [n - 1] * 3
    length = n - 3
    while length > 0:
        steps += [length, length]
        length -= 2
    r = c = 0
    mask[r, c] = True
    for turn, step in enumerate(steps):
        dr, dc = [(0, 1), (1, 0), (0, -1), (-1, 0)][turn % 4]
        for _ in range(step):
            r, c = r + dr, c + dc
            mask[r, c] = True
    return mask


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize(
    "make_mask",
    [_comb, _checkerboard, _serpentine, _spiral, lambda n: np.ones((n, n), dtype=bool)],
    ids=["comb", "checkerboard", "serpentine", "spiral", "full"],
)
def test_connected_components_structured_masks_match_flood_fill(make_mask, connectivity):
    """Masks whose components chain many runs across many rows, the
    longest merges for the label propagation."""
    mask = make_mask(64)
    nodules = pipeline.connected_components(mask, connectivity=connectivity)
    assert [pixel_set(n) for n in nodules] == flood_components(mask, connectivity=connectivity)
    for nodule in nodules:
        assert nodule.pixels.dtype == np.int32 and nodule.pixels.shape == (nodule.size, 2)
        flat = nodule.pixels[:, 0].astype(np.int64) * 64 + nodule.pixels[:, 1]
        assert np.all(np.diff(flat) > 0)


@st.composite
def _run_masks(draw):
    """Masks from 1x1 to 40x40: random ones and the shapes at the edges
    of the run extraction (all true, all false, one row, one column,
    stripes across or along the rows)."""
    kind = draw(st.sampled_from(["random", "full", "empty", "row", "column", "striped"]))
    height = 1 if kind == "row" else draw(st.integers(1, 40))
    width = 1 if kind == "column" else draw(st.integers(1, 40))
    if kind == "full":
        return np.ones((height, width), dtype=bool)
    if kind == "empty":
        return np.zeros((height, width), dtype=bool)
    if kind == "striped":
        period = draw(st.integers(2, 4))
        rows, cols = np.indices((height, width))
        return (cols if draw(st.booleans()) else rows) % period == 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random((height, width)) < draw(st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(mask=_run_masks(), connectivity=st.sampled_from([4, 8]))
def test_row_runs_match_padded_diff_extraction(mask, connectivity):
    """The edge-based run extraction yields the former padded-diff runs,
    so connected_components returns the same nodules: ids, pixel arrays
    and order."""
    for got, want in zip(pipeline._row_runs(mask), padded_row_runs(mask)):
        assert np.array_equal(got, want)
    nodules = pipeline.connected_components(mask, connectivity=connectivity)
    with mock.patch.object(pipeline, "_row_runs", padded_row_runs):
        former = pipeline.connected_components(mask, connectivity=connectivity)
    assert [n.id for n in nodules] == [n.id for n in former]
    for nodule, reference in zip(nodules, former):
        assert nodule.pixels.dtype == reference.pixels.dtype
        assert np.array_equal(nodule.pixels, reference.pixels)


# --- nodule assignment ---------------------------------------------------------


def _conf(shape=(5, 5)):
    return np.zeros((8, *shape), dtype=np.float32)


def _nodule(pixels):
    return pipeline.Nodule(id=0, pixels=np.array(sorted(pixels), dtype=np.int32))


def test_assign_greatest_overlap_wins():
    conf = _conf()
    # liver covers 3 nodule pixels, diaphragm 1
    for r, c in [(0, 0), (0, 1), (0, 2)]:
        conf[OrganClass.LIVER, r, c] = 0.75
    conf[OrganClass.DIAPHRAGM, 0, 3] = 0.99
    nodule = _nodule([(0, 0), (0, 1), (0, 2), (0, 3)])
    pipeline.assign_nodules([nodule], conf, CONSTANTS)
    assert nodule.assigned_organ is OrganClass.LIVER
    assert list(nodule.overlap_counts) == [1, 3, 0, 0, 0, 0, 0, 0]


def test_assign_no_overlap_stays_unassigned():
    conf = _conf()
    conf[OrganClass.LIVER, 2, 2] = 0.69  # below the 0.70 threshold
    nodule = _nodule([(2, 2)])
    pipeline.assign_nodules([nodule], conf, CONSTANTS)
    assert nodule.assigned_organ is None
    assert nodule.overlap_counts.sum() == 0


def test_assign_tie_broken_by_summed_confidence():
    conf = _conf()
    pixels = [(1, 1), (1, 2)]
    for r, c in pixels:
        conf[OrganClass.STOMACH, r, c] = 0.80  # sums to 1.60
        conf[OrganClass.BOWEL, r, c] = 0.95  # sums to 1.90
    nodule = _nodule(pixels)
    pipeline.assign_nodules([nodule], conf, CONSTANTS)
    assert nodule.assigned_organ is OrganClass.BOWEL


def test_assign_full_tie_broken_by_lowest_code():
    conf = _conf()
    for r, c in [(1, 1), (1, 2)]:
        for organ in (OrganClass.SPLEEN, OrganClass.GREATER_OMENTUM):
            conf[organ, r, c] = 0.9
    nodule = _nodule([(1, 1), (1, 2)])
    pipeline.assign_nodules([nodule], conf, CONSTANTS)
    assert nodule.assigned_organ is OrganClass.SPLEEN


def test_assign_checks_the_channel_count_without_nodules():
    """The channel count is checked before the early return for a frame
    without nodules, as it was when full organ masks were thresholded
    first."""
    for bad in (np.zeros((7, 4, 4), np.float32), np.zeros((4, 4), np.float32)):
        with pytest.raises(ChannelCountMismatchError):
            pipeline.assign_nodules([], bad, CONSTANTS)
    assert pipeline.assign_nodules([], _conf((4, 4)), CONSTANTS) == []


def test_assign_rejects_pixels_outside_frame():
    conf = _conf((4, 4))
    inside = _nodule([(0, 0)])
    for bad in ([(4, 0)], [(0, 4)], [(-1, 0)]):
        nodule = pipeline.Nodule(id=7, pixels=np.array(bad, dtype=np.int32))
        with pytest.raises(DimensionMismatchError, match="nodule 7"):
            pipeline.assign_nodules([inside, nodule], conf, CONSTANTS)


@settings(max_examples=200, deadline=None)
@given(
    height=st.integers(1, 12),
    width=st.integers(1, 12),
    seed=st.integers(0, 2**31 - 1),
    threshold=st.sampled_from([0.7, 0.5, 0.3, 0.9, 1 / 64, 1.0]),
    twins=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=4),
    same_conf=st.booleans(),
)
def test_assign_matches_loop_reference_with_forced_ties(
    height, width, seed, threshold, twins, same_conf
):
    """assign_nodules thresholds the organ confidences at the nodule
    pixels; the reference takes the full (8, H, W) masks. Confidences
    are drawn from the float32 threshold, its two float32 neighbours,
    0, 1 and multiples of 1/64. Copying one organ's passing pattern onto
    another forces equal overlap counts for every nodule, with other
    passing values; copying its confidences too forces equal sums, so
    the lowest code must win. Every value that passes lies in [1/64, 2),
    so the float64 sums are exact in any order and the vectorised sums
    and the reference's agree bit for bit."""
    rng = np.random.default_rng(seed)
    thr = np.float32(threshold)
    grid = np.arange(65, dtype=np.float32) / 64
    edge = np.array(
        [np.nextafter(thr, np.float32(0)), thr, np.nextafter(thr, np.float32(2)), 0, 1],
        dtype=np.float32,
    )
    values = np.concatenate([grid, edge, edge, edge])
    below, above = values[values < thr], values[values >= thr]
    conf = rng.choice(values, (8, height, width))
    for src, dst in twins:
        if same_conf:
            conf[dst] = conf[src]
        else:
            conf[dst] = np.where(
                conf[src] >= thr,
                rng.choice(above, (height, width)),
                rng.choice(below, (height, width)),
            )
    pc = rng.random((height, width)) < 0.5
    nodules = pipeline.connected_components(pc)
    expected = loop_assign([n.pixels for n in nodules], conf >= thr, conf)
    constants = ScoringConstants(organ_confidence_threshold=threshold)
    pipeline.assign_nodules(nodules, conf, constants)
    for nodule, (counts, best) in zip(nodules, expected):
        assert nodule.overlap_counts.dtype == np.int64
        assert list(nodule.overlap_counts) == list(counts)
        expected_organ = OrganClass(best) if best is not None else None
        assert nodule.assigned_organ is expected_organ


# --- frame classification -------------------------------------------------------


def _frame_with_blobs(blobs, organ_regions, shape=(10, 10)):
    """organ_regions: organ -> list of pixels with confidence 0.95; blobs:
    list of pixel lists with carcinomatosis confidence 0.95."""
    organ_conf = blank_organ_conf(shape, fill=0.0)
    for organ, pixels in organ_regions.items():
        for r, c in pixels:
            organ_conf[organ, r, c] = 0.95
    pc = np.zeros(shape, dtype=np.float32)
    for blob in blobs:
        for r, c in blob:
            pc[r, c] = 0.95
    return make_frame(organ_conf, pc)


def test_classify_frame_no_pc_means_all_negative():
    frame = make_frame(blank_organ_conf((6, 6), 0.95), np.zeros((6, 6)))
    assessment = pipeline.classify_frame(frame, CONSTANTS)
    assert assessment.station_positive == (False,) * 6
    assert assessment.nodules == []


def test_classify_frame_spleen_marks_shared_station():
    frame = _frame_with_blobs(
        [[(2, 2), (2, 3)]],
        {OrganClass.SPLEEN: [(2, 2), (2, 3), (3, 2), (3, 3)]},
    )
    assessment = pipeline.classify_frame(frame, CONSTANTS)
    expected = [False] * 6
    expected[Station.STOMACH_SPLEEN_LESSER_OMENTUM] = True
    assert assessment.station_positive == tuple(expected)


def test_classify_frame_two_nodules_two_stations():
    frame = _frame_with_blobs(
        [[(0, 0)], [(8, 8), (8, 9)]],
        {
            OrganClass.DIAPHRAGM: [(0, 0), (0, 1)],
            OrganClass.BOWEL: [(8, 8), (8, 9), (9, 8)],
        },
    )
    assessment = pipeline.classify_frame(frame, CONSTANTS)
    expected = [False] * 6
    expected[Station.DIAPHRAGM] = True
    expected[Station.BOWEL] = True
    assert assessment.station_positive == tuple(expected)
    assert len(assessment.nodules) == 2


def test_classify_frame_unassigned_nodule_counts_nowhere():
    frame = _frame_with_blobs([[(5, 5)]], {})
    assessment = pipeline.classify_frame(frame, CONSTANTS)
    assert assessment.station_positive == (False,) * 6
    assert len(assessment.nodules) == 1
    assert assessment.nodules[0].assigned_organ is None


def test_classify_frame_min_nodule_pixels_filter():
    frame = _frame_with_blobs(
        [[(2, 2)]], {OrganClass.LIVER: [(2, 2), (2, 3)]}
    )
    strict = replace(CONSTANTS, min_nodule_pixels=2)
    assessment = pipeline.classify_frame(frame, strict)
    assert assessment.station_positive == (False,) * 6
    assert assessment.nodules == []


def test_classify_frame_partition_invariant():
    rng = np.random.default_rng(99)
    for _ in range(20):
        conf = rng.random((8, 9, 9), dtype=np.float32)
        pc = rng.random((9, 9), dtype=np.float32)
        frame = make_frame(conf, pc)
        assessment = pipeline.classify_frame(frame, CONSTANTS)
        mask = pipeline.threshold_pc_mask(frame, CONSTANTS)
        union = set()
        for nodule in assessment.nodules:
            assert not (union & pixel_set(nodule))
            union |= pixel_set(nodule)
        assert union == {(r, c) for r, c in zip(*np.nonzero(mask))}


def test_classify_frame_matches_naive_recomputation():
    rng = np.random.default_rng(321)
    for _ in range(25):
        conf = (rng.random((8, 8, 8)) * 1.2 - 0.1).clip(0, 1).astype(np.float32)
        pc = rng.random((8, 8), dtype=np.float32)
        frame = make_frame(conf, pc)
        assessment = pipeline.classify_frame(frame, CONSTANTS)
        assert assessment.station_positive == naive_station_vector(frame, CONSTANTS)


# --- aggregation and scoring ------------------------------------------------------


def _fa(stations):
    return pipeline.FrameAssessment(0, 0.0, tuple(stations))


def test_aggregate_video_is_or():
    negative = [False] * 6
    one_hit = [False] * 6
    one_hit[3] = True
    frames = [_fa(negative)] * 2 + [_fa(one_hit)] + [_fa(negative)] * 7
    assert pipeline.aggregate_video(frames) == tuple(one_hit)
    assert pipeline.aggregate_video([_fa(negative)] * 4) == tuple(negative)


def test_aggregate_video_empty_raises():
    with pytest.raises(NoAssessableFramesError):
        pipeline.aggregate_video([])


def test_aggregate_monotone_under_added_frames():
    rng = np.random.default_rng(17)
    for _ in range(30):
        frames = [_fa(rng.random(6) < 0.3) for _ in range(rng.integers(1, 6))]
        before = pipeline.aggregate_video(frames)
        frames.append(_fa(rng.random(6) < 0.5))
        after = pipeline.aggregate_video(frames)
        assert all(b <= a for b, a in zip(before, after))


def test_compute_fs_and_its_exhaustive():
    for bits in range(64):
        stations = tuple(bool(bits >> s & 1) for s in range(6))
        fs = pipeline.compute_fs(stations, CONSTANTS)
        popcount = sum(stations)
        assert fs == 2 * popcount
        assert fs in {0, 2, 4, 6, 8, 10, 12}
        its = pipeline.compute_its(fs, CONSTANTS)
        if popcount >= 4:
            assert its is Indication.SURGERY_CONTRAINDICATED
        else:
            assert its is Indication.SURGERY_INDICATED


def test_compute_its_boundary_values():
    assert pipeline.compute_its(8, CONSTANTS) is Indication.SURGERY_CONTRAINDICATED
    assert pipeline.compute_its(6, CONSTANTS) is Indication.SURGERY_INDICATED
    assert pipeline.compute_its(0, CONSTANTS) is Indication.SURGERY_INDICATED


# --- score_video -------------------------------------------------------------------


def test_score_video_planted_stations(tmp_path):
    spec = synth.SynthSpec(
        seed=3,
        n_videos=2,
        frame_size=(32, 32),
        frames_per_video=3,
        station_prevalence=(1.0, 0.0, 0.0, 0.0, 1.0, 0.0),
    )
    index = synth.generate_cohort(spec, tmp_path / "cohort")
    from carcino.cohort import load_cohort

    for video in load_cohort(index).videos:
        manifest = maskio.load_manifest(video.manifest_path)
        assessment = pipeline.score_video(manifest)
        assert assessment.fs == 4
        assert assessment.its is Indication.SURGERY_INDICATED
        expected = [False] * 6
        expected[Station.DIAPHRAGM] = True
        expected[Station.PARIETAL_PERITONEUM] = True
        assert assessment.station_positive == tuple(expected)
        assert assessment.frames_used == 3


def test_score_video_all_stations(tmp_path):
    spec = synth.SynthSpec(
        seed=4,
        n_videos=1,
        frame_size=(32, 32),
        frames_per_video=2,
        station_prevalence=(1.0,) * 6,
    )
    index = synth.generate_cohort(spec, tmp_path / "cohort")
    from carcino.cohort import load_cohort

    video = load_cohort(index).videos[0]
    assessment = pipeline.score_video(maskio.load_manifest(video.manifest_path))
    assert assessment.fs == 12
    assert assessment.its is Indication.SURGERY_CONTRAINDICATED


def test_score_video_all_frames_filtered(tmp_path):
    organ = blank_organ_conf((4, 4), 0.95)
    pc = np.zeros((4, 4), dtype=np.float32)
    manifest = write_video(
        tmp_path,
        "dull",
        [{"organ_conf": organ, "pc_conf": pc, "roi_score": 0.0} for _ in range(3)],
    )
    with pytest.raises(NoAssessableFramesError):
        pipeline.score_video(manifest)


def test_score_video_rejects_mixed_dimensions(tmp_path):
    frames = [
        {"organ_conf": blank_organ_conf((4, 4), 0.95), "pc_conf": np.zeros((4, 4))},
        {"organ_conf": blank_organ_conf((5, 5), 0.95), "pc_conf": np.zeros((5, 5))},
    ]
    manifest = write_video(tmp_path, "mixed", frames)
    with pytest.raises(DimensionMismatchError):
        pipeline.score_video(manifest)


def test_score_video_deterministic(tmp_path):
    spec = synth.SynthSpec(seed=9, n_videos=1, frame_size=(32, 32), frames_per_video=3)
    index = synth.generate_cohort(spec, tmp_path / "cohort")
    from carcino.cohort import load_cohort

    video = load_cohort(index).videos[0]
    manifest = maskio.load_manifest(video.manifest_path)
    first = pipeline.score_video(manifest).to_dict()
    second = pipeline.score_video(manifest).to_dict()
    assert first == second


def test_assessment_json_record_shape(tmp_path):
    frame = _frame_with_blobs(
        [[(0, 0)]], {OrganClass.DIAPHRAGM: [(0, 0), (0, 1)]}
    )
    manifest = write_video(
        tmp_path,
        "rec",
        [{"organ_conf": frame.organ_conf, "pc_conf": frame.pc_conf}],
    )
    record = pipeline.score_video(manifest).to_dict()
    assert record["video_id"] == "rec"
    assert record["fs"] == 2
    assert record["its"] == "SurgeryIndicated"
    assert record["station_positive"]["diaphragm"] is True
    assert record["frames"][0]["nodules"] == [{"id": 0, "size": 1, "organ": "diaphragm"}]


# --- score_frames: the one per-video loop -----------------------------------


def test_score_frames_keeps_frames_at_or_above_roi_threshold():
    frames = [
        make_frame(blank_organ_conf((2, 2)), np.zeros((2, 2)), roi_score=s, frame_index=i)
        for i, s in enumerate((0.9, 0.2, 0.5))
    ]
    for threshold, kept in ((0.5, [0, 2]), (0.0, [0, 1, 2])):  # 0.5 kept: >= semantics
        constants = ScoringConstants(roi_threshold=threshold)
        video, _, _ = pipeline.score_frames("v", frames, lambda f: f, constants)
        assert [fa.frame_index for fa in video.frames] == kept
        assert video.frames_used == len(kept)


def test_score_frames_loads_only_frames_it_needs():
    gt = {"gt_labels": np.zeros((2, 2), np.uint8), "gt_pc": np.zeros((2, 2), np.uint8)}
    frames = [
        make_frame(blank_organ_conf((2, 2)), np.zeros((2, 2)), roi_score=0.9, frame_index=0),
        make_frame(blank_organ_conf((2, 2)), np.zeros((2, 2)), roi_score=0.1, frame_index=1),
        make_frame(blank_organ_conf((2, 2)), np.zeros((2, 2)), 0.1, 2, gt_roi=True, **gt),
        make_frame(blank_organ_conf((2, 2)), np.zeros((2, 2)), 0.1, 3, gt_roi=False, **gt),
    ]
    for want_dice, loaded in ((False, [0]), (True, [0, 2])):
        calls = []
        pipeline.score_frames(
            "v", frames, lambda f: calls.append(f.frame_index) or f, CONSTANTS, want_dice
        )
        assert calls == loaded


def test_score_frames_thresholds_organs_once_per_loaded_frame(monkeypatch):
    """Full organ masks are built once per frame that feeds organ Dice
    and for no other frame; classify_frame decides organs at the nodule
    pixels and still runs once per ROI frame."""
    gt = {"gt_labels": np.zeros((2, 2), np.uint8), "gt_pc": np.zeros((2, 2), np.uint8)}
    frames = [
        make_frame(blank_organ_conf((2, 2)), np.zeros((2, 2)), 0.9, 0, gt_roi=True, **gt),
        make_frame(blank_organ_conf((2, 2)), np.zeros((2, 2)), 0.1, 1, gt_roi=True, **gt),
        make_frame(blank_organ_conf((2, 2)), np.zeros((2, 2)), 0.9, 2),
    ]
    calls = {"threshold": [], "classify": []}

    def counted(name, func):
        def wrapper(frame, *args, **kwargs):
            calls[name].append(frame.frame_index)
            return func(frame, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        pipeline, "threshold_organ_masks", counted("threshold", pipeline.threshold_organ_masks)
    )
    monkeypatch.setattr(pipeline, "classify_frame", counted("classify", pipeline.classify_frame))
    pipeline.score_frames("v", frames, lambda f: f, CONSTANTS, want_dice=True)
    assert calls == {"threshold": [0, 1], "classify": [0, 2]}


def test_a_frame_without_eight_organ_planes_fails_on_every_path(tmp_path):
    """A frame of 7 organ planes, or of one 2-D organ plane, cannot be
    built in memory; read from disk, a ROI frame without nodules and a
    non-ROI frame that feeds only the carcinomatosis Dice each raise
    ChannelCountMismatchError, though neither thresholds full organ
    masks."""
    seven, pc = np.zeros((7, 2, 2), np.float32), np.zeros((2, 2))
    for organ_conf in (seven, np.zeros((2, 2), np.float32)):
        with pytest.raises(ChannelCountMismatchError):
            make_frame(organ_conf, pc)
    roi_frame = {"organ_conf": seven, "pc_conf": pc, "roi_score": 0.9}
    dice_frame = {**roi_frame, "roi_score": 0.1, "gt_roi": True, "gt_pc": np.zeros((2, 2))}
    manifest = write_video(tmp_path, "v", [roi_frame, dice_frame])
    for record, want_dice in zip(manifest.frames, (False, True)):
        load = maskio.frame_loader(manifest.base_dir)
        with pytest.raises(ChannelCountMismatchError):
            pipeline.score_frames("v", [record], load, CONSTANTS, want_dice)


def test_classify_frame_checks_the_size_of_a_given_pc_mask():
    """The frame checked its own planes; pc_mask comes from the caller."""
    frame = make_frame(blank_organ_conf((4, 4)), np.zeros((4, 4)))
    with pytest.raises(DimensionMismatchError, match="frame 0: pc_mask"):
        pipeline.classify_frame(frame, CONSTANTS, pc_mask=np.zeros((4, 5), bool))


def test_score_frames_thresholds_pc_once_per_loaded_frame(small_cohort_index, monkeypatch):
    """The carcinomatosis mask of a frame's PC Dice is the one its
    classification uses: one threshold_pc_mask call per loaded frame."""
    counts = {"loaded": 0, "pc": 0}

    def counted(key, func):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(maskio, "load_frame", counted("loaded", maskio.load_frame))
    monkeypatch.setattr(
        pipeline, "threshold_pc_mask", counted("pc", pipeline.threshold_pc_mask)
    )
    cohort = load_cohort(small_cohort_index)
    run = EvalRun(label="all", video_ids=tuple(v.video_id for v in cohort.videos))
    report = evaluate_cohort(cohort, [run], CONSTANTS, jobs=1)
    assert report["runs"][0]["failed"] == {}
    assert counts["loaded"] > 0 and counts["pc"] == counts["loaded"]


_ROI_SCORES = (0.0, float(np.nextafter(0.5, 0.0)), 0.5, 0.9)  # 0.5 is the threshold
_CONF_VALUES = np.array([0.0, 0.69, 0.7, 0.89, 0.9, 1.0], dtype=np.float32)


@st.composite
def _videos(draw):
    """Small in-memory videos: ROI scores at and around the threshold,
    optional ground-truth rasters and relevance flags, and now and then a
    frame of another size."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = []
    for i in range(n):
        shape = (4, 5) if draw(st.integers(0, 9)) == 0 else (4, 4)
        extra = {"gt_roi": draw(st.sampled_from([None, True, False]))}
        if draw(st.booleans()):
            extra["gt_labels"] = rng.integers(0, 9, shape, dtype=np.uint8)
        if draw(st.booleans()):
            extra["gt_pc"] = rng.integers(0, 2, shape, dtype=np.uint8)
        frames.append(
            make_frame(
                rng.choice(_CONF_VALUES, (8, *shape)),
                rng.choice(_CONF_VALUES, shape),
                roi_score=draw(st.sampled_from(_ROI_SCORES)),
                frame_index=i,
                **extra,
            )
        )
    return frames


def _outcome(run):
    """(loaded frame indices, result or (error class, message))."""
    loaded = []
    try:
        result = run(lambda frame: loaded.append(frame.frame_index) or frame)
    except CarcinoError as exc:
        result = (type(exc), str(exc))
    return loaded, result


@settings(max_examples=200, deadline=None)
@given(frames=_videos(), want_dice=st.booleans(), want_roi=st.booleans())
def test_score_frames_matches_former_evaluation_loop(frames, want_dice, want_roi):
    """The merged loop loads the same frames and yields the same
    prediction, Dice lists (values and order) and ROI counts as the
    former evaluation loop; its two failures keep their messages and
    become NoAssessableFramesError and DimensionMismatchError."""

    def merged(load):
        video, dice, roi = pipeline.score_frames(
            "v", frames, load, CONSTANTS, want_dice, want_roi
        )
        prediction = {
            "stations": list(video.station_positive),
            "fs": video.fs,
            "its": video.its.value,
            "frames_used": video.frames_used,
        }
        roi = None if roi is None else [roi.tp, roi.fp, roi.tn, roi.fn]
        return {"prediction": prediction, "dice": dice, "roi": roi}

    loaded, got = _outcome(merged)
    want_loaded, want = _outcome(
        lambda load: assess_frames(frames, load, CONSTANTS, want_dice, want_roi)
    )
    assert loaded == want_loaded
    if isinstance(want, tuple):  # the size check
        assert got == (DimensionMismatchError, want[1])
    elif "error" in want["prediction"]:
        assert got == (NoAssessableFramesError, want["prediction"]["error"])
    else:
        assert got == want


_DAMAGE = (None,) * 6 + ("uint8 organ", "missing gt", "truncated")


@st.composite
def _disk_videos(draw):
    """Frames for write_video, each with the damage its files take after
    writing: an organ raster rewritten as uint8, a ground-truth raster
    deleted, or the carcinomatosis raster cut short. ROI scores sit at
    and around the threshold, and now and then a frame has another size."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames, damage = [], []
    for _ in range(n):
        shape = (4, 5) if draw(st.integers(0, 9)) == 0 else (4, 4)
        frame = {
            "organ_conf": rng.choice(_CONF_VALUES, (8, *shape)),
            "pc_conf": rng.choice(_CONF_VALUES, shape),
            "roi_score": draw(st.sampled_from(_ROI_SCORES)),
        }
        gt_roi = draw(st.sampled_from([None, True, False]))
        if gt_roi is not None:
            frame["gt_roi"] = gt_roi
        if draw(st.booleans()):
            frame["gt_labels"] = rng.integers(0, 9, shape, dtype=np.uint8)
        if draw(st.booleans()):
            frame["gt_pc"] = rng.integers(0, 2, shape, dtype=np.uint8)
        frames.append(frame)
        damage.append(draw(st.sampled_from(_DAMAGE)))
    return frames, damage


def _damage(manifest, damage) -> None:
    base = Path(manifest.base_dir)
    for record, kind in zip(manifest.frames, damage):
        if kind == "uint8 organ":
            shape = maskio.read_raster(base / record.organ_conf).shape
            maskio.write_raster(np.zeros(shape, np.uint8), base / record.organ_conf)
        elif kind == "missing gt" and (record.gt_labels or record.gt_pc):
            os.remove(base / (record.gt_labels or record.gt_pc))
        elif kind == "truncated":
            path = base / record.pc_conf
            os.truncate(path, path.stat().st_size - 3)


@settings(max_examples=150, deadline=None)
@given(video=_disk_videos(), want_dice=st.booleans(), want_roi=st.booleans())
def test_frame_loader_scores_as_fresh_loads(video, want_dice, want_roi):
    """score_frames over a video read through one frame_loader returns the
    assessment, Dice lists and ROI counts that a fresh load_frame per
    record gives, or fails with the same error class and message."""
    frames, damage = video
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_video(Path(tmp), "v", frames)
        _damage(manifest, damage)

        def outcome(load):
            try:
                assessment, dice, roi = pipeline.score_frames(
                    "v", manifest.frames, load, CONSTANTS, want_dice, want_roi
                )
            except (CarcinoError, OSError) as exc:
                return type(exc), str(exc)
            return assessment.to_dict(), dice, roi

        fresh = outcome(lambda record: maskio.load_frame(record, manifest.base_dir))
        assert outcome(maskio.frame_loader(manifest.base_dir)) == fresh
