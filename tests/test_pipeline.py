import json
import math
import os
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carcino import cohort, maskio, pipeline, synth
from carcino.cohort import EvalRun, evaluate_cohort, load_cohort
from carcino.core import _ORGANS_OF, _STATION_OF, Indication, OrganClass, ScoringConstants, Station
from carcino.errors import CarcinoError, NoAssessableFramesError

import oracles
from conftest import blank_organ_conf, classify, make_frame, write_video
from oracles import (
    assess_frames,
    flood_components,
    loop_assign,
    naive_station_vector,
    nodule_list,
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
    with pytest.raises(CarcinoError, match=r"organ_conf is \(7, 2, 2\), not \(8, H, W\)"):
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
    for shape in ((4, 4), (0, 4), (4, 0), (0, 0), (2, 3, 0)):
        assert len(pipeline.connected_components(np.zeros(shape, dtype=bool))) == 0
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = True
    nodules = nodule_list(pipeline.connected_components(mask), mask)
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
    nodules = nodule_list(pipeline.connected_components(mask), mask)
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
    nodules = nodule_list(pipeline.connected_components(mask, connectivity=connectivity), mask)
    expected = flood_components(mask, connectivity=connectivity)
    assert [pixel_set(n) for n in nodules] == expected


def test_connected_components_pixels_are_row_major_sorted():
    """pixel_nodule labels every true pixel, in row-major order, with its
    nodule's row; the rows first appear in table order, and each row
    labels as many pixels as its nodule's size."""
    rng = np.random.default_rng(5)
    mask = rng.random((10, 10)) < 0.6
    table = pipeline.connected_components(mask)
    assert table.pixel_nodule.shape == (int(mask.sum()),)
    rows, first = np.unique(table.pixel_nodule, return_index=True)
    assert rows.tolist() == list(range(len(table)))
    assert np.all(np.diff(first) > 0)
    assert np.bincount(table.pixel_nodule).tolist() == table.size.tolist()
    for nodule in nodule_list(table, mask):
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
    table = pipeline.connected_components(mask, connectivity=connectivity)
    nodules = nodule_list(table, mask)
    assert [pixel_set(n) for n in nodules] == flood_components(mask, connectivity=connectivity)
    for field in fields(table):
        assert getattr(table, field.name).dtype == np.int64
    assert table.pixel_nodule.shape == (int(mask.sum()),)
    for nodule in nodules:
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
    _assert_same_tables(nodules, former)


def _assert_same_tables(got, want):
    for field in fields(pipeline.NoduleTable):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), field.name


def test_connected_components_of_a_stack_number_nodules_per_frame():
    """A blank row ends every stacked frame: a nodule on a frame's last
    row stays apart from one on the next frame's first row, each nodule
    knows its frame, and ids restart at 0 in every frame."""
    stack = np.zeros((3, 4, 5), dtype=bool)
    stack[0, 2, 1] = stack[1, 0, 1] = stack[1, 0, 3] = stack[2, 1:3, 4] = True
    table = pipeline.connected_components(stack)
    assert table.frame.tolist() == [0, 1, 1, 2]
    assert table.id.tolist() == [0, 0, 1, 0]
    assert table.size.tolist() == [1, 1, 1, 2]
    assert [pixel_set(n) for n in nodule_list(table, stack)] == [
        {(2, 1)}, {(0, 1)}, {(0, 3)}, {(1, 4), (2, 4)}
    ]
    stack[1, 3, 0] = True
    with pytest.raises(ValueError, match="blank row"):
        pipeline.connected_components(stack)


# --- nodule assignment ---------------------------------------------------------


def _conf(shape=(5, 5)):
    return np.zeros((8, *shape), dtype=np.float32)


def _assigned(pixels, conf):
    """The one nodule of a mask holding pixels, assigned over conf."""
    mask = np.zeros(conf.shape[1:], dtype=bool)
    mask[tuple(np.array(pixels).T)] = True
    table = pipeline.connected_components(mask)
    assert len(table) == 1
    pipeline.assign_nodules(table, conf.reshape(8, -1)[:, np.flatnonzero(mask)], CONSTANTS)
    return nodule_list(table, mask)[0]


def test_assign_greatest_overlap_wins():
    conf = _conf()
    # liver covers 3 nodule pixels, diaphragm 1
    for r, c in [(0, 0), (0, 1), (0, 2)]:
        conf[OrganClass.LIVER, r, c] = 0.75
    conf[OrganClass.DIAPHRAGM, 0, 3] = 0.99
    nodule = _assigned([(0, 0), (0, 1), (0, 2), (0, 3)], conf)
    assert nodule.assigned_organ is OrganClass.LIVER
    assert list(nodule.overlap_counts) == [1, 3, 0, 0, 0, 0, 0, 0]


def test_assign_no_overlap_stays_unassigned():
    conf = _conf()
    conf[OrganClass.LIVER, 2, 2] = 0.69  # below the 0.70 threshold
    nodule = _assigned([(2, 2)], conf)
    assert nodule.assigned_organ is None
    assert nodule.overlap_counts.sum() == 0


def test_assign_tie_broken_by_summed_confidence():
    conf = _conf()
    pixels = [(1, 1), (1, 2)]
    for r, c in pixels:
        conf[OrganClass.STOMACH, r, c] = 0.80  # sums to 1.60
        conf[OrganClass.BOWEL, r, c] = 0.95  # sums to 1.90
    nodule = _assigned(pixels, conf)
    assert nodule.assigned_organ is OrganClass.BOWEL


def test_assign_full_tie_broken_by_lowest_code():
    conf = _conf()
    for r, c in [(1, 1), (1, 2)]:
        for organ in (OrganClass.SPLEEN, OrganClass.GREATER_OMENTUM):
            conf[organ, r, c] = 0.9
    nodule = _assigned([(1, 1), (1, 2)], conf)
    assert nodule.assigned_organ is OrganClass.SPLEEN


def test_assign_checks_the_channel_count_without_nodules():
    """The channel count is checked before the early return for a mask
    without nodules, as it was when full organ masks were thresholded
    first."""
    empty = pipeline.connected_components(np.zeros((4, 4), dtype=bool))
    for bad in (np.zeros((7, 0), np.float32), np.zeros(0, np.float32)):
        with pytest.raises(CarcinoError, match="expected 8 organ channels"):
            pipeline.assign_nodules(empty, bad, CONSTANTS)
    assert len(pipeline.assign_nodules(empty, np.zeros((8, 0), np.float32), CONSTANTS)) == 0


def test_assign_rejects_pixels_outside_frame():
    """A pixel label outside [-1, len(table)), or a pixel count other than
    pixel_conf's, raises CarcinoError, not a bare ValueError
    from np.bincount; a pixel labelled -1, of a dropped nodule, counts
    for no nodule."""
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = mask[2, 2] = True
    pixel_conf = np.ones((8, 2), np.float32)
    for bad in (2, 16, -2):
        table = pipeline.connected_components(mask)
        table.pixel_nodule[1] = bad
        with pytest.raises(CarcinoError, match=r"\[-1, 2\)"):
            pipeline.assign_nodules(table, pixel_conf, CONSTANTS)
    for columns in (1, 3):
        table = pipeline.connected_components(mask)
        with pytest.raises(CarcinoError, match="pixel_conf"):
            pipeline.assign_nodules(table, np.ones((8, columns), np.float32), CONSTANTS)
    table = pipeline.connected_components(mask)
    table.pixel_nodule[1] = -1
    pipeline.assign_nodules(table, pixel_conf, CONSTANTS)
    assert table.counts.sum(axis=1).tolist() == [8, 0]
    assert table.organ.tolist() == [0, -1]


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
    table = pipeline.connected_components(pc)
    expected = loop_assign([n.pixels for n in nodule_list(table, pc)], conf >= thr, conf)
    constants = ScoringConstants(organ_confidence_threshold=threshold)
    pipeline.assign_nodules(table, conf.reshape(8, -1)[:, np.flatnonzero(pc)], constants)
    nodules = nodule_list(table, pc)
    assert len(nodules) == len(expected)
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
    stations, nodules = classify(frame, CONSTANTS)
    assert stations.tolist() == [[False] * 6]
    assert len(nodules) == 0


def test_classify_frame_spleen_marks_shared_station():
    frame = _frame_with_blobs(
        [[(2, 2), (2, 3)]],
        {OrganClass.SPLEEN: [(2, 2), (2, 3), (3, 2), (3, 3)]},
    )
    stations, _ = classify(frame, CONSTANTS)
    expected = [False] * 6
    expected[Station.STOMACH_SPLEEN_LESSER_OMENTUM] = True
    assert stations.tolist() == [expected]


def test_classify_frame_two_nodules_two_stations():
    frame = _frame_with_blobs(
        [[(0, 0)], [(8, 8), (8, 9)]],
        {
            OrganClass.DIAPHRAGM: [(0, 0), (0, 1)],
            OrganClass.BOWEL: [(8, 8), (8, 9), (9, 8)],
        },
    )
    stations, nodules = classify(frame, CONSTANTS)
    expected = [False] * 6
    expected[Station.DIAPHRAGM] = True
    expected[Station.BOWEL] = True
    assert stations.tolist() == [expected]
    assert len(nodules) == 2


def test_classify_frame_unassigned_nodule_counts_nowhere():
    frame = _frame_with_blobs([[(5, 5)]], {})
    stations, nodules = classify(frame, CONSTANTS)
    assert stations.tolist() == [[False] * 6]
    assert len(nodules) == 1
    assert nodules.organ.tolist() == [-1]


def test_classify_frame_min_nodule_pixels_filter():
    frame = _frame_with_blobs(
        [[(2, 2)]], {OrganClass.LIVER: [(2, 2), (2, 3)]}
    )
    strict = replace(CONSTANTS, min_nodule_pixels=2)
    stations, nodules = classify(frame, strict)
    assert stations.tolist() == [[False] * 6]
    assert len(nodules) == 0


def test_classify_frame_partition_invariant():
    rng = np.random.default_rng(99)
    for _ in range(20):
        conf = rng.random((8, 9, 9), dtype=np.float32)
        pc = rng.random((9, 9), dtype=np.float32)
        frame = make_frame(conf, pc)
        _, nodules = classify(frame, CONSTANTS)
        mask = pipeline.threshold_pc_mask(frame, CONSTANTS)
        union = set()
        for nodule in nodule_list(nodules, mask):
            assert not (union & pixel_set(nodule))
            union |= pixel_set(nodule)
        assert union == {(r, c) for r, c in zip(*np.nonzero(mask))}


def test_classify_frame_matches_naive_recomputation():
    rng = np.random.default_rng(321)
    for _ in range(25):
        conf = (rng.random((8, 8, 8)) * 1.2 - 0.1).clip(0, 1).astype(np.float32)
        pc = rng.random((8, 8), dtype=np.float32)
        frame = make_frame(conf, pc)
        stations, _ = classify(frame, CONSTANTS)
        assert tuple(stations[0].tolist()) == naive_station_vector(frame, CONSTANTS)


# --- aggregation and scoring ------------------------------------------------------


def _fa(stations):
    """A 1x12 frame positive for exactly the given stations: a one-pixel
    nodule at column 2s on the first organ of each positive station s."""
    organ_conf, pc = blank_organ_conf((1, 12)), np.zeros((1, 12))
    for s in np.flatnonzero(stations):
        organ_conf[_ORGANS_OF[s][0], 0, 2 * s] = pc[0, 2 * s] = 0.95
    return make_frame(organ_conf, pc)


def _video_stations(frames) -> tuple[bool, ...]:
    video, _ = pipeline.score_frames("v", frames, lambda f: f, CONSTANTS)
    assert video.frame_stations.tolist() == [
        classify(frame, CONSTANTS)[0][0].tolist() for frame in frames
    ]
    return video.station_positive


def test_aggregate_video_is_or():
    negative = [False] * 6
    one_hit = [False] * 6
    one_hit[3] = True
    frames = [_fa(negative)] * 2 + [_fa(one_hit)] + [_fa(negative)] * 7
    assert _video_stations(frames) == tuple(one_hit)
    assert _video_stations([_fa(negative)] * 4) == tuple(negative)


def test_aggregate_video_empty_raises():
    with pytest.raises(NoAssessableFramesError):
        pipeline.score_frames("v", [], lambda f: f, CONSTANTS)


def test_aggregate_monotone_under_added_frames():
    rng = np.random.default_rng(17)
    for _ in range(30):
        frames = [_fa(rng.random(6) < 0.3) for _ in range(rng.integers(1, 6))]
        before = _video_stations(frames)
        frames.append(_fa(rng.random(6) < 0.5))
        after = _video_stations(frames)
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
    with pytest.raises(CarcinoError, match=r"raster size \(5, 5\) differs from \(4, 4\)"):
        pipeline.score_video(manifest)


def test_score_video_deterministic(tmp_path):
    spec = synth.SynthSpec(seed=9, n_videos=1, frame_size=(32, 32), frames_per_video=3)
    index = synth.generate_cohort(spec, tmp_path / "cohort")
    from carcino.cohort import load_cohort

    video = load_cohort(index).videos[0]
    manifest = maskio.load_manifest(video.manifest_path)
    first = pipeline.score_video(manifest).to_json()
    second = pipeline.score_video(manifest).to_json()
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
    record = json.loads(pipeline.score_video(manifest).to_json())
    assert record["video_id"] == "rec"
    assert record["fs"] == 2
    assert record["its"] == "SurgeryIndicated"
    assert record["station_positive"]["diaphragm"] is True
    assert record["frames"][0]["nodules"] == [{"id": 0, "size": 1, "organ": "diaphragm"}]


_ODD_TEXT = st.text(
    alphabet=st.sampled_from('v0"\\/\x00\x1f\x7f\u00e9\u2028\u2603\U0001f600'), min_size=1
)
_TIMES = st.sampled_from([0, 5, 0.0, 0.1, 1e16, 5e-324, 2**53 + 1, -0.0]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@settings(max_examples=150, deadline=None)
@given(
    video_id=st.text(min_size=1) | _ODD_TEXT,
    times=st.lists(_TIMES, min_size=1, max_size=4),
    first_index=st.sampled_from([0, 7, 2**31, 2**70]),
    seed=st.integers(0, 2**32 - 1),
    min_pixels=st.integers(1, 3),
)
def test_to_json_writes_canonical_json_of_the_record(
    video_id, times, first_index, seed, min_pixels
):
    """VideoAssessment.to_json gives the bytes of canonical_json over the
    record built nodule by nodule: frames without nodules, unassigned
    nodules, id gaps left by min_nodule_pixels, int and float times,
    large frame indices, and ids needing escapes or outside ASCII."""
    rng = np.random.default_rng(seed)
    frames = [
        make_frame(
            rng.choice(_CONF_VALUES, (8, 5, 6)) * rng.integers(0, 2, (8, 1, 1)),
            rng.choice(_CONF_VALUES, (5, 6)) * rng.integers(0, 2),
            frame_index=first_index + 3 * k,
            time_s=time_s,
        )
        for k, time_s in enumerate(times)
    ]
    constants = ScoringConstants(min_nodule_pixels=min_pixels)
    video, _ = pipeline.score_frames(video_id, frames, lambda f: f, constants)
    assert video.to_json() == maskio.canonical_json(oracles.assessment_dict(video))
    for bad in (math.inf, math.nan):
        broken = replace(video, time_s=(*video.time_s[:-1], bad))
        with pytest.raises(ValueError):
            maskio.canonical_json(oracles.assessment_dict(broken))
        with pytest.raises(ValueError):
            broken.to_json()


# --- score_frames: the one per-video loop -----------------------------------


def test_score_frames_keeps_frames_at_or_above_roi_threshold():
    frames = [
        make_frame(blank_organ_conf((2, 2)), np.zeros((2, 2)), roi_score=s, frame_index=i)
        for i, s in enumerate((0.9, 0.2, 0.5))
    ]
    for threshold, kept in ((0.5, [0, 2]), (0.0, [0, 1, 2])):  # 0.5 kept: >= semantics
        constants = ScoringConstants(roi_threshold=threshold)
        video, _ = pipeline.score_frames("v", frames, lambda f: f, constants)
        assert list(video.frame_index) == kept
        assert video.frames_used == len(kept)


def test_score_frames_reads_runs_block_by_block():
    """The stack's row runs are read each time a block of frames fills
    and once more for the frames left over; any block size, here one
    frame, two and all 21, gives the same assessment."""
    rng = np.random.default_rng(8)
    frames = [
        make_frame(
            rng.choice(_CONF_VALUES, (8, 5, 6)),
            rng.choice(_CONF_VALUES, (5, 6)),
            roi_score=0.9,
            frame_index=i,
        )
        for i in range(21)
    ]
    whole, _ = pipeline.score_frames("v", frames, lambda f: f, CONSTANTS)
    assert whole.frames_used == 21 and len(whole.nodules) > 21
    for block_pixels in (1, 100):  # a stacked frame is 6x6: one frame a block, then two
        with mock.patch.object(pipeline, "_RUN_BLOCK_PIXELS", block_pixels):
            video, _ = pipeline.score_frames("v", iter(frames), lambda f: f, CONSTANTS)
        assert video.to_json() == whole.to_json()
        assert video.frame_stations.tolist() == whole.frame_stations.tolist()


def test_score_frames_scores_frames_without_pixels_all_negative():
    for shape in ((3, 0), (0, 3)):
        frames = [make_frame(blank_organ_conf(shape), np.zeros(shape))] * 3
        video, _ = pipeline.score_frames("v", frames, lambda f: f, CONSTANTS)
        assert video.station_positive == (False,) * 6 and len(video.nodules) == 0
        assert video.frames_used == 3


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
    pixels and runs once per video, over its ROI frames stacked with a
    blank row after each."""
    gt = {"gt_labels": np.zeros((2, 2), np.uint8), "gt_pc": np.zeros((2, 2), np.uint8)}
    frames = [
        make_frame(blank_organ_conf((2, 2)), np.zeros((2, 2)), 0.9, 0, gt_roi=True, **gt),
        make_frame(blank_organ_conf((2, 2)), np.zeros((2, 2)), 0.1, 1, gt_roi=True, **gt),
        make_frame(blank_organ_conf((2, 2)), np.zeros((2, 2)), 0.9, 2),
    ]
    calls = {"threshold": [], "classify": []}

    def counted(name, func, key):
        def wrapper(first, *args, **kwargs):
            calls[name].append(key(first))
            return func(first, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        pipeline,
        "threshold_organ_masks",
        counted("threshold", pipeline.threshold_organ_masks, lambda frame: frame.frame_index),
    )
    monkeypatch.setattr(
        pipeline, "classify_frame", counted("classify", pipeline.classify_frame, np.shape)
    )
    pipeline.score_frames("v", frames, lambda f: f, CONSTANTS, want_dice=True)
    assert calls == {"threshold": [0, 1], "classify": [(2, 3, 2)]}


def test_a_frame_without_eight_organ_planes_fails_on_every_path(tmp_path):
    """A frame of 7 organ planes, or of one 2-D organ plane, cannot be
    built in memory; read from disk, a ROI frame without nodules and a
    non-ROI frame that feeds only the carcinomatosis Dice each raise
    CarcinoError on the channel count, though neither thresholds full
    organ masks."""
    seven, pc = np.zeros((7, 2, 2), np.float32), np.zeros((2, 2))
    for organ_conf in (seven, np.zeros((2, 2), np.float32)):
        with pytest.raises(CarcinoError, match=r"organ_conf is \(.*\), not \(8, H, W\)"):
            make_frame(organ_conf, pc)
    roi_frame = {"organ_conf": seven, "pc_conf": pc, "roi_score": 0.9}
    dice_frame = {**roi_frame, "roi_score": 0.1, "gt_roi": True, "gt_pc": np.zeros((2, 2))}
    manifest = write_video(tmp_path, "v", [roi_frame, dice_frame])
    for record, want_dice in zip(manifest.frames, (False, True)):
        load = maskio.frame_loader(manifest.base_dir)
        with pytest.raises(CarcinoError, match="7 channels, not 8"):
            pipeline.score_frames("v", [record], load, CONSTANTS, want_dice)


def test_classify_frame_checks_the_size_of_a_given_pc_mask():
    """pc_mask and pixel_conf both come from the caller: pixel_conf must
    hold one column per true pixel of the mask."""
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = True
    for bad in (np.zeros((8, 2), np.float32), np.zeros((8, 4, 4), np.float32)):
        with pytest.raises(CarcinoError, match="pc_mask has 1 true pixels"):
            pipeline.classify_frame(mask, bad, CONSTANTS)


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


_TIE_VALUES = np.array([0.0, 0.5, 0.69, 0.7, 0.75, 0.8, 0.9, 1.0], dtype=np.float32)


@st.composite
def _stacked_videos(draw):
    """Videos of 1-6 frames of one size from 1x1 to 24x24, width 1 often:
    carcinomatosis masks from empty to full, now and then a nodule on a
    frame's last row beside one on the next frame's first row, organ
    confidences from few values with some organ planes copied onto
    others (equal overlap counts, and with the confidences copied too,
    equal sums), and now and then a frame below the ROI threshold."""
    n = draw(st.integers(1, 6))
    height = draw(st.integers(1, 24))
    width = draw(st.one_of(st.just(1), st.integers(1, 24)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pcs = []
    for i in range(n):
        density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
        pc = np.where(rng.random((height, width)) < density, np.float32(0.95), np.float32(0.5))
        if i and draw(st.booleans()):  # touching across the frame edge if not cut
            col = draw(st.integers(0, width - 1))
            pcs[-1][-1, col] = pc[0, col] = 0.95
        pcs.append(pc)
    frames = []
    for i, pc in enumerate(pcs):
        conf = rng.choice(_TIE_VALUES, (8, height, width))
        for src, dst in draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=3)):
            if draw(st.booleans()):
                conf[dst] = conf[src]
            else:
                conf[dst] = np.where(conf[src] >= 0.7, np.float32(0.9), np.float32(0.1))
        roi = draw(st.sampled_from([0.9, 0.9, 0.9, 0.1]))
        frames.append(make_frame(conf, pc, roi_score=roi, frame_index=i, time_s=2.5 * i))
    return frames


@settings(max_examples=300, deadline=None)
@given(
    frames=_stacked_videos(),
    min_pixels=st.integers(1, 4),
    block_pixels=st.sampled_from([1, 60, 300, 1 << 16]),
)
def test_video_path_matches_per_frame_reference(frames, min_pixels, block_pixels):
    """score_frames labels and assigns a video's ROI frames as one stack,
    its row runs read in blocks of one frame to all frames; the former
    per-frame chain, run on each ROI frame alone, gives the same station
    flags per frame, and the same frame, id, size, organ and overlap
    counts for every nodule, in order."""
    constants = ScoringConstants(min_nodule_pixels=min_pixels)
    roi_frames = [f for f in frames if f.roi_score >= constants.roi_threshold]
    with mock.patch.object(pipeline, "_RUN_BLOCK_PIXELS", block_pixels):
        if not roi_frames:
            with pytest.raises(NoAssessableFramesError):
                pipeline.score_frames("v", frames, lambda f: f, constants)
            return
        video, _ = pipeline.score_frames("v", frames, lambda f: f, constants)
    reference = [oracles.classify_frame(frame, constants) for frame in roi_frames]
    assert video.frame_index == tuple(fa.frame_index for fa in reference)
    assert video.time_s == tuple(fa.time_s for fa in reference)
    assert video.frame_stations.tolist() == [list(fa.station_positive) for fa in reference]
    assert video.station_positive == oracles.aggregate_video(reference)
    table = video.nodules
    got = list(
        zip(
            table.frame.tolist(),
            table.id.tolist(),
            table.size.tolist(),
            table.organ.tolist(),
            table.counts.tolist(),
        )
    )
    want = [
        (k, n.id, n.size, -1 if n.assigned_organ is None else n.assigned_organ, list(n.overlap_counts))
        for k, fa in enumerate(reference)
        for n in fa.nodules
    ]
    assert got == want


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


def _relevance(records):
    """The relevance counts evaluation takes from records, as the [tp, fp,
    tn, fn] list of assess_frames, or None where no record has a flag."""
    counts = cohort._relevance_counts(records, CONSTANTS)
    return [counts.tp, counts.fp, counts.tn, counts.fn] if counts.total else None


def _oracle_relevance(records):
    """assess_frames' ROI counts over records, one blank frame standing
    in for every raster it reads."""
    blank = make_frame(blank_organ_conf((1, 1)), np.zeros((1, 1)))
    return assess_frames(records, lambda record: blank, CONSTANTS, False, True)["roi"]


def _outcome(run):
    """(loaded frame indices, result or (error class, message))."""
    loaded = []
    try:
        result = run(lambda frame: loaded.append(frame.frame_index) or frame)
    except CarcinoError as exc:
        result = (type(exc), str(exc))
    return loaded, result


@settings(max_examples=200, deadline=None)
@given(frames=_videos(), want_dice=st.booleans())
def test_score_frames_matches_former_evaluation_loop(frames, want_dice):
    """The merged loop loads the same frames and yields the same
    prediction and Dice lists (values and order) as the former
    evaluation loop, and the relevance counts taken from the records
    equal its ROI counts; its two failures keep their messages and
    become NoAssessableFramesError and CarcinoError."""

    def merged(load):
        video, dice = pipeline.score_frames("v", frames, load, CONSTANTS, want_dice)
        prediction = {
            "stations": list(video.station_positive),
            "fs": video.fs,
            "its": video.its.value,
            "frames_used": video.frames_used,
        }
        return {"prediction": prediction, "dice": dice, "roi": _relevance(frames)}

    loaded, got = _outcome(merged)
    want_loaded, want = _outcome(
        lambda load: assess_frames(frames, load, CONSTANTS, want_dice, True)
    )
    assert _relevance(frames) == _oracle_relevance(frames)
    assert loaded == want_loaded
    if isinstance(want, tuple):  # the size check
        assert got == (CarcinoError, want[1])
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
@given(video=_disk_videos(), want_dice=st.booleans())
def test_frame_loader_scores_as_fresh_loads(video, want_dice):
    """score_frames over a video read through one frame_loader returns the
    assessment and Dice lists that a fresh load_frame per record gives,
    or fails with the same error class and message. The relevance counts
    of the manifest, whatever its rasters' damage, equal the former
    loop's ROI counts."""
    frames, damage = video
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_video(Path(tmp), "v", frames)
        _damage(manifest, damage)

        def outcome(load):
            try:
                assessment, dice = pipeline.score_frames(
                    "v", manifest.frames, load, CONSTANTS, want_dice
                )
            except (CarcinoError, OSError) as exc:
                return type(exc), str(exc)
            return assessment.to_json(), dice

        fresh = outcome(lambda record: maskio.load_frame(record, manifest.base_dir))
        assert outcome(maskio.frame_loader(manifest.base_dir)) == fresh
        assert _relevance(manifest.frames) == _oracle_relevance(manifest.frames)


# --- metamorphic relations ---------------------------------------------------
#
# Relations between whole runs rather than checks against a reference: they
# hold at the default constants, where the organ tie-break sums are exact
# (see assign_nodules), so the order in which a nodule's pixels are read
# cannot decide its organ.

_TRANSFORMS = {
    "transpose": lambda plane: plane.swapaxes(-1, -2),
    "flip rows": lambda plane: plane[..., ::-1, :],
    "flip columns": lambda plane: plane[..., ::-1],
}


def _transformed(frame, transform):
    return replace(
        frame,
        organ_conf=np.ascontiguousarray(transform(frame.organ_conf)),
        pc_conf=np.ascontiguousarray(transform(frame.pc_conf)),
    )


def _nodules_by_frame(table, n_frames) -> list[list[tuple[int, int]]]:
    """Each frame's nodules as a sorted list of (size, organ)."""
    rows = sorted(zip(table.frame.tolist(), table.size.tolist(), table.organ.tolist()))
    return [[(size, organ) for f, size, organ in rows if f == k] for k in range(n_frames)]


def _scored_shape(frames):
    """The station flags, score, indication and per-frame (size, organ)
    multisets score_frames gives, or the error class it raises."""
    try:
        video, _ = pipeline.score_frames("v", frames, lambda f: f, CONSTANTS)
    except NoAssessableFramesError:
        return NoAssessableFramesError
    return (
        video.station_positive,
        video.fs,
        video.its,
        video.frame_stations.tolist(),
        _nodules_by_frame(video.nodules, video.frames_used),
    )


def _components_shape(frames, connectivity):
    """Per-frame (size, organ) multisets of the frames labelled as one
    stack, a blank row after each, at that connectivity, and assigned."""
    masks = [pipeline.threshold_pc_mask(frame, CONSTANTS) for frame in frames]
    height, width = masks[0].shape
    stack = np.zeros((len(masks), height + 1, width), dtype=bool)
    stack[:, :-1] = masks
    pixel_conf = np.concatenate(
        [f.organ_conf.reshape(8, -1)[:, np.flatnonzero(m)] for f, m in zip(frames, masks)], axis=1
    )
    nodules = pipeline.connected_components(stack, connectivity)
    pipeline.assign_nodules(nodules, pixel_conf, CONSTANTS)
    return _nodules_by_frame(nodules, len(frames))


@settings(max_examples=200, deadline=None)
@given(
    frames=_stacked_videos(),
    name=st.sampled_from(sorted(_TRANSFORMS)),
    block_pixels=st.sampled_from([1, 60, 300, 1 << 16]),
)
def test_transposing_or_flipping_every_raster_changes_no_outcome(frames, name, block_pixels):
    """Transposing every raster of a video, or flipping it along either
    axis, maps each nodule onto a nodule of the same size and organ
    overlap in the same frame: the station flags, FS, ItS and each
    frame's multiset of (size, organ) stay the same, through score_frames
    (its row runs read in blocks of one frame to all frames) and through
    connected_components at 4- and 8-connectivity."""
    moved = [_transformed(frame, _TRANSFORMS[name]) for frame in frames]
    with mock.patch.object(pipeline, "_RUN_BLOCK_PIXELS", block_pixels):
        assert _scored_shape(moved) == _scored_shape(frames)
    for connectivity in (4, 8):
        assert _components_shape(moved, connectivity) == _components_shape(frames, connectivity)


@settings(max_examples=150, deadline=None)
@given(
    frames=st.one_of(_stacked_videos(), _videos()),
    data=st.data(),
    want_dice=st.booleans(),
)
def test_a_frame_below_the_roi_threshold_changes_no_byte(frames, data, want_dice):
    """A frame inserted anywhere in a video, below the ROI threshold, with
    no ground-truth rasters and no relevance flag, changes no byte of the
    assessment, nor the Dice lists, the relevance counts or the error
    raised."""
    frames = [  # odd indices, so that the new frame takes an even one between them
        replace(frame, frame_index=2 * i + 1, time_s=2.5 * (2 * i + 1))
        for i, frame in enumerate(frames)
    ]
    at = data.draw(st.integers(0, len(frames)), label="at")
    below = [score for score in _ROI_SCORES if score < CONSTANTS.roi_threshold]
    roi_score = data.draw(st.sampled_from(below), label="roi_score")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    shape = frames[0].pc_conf.shape
    added = make_frame(
        rng.choice(_TIE_VALUES, (8, *shape)),
        rng.choice(_TIE_VALUES, shape),
        roi_score=roi_score,
        frame_index=2 * at,
        time_s=2.5 * 2 * at,
    )

    def outcome(video_frames):
        relevance = _relevance(video_frames)
        try:
            video, dice = pipeline.score_frames(
                "v", video_frames, lambda f: f, CONSTANTS, want_dice
            )
        except CarcinoError as exc:
            return type(exc), str(exc), relevance
        return video.to_json(), dice, relevance

    assert outcome([*frames[:at], added, *frames[at:]]) == outcome(frames)


def _scored_at(frames, **constants):
    """score_frames' assessment of frames at these constants, or None
    where it raises (no ROI frame, or frames of two sizes)."""
    try:
        video, _ = pipeline.score_frames("v", frames, lambda f: f, ScoringConstants(**constants))
    except CarcinoError:
        return None
    return video


@settings(max_examples=150, deadline=None)
@given(
    frames=st.one_of(_stacked_videos(), _videos()),
    levels=st.lists(st.integers(1, 6), min_size=2, max_size=2).map(sorted),
)
def test_raising_min_nodule_pixels_never_turns_a_station_on(frames, levels):
    """At the higher min_nodule_pixels no station turns on, in any frame or
    in the video, and the nodule table is the lower level's nodules of at
    least that many pixels, whose organs' stations are the flags."""
    low, high = (_scored_at(frames, min_nodule_pixels=m) for m in levels)
    if low is None:
        assert high is None
        return
    assert not (high.frame_stations & ~low.frame_stations).any()
    assert all(h <= l for h, l in zip(high.station_positive, low.station_positive))
    kept = low.nodules.take(low.nodules.size >= levels[1])
    for column in ("frame", "id", "size", "organ", "counts"):
        assert getattr(high.nodules, column).tolist() == getattr(kept, column).tolist()
    flags = np.zeros_like(low.frame_stations)
    for frame, organ in zip(kept.frame.tolist(), kept.organ.tolist()):
        if organ >= 0:
            flags[frame, _STATION_OF[organ]] = True
    assert high.frame_stations.tolist() == flags.tolist()


_PC_THRESHOLDS = st.sampled_from([0.5, 0.69, 0.7, 0.89, 0.9, 0.95, 1.0]) | st.floats(0.01, 1.0)


@settings(max_examples=150, deadline=None)
@given(
    frames=st.one_of(_stacked_videos(), _videos()),
    thresholds=st.lists(_PC_THRESHOLDS, min_size=2, max_size=2).map(sorted),
)
def test_raising_pc_confidence_threshold_never_adds_a_nodule_pixel(frames, thresholds):
    """At min_nodule_pixels 1 every thresholded pixel lies in a nodule;
    at the higher pc_confidence_threshold no frame holds more of them."""
    low, high = (_scored_at(frames, pc_confidence_threshold=t) for t in thresholds)
    if low is None:
        assert high is None
        return

    def pixels(video):
        return np.bincount(video.nodules.frame, weights=video.nodules.size,
                           minlength=video.frames_used)

    assert high.frames_used == low.frames_used
    assert (pixels(high) <= pixels(low)).all()


@st.composite
def _generated_roi_frames(draw):
    """The ROI frames of one generated video, 3-8 frames of 16x16 to
    24x24 under blob, miss, morph and jitter noise, each frame's rasters
    copied out of the generator's shared arrays."""
    spec = synth.SynthSpec(
        seed=draw(st.integers(0, 2**32 - 1)),
        n_videos=1,
        frame_size=(draw(st.integers(16, 24)), draw(st.integers(16, 24))),
        frames_per_video=draw(st.integers(3, 8)),
        station_prevalence=(0.7,) * 6,
        noise=synth.NoiseSpec(
            confidence_jitter=draw(st.sampled_from([0.0, 0.05])),
            boundary_morph=draw(st.integers(0, 1)),
            false_blob_rate=draw(st.sampled_from([0.0, 2.0, 6.0])),
            miss_rate=draw(st.sampled_from([0.0, 0.3])),
        ),
    )
    frames = synth._video_frames(spec, 0, synth._planted_stations(spec, 0))
    return [
        replace(frame, organ_conf=frame.organ_conf.copy(), pc_conf=frame.pc_conf.copy())
        for frame in frames
    ]


def _frame_groups(table):
    """Each frame's (id, size, organ, counts) rows of a nodule table, in
    table order, after checking that the frames come in order."""
    assert (np.diff(table.frame) >= 0).all()
    rows = list(
        zip(table.id.tolist(), table.size.tolist(), table.organ.tolist(), table.counts.tolist())
    )
    groups = {}
    for frame, row in zip(table.frame.tolist(), rows):
        groups.setdefault(frame, []).append(row)
    return groups


@settings(max_examples=60, deadline=None)
@given(
    frames=_generated_roi_frames(),
    min_pixels=st.integers(1, 6),
    frames_per_block=st.integers(1, 2),
    data=st.data(),
)
def test_reordering_the_roi_frames_moves_their_nodules_with_them(
    frames, min_pixels, frames_per_block, data
):
    """Reversing, then shuffling, the ROI frames of a generated video,
    with the stack's row runs read in blocks of one or two frames so
    that it crosses block edges, moves each frame's group of nodule
    rows with its frame and leaves the rows of every frame (id, size,
    organ, overlap counts), the station flags, FS and ItS unchanged."""
    constants = ScoringConstants(min_nodule_pixels=min_pixels)
    height, width = frames[0].pc_conf.shape
    shuffled = data.draw(st.permutations(range(len(frames))), label="shuffled")
    with mock.patch.object(pipeline, "_RUN_BLOCK_PIXELS", frames_per_block * (height + 1) * width):
        base, _ = pipeline.score_frames("v", frames, lambda f: f, constants)
        base_groups = _frame_groups(base.nodules)
        for order in (list(range(len(frames)))[::-1], shuffled):
            moved, _ = pipeline.score_frames(
                "v", [frames[k] for k in order], lambda f: f, constants
            )
            assert moved.frame_index == tuple(base.frame_index[k] for k in order)
            groups = _frame_groups(moved.nodules)
            assert [groups.get(i, []) for i in range(len(order))] == [
                base_groups.get(k, []) for k in order
            ]
            assert moved.frame_stations.tolist() == base.frame_stations[order].tolist()
            assert moved.station_positive == base.station_positive
            assert (moved.fs, moved.its) == (base.fs, base.its)
