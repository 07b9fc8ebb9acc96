import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from carcino import maskio, pipeline, synth
from carcino.cohort import load_cohort
from carcino.core import Indication, ScoringConstants
from carcino.errors import CarcinoError, InvalidSpecError
from carcino.synth import NoiseSpec, SynthSpec, generate_cohort, monte_carlo_sweep

from oracles import (
    disk_sweep_run,
    grid_disc,
    nodule_site,
    oracle_fs,
    oracle_stations,
    organ_layout,
    nodule_list,
    pixel_set,
    reference_frame,
    shift_dilate,
    shift_erode,
)


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        SynthSpec(seed=1, frame_size=(8, 8))
    with pytest.raises(InvalidSpecError):
        SynthSpec(seed=1, station_prevalence=(0.5,) * 5)
    with pytest.raises(InvalidSpecError):
        SynthSpec(seed=1, station_prevalence=(1.5,) * 6)
    with pytest.raises(InvalidSpecError):
        SynthSpec(seed=1, nodules_per_positive_station=(0, 2))
    with pytest.raises(InvalidSpecError):
        SynthSpec(seed=1, noise=NoiseSpec(confidence_jitter=-0.1))
    with pytest.raises(InvalidSpecError):
        SynthSpec(seed=1, noise=NoiseSpec(miss_rate=1.5))


def test_spec_bounds_counts_by_the_frame_area():
    """A false_blob_rate of 1e300 used to die in rng.poisson and a
    nodule count of 2**63 - 1 to loop without end; both are now bounded
    by width * height when the spec is built."""
    area = 16 * 20
    SynthSpec(seed=1, frame_size=(16, 20), nodules_per_positive_station=(1, area))
    SynthSpec(seed=1, frame_size=(16, 20), noise=NoiseSpec(false_blob_rate=float(area)))
    for hi in (area + 1, 2**63 - 1):
        with pytest.raises(InvalidSpecError, match="frame area 320"):
            SynthSpec(seed=1, frame_size=(16, 20), nodules_per_positive_station=(1, hi))
    for rate in (area + 0.5, 1e300):
        with pytest.raises(InvalidSpecError, match="false_blob_rate must be at most"):
            SynthSpec(seed=1, frame_size=(16, 20), noise=NoiseSpec(false_blob_rate=rate))


def test_spec_dict_roundtrip(tmp_path):
    spec = SynthSpec(seed=5, n_videos=3, noise=NoiseSpec(miss_rate=0.25))
    again = SynthSpec.from_dict(spec.to_dict())
    assert again == spec
    path = tmp_path / "spec.json"
    path.write_text(maskio.canonical_json(spec.to_dict()))
    assert SynthSpec.from_json_file(path) == spec
    with pytest.raises(InvalidSpecError):
        SynthSpec.from_dict({"seed": 1, "bogus": 2})


def test_unknown_noise_field_is_rejected_by_name(tmp_path):
    """It used to raise a bare TypeError from the NoiseSpec constructor."""
    data = {"seed": 1, "noise": {"miss_rate": 0.1, "bogus": 1}}
    with pytest.raises(InvalidSpecError, match=r"^unknown noise field\(s\): \['bogus'\]$"):
        SynthSpec.from_dict(data)
    path = tmp_path / "spec.json"
    path.write_text(maskio.canonical_json(data))
    with pytest.raises(InvalidSpecError, match="unknown noise field"):
        SynthSpec.from_json_file(path)


def test_same_spec_generates_identical_bytes(tmp_path):
    spec = SynthSpec(seed=11, n_videos=3, frame_size=(32, 32), frames_per_video=2)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    generate_cohort(spec, dir_a)
    generate_cohort(spec, dir_b)
    assert _tree_bytes(dir_a) == _tree_bytes(dir_b)


# SHA-256 over (relative path, SHA-256 of the file) of every file that
# generate_cohort writes, taken from the generator as it stood before its
# morphology, nodule placement and shape drawing were reworked for speed
PINNED_TREES = [
    (
        SynthSpec(
            seed=17,
            n_videos=3,
            frame_size=(48, 40),
            frames_per_video=3,
            nonroi_frames_per_video=1,
            station_prevalence=(0.8,) * 6,
            nodules_per_positive_station=(2, 4),
            noise=NoiseSpec(
                confidence_jitter=0.1, boundary_morph=2, false_blob_rate=3.0, miss_rate=0.25
            ),
        ),
        "657993e8c5982255012a79f6665de9c7cede4ef10ef50b918d7b11a947fed453",
    ),
    (
        # the smallest frame: 3x3 organ cells, so nodules fall back to radius 0
        SynthSpec(
            seed=5,
            n_videos=2,
            frame_size=(16, 17),
            frames_per_video=2,
            station_prevalence=(1.0,) * 6,
            noise=NoiseSpec(
                confidence_jitter=0.05, boundary_morph=2, false_blob_rate=2.0, miss_rate=0.1
            ),
        ),
        "a91a08f224d8175a7060810977928d532333c08ca835e17185e55ab1b0d76466",
    ),
    (
        # jitter-free, as the dense-96 benchmark: no Gaussian planes are drawn,
        # so nodule sites and discs set the bytes. Rectangles and ellipses both
        # take nodules, and the false blobs clip at all four frame edges. Its
        # digest predates the caching of organ shapes and disc stencils.
        SynthSpec(
            seed=29,
            n_videos=3,
            frame_size=(50, 41),
            frames_per_video=3,
            nonroi_frames_per_video=1,
            station_prevalence=(0.8,) * 6,
            nodules_per_positive_station=(3, 6),
            noise=NoiseSpec(false_blob_rate=12.0),
        ),
        "ee15c6bf9e13821150fccbc5d56b5bc5bac55edbe969135b6dccbf20c63ecc37",
    ),
]


@pytest.mark.parametrize("spec, digest", PINNED_TREES)
def test_generated_bytes_are_pinned(tmp_path, spec, digest):
    """Generated cohorts are a compatibility surface: any change to these
    bytes needs a deliberate, documented generator-version bump."""
    generate_cohort(spec, tmp_path)
    tree = hashlib.sha256()
    for rel, data in _tree_bytes(tmp_path).items():
        tree.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    assert tree.hexdigest() == digest


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("spec, digest", PINNED_TREES)
def test_generated_bytes_are_pinned_at_any_jobs(tmp_path, spec, digest, jobs):
    generate_cohort(spec, tmp_path, jobs=jobs)
    tree = hashlib.sha256()
    for rel, data in _tree_bytes(tmp_path).items():
        tree.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    assert tree.hexdigest() == digest


def test_different_seed_differs(tmp_path):
    a = generate_cohort(SynthSpec(seed=1, n_videos=1, frames_per_video=1), tmp_path / "a")
    b = generate_cohort(SynthSpec(seed=2, n_videos=1, frames_per_video=1), tmp_path / "b")
    tree_a = _tree_bytes(a.parent)
    tree_b = _tree_bytes(b.parent)
    assert any(
        tree_a[k] != tree_b[k]
        for k in tree_a
        if k in tree_b and k.endswith(".msk")
    )


def test_zero_prevalence_all_scores_zero(tmp_path):
    spec = SynthSpec(
        seed=2, n_videos=4, frame_size=(32, 32), frames_per_video=2,
        station_prevalence=(0.0,) * 6,
    )
    cohort = load_cohort(generate_cohort(spec, tmp_path))
    for video in cohort.videos:
        assert video.ground_truth.fs == 0
        assert video.ground_truth.its is Indication.SURGERY_INDICATED
        assert oracle_fs(video) == 0
        assessment = pipeline.score_video(maskio.load_manifest(video.manifest_path))
        assert assessment.fs == 0


def test_full_prevalence_all_twelve_and_pipeline_agrees(tmp_path):
    spec = SynthSpec(
        seed=3, n_videos=3, frame_size=(32, 32), frames_per_video=2,
        station_prevalence=(1.0,) * 6,
    )
    cohort = load_cohort(generate_cohort(spec, tmp_path))
    for video in cohort.videos:
        assert oracle_fs(video) == 12
        assessment = pipeline.score_video(maskio.load_manifest(video.manifest_path))
        assert assessment.fs == 12
        assert assessment.its is Indication.SURGERY_CONTRAINDICATED


def test_oracle_matches_pipeline_at_zero_noise(small_cohort_index):
    cohort = load_cohort(small_cohort_index)
    for video in cohort.videos:
        assessment = pipeline.score_video(maskio.load_manifest(video.manifest_path))
        assert assessment.fs == oracle_fs(video)
        assert assessment.station_positive == oracle_stations(video)


def test_planted_nodules_lie_inside_their_organ(small_cohort_index):
    """Every ground-truth carcinomatosis pixel sits on some organ, and
    each nodule blob is contained in a single organ's true mask."""
    cohort = load_cohort(small_cohort_index)
    for video in cohort.videos[:4]:
        manifest = maskio.load_manifest(video.manifest_path)
        for record in manifest.frames:
            frame = maskio.load_frame(record, manifest.base_dir)
            if not frame.gt_pc.any():
                continue
            organ_pixels = frame.gt_labels > 0
            assert not (frame.gt_pc.astype(bool) & ~organ_pixels).any()
            mask = frame.gt_pc.astype(bool)
            for nodule in nodule_list(pipeline.connected_components(mask), mask):
                labels = {int(frame.gt_labels[r, c]) for r, c in pixel_set(nodule)}
                assert len(labels) == 1 and labels != {0}


def test_nonroi_frames_are_filtered_and_flagged(tmp_path):
    spec = SynthSpec(
        seed=6, n_videos=1, frame_size=(32, 32), frames_per_video=3,
        nonroi_frames_per_video=2,
    )
    cohort = load_cohort(generate_cohort(spec, tmp_path))
    manifest = maskio.load_manifest(cohort.videos[0].manifest_path)
    assert len(manifest.frames) == 5
    roi_flags = [rec.gt_roi for rec in manifest.frames]
    assert roi_flags == [True, True, True, False, False]
    assessment = pipeline.score_video(manifest)
    assert assessment.frames_used == 3


def test_miss_rate_one_yields_all_negative_predictions(tmp_path):
    spec = SynthSpec(
        seed=8, n_videos=4, frame_size=(32, 32), frames_per_video=2,
        noise=NoiseSpec(miss_rate=1.0),
    )
    cohort = load_cohort(generate_cohort(spec, tmp_path))
    for video in cohort.videos:
        assessment = pipeline.score_video(maskio.load_manifest(video.manifest_path))
        assert assessment.fs == 0
        assert assessment.station_positive == (False,) * 6


def test_noise_perturbs_but_stays_valid(tmp_path):
    spec = SynthSpec(
        seed=9, n_videos=2, frame_size=(32, 32), frames_per_video=2,
        noise=NoiseSpec(confidence_jitter=0.2, boundary_morph=1, false_blob_rate=1.0,
                        miss_rate=0.3),
    )
    cohort = load_cohort(generate_cohort(spec, tmp_path))
    for video in cohort.videos:
        manifest = maskio.load_manifest(video.manifest_path)
        for record in manifest.frames:
            frame = maskio.load_frame(record, manifest.base_dir)  # validates ranges
            assert frame.organ_conf.min() >= 0.0
            assert frame.organ_conf.max() <= 1.0


def test_sweep_degenerate_single_cell():
    spec = SynthSpec(seed=12, n_videos=3, frame_size=(32, 32), frames_per_video=2)
    report = monte_carlo_sweep(spec, "miss_rate", [0.0], 1)
    assert report["param"] == "miss_rate"
    assert len(report["levels"]) == 1
    entry = report["levels"][0]
    assert entry["summary"]["fs_rmse_normalized"]["mean"] == 0.0
    assert entry["summary"]["its_f1_average"]["mean"] == 1.0
    assert len(entry["values"]["fs_rmse"]) == 1


def test_sweep_miss_rate_extremes():
    spec = SynthSpec(seed=13, n_videos=6, frame_size=(32, 32), frames_per_video=2)
    report = monte_carlo_sweep(spec, "miss_rate", [0.0, 1.0], 2)
    zero, one = report["levels"]
    assert zero["summary"]["fs_rmse_normalized"]["mean"] == 0.0
    assert all(v == 0.0 for v in zero["values"]["fs_rmse"])
    # at miss rate 1 every prediction is score 0, so the RMSE must equal
    # the RMS of the planted ground-truth scores, computable in closed form
    for rep_index, observed in enumerate(one["values"]["fs_rmse"]):
        rep_seed = synth._replicate_seed(spec.seed, 1, rep_index)
        from dataclasses import replace

        rep_spec = replace(spec, seed=rep_seed, noise=NoiseSpec(miss_rate=1.0))
        gt_fs = [
            2 * sum(synth._planted_stations(rep_spec, i))
            for i in range(rep_spec.n_videos)
        ]
        expected = math.sqrt(sum(v * v for v in gt_fs) / len(gt_fs))
        assert abs(observed - expected) < 1e-9


def test_sweep_integer_noise_parameter():
    spec = SynthSpec(seed=15, n_videos=2, frame_size=(32, 32), frames_per_video=1)
    report = monte_carlo_sweep(spec, "boundary_morph", [0, 2], 1)
    assert report["levels"][0]["summary"]["fs_rmse"]["mean"] == 0.0
    assert report["levels"][1]["level"] == 2.0


def test_sweep_csv_rendering():
    spec = SynthSpec(seed=14, n_videos=2, frame_size=(32, 32), frames_per_video=1)
    report = monte_carlo_sweep(spec, "miss_rate", [0.0, 1.0], 2)
    csv_text = synth.render_sweep_csv(report)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "param,level,replicate,fs_rmse,fs_rmse_normalized,station_f1_average,its_f1_average"
    assert len(lines) == 1 + 2 * 2  # header + levels x replicates
    assert lines[1].startswith("miss_rate,0.0,0,")


def test_sweep_rejects_bad_arguments():
    spec = SynthSpec(seed=1, n_videos=2, frames_per_video=1)
    with pytest.raises(InvalidSpecError):
        monte_carlo_sweep(spec, "not_a_knob", [0.0], 1)
    with pytest.raises(InvalidSpecError):
        monte_carlo_sweep(spec, "miss_rate", [], 1)
    with pytest.raises(InvalidSpecError):
        monte_carlo_sweep(spec, "miss_rate", [0.0], 0)


def test_sweep_level_takes_the_declared_field_type():
    """A level is cast with the noise field's declared type, not with the
    type of the base spec's value: an int 0 jitter used to sweep 0.45 as
    int(0.45) == 0 and report RMSE 0."""
    shape = dict(seed=17, n_videos=4, frame_size=(32, 32), frames_per_video=2)
    as_int = monte_carlo_sweep(
        SynthSpec(**shape, noise=NoiseSpec(confidence_jitter=0)), "confidence_jitter", [0.45], 1
    )
    as_float = monte_carlo_sweep(
        SynthSpec(**shape, noise=NoiseSpec(confidence_jitter=0.0)), "confidence_jitter", [0.45], 1
    )
    assert as_int["levels"] == as_float["levels"]
    assert as_int["levels"][0]["values"]["fs_rmse"][0] > 0


def test_sweep_rejects_fractional_level_of_int_field():
    spec = SynthSpec(seed=1, n_videos=2, frame_size=(32, 32), frames_per_video=1)
    with pytest.raises(InvalidSpecError, match="whole-number"):
        monte_carlo_sweep(spec, "boundary_morph", [1.0, 1.7], 1)


_noise = st.builds(
    NoiseSpec,
    confidence_jitter=st.sampled_from([0.0, 0.05, 0.3, 0.6]),
    boundary_morph=st.integers(0, 2),
    false_blob_rate=st.sampled_from([0.0, 0.5, 3.0]),
    miss_rate=st.sampled_from([0.0, 0.3, 1.0]),
)
_sweep_specs = st.builds(
    SynthSpec,
    seed=st.integers(0, 2**64 - 1),
    n_videos=st.integers(1, 3),
    frame_size=st.tuples(st.integers(16, 28), st.integers(16, 28)),
    frames_per_video=st.integers(1, 3),
    station_prevalence=st.tuples(*[st.sampled_from([0.0, 0.5, 1.0])] * 6),
    nodules_per_positive_station=st.sampled_from([(1, 1), (1, 3), (2, 4)]),
    nonroi_frames_per_video=st.integers(0, 2),
    noise=_noise,
)


def _run_or_error(make_run):
    try:
        return make_run()
    except CarcinoError as exc:
        if str(exc) != "every run failed: no video could be scored":
            raise
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(spec=_sweep_specs, roi_threshold=st.sampled_from([0.5, 0.9]))
def test_in_memory_replicate_matches_disk_reference(spec, roi_threshold):
    """The replicate scored from the generator equals the former
    write-then-read replicate, run entry for run entry; strong jitter
    moves ROI scores across the threshold both ways."""
    constants = ScoringConstants(roi_threshold=roi_threshold)
    in_memory = _run_or_error(
        lambda: synth._replicate_run(
            spec,
            [synth._sweep_video((spec, i, constants)) for i in range(spec.n_videos)],
            constants,
        )
    )
    assert in_memory == _run_or_error(lambda: disk_sweep_run(spec, constants))


def test_sweep_values_follow_replicate_order():
    base = SynthSpec(
        seed=18, n_videos=3, frame_size=(24, 24), frames_per_video=2,
        noise=NoiseSpec(confidence_jitter=0.2, false_blob_rate=1.0),
    )
    levels = [0.0, 0.6]
    report = monte_carlo_sweep(base, "miss_rate", levels, 2)
    for level_index, (level, entry) in enumerate(zip(levels, report["levels"])):
        for replicate in range(2):
            spec = replace(
                base,
                seed=synth._replicate_seed(base.seed, level_index, replicate),
                noise=replace(base.noise, miss_rate=level),
            )
            run = disk_sweep_run(spec, ScoringConstants())
            assert entry["values"]["fs_rmse"][replicate] == run["fs_rmse"]
            assert entry["values"]["its_f1_average"][replicate] == run["its_average"]["f1"]
            for slug, values in entry["values"]["stations_f1"].items():
                assert values[replicate] == run["stations"][slug]["f1"]


def test_morphology_helpers():
    mask = np.zeros((7, 7), dtype=bool)
    mask[3, 3] = True
    grown = synth.binary_dilate(mask, 1)
    assert grown.sum() == 9 and grown[2:5, 2:5].all()
    assert synth.binary_erode(grown, 1).sum() == 1
    assert synth.binary_erode(mask, 1).sum() == 0
    assert np.array_equal(synth.binary_dilate(mask, 0), mask)


@settings(max_examples=300, deadline=None)
@given(
    mask=arrays(bool, st.tuples(st.integers(1, 9), st.integers(1, 9))),
    amount=st.integers(0, 3),
)
@example(mask=np.ones((1, 6), dtype=bool), amount=1)
@example(mask=np.ones((6, 1), dtype=bool), amount=2)
@example(mask=np.ones((1, 1), dtype=bool), amount=3)
def test_morphology_matches_shift_loop_reference(mask, amount):
    before = mask.copy()
    for new, reference in ((synth.binary_dilate, shift_dilate), (synth.binary_erode, shift_erode)):
        result = new(mask, amount)
        assert result.dtype == bool
        assert np.array_equal(result, reference(mask, amount))
    assert np.array_equal(mask, before)


def _painted_discs(discs, height, width) -> list[np.ndarray]:
    """Each disc of discs painted alone by _disc_pixels into a frame."""
    rows, cols = synth._disc_pixels(np.asarray(discs, dtype=np.intp), height, width)
    assert rows.shape == cols.shape == (len(discs), 13)
    painted = []
    for disc_rows, disc_cols in zip(rows, cols):
        frame = np.zeros((height, width), dtype=bool)
        frame[disc_rows, disc_cols] = True
        painted.append(frame)
    return painted


def _grid_disc_frame(center, radius, height, width) -> np.ndarray:
    window, disc = grid_disc(center, radius, height, width)
    frame = np.zeros((height, width), dtype=bool)
    frame[window] = disc
    return frame


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_disc_window_matches_full_frame_formula(radius):
    """_disc_pixels paints the reference disc at every centre of a small
    frame, so also wherever the frame edges clip it."""
    height, width = 9, 7
    centers = [(row, col) for row in range(height) for col in range(width)]
    painted = _painted_discs([(radius, *center) for center in centers], height, width)
    for center, frame in zip(centers, painted):
        assert np.array_equal(frame, _grid_disc_frame(center, radius, height, width))


@pytest.mark.parametrize("width, height", [(16, 16), (16, 17), (17, 23), (48, 40), (97, 256)])
def test_ellipse_lies_inside_its_inset_cell(width, height):
    """_organ_layout evaluates the ellipse on the inset cell only; the
    full-frame formula must set no pixel outside it."""
    rows, cols = np.arange(height)[:, None], np.arange(width)[None, :]
    for organ in range(8):
        r0, r1, c0, c1 = synth._organ_cell(organ, width, height)
        r0, r1, c0, c1 = r0 + 1, r1 - 1, c0 + 1, c1 - 1
        cy, cx = (r0 + r1 - 1) / 2.0, (c0 + c1 - 1) / 2.0
        ry, rx = (r1 - r0) / 2.0, (c1 - c0) / 2.0
        full = ((rows - cy) / ry) ** 2 + ((cols - cx) / rx) ** 2 <= 1.0
        full[r0:r1, c0:c1] = False
        assert not full.any()


class _ShapeDraws:
    """Stands in for the frame generator of an organ layout: each
    integers(0, 2) call returns the next of the given shape flags, and
    each integers(0, 2, size=k) call the next k of them as an array."""

    def __init__(self, flags):
        self.left = list(flags)

    def integers(self, low, high, size=None):
        assert (low, high) == (0, 2)
        if size is None:
            return self.left.pop(0)
        taken, self.left = self.left[:size], self.left[size:]
        return np.array(taken)


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(16, 80),
    height=st.integers(16, 80),
    flags=st.lists(st.integers(0, 1), min_size=8, max_size=8),
)
@example(width=16, height=16, flags=[0, 1] * 4)
@example(width=80, height=17, flags=[1, 0] * 4)
def test_cached_shapes_and_discs_match_per_frame_formulas(width, height, flags):
    """The cached organ shapes and nodule sites, and the disc offset
    table, give what the per-frame formulas gave, with one shape draw per
    organ, and no caller can write to what the caches share."""
    draws, oracle_draws = _ShapeDraws(flags), _ShapeDraws(flags)
    masks, labels, shapes = synth._organ_layout(draws, width, height)
    oracle_masks, oracle_labels = organ_layout(oracle_draws, width, height)
    assert draws.left == oracle_draws.left == []
    assert np.array_equal(masks, oracle_masks)
    assert np.array_equal(labels, oracle_labels)
    for organ, shape in enumerate(shapes):
        radius, candidates = nodule_site(oracle_masks[organ])
        assert shape.radius == radius
        assert shape.candidates.dtype == np.int32
        assert np.array_equal(shape.candidates, candidates)
        for cached in (shape.cell, shape.candidates):
            with pytest.raises(ValueError):
                cached[0] = 0
    with pytest.raises(ValueError):
        synth._DISC_OFFSETS[0, 0, 0] = 1
    centers = [
        (row, col)
        for row in (0, 1, height // 2, height - 2, height - 1)
        for col in (0, 1, width // 2, width - 2, width - 1)
    ]
    for radius in (0, 1, 2):
        painted = _painted_discs([(radius, *center) for center in centers], height, width)
        for center, frame in zip(centers, painted):
            assert np.array_equal(frame, _grid_disc_frame(center, radius, height, width))


def _state(rng: np.random.Generator) -> str:
    return repr(rng.bit_generator.state)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    lead=st.integers(0, 3),
    count=st.integers(0, 60),
    height=st.integers(16, 512),
    width=st.integers(16, 512),
)
def test_batched_draws_equal_scalar_draws(seed, lead, count, height, width):
    """The contract the frame generator's batched draws rest on: with
    ranges fixed beforehand, integers(lo, hi, size=(k, 3)) gives the 3k
    scalar draws row by row, and random(k) the k scalar draws, each
    leaving the bit generator in the state the scalar draws leave. The
    lead draws leave half of a 64-bit word buffered, or not."""
    batched, scalar = synth._rng(seed, 2, 0, 0), synth._rng(seed, 2, 0, 0)
    for rng in (batched, scalar):
        rng.integers(0, 2, size=lead)
    blobs = batched.integers((1, 0, 0), (3, height, width), size=(count, 3))
    expected = [
        [int(scalar.integers(1, 3)), int(scalar.integers(0, height)), int(scalar.integers(0, width))]
        for _ in range(count)
    ]
    assert blobs.tolist() == expected
    assert _state(batched) == _state(scalar)
    assert batched.random(count).tolist() == [scalar.random() for _ in range(count)]
    assert _state(batched) == _state(scalar)


@pytest.mark.parametrize("k", [0, 1, 5, 13])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 997, 2**32 - 1, 2**32, 2**40])
def test_batched_bounded_integers_equal_scalar_draws(n, k):
    """The contract the batched layout and site draws rest on, which a
    numpy release may break (NEP 19 leaves Generator methods free to
    change): integers(0, n, size=k) gives the k scalar integers(0, n)
    draws and leaves the bit generator in their state, after a scalar
    draw that leaves half of a 64-bit word buffered. n = 1 draws
    nothing."""
    for seed in range(20):
        batched, scalar = synth._rng(seed, 2, 0, 0), synth._rng(seed, 2, 0, 0)
        for rng in (batched, scalar):
            rng.integers(0, 2)
        assert batched.integers(0, n, size=k).tolist() == [
            int(scalar.integers(0, n)) for _ in range(k)
        ]
        assert _state(batched) == _state(scalar)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    video_index=st.integers(0, 99),
    frame_index=st.integers(0, 99),
    width=st.integers(16, 64),
    height=st.integers(16, 64),
    stations=st.tuples(*[st.booleans()] * 6),
    nodules=st.sampled_from([(1, 3), (2, 6)]),
    is_roi=st.booleans(),
    jitter=st.sampled_from([0.0, 0.08]),
    boundary_morph=st.integers(0, 2),
    false_blob_rate=st.sampled_from([0.0, 1e-3, 1.0, 60.0]),
    miss_rate=st.sampled_from([0.0, 0.5, 1.0]),
)
@example(
    seed=0, video_index=0, frame_index=0, width=16, height=17, stations=(True,) * 6,
    nodules=(2, 6), is_roi=True, jitter=0.0, boundary_morph=0, false_blob_rate=60.0,
    miss_rate=0.5,
)
@example(
    seed=1, video_index=2, frame_index=3, width=64, height=16, stations=(True,) * 6,
    nodules=(1, 3), is_roi=True, jitter=0.08, boundary_morph=2, false_blob_rate=1.0,
    miss_rate=1.0,
)
def test_generate_frame_matches_reference_generator(
    seed, video_index, frame_index, width, height, stations, nodules, is_roi,
    jitter, boundary_morph, false_blob_rate, miss_rate,
):
    """_generate_frame paints the frame of the former per-disc generator,
    bit for bit. With jitter, the relevance score is the frame's last
    draw, so its equality also pins the generator's position."""
    spec = SynthSpec(
        seed=seed,
        frame_size=(width, height),
        nodules_per_positive_station=nodules,
        noise=NoiseSpec(jitter, boundary_morph, false_blob_rate, miss_rate),
    )
    frame = synth._generate_frame(
        spec, video_index, frame_index, 1.5, stations, is_roi,
        np.empty((height, width)),
        np.empty((8, height, width), dtype=np.float32),
        np.empty((height, width), dtype=np.float32),
    )
    expected = reference_frame(spec, video_index, frame_index, 1.5, stations, is_roi)
    for name in ("organ_conf", "pc_conf", "gt_labels", "gt_pc"):
        got, want = getattr(frame, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert frame.roi_score == expected.roi_score
    assert frame.gt_roi is expected.gt_roi is is_roi
