import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carcino.core import Indication, ScoringConstants
from carcino.errors import CarcinoError
from carcino.metrics import (
    ConfusionCounts,
    balanced_accuracy,
    dice,
    fs_rmse,
    its_confusions,
    macro_average,
    normalized_rmse,
    precision_recall_f1,
    station_confusions,
    summarize_runs,
)

from oracles import sum_dice

IND = Indication.SURGERY_INDICATED
CONTRA = Indication.SURGERY_CONTRAINDICATED


# --- dice -------------------------------------------------------------------


def test_dice_identical_nonempty_is_one():
    mask = np.zeros((4, 4), dtype=bool)
    mask[1:3, 1:3] = True
    assert dice(mask, mask.copy()) == 1.0


def test_dice_disjoint_is_zero():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a[0, 0] = True
    b[3, 3] = True
    assert dice(a, b) == 0.0


def test_dice_half_overlap():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a[0, 0:4] = True  # |A| = 4
    b[0, 2:4] = b[1, 0:2] = True  # |B| = 4, overlap 2
    assert abs(dice(a, b) - 0.5) < 1e-12


def test_dice_both_empty_is_undefined():
    empty = np.zeros((3, 3), dtype=bool)
    assert dice(empty, empty) is None


def test_dice_symmetric_and_shape_checked():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.random((5, 5)) < 0.4
        b = rng.random((5, 5)) < 0.4
        assert dice(a, b) == dice(b, a)
    with pytest.raises(CarcinoError, match="mask shapes differ"):
        dice(np.zeros((2, 2), bool), np.zeros((3, 3), bool))


def test_dice_one_iff_identical_nonempty():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = rng.random((6, 6)) < 0.5
        b = rng.random((6, 6)) < 0.5
        value = dice(a, b)
        if value == 1.0:
            assert np.array_equal(a, b) and a.any()


@settings(max_examples=200, deadline=None)
@given(
    height=st.integers(1, 12),
    width=st.integers(1, 12),
    density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    labels=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@example(height=3, width=5, density=0.0, labels=False, seed=0)
@example(height=3, width=5, density=0.0, labels=True, seed=0)
def test_dice_counts_match_sum_reference(height, width, density, labels, seed):
    """Counting with count_nonzero gives the value the bool sums gave, on
    bool masks and on uint8 label planes (any non-zero label is in the
    mask), None included when both masks are empty."""
    rng = np.random.default_rng(seed)
    masks = []
    for _ in range(2):
        keep = rng.random((height, width)) < density
        if labels:
            masks.append(np.where(keep, rng.integers(1, 9, (height, width)), 0).astype(np.uint8))
        else:
            masks.append(keep)
    got, want = dice(*masks), sum_dice(*masks)
    assert got == want and type(got) is type(want)
    if density == 0.0:
        assert got is None


# --- precision / recall / F1 ---------------------------------------------------


def test_prf_perfect():
    assert precision_recall_f1(ConfusionCounts(tp=10)) == (1.0, 1.0, 1.0)


def test_prf_no_positive_predictions():
    p, r, f1 = precision_recall_f1(ConfusionCounts(tp=0, fp=0, fn=3))
    assert p is None and r == 0.0 and f1 is None


def test_prf_hand_value():
    p, r, f1 = precision_recall_f1(ConfusionCounts(tp=2, fp=1, fn=1))
    assert abs(p - 2 / 3) < 1e-12
    assert abs(r - 2 / 3) < 1e-12
    assert abs(f1 - 2 / 3) < 1e-12


def test_f1_zero_when_both_zero():
    p, r, f1 = precision_recall_f1(ConfusionCounts(tp=0, fp=2, fn=3))
    assert p == 0.0 and r == 0.0 and f1 == 0.0


def test_f1_is_harmonic_mean_and_zero_iff_no_tp():
    rng = np.random.default_rng(2)
    for _ in range(50):
        counts = ConfusionCounts(*(int(x) for x in rng.integers(0, 20, size=4)))
        p, r, f1 = precision_recall_f1(counts)
        if f1 is None:
            continue
        assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12
        assert (f1 == 0.0) == (counts.tp == 0)


def test_confusion_counts_reject_negative_and_add():
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1)
    total = ConfusionCounts(tp=1, fp=2) + ConfusionCounts(tn=3, fn=4)
    assert (total.tp, total.fp, total.tn, total.fn) == (1, 2, 3, 4)
    assert total.total == 10


# --- station confusions ----------------------------------------------------------


def test_station_confusions_perfect_predictions():
    vectors = [tuple(bool(i >> s & 1) for s in range(6)) for i in range(8)]
    counts = station_confusions(vectors, vectors)
    for c in counts:
        assert c.fp == 0 and c.fn == 0
        assert c.total == 8


def test_station_confusions_all_negative_predictor():
    gt = [(True,) * 6, (True,) * 6, (False,) * 6]
    pred = [(False,) * 6] * 3
    counts = station_confusions(pred, gt)
    for c in counts:
        assert c.fn == 2 and c.tp == 0 and c.tn == 1


def test_station_confusions_hand_case():
    gt = [(True,) + (False,) * 5, (True,) + (False,) * 5, (False,) * 6]
    pred = [(True,) + (False,) * 5, (False,) * 6, (False,) * 6]
    counts = station_confusions(pred, gt)
    diaphragm = counts[0]
    assert (diaphragm.tp, diaphragm.fn, diaphragm.tn, diaphragm.fp) == (1, 1, 1, 0)


def test_station_confusions_errors():
    with pytest.raises(CarcinoError, match="1 predictions vs 0 ground truths"):
        station_confusions([(False,) * 6], [])
    with pytest.raises(CarcinoError, match="video index 0 has no ground truth"):
        station_confusions([(False,) * 6], [None])


# --- RMSE ------------------------------------------------------------------------


def test_fs_rmse_zero_on_perfect():
    assert fs_rmse([0, 2, 12], [0, 2, 12]) == 0.0


def test_fs_rmse_single_video():
    assert fs_rmse([4], [8]) == 4.0


def test_fs_rmse_two_equal_errors():
    assert fs_rmse([2, 6], [4, 8]) == 2.0


def test_fs_rmse_errors():
    with pytest.raises(CarcinoError, match="1 predictions vs 2 references"):
        fs_rmse([1], [1, 2])
    with pytest.raises(CarcinoError, match="empty cohort"):
        fs_rmse([], [])


def test_normalized_rmse_paper_pairs():
    assert round(normalized_rmse(2.78), 2) == 1.39
    assert round(normalized_rmse(2.29), 2) == 1.15
    assert normalized_rmse(0.0) == 0.0


def test_normalized_rmse_is_linear():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = float(rng.random() * 10)
        k = float(rng.random() * 5)
        assert abs(normalized_rmse(k * x) - k * normalized_rmse(x)) < 1e-12


def test_normalized_rmse_respects_points_per_station():
    """The score step is the points a positive station adds."""
    constants = ScoringConstants(points_per_positive_station=4)
    assert normalized_rmse(2.0, constants) == 0.5


# --- balanced accuracy --------------------------------------------------------------


def test_balanced_accuracy_perfect_and_degenerate():
    assert balanced_accuracy(ConfusionCounts(tp=5, tn=5)) == 1.0
    # always-positive predictor: sensitivity 1, specificity 0
    assert balanced_accuracy(ConfusionCounts(tp=5, fp=5)) == 0.5


def test_balanced_accuracy_hand_value():
    value = balanced_accuracy(ConfusionCounts(tp=9, fp=2, tn=8, fn=1))
    assert abs(value - 0.85) < 1e-12


def test_balanced_accuracy_undefined_class():
    assert balanced_accuracy(ConfusionCounts(tp=3, fn=1)) is None  # no negative units
    assert balanced_accuracy(ConfusionCounts(tn=3, fp=1)) is None  # no positive units
    assert balanced_accuracy(ConfusionCounts()) is None


def test_balanced_accuracy_invariant_under_duplication():
    rng = np.random.default_rng(4)
    for _ in range(20):
        tp, fp, tn, fn = (int(x) for x in rng.integers(1, 10, size=4))
        base = balanced_accuracy(ConfusionCounts(tp, fp, tn, fn))
        scaled = balanced_accuracy(ConfusionCounts(3 * tp, 3 * fp, 3 * tn, 3 * fn))
        assert abs(base - scaled) < 1e-12


# --- indication confusions ------------------------------------------------------------


def test_its_confusions_all_correct():
    labels = [IND, CONTRA, IND, CONTRA]
    result = its_confusions(labels, labels)
    for cls in (IND, CONTRA):
        p, r, f1 = precision_recall_f1(result[cls])
        assert (p, r, f1) == (1.0, 1.0, 1.0)


def test_its_confusions_all_indicated_predictor():
    gt = [IND, CONTRA, CONTRA]
    pred = [IND, IND, IND]
    result = its_confusions(pred, gt)
    _, recall, _ = precision_recall_f1(result[CONTRA])
    assert recall == 0.0


def test_its_confusions_hand_case():
    gt = [IND, IND, CONTRA, CONTRA]
    pred = [IND, CONTRA, CONTRA, CONTRA]
    result = its_confusions(pred, gt)
    ind = result[IND]
    assert (ind.tp, ind.fp, ind.fn) == (1, 0, 1)
    contra = result[CONTRA]
    assert (contra.tp, contra.fp, contra.fn) == (2, 1, 0)


def test_its_confusions_length_mismatch():
    with pytest.raises(CarcinoError, match="1 predictions vs 0 references"):
        its_confusions([IND], [])


# --- summaries -------------------------------------------------------------------------


def test_summarize_constant_runs():
    s = summarize_runs([0.8, 0.8, 0.8, 0.8])
    assert (s.mean, s.std, s.n, s.excluded) == (0.8, 0.0, 4, 0)


def test_summarize_two_points_population_std():
    s = summarize_runs([1, 3])
    assert (s.mean, s.std, s.n) == (2.0, 1.0, 2)


def test_summarize_single_run():
    s = summarize_runs([0.74])
    assert (s.mean, s.std, s.n) == (0.74, 0.0, 1)


def test_summarize_excludes_undefined():
    s = summarize_runs([None, 1.0, None, 3.0])
    assert (s.mean, s.std, s.n, s.excluded) == (2.0, 1.0, 2, 2)


def test_summarize_all_undefined_is_none():
    assert summarize_runs([None, None]) is None
    assert summarize_runs([]) is None


def test_macro_average():
    assert macro_average([1.0, None, 0.0]) == 0.5
    assert macro_average([None]) is None
