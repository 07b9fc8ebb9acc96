from dataclasses import replace

import pytest

from carcino.core import (
    FRAME_SAMPLING_INTERVAL,
    Indication,
    OrganClass,
    ScoringConstants,
    Station,
    _ORGANS_OF,
    _STATION_OF,
)
from carcino.errors import CarcinoError


def test_organ_codes_are_frozen():
    assert [int(o) for o in OrganClass] == list(range(8))
    assert [o.name for o in OrganClass] == [
        "DIAPHRAGM",
        "LIVER",
        "STOMACH",
        "SPLEEN",
        "LESSER_OMENTUM",
        "GREATER_OMENTUM",
        "PARIETAL_PERITONEUM",
        "BOWEL",
    ]


def test_station_codes_are_frozen():
    assert [int(s) for s in Station] == list(range(6))
    assert len(Station) == 6


def test_station_of_full_mapping():
    expected = {
        OrganClass.DIAPHRAGM: Station.DIAPHRAGM,
        OrganClass.LIVER: Station.LIVER,
        OrganClass.STOMACH: Station.STOMACH_SPLEEN_LESSER_OMENTUM,
        OrganClass.SPLEEN: Station.STOMACH_SPLEEN_LESSER_OMENTUM,
        OrganClass.LESSER_OMENTUM: Station.STOMACH_SPLEEN_LESSER_OMENTUM,
        OrganClass.GREATER_OMENTUM: Station.GREATER_OMENTUM,
        OrganClass.PARIETAL_PERITONEUM: Station.PARIETAL_PERITONEUM,
        OrganClass.BOWEL: Station.BOWEL,
    }
    for organ in OrganClass:
        assert _STATION_OF[organ] is expected[organ]
    # specific groupings
    assert _STATION_OF[OrganClass.STOMACH] is Station.STOMACH_SPLEEN_LESSER_OMENTUM
    assert _STATION_OF[OrganClass.LIVER] is Station.LIVER
    assert _STATION_OF[OrganClass.BOWEL] is Station.BOWEL


def test_station_of_is_surjective_and_constant():
    hit = {_STATION_OF[o] for o in OrganClass}
    assert hit == set(Station)
    assert [_STATION_OF[o] for o in OrganClass] == [_STATION_OF[o] for o in OrganClass]


def test_organs_of_is_exact_preimage():
    groups = {s: _ORGANS_OF[s] for s in Station}
    assert groups[Station.STOMACH_SPLEEN_LESSER_OMENTUM] == (
        OrganClass.STOMACH,
        OrganClass.SPLEEN,
        OrganClass.LESSER_OMENTUM,
    )
    all_organs = [o for s in Station for o in groups[s]]
    assert sorted(all_organs) == list(OrganClass)
    for s in Station:
        for o in groups[s]:
            assert _STATION_OF[o] is s


def test_default_constants_match_clinical_operating_point():
    c = ScoringConstants()
    assert c.organ_confidence_threshold == 0.70
    assert c.pc_confidence_threshold == 0.90
    assert c.points_per_positive_station == 2
    assert c.its_cutoff == 8
    assert c.roi_threshold == 0.5
    assert c.min_nodule_pixels == 1
    assert FRAME_SAMPLING_INTERVAL == 5.0


def test_constants_dict_keeps_the_report_schema():
    """The constants a report echoes carry fs_step and
    frame_sampling_interval, which cannot be set, with the types report
    schema v1 has always had."""
    expected = {
        "organ_confidence_threshold": 0.70,
        "pc_confidence_threshold": 0.90,
        "points_per_positive_station": 2,
        "its_cutoff": 8,
        "frame_sampling_interval": 5.0,
        "fs_step": 2,
        "roi_threshold": 0.5,
        "min_nodule_pixels": 1,
    }
    got = ScoringConstants().to_dict()
    assert got == expected
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in expected.items()}
    assert replace(ScoringConstants(), points_per_positive_station=3).to_dict()["fs_step"] == 3


def test_constants_are_overridable():
    c = replace(ScoringConstants(), pc_confidence_threshold=0.8)
    assert c.pc_confidence_threshold == 0.8
    assert c.organ_confidence_threshold == 0.70


@pytest.mark.parametrize(
    "field,value",
    [
        ("organ_confidence_threshold", 0.0),
        ("organ_confidence_threshold", 1.5),
        ("pc_confidence_threshold", -0.1),
        ("roi_threshold", 1.2),
        ("points_per_positive_station", 0),
        ("its_cutoff", -1),
        ("min_nodule_pixels", 0),
        ("pc_confidence_threshold", "x"),
        ("organ_confidence_threshold", float("nan")),
        ("roi_threshold", True),
        ("min_nodule_pixels", 1.5),
        ("its_cutoff", None),
        ("organ_confidence_threshold", 1e-320),  # 0.0 at float32, where pixels are compared
        ("pc_confidence_threshold", 2.0**-150),
    ],
)
def test_constants_reject_out_of_range(field, value):
    with pytest.raises(CarcinoError):
        ScoringConstants(**{field: value})


def test_constants_from_dict_rejects_unknown_fields():
    with pytest.raises(CarcinoError):
        ScoringConstants.from_dict({"organ_threshold": 0.5})


def test_constants_json_roundtrip(tmp_path):
    path = tmp_path / "constants.json"
    path.write_text('{"pc_confidence_threshold": 0.8, "its_cutoff": 6}')
    c = ScoringConstants.from_json_file(path)
    assert c.pc_confidence_threshold == 0.8
    assert c.its_cutoff == 6
    assert c.organ_confidence_threshold == 0.70


def test_indication_values_are_stable():
    assert Indication.SURGERY_INDICATED.value == "SurgeryIndicated"
    assert Indication.SURGERY_CONTRAINDICATED.value == "SurgeryContraindicated"
