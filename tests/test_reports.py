"""Report schema: validation, serialization, divergence location."""

import json
from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from sntorsion.reports import CaseReport, _json_text, first_divergence


def small_report():
    return CaseReport(
        case_id="demo",
        kind="S",
        n=7,
        p=5,
        q=3,
        verdict="excluded",
        stage_q={
            "rows": [{"name": "pi", "ells": [0, 1]}],
            "raw_count": 4,
            "filters": [{"name": "q-power-weighted-sum", "count_after": 1}],
            "survivors": [[1, 0]],
        },
        stage_pq={
            "groups": [
                {
                    "name": "main",
                    "rows": [{"name": "hook4", "ells": [0, 5]}],
                    "pairs": [
                        {
                            "q_candidate": [1, 0],
                            "status": "infeasible",
                            "certificate": ["mu_0(hook4)", "mu_5(hook4)"],
                        }
                    ],
                }
            ]
        },
        extras={"note": "hand-built"},
        elapsed_s=0.123,
    )


def test_validate_accepts_a_consistent_report():
    small_report().validate()


def test_validate_rejects_filters_that_grow_the_candidate_set():
    rep = small_report()
    rep.stage_q["filters"][0]["count_after"] = 9
    with pytest.raises(ValueError):
        rep.validate()


def test_validate_rejects_excluded_verdicts_with_surviving_pairs():
    rep = small_report()
    rep.stage_pq["groups"][0]["pairs"][0]["status"] = "solutions"
    with pytest.raises(ValueError):
        rep.validate()


def test_canonical_json_omits_timing():
    rep = small_report()
    data = json.loads(rep.canonical_json())
    assert "elapsed_s" not in data
    assert data["schema"] == "report-v1"
    assert data["group"] == "S7"
    assert "elapsed_s" in rep.to_dict(include_timing=True)


def test_canonical_json_is_independent_of_elapsed_time():
    a, b = small_report(), small_report()
    b.elapsed_s = 99.0
    assert a.canonical_json() == b.canonical_json()


def test_render_text_mentions_the_load_bearing_numbers():
    text = small_report().render_text()
    assert "verdict: excluded" in text
    assert "candidates: 4" in text
    assert "after q-power-weighted-sum: 1" in text
    assert "mu_0(hook4)" in text


def test_first_divergence_on_equal_dicts():
    d = small_report().to_dict()
    assert first_divergence(d, json.loads(json.dumps(d))) is None


def test_first_divergence_pinpoints_the_field():
    a = small_report().to_dict()
    b = json.loads(json.dumps(a))
    b["stage_q"]["raw_count"] = 5
    diff = first_divergence(a, b)
    assert diff == "$.stage_q.raw_count: 5 != 4"


def test_first_divergence_reports_missing_and_extra_fields():
    a = {"x": 1, "y": 2}
    assert first_divergence(a, {"x": 1}) == "$.y: missing field"
    assert first_divergence({"x": 1}, a) == "$.y: unexpected field"
    assert first_divergence([1, 2], [1]) == "$: length 1 != 2"
    assert first_divergence([1, [2, 3]], [1, [2, 4]]) == "$[1][1]: 4 != 3"


# report-shaped values: str-keyed dicts and lists, nested, possibly empty,
# over strings with non-ASCII and control characters, bools, None, big
# integers and finite floats
report_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(st.characters(codec="utf-8")),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(st.characters(codec="utf-8"), max_size=5), children, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=300)
@given(report_values)
def test_json_text_is_json_dumps_with_indent_2_and_sorted_keys(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_text_covers_nested_empties_escapes_and_big_integers():
    value = {
        "empty": [[], {}, [[]], {"a": {}}],
        "text": "caf\u00e9 \u2603 \U0001f600 \x00\x1f\t\n\"\\ /",
        "flags": [True, False, None],
        "numbers": [0, -1, 2**100, -(3**70), 1.5, -0.0, 1e300, 5e-324],
    }
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value, error", [
    ({1, 2}, TypeError),
    (b"bytes", TypeError),
    ({1: "x"}, TypeError),
    ({"a": [{2: 0}]}, TypeError),
    ((1, 2), TypeError),
    (float("nan"), ValueError),
    ([float("inf")], ValueError),
])
def test_json_text_rejects_values_outside_the_report_types(value, error):
    with pytest.raises(error):
        _json_text(value)


class Level(IntEnum):
    LOW = 1
    HIGH = 10**30


class Label(str):
    pass


class Ratio(float):
    pass


class Items(list):
    pass


@pytest.mark.parametrize("value", [
    Level.LOW,
    {"level": Level.HIGH, "levels": [Level.LOW, Level.HIGH]},
    Label("r\u00e9"),
    {"label": Label("x"), "labels": [Label(""), Label("\n")]},
    OrderedDict([("z", 1), ("a", OrderedDict()), ("m", [OrderedDict([("k", None)])])]),
    [Ratio(1.5), Items([Label("a"), Items()]), {Label("key"): Level.LOW}],
])
def test_json_text_prints_subclasses_as_json_dumps_does(value):
    # an exact type has its own writer; a subclass falls back to isinstance
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)
