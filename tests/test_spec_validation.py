"""``ExperimentSpec`` rejects bad inputs when it is built.

A zero, negative, NaN or infinite token rate or bucket depth used to
run silently and return a cacheable result with 100% loss; a bad
closed-set string (server, testbed, ...) failed only once the engine
was being wired. Both now fail at construction.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.cli import main
from repro.core import fastlane
from repro.core.experiment import SPEC_CHOICES, ExperimentSpec
from repro.units import mbps

BAD_NUMBERS = [
    ("token_rate_bps", 0.0),
    ("token_rate_bps", -mbps(1.0)),
    ("token_rate_bps", math.inf),
    ("token_rate_bps", math.nan),
    ("bucket_depth_bytes", 0.0),
    ("bucket_depth_bytes", -1.0),
    ("bucket_depth_bytes", math.inf),
    ("bucket_depth_bytes", math.nan),
]
BAD_STRINGS = [
    ("server", "realserver"),
    ("transport", "sctp"),
    ("testbed", "internet2"),
    ("policer_action", "shape"),
    ("reference", "original"),
    ("decode_mode", "magic"),
]


@pytest.mark.parametrize(
    "field,value", BAD_NUMBERS + BAD_STRINGS, ids=lambda v: repr(v)
)
def test_bad_field_rejected_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentSpec(clip="test-300", **{field: value})


@pytest.mark.parametrize("field,value", BAD_NUMBERS, ids=lambda v: repr(v))
def test_bad_token_bucket_rejected_by_with_token_bucket(field, value):
    good = ExperimentSpec(clip="test-300")
    point = {
        "token_rate_bps": good.token_rate_bps,
        "bucket_depth_bytes": good.bucket_depth_bytes,
        field: value,
    }
    with pytest.raises(ValueError, match=field):
        good.with_token_bucket(**point)


@pytest.mark.parametrize(
    "field,value",
    [(name, value) for name, choices in SPEC_CHOICES.items() for value in choices],
)
def test_every_allowed_choice_constructs(field, value):
    assert getattr(ExperimentSpec(**{field: value}), field) == value


def test_cli_reports_bad_rate_as_domain_error(capsys):
    assert main(["run", "--clip", "test-300", "--rate", "0"]) == 2
    assert "token_rate_bps" in capsys.readouterr().err


def test_batch_key_groups_exactly_the_specs_differing_in_grid_axes():
    base = ExperimentSpec(clip="test-300", codec="mpeg1")
    grid = [
        dataclasses.replace(base, token_rate_bps=r, bucket_depth_bytes=b, seed=s)
        for r in (mbps(1.5), mbps(2.0))
        for b in (3000.0, 4500.0)
        for s in (0, 3)
    ]
    assert len({fastlane.batch_key(spec) for spec in grid}) == 1
    # Any other field splits the group, as a zeroed-axes spec key did.
    for other in (
        dataclasses.replace(base, clip="test-600"),
        dataclasses.replace(base, policer_action="remark"),
        dataclasses.replace(base, use_shaper=True),
        dataclasses.replace(base, reference="fixed"),
    ):
        assert fastlane.batch_key(other) != fastlane.batch_key(base)
