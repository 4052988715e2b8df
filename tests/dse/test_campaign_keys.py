"""Pinned campaign keys: existing journals must keep resuming.

A resumable campaign refuses a journal whose ``begin`` line names a
different ``campaign_key``, so a refactor that changes how a campaign
signature is built would orphan every journal already on disk.  These
tests pin, as literal strings, the keys that a memory and a system
campaign write into their journals.
"""

import json

import pytest

from repro.dse import MemoryCampaign, ParameterSpace, SystemCampaign, run
from repro.dse.checkpoint import JOURNAL_NAME
from repro.magpie.scenarios import Scenario


def _begin_key(campaign_dir) -> str:
    with open(campaign_dir / JOURNAL_NAME) as handle:
        begin = json.loads(handle.readline())
    assert begin["event"] == "begin"
    return begin["campaign_key"]


def test_memory_campaign_key_is_pinned(tmp_path):
    space = ParameterSpace().add("subarray_rows", [256]).add("wer_target", [1e-9])
    run(
        MemoryCampaign(space, num_words=100, error_population=5000),
        str(tmp_path), workers=1,
    )
    assert _begin_key(tmp_path) == (
        "2b7d0685587fc0e29dc2e29c45f74197644803379bc249fba68f5186d8499ff6"
    )


@pytest.mark.slow
def test_system_campaign_key_is_pinned(tmp_path):
    run(
        SystemCampaign(
            workloads=["bodytrack"],
            scenarios=[Scenario.FULL_SRAM, Scenario.FULL_L2_STT],
        ),
        str(tmp_path),
    )
    assert _begin_key(tmp_path) == (
        "47018262588ca0e57740fab220016c2640b15889dadc1e8835ca521843f0599a"
    )
