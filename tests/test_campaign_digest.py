"""Pin what both chaos campaigns print and export, byte for byte.

Five campaigns cover every branch of the rendered text and the JSON
report: a clean loud campaign with per-run metrics, a clean silent-
corruption campaign with the integrity layer on, the planted
``checkpoint_validate=False`` bug on kmeans (shrunk), a clean fleet
campaign, and the planted ``no_isolation`` fleet bug (shrunk).  The
experiment tags, the fleet failure entries without a ``workload`` key
and the ``FLEET FAILURE:`` prefix are user-facing, so the digest covers
them; the spot checks below name them for a reader.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.chaos.campaign import CampaignConfig, run_campaign
from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.fleet import FleetCampaignConfig

SCALE = 2 ** -6

#: sha256 over ``render()`` and ``json.dumps(to_jsonable(),
#: sort_keys=True)`` of the five campaigns in ``campaigns``, in order.
#: Same value with a cold and a warm profile cache (the per-run metrics
#: include ``profcache.*`` counters, so ``REPRO_PROFCACHE=0`` changes it).
PINNED_CAMPAIGN_DIGEST = (
    "91754cdcdf2b97fe6c20c79887de8f545cbe03696a14f90c8c24c855328869ce"
)


@pytest.fixture(scope="module")
def campaigns():
    """The five campaigns, run once for every test in this module."""
    return [
        run_campaign(CampaignConfig(
            runs=12, scale=SCALE, base_seed=20230423, collect_metrics=True,
        )),
        run_campaign(CampaignConfig(
            runs=8, scale=SCALE, base_seed=20230423,
            system_config=SystemConfig(integrity_enabled=True),
            silent_corruption=True,
        )),
        run_campaign(CampaignConfig(
            runs=3, workloads=("kmeans",), scale=SCALE, base_seed=156,
            system_config=dataclasses.replace(
                DEFAULT_CONFIG, checkpoint_validate=False,
            ),
        )),
        run_campaign(FleetCampaignConfig(runs=12)),
        run_campaign(FleetCampaignConfig(
            runs=3, base_seed=1, no_isolation=True,
        )),
    ]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestCampaignOutputs:
    def test_rendered_text_and_json_are_pinned(self, campaigns):
        parts = []
        for result in campaigns:
            parts.append(result.render())
            parts.append(json.dumps(result.to_jsonable(), sort_keys=True))
        assert _sha256("\n".join(parts)) == PINNED_CAMPAIGN_DIGEST

    def test_user_facing_tags(self, campaigns):
        single, fleet = campaigns[2], campaigns[4]
        assert single.to_jsonable()["experiment"] == "chaos-campaign"
        assert fleet.to_jsonable()["experiment"] == "fleet-chaos-campaign"
        assert "workload" in single.to_jsonable()["failures"][0]
        assert "workload" not in fleet.to_jsonable()["failures"][0]
        assert "\nFAILURE: kmeans seed=157\n" in single.render()
        assert "\nFLEET FAILURE: seed=" in fleet.render()
