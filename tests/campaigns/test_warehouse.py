"""The sqlite warehouse: atomic appends, NaN round-trip, summaries."""

import math
import sqlite3
from contextlib import closing

import numpy as np
import pytest

from repro.campaigns.warehouse import (
    SCHEMA_VERSION,
    SUMMARY_FIELDS,
    CampaignWarehouse,
)
from repro.exceptions import ModelError

CAMPAIGN = "c" * 64


@pytest.fixture
def warehouse():
    with CampaignWarehouse(":memory:") as wh:
        wh.register(
            CAMPAIGN,
            campaign_id="unit",
            title="unit campaign",
            spec={"format": "repro-campaign/1", "campaign_id": "unit"},
            total_rows=3,
        )
        yield wh


def _append(wh, digest, index, metrics, campaign=CAMPAIGN):
    return wh.append(
        campaign,
        digest=digest,
        row_index=index,
        seed=index,
        scenario_id=f"scn-{index}",
        scenario_digest="s" * 64,
        params={"n_types": 4 + index},
        metrics=metrics,
    )


class TestAppend:
    def test_append_then_read_back(self, warehouse):
        assert _append(warehouse, "d0", 0, {"welfare": 1.5, "revenue": 2.0})
        records = warehouse.rows(CAMPAIGN)
        assert len(records) == 1
        rec = records[0]
        assert rec["digest"] == "d0"
        assert rec["seed"] == 0
        assert rec["params"] == {"n_types": 4}
        assert rec["metrics"] == {"welfare": 1.5, "revenue": 2.0}

    def test_duplicate_append_is_rejected_not_duplicated(self, warehouse):
        assert _append(warehouse, "d0", 0, {"welfare": 1.0})
        assert not _append(warehouse, "d0", 0, {"welfare": 999.0})
        assert warehouse.count(CAMPAIGN) == 1
        # The first write wins; the rejected one left nothing behind.
        assert warehouse.rows(CAMPAIGN)[0]["metrics"]["welfare"] == 1.0

    def test_nan_metric_round_trips(self, warehouse):
        _append(warehouse, "d0", 0, {"welfare": float("nan"), "revenue": 1.0})
        metrics = warehouse.rows(CAMPAIGN)[0]["metrics"]
        assert math.isnan(metrics["welfare"])
        assert metrics["revenue"] == 1.0

    def test_existing_digests_is_the_resume_manifest(self, warehouse):
        _append(warehouse, "d0", 0, {"welfare": 1.0})
        _append(warehouse, "d2", 2, {"welfare": 3.0})
        assert warehouse.existing_digests(CAMPAIGN) == {"d0", "d2"}
        assert warehouse.existing_digests("x" * 64) == set()

    def test_rows_come_back_in_row_index_order(self, warehouse):
        for index in (2, 0, 1):
            _append(warehouse, f"d{index}", index, {"welfare": float(index)})
        assert [r["index"] for r in warehouse.rows(CAMPAIGN)] == [0, 1, 2]
        np.testing.assert_array_equal(
            warehouse.metric(CAMPAIGN, "welfare"), [0.0, 1.0, 2.0]
        )


class TestRegistry:
    def test_register_is_idempotent(self, warehouse):
        warehouse.register(
            CAMPAIGN,
            campaign_id="unit",
            title="unit campaign",
            spec={"format": "repro-campaign/1"},
            total_rows=3,
        )
        assert len(warehouse.campaigns()) == 1

    def test_spec_payload_round_trips(self, warehouse):
        payload = warehouse.spec_payload(CAMPAIGN)
        assert payload["campaign_id"] == "unit"
        assert warehouse.spec_payload("x" * 64) is None

    def test_incomplete_rows_flags_missing_metrics(self, warehouse):
        _append(warehouse, "d0", 0, {"welfare": 1.0, "revenue": 2.0})
        _append(warehouse, "d1", 1, {"welfare": 1.0})
        assert warehouse.incomplete_rows(CAMPAIGN) == ["d1"]


class TestSummary:
    def test_summary_statistics(self, warehouse):
        for index, welfare in enumerate((1.0, 2.0, 3.0, 4.0)):
            _append(warehouse, f"d{index}", index, {"welfare": welfare})
        stats = warehouse.summary(CAMPAIGN)["welfare"]
        assert stats["count"] == 4
        assert stats["mean"] == 2.5
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0
        assert stats["median"] == 2.5
        assert stats["std"] == pytest.approx(np.std([1, 2, 3, 4]))

    def test_summary_excludes_nan(self, warehouse):
        _append(warehouse, "d0", 0, {"welfare": 1.0})
        _append(warehouse, "d1", 1, {"welfare": float("nan")})
        stats = warehouse.summary(CAMPAIGN)["welfare"]
        assert stats["count"] == 1
        assert stats["mean"] == 1.0

    def test_summary_csv_is_canonical(self, warehouse):
        _append(warehouse, "d0", 0, {"welfare": 1.0 / 3.0, "revenue": 2.0})
        text = warehouse.summary_csv(CAMPAIGN)
        lines = text.strip().splitlines()
        assert lines[0] == "metric," + ",".join(SUMMARY_FIELDS)
        # Metrics sort; values render at the 12-significant-digit
        # convention that makes the table byte-comparable across backends.
        assert lines[1].startswith("revenue,1,2,")
        assert lines[2].split(",")[2] == format(1.0 / 3.0, ".12g")


class TestLifecycle:
    def test_file_backed_warehouse_persists(self, tmp_path):
        path = tmp_path / "campaigns.sqlite"
        with CampaignWarehouse(path) as wh:
            wh.register(
                CAMPAIGN,
                campaign_id="unit",
                title="t",
                spec={},
                total_rows=1,
            )
            _append(wh, "d0", 0, {"welfare": 1.0})
        with CampaignWarehouse(path) as wh:
            assert wh.count(CAMPAIGN) == 1
            assert wh.metric_names(CAMPAIGN) == ("welfare",)

    def test_new_file_carries_the_schema_version(self, tmp_path):
        path = tmp_path / "campaigns.sqlite"
        CampaignWarehouse(path).close()
        with closing(sqlite3.connect(path)) as conn:
            (version,) = conn.execute("PRAGMA user_version").fetchone()
            columns = [c[1] for c in conn.execute("PRAGMA table_info(metrics)")]
        assert version == SCHEMA_VERSION == 2
        # Metrics key on the integer row id: no digest repeated per value.
        assert columns == ["row", "metric", "value"]

    def test_metrics_of_each_row_stay_with_it(self, warehouse):
        other = "o" * 64
        _append(warehouse, "d0", 0, {"welfare": 1.0})
        _append(warehouse, "d0", 0, {"welfare": 5.0}, campaign=other)
        _append(warehouse, "d1", 1, {"welfare": 2.0})
        assert warehouse.metric(CAMPAIGN, "welfare").tolist() == [1.0, 2.0]
        assert warehouse.metric(other, "welfare").tolist() == [5.0]
        assert [r["metrics"] for r in warehouse.rows(other)] == [
            {"welfare": 5.0}
        ]

    def test_old_schema_file_is_refused(self, tmp_path):
        path = tmp_path / "campaigns.sqlite"
        with closing(sqlite3.connect(path)) as conn:
            conn.execute(
                "CREATE TABLE metrics (campaign TEXT, digest TEXT, "
                "metric TEXT, value REAL, "
                "PRIMARY KEY (campaign, digest, metric))"
            )
            conn.commit()
        with pytest.raises(ModelError, match="delete the file") as info:
            CampaignWarehouse(path)
        assert str(path) in str(info.value)

    def test_unknown_schema_version_is_refused(self, tmp_path):
        path = tmp_path / "campaigns.sqlite"
        with closing(sqlite3.connect(path)) as conn:
            conn.execute("PRAGMA user_version = 99")
            conn.commit()
        with pytest.raises(ModelError, match="schema version 99"):
            CampaignWarehouse(path)
