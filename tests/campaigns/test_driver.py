"""run_campaign: cold runs, resume, warm replay, per-sweep metrics."""

import numpy as np
import pytest

from repro.campaigns import (
    SWEEP_METRICS,
    CampaignSpec,
    CampaignWarehouse,
    campaign_status,
    run_campaign,
    warehouse_for_service,
)
from repro.engine import SolveCache, SolveService, SolveStore


def price_spec(**overrides) -> CampaignSpec:
    fields = dict(
        campaign_id="drv",
        generator="random_market",
        sweep="price",
        seed_count=3,
        axes={"n_types": (4, 6)},
        base_params={"prices": [0.8, 1.2]},
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


def store_service(tmp_path) -> SolveService:
    return SolveService(
        cache=SolveCache(), store=SolveStore(tmp_path / "store")
    )


class TestLifecycle:
    def test_cold_run_lands_every_row(self, tmp_path):
        spec = price_spec()
        service = store_service(tmp_path)
        with warehouse_for_service(service) as wh:
            report = run_campaign(spec, service=service, warehouse=wh)
            assert report.rows_total == 6
            assert report.rows_computed == 6
            assert report.rows_resumed == 0
            assert report.solves_computed > 0
            assert wh.count(spec.digest()) == 6
            assert wh.incomplete_rows(spec.digest()) == []
            assert set(wh.metric_names(spec.digest())) == set(
                SWEEP_METRICS["price"]
            )

    def test_rerun_resumes_everything(self, tmp_path):
        spec = price_spec()
        service = store_service(tmp_path)
        with warehouse_for_service(service) as wh:
            run_campaign(spec, service=service, warehouse=wh)
            report = run_campaign(spec, service=service, warehouse=wh)
            assert report.rows_computed == 0
            assert report.rows_resumed == 6
            assert report.solves_computed == 0
            assert wh.count(spec.digest()) == 6

    def test_partial_warehouse_computes_only_the_complement(self, tmp_path):
        spec = price_spec()
        service = store_service(tmp_path)
        rows = spec.expand()
        with warehouse_for_service(service) as wh:
            run_campaign(spec, service=service, warehouse=wh)
            # Simulate a killed run: drop half the landed rows.
            keep = {row.digest for row in rows[:3]}
            for row in rows[3:]:  # test-only surgery on the manifest
                wh._conn.execute(
                    "DELETE FROM metrics WHERE row = "
                    "(SELECT id FROM rows WHERE digest = ?)",
                    (row.digest,),
                )
                wh._conn.execute(
                    "DELETE FROM rows WHERE digest = ?", (row.digest,)
                )
            wh._conn.commit()
            assert wh.existing_digests(spec.digest()) == keep
            report = run_campaign(spec, service=service, warehouse=wh)
            assert report.rows_computed == 3
            assert report.rows_resumed == 3
            # The recomputed rows were warm in the store: zero solves.
            assert report.solves_computed == 0

    def test_warm_full_replay_into_fresh_warehouse_is_solve_free(
        self, tmp_path
    ):
        spec = price_spec()
        service = store_service(tmp_path)
        run_campaign(
            spec, service=service, warehouse=CampaignWarehouse(":memory:")
        )
        # New process, new warehouse, same persistent store: every row
        # recomputes, no row solves.
        fresh = store_service(tmp_path)
        report = run_campaign(
            spec, service=fresh, warehouse=CampaignWarehouse(":memory:")
        )
        assert report.rows_computed == 6
        assert report.solves_computed == 0

    def test_progress_callback_sees_every_row(self, tmp_path):
        spec = price_spec(seed_count=1)
        service = store_service(tmp_path)
        seen = []
        run_campaign(
            spec,
            service=service,
            warehouse=CampaignWarehouse(":memory:"),
            progress=lambda done, total, row: seen.append((done, total)),
        )
        assert seen == [(1, 2), (2, 2)]

    def test_status_reports_the_complement(self, tmp_path):
        spec = price_spec()
        service = store_service(tmp_path)
        with warehouse_for_service(service) as wh:
            status = campaign_status(spec, wh)
            assert status["rows_total"] == 6
            assert status["rows_done"] == 0
            run_campaign(spec, service=service, warehouse=wh)
            status = campaign_status(spec, wh)
            assert status["rows_done"] == 6
            assert status["rows_missing"] == 0

    def test_storeless_service_gets_memory_warehouse(self):
        service = SolveService(cache=SolveCache())
        wh = warehouse_for_service(service)
        try:
            assert str(wh.path) == ":memory:"
        finally:
            wh.close()


class TestSweepMetrics:
    def test_grid_sweep_reports_the_revenue_star(self, tmp_path):
        spec = price_spec(
            sweep="grid",
            seed_count=1,
            axes={},
            base_params={
                "n_types": 4,
                "prices": [0.8, 1.2],
                "policy_levels": [0.0, 0.5],
            },
        )
        service = store_service(tmp_path)
        with warehouse_for_service(service) as wh:
            run_campaign(spec, service=service, warehouse=wh)
            rec = wh.rows(spec.digest())[0]["metrics"]
            assert rec["price_star"] in (0.8, 1.2)
            assert rec["cap_star"] in (0.0, 0.5)
            assert rec["welfare_max"] >= rec["welfare_mean"]

    def test_dynamics_sweep_reports_the_horizon(self, tmp_path):
        spec = CampaignSpec(
            campaign_id="drv-dyn",
            generator="shocked_market",
            sweep="dynamics",
            seed_count=2,
            base_params={
                "n_shocks": 1,
                "kind": "capacity",
                "horizon": 3,
                "segment_length": 2,
                "cap": 0.5,
            },
        )
        service = store_service(tmp_path)
        with warehouse_for_service(service) as wh:
            run_campaign(spec, service=service, warehouse=wh)
            for rec in wh.rows(spec.digest()):
                metrics = rec["metrics"]
                assert metrics["survived"] == 1.0
                assert metrics["adoption_final"] > 0.0
                assert np.isfinite(metrics["welfare_min"])

    def test_market_structure_sweep_tracks_concentration(self, tmp_path):
        spec = CampaignSpec(
            campaign_id="drv-olig",
            generator="random_market",
            sweep="market_structure",
            seed_count=1,
            axes={"carriers": (1, 3)},
            base_params={"n_types": 4, "grid_points": 5, "xtol": 1e-2},
        )
        service = store_service(tmp_path)
        with warehouse_for_service(service) as wh:
            run_campaign(spec, service=service, warehouse=wh)
            hhi = wh.metric(spec.digest(), "hhi")
            carriers = wh.metric(spec.digest(), "carriers")
            assert carriers.tolist() == [1.0, 3.0]
            assert hhi[0] == pytest.approx(1.0)
            assert hhi[1] < 1.0
