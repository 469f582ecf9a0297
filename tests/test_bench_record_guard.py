"""Bench records reach disk only on an explicit refresh.

``benchmarks/out`` holds the committed perf trajectory. A plain test run
must leave it untouched: ``benchmarks.conftest._write_bench_record``
writes only when ``$REPRO_BENCH_DIR`` names a destination, and there it
always writes the current record.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.conftest import _write_bench_record
from repro.backend import get_backend


def test_unset_bench_dir_leaves_tracked_records_unchanged(
    tmp_path, monkeypatch
):
    monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "benchmarks" / "out"
    out.mkdir(parents=True)
    tracked = out / "BENCH_tracked.json"
    tracked.write_text('{"case": "tracked", "seconds": 1.0}\n')
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    _write_bench_record({"case": "tracked", "seconds": 2.0})
    _write_bench_record({"case": "fresh", "seconds": 2.0})

    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.fixture
def bench_dir(tmp_path, monkeypatch):
    """An explicit ``$REPRO_BENCH_DIR`` destination (not yet created)."""
    out = tmp_path / "bench"
    monkeypatch.setenv("REPRO_BENCH_DIR", str(out))
    return out


class TestExplicitBenchDir:
    def test_fresh_case_writes_record_with_environment_fields(self, bench_dir):
        _write_bench_record({"case": "fresh", "seconds": 2.0})

        record = json.loads((bench_dir / "BENCH_fresh.json").read_text())
        assert record["seconds"] == 2.0
        assert record["backend"] == get_backend().name

    def test_existing_record_is_refreshed(self, bench_dir):
        bench_dir.mkdir()
        path = bench_dir / "BENCH_refresh.json"
        path.write_text(json.dumps({"case": "refresh", "seconds": 1.0}))

        _write_bench_record({"case": "refresh", "seconds": 2.0})

        assert json.loads(path.read_text())["seconds"] == 2.0

    def test_other_backend_record_is_overwritten(self, bench_dir):
        bench_dir.mkdir()
        other = "cext" if get_backend().name != "cext" else "numpy"
        path = bench_dir / "BENCH_redirected.json"
        path.write_text(
            json.dumps({"backend": other, "case": "redirected", "seconds": 1.0})
        )

        _write_bench_record({"case": "redirected", "seconds": 2.0})

        assert json.loads(path.read_text())["backend"] == get_backend().name

    def test_corrupt_existing_record_is_overwritten(self, bench_dir):
        bench_dir.mkdir()
        path = bench_dir / "BENCH_corrupt.json"
        path.write_text("{not json")

        _write_bench_record({"case": "corrupt", "seconds": 2.0})

        assert json.loads(path.read_text())["seconds"] == 2.0
