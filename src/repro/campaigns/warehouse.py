"""Append-only columnar results warehouse for campaign rows (sqlite).

One :class:`CampaignWarehouse` file (``campaigns.sqlite`` under the
solve-store directory by default) holds every campaign ever run against
that cache dir, keyed by campaign digest:

``campaigns``
    One row per registered campaign: digest (primary key), campaign id,
    title, the full canonical spec JSON, and the expanded row count.
``rows``
    One row per computed campaign row: an integer ``id`` plus a unique
    ``(campaign, digest)`` pair — the resume manifest. A rerun reads
    ``existing_digests`` and computes only the complement.
``metrics``
    The columnar payload: ``(row, metric) -> value``, keyed by the row's
    integer id (``WITHOUT ROWID``), so no digest is repeated per value.
    Long and narrow rather than wide, so different sweep kinds (grid rows
    emit welfare/revenue/kkt, dynamics rows emit survival fields) share
    one schema and ``metric(name)`` reads one column across a campaign
    without touching the rest.

The schema version is ``PRAGMA user_version`` (:data:`SCHEMA_VERSION`).
A file written with an older schema is refused with a
:class:`~repro.exceptions.ModelError` naming it; delete it and rerun —
the rows resolve from the solve store without solving.

Append is transactional: a row and all of its metrics commit atomically
(``BEGIN IMMEDIATE`` ... ``COMMIT``), so a SIGKILL mid-campaign leaves
either a complete row or no row — never a partial one. That is the
invariant the kill-and-resume tests assert, and it is what makes the
manifest trustworthy: digest present ⇒ metrics complete.

NaN discipline: sqlite binds ``float('nan')`` as ``NULL``, so the value
column is nullable and reads map ``NULL`` back to ``nan`` — a diverged
row round-trips instead of raising.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import ModelError

__all__ = ["CampaignWarehouse", "SCHEMA_VERSION", "SUMMARY_FIELDS"]

#: Column order of one summary row (and of ``summary_csv`` output).
SUMMARY_FIELDS = (
    "count",
    "mean",
    "std",
    "min",
    "p25",
    "median",
    "p75",
    "max",
)

#: ``PRAGMA user_version`` of the current schema.
SCHEMA_VERSION = 2

_SCHEMA = (
    """CREATE TABLE campaigns (
    campaign    TEXT PRIMARY KEY,
    campaign_id TEXT NOT NULL,
    title       TEXT NOT NULL,
    spec        TEXT NOT NULL,
    total_rows  INTEGER NOT NULL
)""",
    """CREATE TABLE rows (
    id              INTEGER PRIMARY KEY,
    campaign        TEXT NOT NULL,
    digest          TEXT NOT NULL,
    row_index       INTEGER NOT NULL,
    seed            INTEGER,
    scenario_id     TEXT NOT NULL,
    scenario_digest TEXT NOT NULL,
    params          TEXT NOT NULL,
    UNIQUE (campaign, digest)
)""",
    """CREATE TABLE metrics (
    row    INTEGER NOT NULL,
    metric TEXT NOT NULL,
    value  REAL,
    PRIMARY KEY (row, metric)
) WITHOUT ROWID""",
    f"PRAGMA user_version = {SCHEMA_VERSION}",
)


def _to_value(value: Any) -> float | None:
    value = float(value)
    # sqlite has no NaN literal: store NULL, read NULL back as nan.
    return None if np.isnan(value) else value


def _from_value(value: float | None) -> float:
    return float("nan") if value is None else float(value)


class CampaignWarehouse:
    """Append-only sqlite warehouse of campaign results.

    Parameters
    ----------
    path:
        Database file (parent directories are created), or
        ``":memory:"`` for an ephemeral warehouse in tests and
        store-less runs.
    """

    def __init__(self, path: str | Path) -> None:
        self._memory = str(path) == ":memory:"
        if self._memory:
            self._path = Path(":memory:")
            self._conn = sqlite3.connect(":memory:")
        else:
            self._path = Path(path)
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = sqlite3.connect(self._path)
        # Writers from a killed-and-resumed run may overlap briefly;
        # block instead of raising "database is locked".
        self._conn.execute("PRAGMA busy_timeout = 30000")
        try:
            self._create_or_check_schema()
        except BaseException:
            self._conn.close()
            raise

    def _create_or_check_schema(self) -> None:
        """Create the schema in an empty file; refuse any other version."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            (version,) = self._conn.execute("PRAGMA user_version").fetchone()
            (tables,) = self._conn.execute(
                "SELECT COUNT(*) FROM sqlite_master"
            ).fetchone()
            if version == 0 and tables == 0:
                for statement in _SCHEMA:
                    self._conn.execute(statement)
            elif version != SCHEMA_VERSION:
                raise ModelError(
                    f"campaign warehouse {self._path} has schema version "
                    f"{version}, this program reads version "
                    f"{SCHEMA_VERSION}; delete the file and rerun the "
                    "campaign (its rows resolve from the solve store)"
                )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        """The database file (``:memory:`` for ephemeral warehouses)."""
        return self._path

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignWarehouse":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def register(
        self,
        campaign: str,
        *,
        campaign_id: str,
        title: str,
        spec: Mapping[str, Any],
        total_rows: int,
    ) -> None:
        """Record the campaign header (idempotent; resume re-registers)."""
        self._conn.execute(
            "INSERT OR IGNORE INTO campaigns "
            "(campaign, campaign_id, title, spec, total_rows) "
            "VALUES (?, ?, ?, ?, ?)",
            (
                campaign,
                campaign_id,
                title,
                json.dumps(dict(spec), sort_keys=True, separators=(",", ":")),
                int(total_rows),
            ),
        )
        self._conn.commit()

    def append(
        self,
        campaign: str,
        *,
        digest: str,
        row_index: int,
        seed: int | None,
        scenario_id: str,
        scenario_digest: str,
        params: Mapping[str, Any],
        metrics: Mapping[str, Any],
    ) -> bool:
        """Atomically append one row and all of its metrics.

        Returns ``False`` (and writes nothing) when the row digest is
        already present — the append-only discipline: results are never
        overwritten, a duplicate append is a no-op.
        """
        if not metrics:
            raise ModelError(
                f"campaign row {digest[:12]}... has no metrics to append"
            )
        try:
            self._conn.execute("BEGIN IMMEDIATE")
            row_id = self._conn.execute(
                "INSERT INTO rows (campaign, digest, row_index, seed, "
                "scenario_id, scenario_digest, params) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign,
                    digest,
                    int(row_index),
                    None if seed is None else int(seed),
                    scenario_id,
                    scenario_digest,
                    json.dumps(
                        dict(params), sort_keys=True, separators=(",", ":")
                    ),
                ),
            ).lastrowid
            self._conn.executemany(
                "INSERT INTO metrics (row, metric, value) VALUES (?, ?, ?)",
                [
                    (row_id, name, _to_value(metrics[name]))
                    for name in sorted(metrics)
                ],
            )
            self._conn.execute("COMMIT")
            return True
        except sqlite3.IntegrityError:
            self._conn.execute("ROLLBACK")
            return False

    # ------------------------------------------------------------------
    def campaigns(self) -> list[dict]:
        """Every registered campaign with its completion count."""
        cursor = self._conn.execute(
            "SELECT c.campaign, c.campaign_id, c.title, c.total_rows, "
            "(SELECT COUNT(*) FROM rows r WHERE r.campaign = c.campaign) "
            "FROM campaigns c ORDER BY c.campaign_id"
        )
        return [
            {
                "campaign": row[0],
                "campaign_id": row[1],
                "title": row[2],
                "total_rows": row[3],
                "done_rows": row[4],
            }
            for row in cursor
        ]

    def spec_payload(self, campaign: str) -> dict | None:
        """The stored canonical spec JSON for a campaign digest."""
        row = self._conn.execute(
            "SELECT spec FROM campaigns WHERE campaign = ?", (campaign,)
        ).fetchone()
        return None if row is None else json.loads(row[0])

    def existing_digests(self, campaign: str) -> set[str]:
        """The resume manifest: digests of every completed row."""
        cursor = self._conn.execute(
            "SELECT digest FROM rows WHERE campaign = ?", (campaign,)
        )
        return {row[0] for row in cursor}

    def count(self, campaign: str) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM rows WHERE campaign = ?", (campaign,)
        ).fetchone()
        return int(row[0])

    def metric_names(self, campaign: str) -> tuple[str, ...]:
        cursor = self._conn.execute(
            "SELECT DISTINCT m.metric FROM metrics m "
            "JOIN rows r ON r.id = m.row WHERE r.campaign = ? "
            "ORDER BY m.metric",
            (campaign,),
        )
        return tuple(row[0] for row in cursor)

    def incomplete_rows(self, campaign: str) -> list[str]:
        """Row digests missing any of the campaign's metric columns.

        The partial-row detector for crash tests: under the transactional
        append this list is empty by construction.
        """
        names = self.metric_names(campaign)
        if not names:
            return []
        cursor = self._conn.execute(
            "SELECT r.digest, COUNT(m.metric) FROM rows r "
            "LEFT JOIN metrics m ON m.row = r.id "
            "WHERE r.campaign = ? GROUP BY r.id",
            (campaign,),
        )
        return sorted(
            digest for digest, have in cursor if have != len(names)
        )

    def rows(self, campaign: str) -> list[dict]:
        """Every completed row (ordered by row index) with its metrics."""
        cursor = self._conn.execute(
            "SELECT digest, row_index, seed, scenario_id, scenario_digest, "
            "params FROM rows WHERE campaign = ? ORDER BY row_index",
            (campaign,),
        )
        records = [
            {
                "digest": row[0],
                "index": row[1],
                "seed": row[2],
                "scenario_id": row[3],
                "scenario_digest": row[4],
                "params": json.loads(row[5]),
                "metrics": {},
            }
            for row in cursor
        ]
        by_digest = {record["digest"]: record for record in records}
        cursor = self._conn.execute(
            "SELECT r.digest, m.metric, m.value FROM metrics m "
            "JOIN rows r ON r.id = m.row WHERE r.campaign = ?",
            (campaign,),
        )
        for digest, metric, value in cursor:
            record = by_digest.get(digest)
            if record is not None:
                record["metrics"][metric] = _from_value(value)
        return records

    def metric(self, campaign: str, name: str) -> np.ndarray:
        """One metric across the campaign, ordered by row index."""
        cursor = self._conn.execute(
            "SELECT m.value FROM metrics m JOIN rows r ON r.id = m.row "
            "WHERE r.campaign = ? AND m.metric = ? ORDER BY r.row_index",
            (campaign, name),
        )
        return np.array(
            [_from_value(row[0]) for row in cursor], dtype=float
        )

    # ------------------------------------------------------------------
    def summary(self, campaign: str) -> dict[str, dict[str, float]]:
        """Distribution summary per metric (count/mean/std/quantiles).

        NaN values (diverged rows) are excluded from the statistics but
        reflected in ``count`` being smaller than the row count.
        """
        out: dict[str, dict[str, float]] = {}
        for name in self.metric_names(campaign):
            values = self.metric(campaign, name)
            finite = values[np.isfinite(values)]
            if finite.size == 0:
                out[name] = {field: float("nan") for field in SUMMARY_FIELDS}
                out[name]["count"] = 0.0
                continue
            out[name] = {
                "count": float(finite.size),
                "mean": float(np.mean(finite)),
                "std": float(np.std(finite)),
                "min": float(np.min(finite)),
                "p25": float(np.quantile(finite, 0.25)),
                "median": float(np.median(finite)),
                "p75": float(np.quantile(finite, 0.75)),
                "max": float(np.max(finite)),
            }
        return out

    def summary_csv(self, campaign: str) -> str:
        """The summary as CSV at 12 significant digits (house convention).

        Byte-identical across backends when the underlying solves are —
        the cross-backend parity tests compare this string directly.
        """
        lines = ["metric," + ",".join(SUMMARY_FIELDS)]
        stats = self.summary(campaign)
        for name in sorted(stats):
            cells = [name] + [
                format(float(stats[name][field]), ".12g")
                for field in SUMMARY_FIELDS
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    def iter_metrics(
        self, campaign: str, names: Sequence[str]
    ) -> Iterator[tuple[str, np.ndarray]]:
        """``(name, column)`` pairs for the requested metric names."""
        for name in names:
            yield name, self.metric(campaign, name)
