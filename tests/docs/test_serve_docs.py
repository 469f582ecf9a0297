"""The serve page's walkthrough must execute, in order, verbatim.

``docs/serve.md`` promises that every ``sh`` fenced block on the page —
booting the daemon, the curl API walkthrough, the concurrent replay, the
SIGTERM shutdown — runs as written. This test extracts the blocks and
executes them in document order inside one scratch directory, then
checks the artifacts the page creates: a populated store, a replay summary
with ``computed_delta == 0`` and a clean-shutdown log line.
"""

import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SERVE_DOC = REPO_ROOT / "docs" / "serve.md"

_FENCE = re.compile(r"^```(\w+)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _sh_blocks() -> list[str]:
    text = SERVE_DOC.read_text(encoding="utf-8")
    return [body for language, body in _FENCE.findall(text) if language == "sh"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One scratch directory for the whole walkthrough, with a python
    shim so the page's plain ``python`` commands use this interpreter."""
    path = tmp_path_factory.mktemp("serve-doc")
    shim_dir = path / "bin"
    shim_dir.mkdir()
    shim = shim_dir / "python"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
    shim.chmod(0o755)
    yield path
    # The page's last block stops the daemon; if an earlier block failed,
    # don't leak it past the test.
    pid_file = path / "serve.pid"
    if pid_file.is_file():
        try:
            os.kill(int(pid_file.read_text().strip()), signal.SIGTERM)
        except (OSError, ValueError):
            pass


def _env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PATH"] = f"{workdir / 'bin'}{os.pathsep}{env.get('PATH', '')}"
    env["PYTHONPATH"] = f"{REPO_ROOT / 'src'}{os.pathsep}{REPO_ROOT}"
    env.pop("REPRO_CACHE_DIR", None)  # the page manages its own store
    return env


def test_page_has_the_walkthrough():
    blocks = _sh_blocks()
    assert len(blocks) >= 6, "serve.md lost its walkthrough blocks"
    joined = "\n".join(blocks)
    assert "repro.experiments serve" in joined
    assert "curl" in joined
    assert "client replay" in joined
    assert "kill -TERM" in joined


def test_walkthrough_executes_in_order(workdir):
    env = _env(workdir)
    for index, body in enumerate(_sh_blocks()):
        proc = subprocess.run(
            ["bash", "-ec", body],
            cwd=workdir,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, (
            f"serve.md block {index} failed (exit {proc.returncode}):\n"
            f"{body}\n--- stdout ---\n{proc.stdout}"
            f"\n--- stderr ---\n{proc.stderr}"
        )

    # The artifacts the page promises.
    store = workdir / "solve-store" / "store.sqlite"
    with closing(sqlite3.connect(store)) as conn:
        (entries,) = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
    assert entries, "the walkthrough's store holds no entries"
    replay = json.loads((workdir / "replay.json").read_text())
    assert replay["computed_delta"] == 0
    assert replay["failures"] == []
    log = (workdir / "serve.log").read_text()
    assert "repro serve shut down cleanly" in log
