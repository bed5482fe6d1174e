"""Subprocess smoke test for ``repro serve`` / ``repro query``.

This is the one test that exercises the real deployment shape: a serve
process on an ephemeral port, a query process dialing it over TCP, and a
SIGTERM drain — the same round-trip the CI smoke job performs.  The
coordinator battery additionally pins the degraded-mode contract (a
killed shard means exit 1 plus the partial-results banner) and the
``--verify`` round trip.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

import pytest


def _repro(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        **kwargs,
    )


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A tiny key + encrypted records built through the real CLI."""
    root = tmp_path_factory.mktemp("service-cli")
    key = root / "demo.key"
    points = root / "points.csv"
    records = root / "records.txt"
    result = _repro(
        "keygen", "--size", "16", "--dims", "2", "--backend", "fast",
        "--seed", "11", "--out", str(key),
    )
    assert result.returncode == 0, result.stderr
    points.write_text("3,3\n3,4\n12,12\n14,2\n")
    result = _repro(
        "encrypt", "--key", str(key), "--points", str(points),
        "--seed", "12", "--out", str(records),
    )
    assert result.returncode == 0, result.stderr
    return key, records, root


def test_serve_query_sigterm_roundtrip(artifacts):
    key, records, root = artifacts
    port_file = root / "port"
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    serve = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--key", str(key), "--records", str(records),
            "--port", "0", "--port-file", str(port_file),
            "--workers", "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        deadline = time.monotonic() + 60
        while not port_file.exists() and time.monotonic() < deadline:
            assert serve.poll() is None, serve.stdout.read()
            time.sleep(0.1)
        assert port_file.exists(), "serve never wrote its port file"
        port = port_file.read_text().strip()

        query = _repro(
            "query", "--key", str(key), "--center", "3,3", "--radius", "1",
            "--port", port, "--seed", "13", "--stats",
        )
        assert query.returncode == 0, query.stdout + query.stderr
        assert "matches: [0, 1]" in query.stdout
        assert "across 2 partition(s)" in query.stdout
        assert '"search"' in query.stdout  # the --stats metrics snapshot

        serve.send_signal(signal.SIGTERM)
        stdout, _ = serve.communicate(timeout=60)
    finally:
        if serve.poll() is None:
            serve.kill()
            serve.communicate(timeout=30)
    assert serve.returncode == 0, stdout
    assert "preloaded 4 records" in stdout
    assert "drained, bye" in stdout


def _spawn(argv: list[str]) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def _await_port(proc: subprocess.Popen, port_file, what: str) -> str:
    deadline = time.monotonic() + 60
    while not port_file.exists() and time.monotonic() < deadline:
        assert proc.poll() is None, f"{what} died: {proc.stdout.read()}"
        time.sleep(0.1)
    assert port_file.exists(), f"{what} never wrote its port file"
    return port_file.read_text().strip()


def _reap(proc: subprocess.Popen) -> None:
    # wait(), not communicate(): a SIGKILLed serve can leave worker
    # children holding the stdout pipe open, and draining it would hang.
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)
    if proc.stdout is not None:
        proc.stdout.close()


def _ps(*argv: str) -> str:
    return subprocess.run(
        ["ps", *argv], capture_output=True, text=True, timeout=30
    ).stdout


def _alive_with(pid: int, marker: str) -> bool:
    """Whether *pid* still runs (not a zombie) with *marker* in its
    command line — so a recycled pid is never mistaken for a worker.
    ``-ww`` keeps ps from truncating the command line."""
    fields = _ps("-ww", "-o", "stat=", "-o", "args=", "-p", str(pid)).strip()
    return bool(fields) and not fields.startswith("Z") and marker in fields


def test_engine_workers_exit_with_a_killed_server(artifacts):
    """A SIGKILLed server cannot shut its pool down; its engine workers
    must notice the lost parent and exit rather than sleep forever."""
    key, _, root = artifacts
    port_file = root / "orphan.port"
    marker = f"--port-file {port_file}"
    serve = _spawn(
        [
            "serve", "--key", str(key), "--port", "0",
            "--port-file", str(port_file), "--workers", "1",
        ]
    )
    workers: list[int] = []
    try:
        _await_port(serve, port_file, "serve")
        workers = [
            int(pid) for pid in _ps("-o", "pid=", "--ppid", str(serve.pid)).split()
        ]
        assert workers, "serve forked no engine worker"
        serve.kill()
        serve.wait(timeout=30)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and any(
            _alive_with(pid, marker) for pid in workers
        ):
            time.sleep(0.1)
        survivors = [pid for pid in workers if _alive_with(pid, marker)]
        assert not survivors, f"engine workers {survivors} outlived their server"
    finally:
        _reap(serve)
        for pid in workers:
            if _alive_with(pid, marker):
                os.kill(pid, signal.SIGKILL)


def test_coordinator_verify_and_partial_results(artifacts):
    """Verified queries work through the coordinator; a killed shard
    degrades to exit 1 with the partial-results banner."""
    key, records, root = artifacts
    shards = []
    coordinator = None
    try:
        ports = []
        for index in range(2):
            port_file = root / f"shard{index}.port"
            proc = _spawn(
                [
                    "serve", "--key", str(key), "--port", "0",
                    "--port-file", str(port_file), "--workers", "1",
                ]
            )
            shards.append(proc)
            ports.append(_await_port(proc, port_file, f"shard {index}"))
        coord_port_file = root / "coord.port"
        coordinator = _spawn(
            [
                "coordinate",
                "--shard", f"127.0.0.1:{ports[0]}",
                "--shard", f"127.0.0.1:{ports[1]}",
                "--port", "0", "--port-file", str(coord_port_file),
            ]
        )
        coord_port = _await_port(coordinator, coord_port_file, "coordinator")

        upload = _repro(
            "query", "--key", str(key), "--upload", str(records),
            "--port", coord_port, "--via-coordinator",
        )
        assert upload.returncode == 0, upload.stdout + upload.stderr
        assert "uploaded 4 records" in upload.stdout

        verified = _repro(
            "query", "--key", str(key), "--center", "3,3", "--radius", "1",
            "--port", coord_port, "--seed", "13", "--verify",
        )
        assert verified.returncode == 0, verified.stdout + verified.stderr
        assert "matches: [0, 1]" in verified.stdout
        assert re.search(
            r"verified: 2 match\(es\) attested across 2 shard proof\(s\)",
            verified.stdout,
        ), verified.stdout

        # SIGKILL one shard: no drain, no goodbye — the coordinator must
        # degrade loudly, not lie by omission.
        shards[0].kill()
        shards[0].wait(timeout=30)
        partial = _repro(
            "query", "--key", str(key), "--center", "3,3", "--radius", "1",
            "--port", coord_port, "--seed", "13", "--via-coordinator",
        )
        assert partial.returncode == 1, partial.stdout + partial.stderr
        assert re.search(
            r"partial matches: .*\(from 1 of 2 shards\)", partial.stdout
        ), partial.stdout
        assert "error: search lost shard(s)" in partial.stderr, partial.stderr
    finally:
        if coordinator is not None:
            _reap(coordinator)
        for proc in shards:
            _reap(proc)


def test_loadtest_closed_loop_roundtrip(artifacts):
    key, records, root = artifacts
    port_file = root / "loadtest-port"
    serve = _spawn(
        [
            "serve", "--key", str(key), "--records", str(records),
            "--port", "0", "--port-file", str(port_file),
        ]
    )
    try:
        port = _await_port(serve, port_file, "serve")

        run = _repro(
            "loadtest", "--key", str(key), "--port", port,
            "--queries", "20", "--mode", "closed",
            "--concurrency", "4", "--seed", "17",
        )
        assert run.returncode == 0, run.stdout + run.stderr
        first = run.stdout.splitlines()
        assert any("failed=0" in line for line in first), run.stdout
        assert any("ok=20" in line for line in first), run.stdout
        assert "qps=" in run.stdout
        assert "latency_ms p50=" in run.stdout

        sweep = _repro(
            "loadtest", "--key", str(key), "--port", port,
            "--queries", "12", "--mode", "sweep", "--levels", "1,3",
            "--seed", "18",
        )
        assert sweep.returncode == 0, sweep.stdout + sweep.stderr
        # The sweep table has a header plus one row per level.
        assert re.search(r"^\s*conc\s+qps", sweep.stdout, re.M), sweep.stdout
        assert re.search(r"^\s+1\s", sweep.stdout, re.M)
        assert re.search(r"^\s+3\s", sweep.stdout, re.M)

        serve.send_signal(signal.SIGTERM)
        stdout, _ = serve.communicate(timeout=60)
        assert "drained, bye" in stdout
    finally:
        _reap(serve)
