"""Tests of the benchmark's own plumbing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import socket
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.cloud.messages import SearchResponse  # noqa: E402

from perfbench import measure, service  # noqa: E402
from perfbench.load import Ledger, Loader  # noqa: E402
from perfbench.tracing import Patches, Span, Tracer, self_times_ms  # noqa: E402
from perfbench.workloads import WORKLOADS, make_inputs  # noqa: E402


# ----------------------------------------------------------------------
# Tail-percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, pct",
    [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, pct):
    assert measure.tail_percentile(count) == pct
    assert round(count * (100.0 - pct) / 100.0, 6) >= measure.TAIL_BEYOND


def test_tail_needs_twenty_samples():
    with pytest.raises(ValueError):
        measure.tail_percentile(19)


def test_summarize_reports_rule_chosen_tail():
    samples = [float(i) for i in range(1, 101)]
    summary = measure.summarize(samples)
    assert summary["tail_pct"] == 90.0
    assert summary["tail"] == pytest.approx(90.1)
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["n"] == 100


# ----------------------------------------------------------------------
# /proc accounting over a process tree
# ----------------------------------------------------------------------
def _fake_proc(root: Path, pid: int, children, ticks, hwm_kb) -> None:
    base = root / str(pid)
    task = base / "task" / str(pid)
    task.mkdir(parents=True)
    (task / "children").write_text(" ".join(map(str, children)))
    utime, stime = ticks
    # A command name with spaces and a parenthesis, as Linux allows.
    fields = ["S", "1", "1", "1"] + ["0"] * 7 + [str(utime), str(stime)]
    (base / "stat").write_text(f"{pid} (py (worker) x) " + " ".join(fields))
    (base / "status").write_text(f"Name:\tpy\nVmHWM:\t{hwm_kb} kB\n")


def test_tree_sums_cpu_and_peak_rss_over_forked_workers(tmp_path):
    hz = measure._CLOCK_TICKS
    _fake_proc(tmp_path, 100, [101, 102], (3 * hz, hz), 40_960)
    _fake_proc(tmp_path, 101, [], (hz, 0), 20_480)
    _fake_proc(tmp_path, 102, [103], (0, hz), 10_240)
    _fake_proc(tmp_path, 103, [], (hz // 2, 0), 1024)
    assert sorted(measure.process_tree([100], tmp_path)) == [100, 101, 102, 103]
    assert measure.tree_cpu_seconds([100], tmp_path) == pytest.approx(6.5)
    assert measure.tree_peak_rss_mb([100], tmp_path) == pytest.approx(71.0)


def test_real_tree_includes_engine_workers():
    script = (
        "import sys, random\n"
        "from repro.core.geometry import DataSpace\n"
        "from repro.core.crse2 import CRSE2Scheme\n"
        "from repro.core.provision import group_for_crse2\n"
        "from repro.service import SearchEngine\n"
        "space = DataSpace(w=2, t=16)\n"
        "scheme = CRSE2Scheme(space, group_for_crse2(space, 'fast', "
        "random.Random(1)))\n"
        "with SearchEngine(scheme, workers=2) as engine:\n"
        "    engine.warm_up()\n"
        "    print('ready', flush=True)\n"
        "    sys.stdin.read()\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    try:
        assert proc.stdout.readline().strip() == "ready"
        tree = measure.process_tree([proc.pid])
        assert len(tree) >= 3
        parent_mb = measure.peak_rss_kb(proc.pid) / 1024.0
        assert measure.tree_peak_rss_mb([proc.pid]) > parent_mb
        assert measure.tree_cpu_seconds([proc.pid]) >= measure.cpu_seconds(
            proc.pid)
    finally:
        proc.stdin.close()
        proc.wait(timeout=30)
    assert proc.returncode == 0


# ----------------------------------------------------------------------
# Backend ports
# ----------------------------------------------------------------------
def test_cluster_backend_ports_are_distinct_when_the_draws_repeat(monkeypatch):
    draws = [26001, 26001, 26002, 26002, 26003, 26003, 26004, 26005, 26006,
             26007]

    class Repeating:
        def __init__(self):
            self.draws = iter(draws)

        def randrange(self, low, high):
            return next(self.draws)

    monkeypatch.setattr(service.random, "Random", Repeating)
    ports = service.backend_ports(WORKLOADS["cluster-durable"])
    assert len(ports) == 4
    assert len(set(ports)) == 4
    assert set(ports) <= set(draws)
    assert service.backend_ports(WORKLOADS["scan-pairing"]) == [0]


def _processes_mentioning(text: str) -> list[int]:
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if text.encode() in cmdline:
            pids.append(int(entry.name))
    return pids


def test_failed_cluster_start_stops_every_launched_process(tmp_path):
    inputs = make_inputs(WORKLOADS["cluster-durable"], 1)
    deployment = service.Deployment(inputs, tmp_path, ROOT / "src")
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        deployment.backend_ports[1] = taken.getsockname()[1]
        with pytest.raises(RuntimeError, match="backend1"):
            deployment.seed()
    assert deployment.procs == []
    assert _processes_mentioning(str(tmp_path)) == []


# ----------------------------------------------------------------------
# Output oracle
# ----------------------------------------------------------------------
class _Client:
    """Answers searches from the plaintext, optionally corrupting one."""

    def __init__(self, inputs, corrupt_index=None):
        self.inputs = inputs
        self.corrupt_index = corrupt_index

    async def search(self, token):
        index = self.inputs.tokens.index(token)
        identifiers = self.inputs.expected(index)
        if index == self.corrupt_index:
            identifiers = identifiers[1:] + (999_999,)
        return SearchResponse(identifiers=identifiers), {}


def _searches(inputs, client):
    ledger = Ledger()
    asyncio.run(Loader(client, inputs, ledger, 2).searches())
    return ledger


def test_oracle_accepts_plaintext_answers():
    inputs = make_inputs(WORKLOADS["cluster-durable"], 1)
    ledger = _searches(inputs, _Client(inputs))
    assert ledger.attempted["search"] == len(inputs.tokens)
    assert ledger.total_failed == 0


def test_oracle_catches_injected_wrong_identifier_set():
    inputs = make_inputs(WORKLOADS["cluster-durable"], 1)
    ledger = _searches(inputs, _Client(inputs, corrupt_index=3))
    assert ledger.failed["search"] == 1
    assert ledger.first_errors[0].startswith("search: query 3:")
    assert "op=search attempted=" in ledger.lines("cluster-durable")[0]


class _Writer:
    """Acks writes like a server whose live set starts at the seed
    dataset, optionally under-counting every ``stored`` by *short*."""

    def __init__(self, inputs, short=0):
        self.live = inputs.workload.records
        self.short = short

    async def upload(self, dataset):
        self.live += len(dataset.records)
        return self.live - self.short

    async def delete(self, identifiers):
        self.live -= len(identifiers)
        return len(identifiers)


@pytest.mark.parametrize("short", [0, 1])
def test_oracle_checks_every_write_ack(short):
    inputs = make_inputs(WORKLOADS["cluster-durable"], 1)
    ledger = Ledger()
    loader = Loader(_Writer(inputs, short), inputs, ledger, 2)
    asyncio.run(loader.uploads())
    asyncio.run(loader.deletes())
    batches = len(inputs.upload_batches)
    assert ledger.attempted["upload"] == ledger.attempted["delete"] == batches
    assert ledger.failed["upload"] == (batches if short else 0)
    assert ledger.failed["delete"] == 0


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def _span(span_id, parent_id, start, end):
    return Span(span_id, 1, parent_id, f"s{span_id}", "", "", start, end)


def test_self_time_subtracts_union_of_children_inside_parent():
    spans = [
        _span(1, None, 0.000, 0.010),
        _span(2, 1, 0.001, 0.003),
        _span(3, 1, 0.002, 0.005),  # overlaps span 2
        _span(4, 1, 0.008, 0.012),  # runs past the parent's end
        _span(5, 2, 0.001, 0.002),  # grandchild: only span 2's business
    ]
    times = self_times_ms(spans)
    assert times[1] == pytest.approx(4.0)
    assert times[2] == pytest.approx(1.0)
    assert times[5] == pytest.approx(1.0)


def test_spans_nest_across_carried_threads_and_share_the_trace():
    tracer = Tracer()
    tracer.active = True
    with tracer.request("search") as root:
        with tracer.span("outer") as outer:
            def inner():
                with tracer.span("inner") as span:
                    return span

            work = tracer.carry(inner)
            thread_result = []
            thread = threading.Thread(target=lambda: thread_result.append(
                work()))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
    inner = thread_result[0]
    assert inner.parent_id == outer.span_id
    assert outer.parent_id == root.span_id
    assert inner.trace_id == outer.trace_id == root.trace_id is not None


def test_patches_time_calls_and_restore_originals():
    module = types.SimpleNamespace(double=lambda x: 2 * x)
    original = module.double
    tracer = Tracer()
    patches = Patches(tracer)
    patches.timed(module, "double", "m.double", lambda a, r: {"out": r})
    tracer.active = True
    assert module.double(4) == 8
    patches.restore()
    assert module.double is original
    assert [(s.name, s.attrs) for s in tracer.spans] == [
        ("m.double", {"out": 8})]
