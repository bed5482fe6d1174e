"""Sample statistics and ``/proc`` accounting used by the benchmark.

Everything here is pure arithmetic or a read of ``/proc``; nothing starts
a process or touches the service.
"""

from __future__ import annotations

import math
import os
import statistics
from pathlib import Path

#: Percentiles the tail rule chooses from, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(samples, pct: float) -> float:
    """The *pct*-th percentile of *samples* (linear interpolation)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it.

    Raises:
        ValueError: If even the median has fewer than ten samples beyond
            it (fewer than twenty samples in all).
    """
    chosen = None
    for pct in TAIL_LADDER:
        # Rounded so that 10000 samples at p99.9 count as 10 beyond.
        if round(count * (100.0 - pct) / 100.0, 6) >= TAIL_BEYOND:
            chosen = pct
    if chosen is None:
        raise ValueError(
            f"{count} samples cannot support a tail percentile "
            f"({TAIL_BEYOND} must lie beyond it)"
        )
    return chosen


def summarize(samples) -> dict:
    """Median and rule-chosen tail of latency *samples*."""
    samples = list(samples)
    pct = tail_percentile(len(samples))
    return {
        "p50": percentile(samples, 50.0),
        "tail": percentile(samples, pct),
        "tail_pct": pct,
        "n": len(samples),
    }


def spread(values) -> dict:
    """Run-to-run median, quartiles and IQR as a share of the median."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    share = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": share}


# ----------------------------------------------------------------------
# /proc: CPU time and peak RSS over a process tree
# ----------------------------------------------------------------------
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def proc_children(pid: int, proc: Path = Path("/proc")) -> list[int]:
    """Direct children of *pid*, over all of its threads."""
    children: list[int] = []
    try:
        tasks = list((proc / str(pid) / "task").iterdir())
    except OSError:
        return children
    for task in tasks:
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        children.extend(int(field) for field in text.split())
    return children


def process_tree(roots, proc: Path = Path("/proc")) -> list[int]:
    """*roots* and every live descendant, each pid once."""
    seen: list[int] = []
    stack = list(roots)
    while stack:
        pid = stack.pop()
        if pid in seen or not (proc / str(pid)).exists():
            continue
        seen.append(pid)
        stack.extend(proc_children(pid, proc))
    return seen


def cpu_seconds(pid: int, proc: Path = Path("/proc")) -> float:
    """User plus system CPU of one live process, in seconds."""
    text = (proc / str(pid) / "stat").read_text()
    # The command name is parenthesised and may hold spaces; the fields
    # after it are space-separated, utime and stime being the 12th and
    # 13th of them (fields 14 and 15 of the whole line).
    fields = text[text.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_kb(pid: int, proc: Path = Path("/proc")) -> int:
    """``VmHWM`` (peak resident set) of one live process, in kB."""
    for line in (proc / str(pid) / "status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def tree_cpu_seconds(roots, proc: Path = Path("/proc")) -> float:
    """CPU seconds summed over the live process tree under *roots*."""
    total = 0.0
    for pid in process_tree(roots, proc):
        try:
            total += cpu_seconds(pid, proc)
        except OSError:
            continue
    return total


def tree_peak_rss_mb(roots, proc: Path = Path("/proc")) -> float:
    """``VmHWM`` summed over the live process tree under *roots*, in MB."""
    total = 0
    for pid in process_tree(roots, proc):
        try:
            total += peak_rss_kb(pid, proc)
        except OSError:
            continue
    return total / 1024.0
