"""Clocks, order statistics, process accounting and host-drift probes.

Standard library only; nothing here imports the program.
"""

import os
import statistics
import subprocess
import sys
import time

#: A timing's tail is the highest percentile with this many samples
#: beyond it.
TAIL_BEYOND = 10

HOST_LOOP_ITERATIONS = 300_000
HOST_REPEATS = 5

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def latency_summary(seconds):
    """Mean, median and tail (in ms) of a list of latencies in seconds.

    The tail is the sample with ``TAIL_BEYOND`` samples above it, and
    never below the median when the sample is too small for that.
    """
    ordered = sorted(seconds)
    count = len(ordered)
    index = max(count - TAIL_BEYOND - 1, count // 2)
    return {
        "n": count,
        "mean_ms": statistics.fmean(ordered) * 1000,
        "p50_ms": statistics.median(ordered) * 1000,
        "tail_ms": ordered[index] * 1000,
        "tail_pct": 100.0 * (index + 1) / count,
    }


def proc_cpu_seconds(pid):
    """User + system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_peak_rss_mb(pid):
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _loop(iterations):
    total = 0
    for value in range(iterations):
        total += value * value % 7
    return total


def steal_seconds():
    """CPU time the hypervisor took from this host so far (all CPUs)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / _CLOCK_TICKS if len(fields) > 8 else 0.0


def host_probe():
    """Host speed right now: a fixed pure-Python loop and a bare spawn.

    Context for the reader, not a gated metric: it tells host drift
    from a program change.
    """
    loops = []
    for _ in range(HOST_REPEATS):
        started = time.perf_counter()
        _loop(HOST_LOOP_ITERATIONS)
        loops.append(time.perf_counter() - started)
    spawns = []
    for _ in range(HOST_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        spawns.append(time.perf_counter() - started)
    return {"loop_ms": statistics.median(loops) * 1000,
            "spawn_ms": statistics.median(spawns) * 1000,
            "at": time.perf_counter(), "steal_s": steal_seconds()}
