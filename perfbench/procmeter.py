"""Resource meters read from outside the measured processes (``/proc``)."""

from __future__ import annotations

import os

__all__ = ["cpu_seconds", "peak_rss_mib"]

_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of ``pid`` (all its threads), seconds."""
    with open(f"/proc/{pid}/stat") as fh:
        # Fields after the parenthesised command name; utime and stime are
        # fields 14 and 15 of the full line.
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mib(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of ``pid``, MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError(f"no VmHWM for pid {pid}")
