"""Machine stamp and host-load readings for a run record (read-only /proc)."""

from __future__ import annotations

import os
import platform
from pathlib import Path
from typing import Dict, Optional

import numpy as np


def _read(path: str) -> Optional[str]:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _cache_size(level: int) -> Optional[str]:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            if (idx / "level").read_text().strip() == str(level) and \
                    (idx / "type").read_text().strip() in ("Unified", "Data"):
                return (idx / "size").read_text().strip()
    except OSError:
        pass
    return None


def stamp() -> Dict:
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def host_sample() -> Dict:
    """CPU jiffies (total and steal) and the 1-minute load average, now."""
    out: Dict = {"total": None, "steal": None, "loadavg": None}
    stat = _read("/proc/stat")
    if stat:
        fields = [int(v) for v in stat.splitlines()[0].split()[1:]]
        out["total"] = sum(fields)
        out["steal"] = fields[7] if len(fields) > 7 else 0
    load = _read("/proc/loadavg")
    if load:
        out["loadavg"] = float(load.split()[0])
    return out


def host_load(start: Dict, end: Dict) -> Dict:
    """Steal share of CPU time between two samples, and loadavg at both."""
    steal = None
    if start["total"] is not None and end["total"] is not None \
            and end["total"] > start["total"]:
        steal = (end["steal"] - start["steal"]) / (end["total"] - start["total"])
    return {"steal_share": steal, "loadavg_start": start["loadavg"],
            "loadavg_end": end["loadavg"]}
