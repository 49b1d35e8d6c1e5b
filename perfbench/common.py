"""Shared helpers: checkout paths, statistics, process readings, machine note."""

from __future__ import annotations

import os
import platform
import shutil
import socket
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
POLICY = SRC / "axgate" / "policies" / "sec15c3_5.pol"
WORK_ROOT = ROOT / ".perfbench_run"


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def import_axgate() -> None:
    """Put the checkout's sources first on sys.path and import the package."""
    if not (SRC / "axgate" / "__init__.py").is_file():
        raise BenchError(f"axgate sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import axgate  # noqa: F401


def child_env() -> dict[str, str]:
    """Environment for child processes: the checkout's sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def make_workdir(workload: str) -> Path:
    path = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return float(sorted_values[int(rank) - 1])


def median(values) -> float:
    return percentile(sorted(values), 50)


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU of every thread of a live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def _filesystem_of(path: Path) -> str:
    best, fstype = "", "unknown"
    target = str(path.resolve())
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            mount = parts[1]
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, fstype = mount, parts[2]
    return fstype


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_note(workdir: Path) -> str:
    return (f"machine: nproc={os.cpu_count()} cpu={_cpu_model()!r} "
            f"python={platform.python_version()} "
            f"audit_fs={_filesystem_of(workdir)} network=loopback-only "
            f"audit_fsync=on")
