"""Measurement plumbing: machine facts, the Ray session, the RSS sampler and
the span/count tracer."""

from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

# AF_UNIX socket paths are capped at 107 bytes; Ray appends about 64 bytes
# (session_<date>_<pid>/sockets/plasma_store) to its temp dir
_RAY_TMP_MAX = 42


def nproc() -> int:
    """What ``nproc`` prints: OMP_NUM_THREADS when set, else the CPUs this
    process may run on."""
    exe = shutil.which("nproc")
    if exe:
        try:
            return int(subprocess.run([exe], capture_output=True, text=True,
                                      timeout=10).stdout.strip())
        except (ValueError, OSError, subprocess.SubprocessError):
            pass
    return len(os.sched_getaffinity(0))


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cgroup_limits() -> dict:
    """CPU quota (CPUs, None = unlimited) and memory limit (MB, None =
    unlimited), from cgroup v2 or v1."""
    cpu = mem = None
    v2 = _read("/sys/fs/cgroup/cpu.max")
    if v2:
        q, p = v2.split()[:2]
        cpu = None if q == "max" else int(q) / int(p)
        m = _read("/sys/fs/cgroup/memory.max")
        mem = None if m in (None, "max") else int(m) / 1e6
    else:
        q, p = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"), _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        if q and p and int(q) > 0:
            cpu = int(q) / int(p)
        m = _read("/sys/fs/cgroup/memory/memory.limit_in_bytes")
        if m and int(m) < 2**62:
            mem = int(m) / 1e6
    total = None
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            total = int(line.split()[1]) / 1e3
    return {"cgroup_cpu_quota": cpu, "cgroup_mem_limit_mb": mem, "mem_total_mb": total}


def environment(num_cpus: int) -> dict:
    import duckdb
    import pyarrow
    import ray

    return {
        "os_cpu_count": os.cpu_count(),
        "nproc": nproc(),
        **cgroup_limits(),
        "ray_num_cpus": num_cpus,
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "duckdb": duckdb.__version__,
        "python": sys.version.split()[0],
    }


# ------------------------------------------------------------------ Ray

class RaySession:
    """A local Ray session sized to ``num_cpus``, its files under
    ``run_root`` when the path is short enough for Ray's sockets."""

    def __init__(self, num_cpus: int, run_root: str, log_path: str):
        self.num_cpus = num_cpus
        tmp = os.path.join(run_root, "ray")
        self.temp_dir = tmp if len(tmp) <= _RAY_TMP_MAX else None
        self.log_path = log_path
        self.ends: List[dict] = []  # end_descendants() of each stop

    def start(self) -> float:
        import ray

        t0 = time.perf_counter()
        kw = {"_temp_dir": self.temp_dir} if self.temp_dir else {}
        ray.init(
            address="local", num_cpus=self.num_cpus, include_dashboard=False,
            logging_level="ERROR", log_to_driver=False,
            object_store_memory=512 * 1024 * 1024, **kw,
        )
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        self._route_ray_data_logs()
        return time.perf_counter() - t0

    def _route_ray_data_logs(self) -> None:
        """Ray Data prints three INFO lines per execution; send them to the
        run's log file instead of the console."""
        lg = logging.getLogger("ray.data")
        for h in list(lg.handlers):
            if isinstance(h, logging.StreamHandler) and not isinstance(h, logging.FileHandler):
                lg.removeHandler(h)
        if not any(getattr(h, "_perfbench", False) for h in lg.handlers):
            fh = logging.FileHandler(self.log_path)
            fh._perfbench = True
            lg.addHandler(fh)
        lg.propagate = False

    def gcs_address(self) -> str:
        import ray

        return ray.get_runtime_context().gcs_address

    def stop(self) -> None:
        """End the session and wait until every process it started has
        ended: ``ray.shutdown`` only signals them, and workers outlive
        their raylet for a while."""
        import ray

        try:
            if ray.is_initialized():
                ray.shutdown()
        finally:
            from entity_extractor_ray import stats

            stats._METER = None  # the meter actor died with the session
            self.ends.append(end_descendants())


# ------------------------------------------------------------------ processes

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Make this process the parent of its orphaned descendants (Ray's
    workers, once their raylet has exited), so that it can wait for them."""
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _state(pid: int) -> Optional[str]:
    stat = _read(f"/proc/{pid}/stat")
    return stat.rsplit(")", 1)[1].split()[0] if stat else None


def descendants(root: int) -> List[int]:
    """Live (not zombie) processes below ``root``."""
    kids = _children_map()
    todo, out = list(kids.get(root, ())), []
    while todo:
        pid = todo.pop()
        todo.extend(kids.get(pid, ()))
        if _state(pid) not in (None, "Z"):
            out.append(pid)
    return out


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def end_descendants(grace_s: float = 15.0, kill_s: float = 10.0) -> dict:
    """Wait until no process started by this one is left: SIGTERM what is
    still there after ``grace_s`` / 2, SIGKILL it after ``grace_s``, and
    reap every child. Returns how many were found, how many had to be
    signalled and how long the wait took; raises if any survive SIGKILL
    for ``kill_s``."""
    import signal

    me = os.getpid()
    t0 = time.perf_counter()
    found, sig = None, {}
    while True:
        _reap()
        left = descendants(me)
        if found is None:
            found = len(left)
        if not left:
            break
        el = time.perf_counter() - t0
        if el > grace_s + kill_s:
            raise RuntimeError(f"processes {left} survived SIGKILL")
        s = signal.SIGKILL if el > grace_s else signal.SIGTERM if el > grace_s / 2 else None
        for pid in left if s is not None else ():
            if sig.get(pid) != s:
                try:
                    os.kill(pid, s)
                except ProcessLookupError:
                    pass
                sig[pid] = s
        time.sleep(0.02)
    _reap()
    return {"found": found, "signalled": len(sig), "wait_s": time.perf_counter() - t0}


# ------------------------------------------------------------------ RSS

def _children_map() -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        stat = _read(f"/proc/{name}/stat")
        if not stat:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def tree_rss_mb(root: int) -> float:
    """Summed RSS of ``root`` and all its descendants (shared pages count
    once per process that maps them)."""
    kids = _children_map()
    todo, total = [root], 0
    page = os.sysconf("SC_PAGE_SIZE")
    while todo:
        pid = todo.pop()
        todo.extend(kids.get(pid, ()))
        statm = _read(f"/proc/{pid}/statm")
        if statm:
            total += int(statm.split()[1]) * page
    return total / 1e6


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs: a
    rise during an operation means the host, not the program, was slow."""
    fields = (_read("/proc/stat") or "cpu 0").splitlines()[0].split()
    return (int(fields[8]) if len(fields) > 8 else 0) / os.sysconf("SC_CLK_TCK")


class RssSampler:
    """Samples the benchmark's process tree every ``period`` seconds while
    armed and keeps the peak."""

    def __init__(self, period: float = 0.25):
        self.period = period
        self.peak = 0.0
        self.armed = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        me = os.getpid()
        while not self._stop.wait(self.period):
            if self.armed:
                self.peak = max(self.peak, tree_rss_mb(me))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


# ------------------------------------------------------------------ tracing

class Tracer:
    """In-memory spans (name, start, end, parent, run id) and counts,
    written to a JSON file when the run ends. Disabled, every call is a
    no-op, so the untraced run pays nothing."""

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._t0 = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self._t0

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None,
            **attrs) -> Optional[int]:
        """Record a finished span; times are ``now()`` seconds."""
        if not self.enabled:
            return None
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": parent, "run": self.run_id, **attrs})
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        sid = self.add(name, self.now(), float("nan"), **attrs)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = self.now()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - c
        return out

    def write(self, path: str) -> None:
        if self.enabled:
            with open(path, "w") as fh:
                json.dump({"run": self.run_id, "spans": self.spans,
                           "counts": self.counts, "self_s": self.self_times()}, fh)


# ------------------------------------------------------------------ misc

def code_key(root: str) -> str:
    """Hash of the engine's and the benchmark's sources (and the committed
    query pool). Cached inputs and checkpoints live under this key, so a
    code change rebuilds them instead of resuming a build made by other
    code."""
    import hashlib

    files = [os.path.join(root, "__ray_entry__.py")]
    for top in ("entity_extractor_ray", "perfbench"):
        for d, dirs, fs in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            files += [os.path.join(d, f) for f in sorted(fs)
                      if f.endswith(".py") or os.path.basename(d) == "data"]
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def dir_mb(path: str) -> float:
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(d, f))
    return total / 1e6


def median(xs):
    import statistics

    return statistics.median(xs) if xs else 0.0
