"""Ray session, run conditions and process hygiene for one benchmark run.

Ray runs with 4 logical CPUs on whatever cores the host has, as the test
suite does: at 1 CPU the flagship's actor pool holds the only CPU and
its reads never schedule, and the sink layout itself depends on the CPU
count.  Ray's session directory lives inside the benchmark's work
directory when the Unix socket paths fit there.

``run_flagship`` executes its IngestWorker plan a second time under
``limit=1`` (``flagship.plan_runs``, ``flagship.rerun_s``), and that
re-run writes sink files again, under the names the full pass used.
When the limit is met, Ray kills the re-run's actors; one still writing
a file leaves it truncated, and a first batch cut from blocks in another
order than the full pass's lands as a duplicate.  On a 4-vCPU host 4 of
12 fresh ingests of a 105k-turn corpus (two actors) failed that way.
The benchmark keeps every ingest to one actor (``inputs.generate``) and
runs its ingests with Ray Data in order and one task in flight per actor
(``run_flagship``); the queries run with Ray Data's defaults.  Without those
two settings one-actor ingests still failed now and then (a duplicated
batch, about 1 in 40); with them, none of the ingests run while the
benchmark was tuned failed.  The re-run itself is still measured, and
``smoke.py`` shows that a truncated sink file is counted as a failure.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import tempfile
import threading
import time
from datetime import datetime
from pathlib import Path

NUM_CPUS = 4
OBJECT_STORE_BYTES = 512 << 20
# AF_UNIX paths are limited to 107 bytes; Ray appends
# "/session_<date>_<time>_<us>_<pid>/sockets/plasma_store".
_SOCKET_SUFFIX_LEN = 72
_RAY_DAEMONS = ("raylet", "gcs_server")


def _proc_stat(pid: str) -> tuple[str, int] | None:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    comm = stat[stat.index("(") + 1:stat.rindex(")")]
    return comm, int(stat[stat.rindex(")") + 2:].split()[1])


def _pids() -> list[str]:
    return [p for p in os.listdir("/proc") if p.isdigit()]


def ray_daemons() -> list[int]:
    return [int(p) for p in _pids()
            if (st := _proc_stat(p)) and st[0] in _RAY_DAEMONS]


def descendants(root: int) -> set[int]:
    children: dict[int, list[int]] = {}
    for p in _pids():
        if st := _proc_stat(p):
            children.setdefault(st[1], []).append(int(p))
    out, todo = set(), [root]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.add(c)
            todo.append(c)
    return out


def _cmdline(pid: str) -> bytes:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return b""


def _alive(pid: int) -> bool:
    """Running and not a zombie (an exited child not yet reaped)."""
    try:
        return "State:\tZ" not in Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False


def run_flagship(input_dir: Path, out_root: Path) -> dict:
    """``alco_ray``'s run_flagship under the Ray Data settings the module
    docstring explains."""
    from alco_ray.pipelines import flagship
    from ray.data import DataContext

    ctx = DataContext.get_current()
    saved = (ctx.execution_options.preserve_order,
             ctx.max_tasks_in_flight_per_actor)
    ctx.execution_options.preserve_order = True
    ctx.max_tasks_in_flight_per_actor = 1
    try:
        return flagship.run_flagship(input_dir, out_root)
    finally:
        (ctx.execution_options.preserve_order,
         ctx.max_tasks_in_flight_per_actor) = saved


class OpTimeout(Exception):
    pass


class RaySessionBusy(Exception):
    pass


def call_with_timeout(fn, timeout_s: float):
    """Run ``fn`` in a worker thread; raise OpTimeout if it has not
    returned after ``timeout_s`` (the thread is abandoned; the caller
    ends the run)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # re-raised in the calling thread
            box["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(max(0.0, timeout_s))
    if t.is_alive():
        raise OpTimeout(f"no result after {timeout_s:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


class PeakRss:
    """Peak resident set of this (driver) process while sampling is on."""

    def __init__(self, interval_s: float = 0.01):
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _sample(self):
        with open("/proc/self/statm") as f:
            rss = int(f.read().split()[1]) * self._page
        self.peak_bytes = max(self.peak_bytes, rss)

    def _loop(self):
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self):
        self._sample()
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / (1 << 20)


_LOG_LINE = re.compile(
    r"^(\d{4}-\d\d-\d\d \d\d:\d\d:\d\d,\d{3})\s+\w+\s+\S+ -- (.*)$")
_STARTED = re.compile(r"Starting execution of Dataset (\S+?)\.")
_PLAN = re.compile(r"Execution plan of Dataset (\S+): (.*)$")
_FINISHED = re.compile(r"Dataset (\S+) execution finished in ([\d.]+) seconds")
_RERUN_SUFFIX = " -> LimitOperator[limit=1]"


class RayDataLog:
    """Plan executions read back from Ray Data's per-session log (the
    state API needs the dashboard, which these runs go without)."""

    def __init__(self, path: Path):
        self.path = path

    def mark(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0

    def executions(self, since: int) -> list[dict]:
        """Finished executions logged after ``since``, in order, each
        with its plan text, wall start (epoch s) and duration.  An
        execution whose plan is the previous plan plus a trailing
        ``limit=1`` is a re-run of that plan (Ray re-executes a
        streaming plan to fetch a schema it did not keep)."""
        with open(self.path, "rb") as f:
            f.seek(since)
            text = f.read().decode("utf-8", "replace")
        runs: dict[str, dict] = {}
        done: list[dict] = []
        for line in text.splitlines():
            m = _LOG_LINE.match(line)
            if not m:
                continue
            stamp, msg = m.groups()
            if s := _STARTED.search(msg):
                runs[s.group(1)] = {"start": datetime.strptime(
                    stamp, "%Y-%m-%d %H:%M:%S,%f").timestamp(), "plan": ""}
            elif (p := _PLAN.search(msg)) and p.group(1) in runs:
                runs[p.group(1)]["plan"] = p.group(2)
            elif (e := _FINISHED.search(msg)) and e.group(1) in runs:
                run = runs.pop(e.group(1))
                run["seconds"] = float(e.group(2))
                done.append(run)
        prev = None
        for run in done:
            run["rerun"] = prev is not None and run["plan"] == prev + _RERUN_SUFFIX
            prev = run["plan"]
        return done


class RaySession:
    """``ray.init`` for one run and a guaranteed teardown: every process
    the run started has exited when ``__exit__`` returns."""

    def __init__(self, work: Path, wait_for_others_s: float = 20.0):
        self.work = work
        self.wait_for_others_s = wait_for_others_s
        self.temp_dir: Path | None = None
        self.data_log: RayDataLog | None = None
        self.abandoned_thread = False

    def __enter__(self):
        deadline = time.monotonic() + self.wait_for_others_s
        while others := ray_daemons():
            if time.monotonic() > deadline:
                raise RaySessionBusy(
                    f"another Ray session is running (pids {others}); "
                    "benchmark numbers would be shared with it")
            time.sleep(0.5)

        import ray
        from ray.data import DataContext

        temp = self.work / "ray"
        if len(str(temp)) + _SOCKET_SUFFIX_LEN > 107:
            temp = Path(tempfile.mkdtemp(prefix="pb-ray-"))
        temp.mkdir(parents=True, exist_ok=True)
        self.temp_dir = temp
        ray.init(address="local", num_cpus=NUM_CPUS,
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, _temp_dir=str(temp))
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        session = (temp / "session_latest").resolve()
        self.data_log = RayDataLog(session / "logs" / "ray-data" / "ray-data.log")
        # Start the worker processes before anything is timed.
        ray.data.range(4 * NUM_CPUS,
                       override_num_blocks=4 * NUM_CPUS).materialize()
        return self

    def _ours(self) -> set[int]:
        """This process's descendants, and any process started for this
        session that its parent left behind (Ray's agents outlive a
        killed raylet)."""
        tag = str(self.temp_dir).encode() if self.temp_dir else None
        return descendants(os.getpid()) | {
            int(p) for p in _pids() if tag and tag in _cmdline(p)}

    def __exit__(self, *exc):
        import ray

        # With an operation still running in an abandoned thread, a
        # clean shutdown can block; its processes are killed instead.
        if not self.abandoned_thread:
            ray.shutdown()
        deadline = time.monotonic() + (0 if self.abandoned_thread else 20)
        while (alive := [p for p in self._ours() if _alive(p)]) and \
                time.monotonic() < deadline:
            time.sleep(0.2)
        while alive:
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.1)
            alive = [p for p in self._ours() if _alive(p)]
        if self.temp_dir is not None:
            shutil.rmtree(self.temp_dir, ignore_errors=True)
        return False


def conditions() -> dict:
    import platform

    import pyarrow
    import ray

    return {"nproc": len(os.sched_getaffinity(0)), "ray_num_cpus": NUM_CPUS,
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "python": platform.python_version(),
            "host": platform.node()}
