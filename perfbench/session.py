"""Host facts, process-tree CPU time, and the Ray session the Ray
workloads run in (started and stopped by the benchmark, one at a time)."""

from __future__ import annotations

import os
import platform
import resource
import time

from perfbench.inputs import ROOT

_TICK = os.sysconf("SC_CLK_TCK")


def affinity_cpus() -> int:
    return len(os.sched_getaffinity(0))


def host_facts(affinity: int, num_cpus: int | None) -> dict:
    import pyarrow
    import ray

    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "affinity_cpus": affinity,
        "ray_num_cpus": num_cpus,
        "mem_total_mb": mem_kb // 1024,
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def git_sha() -> str | None:
    """HEAD's sha read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _proc_table() -> dict[int, tuple[int, float]]:
    """pid -> (parent pid, CPU seconds of it and its reaped children)."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # exited while listing
        fields = stat[stat.rindex(")") + 2:].split()
        # fields[1] = ppid; [11..14] = utime, stime, cutime, cstime
        ticks = sum(int(x) for x in fields[11:15])
        out[int(name)] = (int(fields[1]), ticks / _TICK)
    return out


def descendants(table: dict | None = None) -> set[int]:
    """This process and every process below it."""
    table = _proc_table() if table is None else table
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = set(), [os.getpid()]
    while todo:
        pid = todo.pop()
        out.add(pid)
        todo.extend(children.get(pid, ()))
    return out


def tree_cpu_s() -> float:
    """CPU seconds used so far by this process tree: this process and its
    reaped children from ``getrusage`` (microseconds), every live
    descendant (Ray's raylet, GCS and workers) from ``/proc``, with the
    children each of those reaped."""
    table = _proc_table()
    own = sum(
        r.ru_utime + r.ru_stime
        for r in (resource.getrusage(resource.RUSAGE_SELF),
                  resource.getrusage(resource.RUSAGE_CHILDREN)))
    return own + sum(table[p][1] for p in descendants(table) - {os.getpid()})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def start_ray(num_cpus: int) -> float:
    """Start a local Ray session; returns the seconds ``ray.init`` took."""
    import ray
    from ray.data import DataContext

    # Ray workers import the package from the checkout
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = ROOT + (os.pathsep + path if path else "")
    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 2**20)
    took = time.perf_counter() - t0
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    return took


def stop_ray(older: set[int], timeout_s: float = 30.0) -> None:
    """Shut Ray down and wait until every process below this one that is
    not in ``older`` (the processes from before Ray started) has ended;
    kill what is left after ``timeout_s``."""
    import signal

    import ray

    ours = descendants() - older - {os.getpid()}
    ray.shutdown()
    deadline = time.monotonic() + timeout_s
    killed = False
    while alive := {p for p in ours if _running(p)}:
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError(f"processes {sorted(alive)} did not end")
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed, deadline = True, time.monotonic() + 10
        time.sleep(0.05)


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    if state != "Z":
        return True
    try:  # our own zombie child: reap it
        return os.waitpid(pid, os.WNOHANG)[0] == 0
    except ChildProcessError:
        return False  # someone else's zombie: it has ended
