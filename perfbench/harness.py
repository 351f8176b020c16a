"""Process plumbing and the measurement window shared by the workloads.

Process model: ``run.py`` builds the inputs, then forks one *generator*
process per repetition (each starts from the same post-import,
post-input state, so repeated set-ups are alike).  A generator that needs
a peer forks it once; peers never run as threads, because GIL hand-offs
between in-process threads would be measured instead of the program.
Every generator leads its own process group, so a stuck repetition is
killed together with its peer.
"""

from __future__ import annotations

import json
import os
import resource
import select
import shutil
import signal
import socket
import statistics
import struct
import sys
import time
import traceback

from . import stats

_LEN = struct.Struct("<I")
_ACK = struct.Struct("<qqqqq")  # unit, t_done_ns, ok, bad, cpu_ns

#: time after the first verified unit before the window opens: lazily
#: built state (converters for late formats, pool free lists) settles
WARMUP_S = 1.0


def now_ns() -> int:
    return time.monotonic_ns()


def cpu_ns() -> int:
    """User + system CPU of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return int((ru.ru_utime + ru.ru_stime) * 1e9)


def host_steal_ns() -> int | None:
    """CPU time the host has taken from this virtual machine, summed over
    its CPUs (``steal`` in ``/proc/stat``); None where not reported."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) * 10**9 // os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- framed messages over a control socket ------------------------------------


def send_msg(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_LEN.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int, deadline: float) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError(f"control channel: {n - len(buf)} bytes still missing")
        ready, _, _ = select.select([sock], [], [], left)
        if not ready:
            continue
        chunk = sock.recv(min(n - len(buf), 1 << 20))
        if not chunk:
            raise EOFError("control channel closed")
        buf += chunk
    return bytes(buf)


def recv_msg(sock: socket.socket, timeout_s: float) -> bytes:
    deadline = time.monotonic() + timeout_s
    (n,) = _LEN.unpack(_recv_exact(sock, _LEN.size, deadline))
    return _recv_exact(sock, n, deadline)


def send_ack(sock: socket.socket, unit: int, ok: int, bad: int) -> None:
    """Peer -> generator: unit ``unit`` fully checked, with the peer's
    CPU time at that moment."""
    send_msg(sock, _ACK.pack(unit, now_ns(), ok, bad, cpu_ns()))


def recv_ack(sock: socket.socket, timeout_s: float) -> tuple[int, int, int, int, int]:
    return _ACK.unpack(recv_msg(sock, timeout_s))


def send_report(sock: socket.socket, report: dict, columns: dict[str, bytes] | None) -> None:
    """Peer -> generator at exit: a JSON report plus its raw span columns."""
    columns = columns or {}
    report = dict(report, columns=sorted(columns))
    send_msg(sock, json.dumps(report).encode())
    for name in sorted(columns):
        send_msg(sock, columns[name])


def recv_report(sock: socket.socket, timeout_s: float) -> tuple[dict, dict[str, bytes]]:
    report = json.loads(recv_msg(sock, timeout_s))
    columns = {name: recv_msg(sock, timeout_s) for name in report.pop("columns")}
    return report, columns


# -- processes ------------------------------------------------------------------


class Placement:
    """Where a workload's processes run, so that runs do not differ by
    where the scheduler happened to put them.

    All of a workload's processes share one CPU.  On a small virtual
    machine a cross-CPU wake-up costs a host round trip that varies with
    the host's load: unpinned, the RPC's CPU per call doubled and its rate
    varied 2x between runs, and a stream whose publisher and subscriber
    each had a CPU spent a tenth more CPU per record than one whose
    processes shared a CPU.  The benchmark so measures what a unit of
    work costs, not how well two CPUs overlap it.

    Every ``period`` units the placement moves to the next CPU: the host
    slows each virtual CPU at its own times, so a run that stayed on one
    CPU measured that CPU's luck, while a moving run averages over all of
    them.
    """

    def __init__(self, period: int) -> None:
        self.period = period
        self.cpus = sorted(os.sched_getaffinity(0))
        self.pids = [0]  # 0: this process
        self._shift = 0
        self._move(0)

    def add(self, pid: int) -> None:
        """Place a process forked after construction."""
        self.pids.append(pid)
        self._move(self._shift)

    def unit(self, k: int) -> None:
        """Call before unit ``k``."""
        if k % self.period == 0:
            self._move(k // self.period)

    def _move(self, shift: int) -> None:
        self._shift = shift
        cpu = self.cpus[shift % len(self.cpus)]
        for pid in self.pids:
            try:
                os.sched_setaffinity(pid, {cpu})
            except ProcessLookupError:
                pass  # a peer that died; its lost units count as failures


def fork_peer(body) -> int:
    """Fork a peer running ``body()``; it exits 0 on return, 1 on error."""
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        body()
        code = 0
    except BaseException:  # the peer must never fall back into the parent's code
        traceback.print_exc(file=sys.stderr)
    finally:
        sys.stderr.flush()
        os._exit(code)


def reap(pid: int, timeout_s: float) -> int:
    """Wait for ``pid``; SIGKILL it once ``timeout_s`` passes.  Returns
    its exit status (negative: killed by that signal)."""
    deadline = time.monotonic() + timeout_s
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.005)


def run_in_child(body, timeout_s: float) -> dict:
    """Run ``body() -> dict`` in a forked generator process and return
    its result.  The child leads a new process group, so on timeout the
    whole group — the generator and any peer it forked — is killed."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        os.setpgid(0, 0)
        code = 1
        try:
            payload = json.dumps(body()).encode()
            with os.fdopen(wfd, "wb") as out:
                out.write(payload)
            code = 0
        except BaseException:
            traceback.print_exc(file=sys.stderr)
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(wfd)
    chunks = []
    deadline = time.monotonic() + timeout_s
    timed_out = False
    with os.fdopen(rfd, "rb") as src:
        while True:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([src], [], [], max(0.0, left))
            if not ready:
                timed_out = True
                break
            chunk = os.read(src.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    if timed_out:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    code = reap(pid, 10.0)
    # Anything left in the group (a peer whose generator died) goes too.
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if timed_out:
        raise RuntimeError(f"generator timed out after {timeout_s:.0f}s")
    if code != 0 or not chunks:
        raise RuntimeError(f"generator exited with status {code}")
    return json.loads(b"".join(chunks))


def scratch_dir(root: str) -> str:
    """A private directory under the checkout for WAL segments and ring
    files; removed by :func:`remove_scratch`."""
    path = os.path.join(root, ".perfbench_tmp", f"{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(path)
    return path


def remove_scratch(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    parent = os.path.dirname(path)
    try:
        os.rmdir(parent)  # only when no other run is using it
    except OSError:
        pass


# -- the measurement window ------------------------------------------------------


class Meter:
    """Turns a stream of completed units into the measured window.

    The window opens at the first unit completed ``WARMUP_S`` after
    set-up, and closes at the first unit completed once it has lasted
    ``seconds`` *and* holds ``min_units`` units (or, should units be very
    slow, after ``max_seconds``).  Latency percentiles cover exactly the
    units completed inside it.

    Rate and CPU per record are the medians over the window's *blocks*
    of ``block_units`` consecutive units (a partial last block is left
    out).  The host slows a small virtual machine in bursts of a fraction
    of a second; a whole-window mean carries every burst that landed in
    the window, while the median block is one the bursts missed.  A block
    spans two placement periods (:class:`Placement`), so it holds each
    placement equally.
    """

    def __init__(self, seconds: float, min_units: int, max_seconds: float, block_units: int) -> None:
        self.seconds = seconds
        self.min_units = min_units
        self.max_seconds = max_seconds
        self.block_units = block_units
        self.setup_end_ns: int | None = None
        self.t0: int | None = None
        self.t1: int | None = None
        self.steal = [None, None]
        self.records = 0
        self.latencies_ns: list[int] = []
        #: (wall ns, CPU ns, records) of every complete block
        self.blocks: list[tuple[int, int, int]] = []
        self._block_start = (0, 0)
        self._block_units = self._block_records = 0

    @property
    def done(self) -> bool:
        return self.t1 is not None

    def unit_done(self, t_ns: int, latency_ns: int, records: int, cpu) -> None:
        """Record one completed unit; ``cpu()`` gives the CPU (ns) used so
        far by every process of the workload (called at block edges only)."""
        if self.setup_end_ns is None:
            self.setup_end_ns = t_ns
            return
        if self.t0 is None:
            if t_ns - self.setup_end_ns >= WARMUP_S * 1e9:
                self.t0 = t_ns
                self.steal[0] = host_steal_ns()
                self._block_start = (t_ns, cpu())
            return
        if self.t1 is not None:
            return
        self.records += records
        self.latencies_ns.append(latency_ns)
        self._block_units += 1
        self._block_records += records
        if self._block_units == self.block_units:
            t_cpu = cpu()
            t_b, cpu_b = self._block_start
            self.blocks.append((t_ns - t_b, t_cpu - cpu_b, self._block_records))
            self._block_start = (t_ns, t_cpu)
            self._block_units = self._block_records = 0
        elapsed = t_ns - self.t0
        if (
            elapsed >= self.seconds * 1e9 and len(self.latencies_ns) >= self.min_units and self.blocks
        ) or elapsed >= self.max_seconds * 1e9:
            self.t1 = t_ns
            self.steal[1] = host_steal_ns()

    def result(self) -> dict:
        window_s = (self.t1 - self.t0) / 1e9
        p50, units, _ = stats.percentile(self.latencies_ns, 0.50)
        p99, _, beyond = stats.percentile(self.latencies_ns, 0.99)
        blocks = [b for b in self.blocks if b[2]] or [(self.t1 - self.t0, 0, self.records)]
        steal = None
        if None not in self.steal:
            cpus = os.cpu_count() or 1
            steal = (self.steal[1] - self.steal[0]) / (self.t1 - self.t0) / cpus
        return {
            "window_ns": [self.t0, self.t1],
            "window_s": window_s,
            "units": units,
            "blocks": len(blocks),
            "beyond_p99": beyond,
            "records": self.records,
            "records_per_s": statistics.median(r * 1e9 / max(1, ns) for ns, _c, r in blocks),
            "cpu_us_per_record": statistics.median(c / 1e3 / r for _ns, c, r in blocks),
            "latency_p50_us": p50 / 1e3,
            "latency_p99_us": None if p99 is None else p99 / 1e3,
            "host_steal_share": steal,
        }
