"""Measurement helpers shared by ``run.py`` and its tests.

Everything here is independent of the program under test: percentile
reporting, open- and closed-loop load, the ladder's backlog check,
subprocess timing with per-child resource usage, and the machine
fingerprint.  ``run.py`` composes them into workloads.
"""

import hashlib
import os
import platform
import statistics
import subprocess
import threading
import time

#: a reported tail percentile must have at least this many samples
#: beyond it.
TAIL_SAMPLES = 10


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with >= ``TAIL_SAMPLES`` samples beyond it.

    Returns ``(value, percentile, n)``.  The value at sorted index
    ``n - TAIL_SAMPLES - 1`` has exactly ``TAIL_SAMPLES`` samples above
    it, so it sits at percentile ``100 * (n - TAIL_SAMPLES) / n``.  With
    ``TAIL_SAMPLES`` samples or fewer no percentile qualifies; the
    maximum is returned with percentile 100 so the caller still sees
    the worst case, and ``n`` tells it the tail is not resolved.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100.0, n
    return (ordered[n - TAIL_SAMPLES - 1],
            100.0 * (n - TAIL_SAMPLES) / n, n)


# -- load generation ----------------------------------------------------------


class Sample:
    """One scheduled request: when it was due, sent and answered."""

    __slots__ = ("index", "due", "start", "done", "ok")

    def __init__(self, index, due, start, done, ok):
        self.index = index
        self.due = due
        self.start = start
        self.done = done
        self.ok = ok

    @property
    def latency(self):
        """Seconds from the due time to the answer.

        Timing from the due time, not the send time, charges a stall to
        every request queued behind it.
        """
        return self.done - self.due

    @property
    def lateness(self):
        """Seconds the generator sent this request after it was due."""
        return self.start - self.due


def run_load(send, count, rate=None, workers=2, clock=time.perf_counter,
             sleep=time.sleep):
    """Send ``count`` requests from ``workers`` threads; samples in order.

    With a ``rate``, request ``i`` is due ``i / rate`` seconds after the
    start whether or not earlier requests have been answered (an open
    loop): each worker takes the next request, waits until it is due
    and calls ``send(worker, i)``, which returns whether the answer was
    correct.  At most ``workers`` requests are in flight, so when all
    are busy a due request waits and its lateness grows.  With no rate,
    each worker sends its next request as soon as its last is answered
    (a closed loop) and a request is due when it is sent.  An exception
    from ``send`` counts as a failed request.
    """
    samples = [None] * count
    lock = threading.Lock()
    cursor = [0]
    origin = clock()

    def worker(slot):
        while True:
            with lock:
                index = cursor[0]
                if index >= count:
                    return
                cursor[0] += 1
            if rate is None:
                due = clock()
            else:
                due = origin + index / rate
                wait = due - clock()
                if wait > 0:
                    sleep(wait)
            start = clock()
            try:
                ok = bool(send(slot, index))
            except Exception:  # one failed request, not a failed run
                ok = False
            samples[index] = Sample(index, due, start, clock(), ok)

    threads = [threading.Thread(target=worker, args=(slot,))
               for slot in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def backlog_growing(samples, rate):
    """Whether the generator fell further behind as a rung went on.

    Compares the median lateness of the last third of the schedule with
    that of the first third.  Under capacity both stay near zero; past
    it every request starts later than the one before, so the gap grows
    with the rung's length.  A gap above two request intervals (and at
    least 10 ms, to ignore scheduler jitter) counts as growth.
    """
    if len(samples) < 3:
        return False
    third = len(samples) // 3
    first = median([s.lateness for s in samples[:third]])
    last = median([s.lateness for s in samples[-third:]])
    return last - first > max(0.010, 2.0 / rate)


def achieved_rate(samples):
    """Answers per second from the first due time to the last answer."""
    if not samples:
        return 0.0
    span = max(s.done for s in samples) - samples[0].due
    return len(samples) / span if span > 0 else 0.0


# -- subprocesses ------------------------------------------------------------


class Finished:
    """A child process that has exited (or was killed at its timeout)."""

    def __init__(self, returncode, wall_s, maxrss_mb, stdout, stderr):
        self.returncode = returncode
        self.wall_s = wall_s
        self.maxrss_mb = maxrss_mb
        self.stdout = stdout
        self.stderr = stderr


def reap(proc):
    """Wait for ``proc`` and return ``(returncode, maxrss_mb)``.

    ``os.wait4`` reports the resource usage of exactly this child, so
    peak RSS is the measured process's own, not the benchmark's.
    """
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_child(argv, cwd, env, timeout):
    """Run ``argv`` to completion, timing launch to exit.

    Output goes to files in ``cwd`` rather than pipes: reading pipes
    through ``communicate`` would reap the child before ``wait4`` could
    collect its resource usage.  A child still running after
    ``timeout`` seconds is killed and reported with its exit signal.
    """
    out_path = os.path.join(cwd, "child.stdout")
    err_path = os.path.join(cwd, "child.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        begin = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            returncode, maxrss_mb = reap(proc)
        finally:
            timer.cancel()
        wall = time.perf_counter() - begin
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return Finished(returncode, wall, maxrss_mb, stdout, stderr)


# -- machine fingerprint -----------------------------------------------------

#: the calibration loop's fixed work: this many SHA-256 rounds plus an
#: integer loop of the same length, all pure-interpreter work.
CALIBRATION_ROUNDS = 200_000


def calibrate():
    """Seconds the fixed calibration loop takes on this machine now."""
    begin = time.perf_counter()
    digest = b"perfbench"
    total = 0
    for i in range(CALIBRATION_ROUNDS):
        digest = hashlib.sha256(digest).digest()
        total += i * i % 7
    return time.perf_counter() - begin


def fingerprint():
    """What the machine is and how loaded it is, right now."""
    load1, load5, load15 = os.getloadavg()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [round(load1, 2), round(load5, 2), round(load15, 2)],
        "calibration_s": round(calibrate(), 4),
    }
