"""``service_mixed``: ``mlec-sim serve --workers 1`` under mixed traffic.

One client process, two request streams (the service closes every
connection after one response, so each stream opens one per request):

* the **writer** is a closed loop: it submits a fresh sweep spec (a
  non-trivial burst cell with small chunks, or a short simulate), polls
  it every ``POLL_S`` until ``done``, pauses ``THINK_S`` and submits the
  next.  A job's
  latency runs from the submit until the daemon records it ``done``
  (the job's ``updated_at``, on the same host clock), so the poll
  interval does not enter it;
* the **reader** is an open loop at ``READER_RATE`` per second: it
  resubmits a finished spec (a cache hit) and is timed from the instant
  the request was *due*, so a stalled daemon charges the wait to every
  hit queued behind it.  How late the generator itself ran is reported.

With ``--workers 1`` each sweep runs on the daemon's job thread in the
daemon process, so hits are served beside a running sweep.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import random
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Any

from checks import check_cache_hits, check_offline_match
from common import (
    BenchError,
    child_env,
    cli_argv,
    median,
    quantile,
    reference_process_s,
    reference_scale,
    run_child,
    script_argv,
    wait_child,
)
from inproc import MC_CELLS, SCHEMES

READER_RATE = 25.0
POLL_S = 0.02
#: The writer's pause after each job, about twice a job's run time, so
#: the job thread is busy about a third of the window: the hits' median
#: then times the hit path beside an idle job thread and their p95 the
#: path beside a sweep (README, "What the service traffic rests on").
THINK_S = 0.07
WARMUP_JOBS = 4
#: Minimum samples so p90 (jobs) and p95 (hits) keep ten beyond them.
MIN_JOBS = 100
MIN_HITS = 200
MAX_WINDOW_S = 90.0
#: One writer cycle: every burst cell once, and a simulate every fourth
#: job.  The measured window holds whole cycles, so every seed times the
#: same mix of cheap and demotion-heavy jobs.
CYCLE_JOBS = len(SCHEMES) * len(MC_CELLS) * 4 // 3
SETUP_SPAWNS = 3
#: Traced runs do fixed work so their counts repeat exactly.
TRACE_JOBS = 40
TRACE_HITS = 80
BURST_SPEC = {"trials": 240, "chunk": 40}
SIM_SPEC = {"kind": "simulate", "scheme": "C/D", "months": 1, "afr": 0.05,
            "trials": 4, "chunk": 1}


class Daemon:
    """One ``mlec-sim serve`` process on a fresh state directory."""

    def __init__(self, workdir: Path, name: str, trace_out: Path | None) -> None:
        self.state_dir = workdir / name
        self.trace_out = trace_out
        args = ["serve", "--state-dir", str(self.state_dir), "--workers", "1"]
        self.t0 = time.monotonic()
        if trace_out is None:
            argv = cli_argv(*args)
        else:
            argv = script_argv("traced_cli.py", "--out", str(trace_out),
                               "--t0", repr(self.t0), "--", *args)
        self.log = open(workdir / f"{name}.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(argv, stdout=self.log,
                                     stderr=subprocess.STDOUT, env=child_env())
        self.port = 0
        self.maxrss_mb = 0.0

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until ``/readyz`` answers 200."""
        deadline = self.t0 + timeout
        endpoint = self.state_dir / "endpoint.json"
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited early ({self.proc.returncode})")
            if self.port == 0 and endpoint.exists():
                try:
                    self.port = json.loads(endpoint.read_text())["port"]
                except (OSError, ValueError, KeyError):
                    pass
            if self.port:
                try:
                    status, _ = request(self.port, "GET", "/readyz")
                except OSError:
                    status = 0
                if status == 200:
                    return time.monotonic() - self.t0

            time.sleep(0.005)
        raise BenchError("daemon never became ready")

    def stop(self, timeout: float = 60.0) -> int:
        """Graceful drain (SIGTERM); returns the exit code.

        Also records the daemon's own peak RSS in ``maxrss_mb``.
        """
        if self.proc.returncode is None:
            # os.kill, not Popen.send_signal: that may reap the daemon,
            # and wait_child must reap it to read its resource usage.
            os.kill(self.proc.pid, signal.SIGTERM)
            code, self.maxrss_mb, killed = wait_child(self.proc, timeout)
            if killed:
                code = -9
        else:
            code = self.proc.returncode
        self.log.close()
        return code


def request(port: int, method: str, path: str,
            body: Any = None) -> tuple[int, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        resp = conn.getresponse()
        raw = resp.read()
        try:
            payload = json.loads(raw) if raw else None
        except ValueError:
            payload = None
        return resp.status, payload
    finally:
        conn.close()


class Traffic:
    """Writer and reader state shared by the two client threads."""

    def __init__(self, port: int, seed: int) -> None:
        self.port = port
        self.rng = random.Random(seed)
        self.reader_rng = random.Random(seed + 1)
        self._seeds: set[int] = set()
        self._cells: list[tuple[str, int, int]] = []
        self.index = 0
        self.issued = 0
        self.finished: list[tuple[str, dict[str, Any]]] = []
        self.fresh: dict[str, Any] = {}
        self.specs: dict[str, dict[str, Any]] = {}
        self.job_latency: list[float] = []
        #: Wall-clock (submit, done) of every measured job.
        self.job_spans: list[tuple[float, float]] = []
        #: From the daemon's ``done`` to the poll that saw it.
        self.poll_gap: list[float] = []
        self.hit_latency: list[float] = []
        #: Wall-clock (sent, answered) of every hit, same order.
        self.hit_spans: list[tuple[float, float]] = []
        self.hit_lag: list[float] = []
        self.hits: list[tuple[str, Any]] = []
        self.polls = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def count(self, failed: bool = False, error: str | None = None,
              attempted: bool = False) -> None:
        with self._lock:
            self.attempted += attempted
            self.failed += failed
            if error is not None:
                self.errors.append(error)

    def new_cycle(self) -> None:
        self.index = 0
        self._cells = []

    def next_spec(self) -> dict[str, Any]:
        seed = self.rng.randrange(2**31)
        while seed in self._seeds:
            seed = self.rng.randrange(2**31)
        self._seeds.add(seed)
        self.index += 1
        if self.index % 4 == 0:
            return {**SIM_SPEC, "seed": seed}
        if not self._cells:
            # Every cell once per cycle, in a seeded order: the mix of
            # cheap and demotion-heavy cells is the same for every seed.
            self._cells = [(s, y, x) for s in SCHEMES for y, x in MC_CELLS]
            self.rng.shuffle(self._cells)
        scheme, y, x = self._cells.pop()
        return {"kind": "burst", "scheme": scheme, "failures": y, "racks": x,
                "seed": seed, **BURST_SPEC}

    def take_spec(self, start: float, deadline: float | None,
                  jobs: int | None) -> dict[str, Any] | None:
        """The writer's next spec, or None once the window is full."""
        if time.monotonic() >= start + MAX_WINDOW_S:
            return None
        if jobs is not None and self.issued >= jobs:
            return None
        if jobs is None and time.monotonic() >= deadline and (
            self.issued >= MIN_JOBS and self.issued % CYCLE_JOBS == 0
        ):
            return None
        self.issued += 1
        return self.next_spec()

    def run_job(self, spec: dict[str, Any], record: bool) -> None:
        # Wall clock, to compare with the daemon's ``updated_at``.
        began = time.time()
        self.count(attempted=True)
        status, payload = request(self.port, "POST", "/jobs", spec)
        if status != 202:
            self.count(failed=True, error=f"submit answered {status}: {payload}")
            return
        job_id = payload["job"]["job_id"]
        while True:
            time.sleep(POLL_S)
            status, payload = request(self.port, "GET", f"/jobs/{job_id}")
            self.polls += record
            if status != 200:
                self.count(failed=True, error=f"poll answered {status}")
                return
            state = payload["job"]["state"]
            if state == "done":
                break
            if payload["job"]["terminal"]:
                self.count(failed=True, error=f"job {job_id} ended {state}")
                return
        if record:
            done_at = payload["job"]["updated_at"]
            self.job_latency.append(done_at - began)
            self.job_spans.append((began, done_at))
            self.poll_gap.append(time.time() - done_at)
        self.fresh[job_id] = payload["job"].get("result")
        self.specs[job_id] = spec
        self.finished.append((job_id, spec))

    def writer(self, start: float, deadline: float | None,
               jobs: int | None) -> float:
        while (spec := self.take_spec(start, deadline, jobs)) is not None:
            self.run_job(spec, record=True)
            time.sleep(THINK_S)
        return time.monotonic()

    def reader(self, start: float, deadline: float | None,
               hits: int | None) -> None:
        i = 0
        while True:
            due = start + i / READER_RATE
            if due >= start + MAX_WINDOW_S:
                break
            if hits is not None and i >= hits:
                break
            if hits is None and due >= deadline and i >= MIN_HITS:
                break
            now = time.monotonic()
            if now < due:
                time.sleep(due - now)
            self.hit_lag.append(time.monotonic() - due)
            job_id, spec = self.reader_rng.choice(self.finished)
            self.count(attempted=True)
            sent = time.time()
            status, payload = request(self.port, "POST", "/jobs", spec)
            self.hit_latency.append(time.monotonic() - due)
            self.hit_spans.append((sent, time.time()))
            if status != 200 or not payload.get("cached"):
                self.count(failed=True,
                           error=f"resubmit answered {status}, not cached")
            else:
                self.hits.append((job_id, payload["job"].get("result")))
            i += 1


def drive(port: int, seed: int, seconds: float | None,
          fixed: tuple[int, int] | None) -> dict[str, Any]:
    """Warm up, then run the writer and the reader concurrently."""
    traffic = Traffic(port, seed)
    for _ in range(WARMUP_JOBS):
        traffic.run_job(traffic.next_spec(), record=False)
    if len(traffic.finished) < 1:
        raise BenchError(f"warm-up jobs failed: {traffic.errors[:3]}")
    traffic.new_cycle()
    start = time.monotonic()
    deadline = None if seconds is None else start + seconds
    jobs, hits = fixed if fixed is not None else (None, None)
    reader = threading.Thread(target=traffic.reader,
                              args=(start, deadline, hits))
    reader.start()
    try:
        writer_end = traffic.writer(start, deadline, jobs)
    finally:
        reader.join(timeout=MAX_WINDOW_S + 60)
    if reader.is_alive():
        raise BenchError("reader thread did not finish")
    return {"traffic": traffic, "writer_s": writer_end - start}


def offline_check(workdir: Path, traffic: Traffic) -> list[str]:
    """One spec per kind must match an offline run of the same spec."""
    picks: dict[str, str] = {}
    for job_id, spec in traffic.finished:
        picks.setdefault(spec["kind"], job_id)
    specs = {job: traffic.specs[job] for job in picks.values()}
    path = workdir / "offline-specs.json"
    path.write_text(json.dumps(specs), encoding="utf-8")
    child = run_child(script_argv("offline.py", str(path)))
    if child["code"] != 0:
        return [f"offline run failed: {child['stderr'][-300:]}"]
    offline = json.loads(child["stdout"].strip().splitlines()[-1])
    errors = []
    for kind, job_id in picks.items():
        fields = offline[job_id]
        service = {k: traffic.fresh[job_id].get(k) for k in fields}
        errors += check_offline_match(kind, service, fields)
    return errors


def split_hits(traffic: Traffic) -> tuple[list[float], list[float]]:
    """Hit latencies served beside no job, and beside a running job.

    A hit is *beside a job* when its request overlaps the span from some
    job's submit to its ``done``; the writer runs one job at a time, so
    the spans are sorted and disjoint.
    """
    starts = [began for began, _ in traffic.job_spans]
    idle: list[float] = []
    busy: list[float] = []
    for latency, (sent, answered) in zip(traffic.hit_latency,
                                         traffic.hit_spans):
        # The last job submitted before the hit was answered is the only
        # one that can overlap it.
        i = bisect.bisect_right(starts, answered) - 1
        overlaps = i >= 0 and traffic.job_spans[i][1] > sent
        (busy if overlaps else idle).append(latency)
    return idle, busy


def _summary(traffic: Traffic, writer_s: float) -> dict[str, Any]:
    jobs = traffic.job_latency
    hits = traffic.hit_latency
    idle, busy = split_hits(traffic)
    return {
        "job_latency_p50_s": median(jobs),
        "job_latency_p90_s": quantile(jobs, 0.9),
        "jobs_per_s": len(jobs) / writer_s,
        "cache_hit_p50_s": median(hits),
        "cache_hit_p95_s": quantile(hits, 0.95),
        "cache_hit_idle_p25_s": quantile(idle, 0.25),
        "cache_hit_idle_p50_s": median(idle),
        "cache_hit_busy_p50_s": median(busy),
        "cache_hit_idle_samples": len(idle),
        "cache_hit_busy_samples": len(busy),
        "job_samples": len(jobs),
        "cache_hit_samples": len(hits),
        "reader_lag_p50_s": median(traffic.hit_lag),
        "reader_lag_max_s": max(traffic.hit_lag, default=0.0),
        "polls_per_job": traffic.polls / max(len(jobs), 1),
        "poll_gap_p50_s": median(traffic.poll_gap),
    }


def _check(workdir: Path, traffic: Traffic) -> list[str]:
    errors = list(traffic.errors[:5])
    errors += check_cache_hits(traffic.hits, traffic.fresh)
    errors += offline_check(workdir, traffic)
    return errors


#: Reference processes before the set-up spawns and after the window.
#: The daemon's latencies follow the host's speed at process start-up,
#: syscalls and wake-ups far more than at numpy work (README, "Wall and
#: reference-speed seconds"), so the reference process scales them.
REF_RUNS = 3


def measure(workdir: Path, seed: int, seconds: float) -> dict[str, Any]:
    refs = [reference_process_s() for _ in range(REF_RUNS)]
    setups = []
    rss_mb = 0.0
    for i in range(SETUP_SPAWNS - 1):
        daemon = Daemon(workdir, f"setup{i}", None)
        try:
            setups.append(daemon.wait_ready())
        finally:
            daemon.stop()
        rss_mb = max(rss_mb, daemon.maxrss_mb)
    daemon = Daemon(workdir, "measured", None)
    try:
        setups.append(daemon.wait_ready())
        run = drive(daemon.port, seed, seconds, None)
    finally:
        code = daemon.stop()
    rss_mb = max(rss_mb, daemon.maxrss_mb)
    refs += [reference_process_s() for _ in range(REF_RUNS)]
    traffic = run["traffic"]
    errors = _check(workdir, traffic)
    if code != 0:
        errors.append(f"daemon drain exited {code}")
    named = _summary(traffic, run["writer_s"])
    named["rss_peak_mb"] = rss_mb
    named["setup_wall_s"] = median(setups)
    named["reference_process_p50_s"] = median(refs)
    scale = reference_scale(refs)
    return {
        "errors": errors,
        "attempted": traffic.attempted,
        "failed": traffic.failed + (code != 0),
        "named": named,
        "metrics": {
            "setup_s": named["setup_wall_s"] * scale,
            "rss_peak_mb": rss_mb,
            "main_s": named["job_latency_p50_s"] * scale,
            # The lower quartile of the hits served while no job ran.
            # The median of all hits sat between the idle and the busy
            # mode and moved with the share of hits in each; the hits
            # beside a job wait on the job thread's GIL and spread more;
            # a host stall delays some hits of a window, which moves the
            # upper quantiles first (README, "Wall and reference-speed
            # seconds").
            "side_s": named["cache_hit_idle_p25_s"] * scale,
        },
    }


def traced(workdir: Path, seed: int, seconds: float) -> dict[str, Any]:
    """Untraced twin, then the traced daemon, on identical fixed work."""
    del seconds  # fixed work, so the traced counts repeat exactly
    runs = {}
    for label, trace_out in (("untraced", None),
                             ("traced", workdir / "serve-trace.json")):
        daemon = Daemon(workdir, label, trace_out)
        try:
            daemon.wait_ready()
            runs[label] = drive(daemon.port, seed, None,
                                (TRACE_JOBS, TRACE_HITS))
        finally:
            code = daemon.stop()
        if code != 0:
            raise BenchError(f"{label} daemon drain exited {code}")
    traffic = runs["traced"]["traffic"]
    summary = json.loads((workdir / "serve-trace.json").read_text())
    summary["counts"]["sim.simulator.disk_failures"] = sum(
        result.get("disk_failures", 0) for result in traffic.fresh.values()
        if result and result.get("kind") == "simulate")
    errors = _check(workdir, traffic)
    errors += runs["untraced"]["traffic"].errors[:5]
    attempted = traffic.attempted + runs["untraced"]["traffic"].attempted
    failed = traffic.failed + runs["untraced"]["traffic"].failed
    overhead = runs["traced"]["writer_s"] / runs["untraced"]["writer_s"] - 1.0
    extra = {
        "service.polls_per_job": traffic.polls / max(len(traffic.job_latency), 1),
    }
    return {
        "errors": errors, "attempted": attempted, "failed": failed,
        "summary": summary, "overhead": overhead, "extra": extra,
        "named": _summary(traffic, runs["traced"]["writer_s"]),
    }


def run(workdir: Path, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    return traced(workdir, seed, seconds) if trace else measure(
        workdir, seed, seconds)


