"""The service's layers: open-loop traffic against ``SelectionService``.

A traced run of every workload ends by serving that workload's forests,
one per request, from one worker process (``ServiceConfig(workers=1)``)
with the workload's grammar as its one tenant.  A Poisson schedule
drives it open loop from this process, so a stall delays every later
request.  Two phases, separated by a drain:

* *steady*: a fixed rate of about 15% of the worker's capacity, low
  enough that queueing does not dominate; the front door's submit cost,
  queue wait, IPC and heartbeat come from here;
* *saturation*: about twice the capacity; batch size, sheds and the
  worker's select time come from here.  Sheds are expected and are not
  failures.

Every reply is checked against the reference.  The service's times are
per-layer metrics only: on a shared host its latencies spread too much
between runs to be gated (see ``README.md``).

Time runs on the reference machine's clock (see ``common.Calibration``):
calibration passes are sampled before, during and after each phase;
gaps between due times are stretched by the running estimate, so the
worker sees the same utilisation on a slowed host, and every measured
time is scaled back by the phase's passes.

Request bodies are pickled ahead of time and unpickled just before
their due time, as a network front end would, so the generator holds
bytes instead of thousands of live forests.
"""

from __future__ import annotations

import pickle
import shutil
import tempfile
import time
from statistics import median

from common import Calibration, Checker, metric, nested, percentile, status_kb
from inputs import SERVICE_TENANTS, service_schedule, service_warmup
from reference import service_reference, service_tenants

from repro.obs import Observability
from repro.selection import Selector
from repro.service import SelectionService, ServiceConfig

STEADY_RATE = 40.0
SATURATION_RATE = 700.0
#: Distinct requests the saturation phase cycles through: far more than
#: the worker's 256-entry shape cache, so cycling never turns into hits
#: unless the workload's shapes recur.
SATURATION_POOL = 600
#: Share of ``seconds`` given to the steady phase (the rest saturates).
STEADY_SHARE = 0.6
SETUP_REPEATS = 3
REPLY_WAIT_S = 120.0
TRACE_CAPACITY = 1 << 16
#: Calibration during a phase: at most one pass per this many ns, and
#: only when the next request is due at least CALIBRATE_GAP_NS later.
CALIBRATE_EVERY_NS = 100_000_000
CALIBRATE_GAP_NS = 10_000_000
#: How often the generator looks for a quiet moment while it waits.
POLL_NS = 2_000_000


class _Record:
    __slots__ = ("key", "body", "due_ns", "sent_ns", "submit_ns", "response")

    def __init__(self, key, body, due_ns, sent_ns, submit_ns) -> None:
        self.key = key
        self.body = body
        self.due_ns = due_ns
        self.sent_ns = sent_ns
        self.submit_ns = submit_ns
        self.response = None


class _Phase:
    """One phase's schedule, replies and machine-speed samples."""

    def __init__(self, name: str, tenant: str, rate: float, duration_s: float,
                 pool: int | None) -> None:
        self.name = name
        self.tenant = tenant
        self.rate = rate
        self.duration_s = duration_s
        self.pool = pool
        self.rows: list[tuple] = []
        self.records: list[_Record] = []
        self.start_ns = 0
        self.end_ns = 0
        #: ``(monotonic_ns, calibration factor)`` samples taken during the phase.
        self.samples: list[tuple[int, float]] = []

    def sample(self, calibration) -> None:
        self.samples.append((time.monotonic_ns(), calibration.factor()))

    def current(self) -> float:
        """The running speed estimate: median of the last three samples."""
        return median(factor for _, factor in self.samples[-3:])

    @property
    def factor(self) -> float:
        """Scale from this phase's clock to the reference machine's."""
        return median(factor for _, factor in self.samples)

    def scaled(self, ns: float) -> float:
        return ns * self.factor


def _plan(workload: str, seed: int, phases: list[_Phase]) -> None:
    """Generate every phase's requests as pickled bodies (not timed)."""
    by_name = {phase.name: phase for phase in phases}
    spec = [(phase.name, phase.rate, phase.duration_s, phase.pool) for phase in phases]
    bodies: dict[tuple[str, int], bytes] = {}
    for name, due, forest, index in service_schedule(workload, seed, spec):
        key = (name, index)
        if key not in bodies:
            bodies[key] = pickle.dumps(forest, protocol=pickle.HIGHEST_PROTOCOL)
        by_name[name].rows.append((due, key, bodies[key]))


def _calibrate(calibration) -> float:
    return median(calibration.factor() for _ in range(5))


def _collect(pending: list, records: list) -> list:
    """Move answered requests from *pending* to *records*; returns the rest."""
    waiting = []
    for future, record in pending:
        if future.done():
            record.response = future.result()
            records.append(record)
        else:
            waiting.append((future, record))
    return waiting


def _drive(service, phase: _Phase, calibration) -> None:
    """Send *phase*'s schedule open loop and wait for every reply.

    Gaps between due times are stretched by the current speed estimate,
    so the worker sees the same utilisation in reference time; requests
    not due within the phase's wall-clock duration are not sent.  Speed
    is sampled every CALIBRATE_EVERY_NS: in the saturation phase
    regardless of load (the offered rate is twice the capacity, so a
    late send loses nothing), otherwise only while no request is in
    flight and the next is not due for CALIBRATE_GAP_NS, so a pass never
    delays a request.
    """
    clock = time.monotonic_ns
    pending: list = []
    for _ in range(3):
        phase.sample(calibration)
    phase.start_ns = due_ns = clock() + 10_000_000
    phase.end_ns = phase.start_ns + round(phase.duration_s * 1e9)
    last_pass = clock()
    previous_s = 0.0
    saturating = phase.name == "saturation"
    for due_s, key, body in phase.rows:
        due_ns += round((due_s - previous_s) * 1e9 / phase.current())
        previous_s = due_s
        if due_ns >= phase.end_ns:
            break
        forest = pickle.loads(body)
        if saturating and clock() - last_pass >= CALIBRATE_EVERY_NS:
            phase.sample(calibration)
            last_pass = clock()
        while (wait_ns := due_ns - clock()) > 0:
            pending = _collect(pending, phase.records)
            if saturating:
                time.sleep(wait_ns / 1e9)
            elif pending:
                time.sleep(min(wait_ns, POLL_NS) / 1e9)
            elif wait_ns >= CALIBRATE_GAP_NS and clock() - last_pass >= CALIBRATE_EVERY_NS:
                phase.sample(calibration)
                last_pass = clock()
            else:
                time.sleep(wait_ns / 1e9)
        sent = clock()
        future = service.submit(phase.tenant, forest)
        submitted = clock()
        del forest
        pending.append((future, _Record(key, body, due_ns, sent, submitted - sent)))
    for future, record in pending:
        record.response = future.result(REPLY_WAIT_S)
        phase.records.append(record)
    for _ in range(3):
        phase.sample(calibration)


class _Setup:
    """One service set-up, from grammar text to the first reply."""

    def __init__(self, work_dir, workload, seed, dp_selectors, checker, calibration) -> None:
        clock = time.perf_counter_ns
        tenant = SERVICE_TENANTS[workload]
        factor = _calibrate(calibration)
        started = clock()
        tenants = service_tenants([tenant])
        parsed = clock()
        self.obs = Observability(trace_capacity=TRACE_CAPACITY)
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
        self.service = SelectionService(
            tenants, self.cache_dir, ServiceConfig(workers=1, seed=seed), obs=self.obs
        )
        self.service.start()
        running = clock()
        forest = service_warmup(workload)
        response = self.service.select(tenant, forest, wait_s=REPLY_WAIT_S)
        ready = clock()
        times = (ready - started, parsed - started, running - parsed, ready - running)
        self.times = tuple(t * factor for t in times)
        expected = service_reference(dp_selectors, tenant, forest)
        checker.record(_mismatch(tenant, response, expected))

    def stop(self) -> None:
        self.service.stop()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _mismatch(tenant, response, expected) -> str | None:
    """Why *response* is not the expected reply, or ``None``."""
    if not response.ok:
        return f"{tenant} request ended {response.status}: {response.error}"
    if response.value != expected:
        return f"{tenant} reply differs from the reference"
    return None


def run(workload: str, seed: int, seconds: float, work_dir) -> dict:
    """Serve *workload*'s forests for *seconds*; the service's per-layer metrics."""
    checker = Checker()
    calibration = Calibration()
    tenant = SERVICE_TENANTS[workload]
    dp_selectors = {name: Selector(g, mode="dp") for name, g in service_tenants([tenant]).items()}
    steady = _Phase("steady", tenant, STEADY_RATE, seconds * STEADY_SHARE, None)
    saturation = _Phase("saturation", tenant, SATURATION_RATE, seconds * (1 - STEADY_SHARE),
                        SATURATION_POOL)
    _plan(workload, seed, [steady, saturation])

    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            if setups:
                setups[-1].stop()
            setups.append(_Setup(work_dir, workload, seed, dp_selectors, checker, calibration))
        setup = setups[-1]
        service = setup.service
        before = service.stats()
        _drive(service, steady, calibration)
        after_steady = service.stats()
        _drive(service, saturation, calibration)
        after = service.stats()
        worker_rss = status_kb(service.supervisor.handles[0].pid, "VmRSS")
        spans = setup.obs.tracer.spans()
    finally:
        if setups:
            setups[-1].stop()

    shed = _check_replies(dp_selectors, tenant, [steady, saturation], checker)
    metrics: dict = {}
    metric(metrics, "grammar.parse_ms", median(s.times[1] for s in setups) / 1e6, "ms")
    metric(metrics, "supervisor.start_ms", median(s.times[2] for s in setups) / 1e6, "ms")
    metric(metrics, "frontdoor.first_reply_ms", median(s.times[3] for s in setups) / 1e6, "ms")
    _service_layers(metrics, steady, saturation, spans, before, after_steady, after, shed)
    metric(metrics, "worker.rss_mb", None if worker_rss is None else worker_rss / 1024, "MB")
    metric(metrics, "machine.speed_factor", steady.factor, "ratio")
    return checker.outcome(metrics)


def _check_replies(dp_selectors, tenant, phases, checker) -> int:
    """Check every reply against the reference; returns the saturation sheds.

    The reference of a request is computed once per distinct request.
    """
    shed = 0
    expected: dict[tuple[str, int], list] = {}
    for phase in phases:
        for record in phase.records:
            response = record.response
            if phase.name == "saturation" and response.status == "shed":
                shed += 1
                continue
            if response.ok and record.key not in expected:
                forest = pickle.loads(record.body)
                expected[record.key] = service_reference(dp_selectors, tenant, forest)
            checker.record(_mismatch(tenant, response, expected.get(record.key)))
    return shed


def _worker_select_ns(first, last):
    """Mean worker label + emit nanoseconds per batch between two ``stats()``."""
    keys = ('pipeline_phase_ns_sum{phase="label"}', 'pipeline_phase_ns_sum{phase="emit"}')
    totals = []
    for stats in (first, last):
        parts = [nested(stats, "obs", key) for key in keys]
        batches = nested(stats, "obs", "pipeline_batches_total")
        if None in parts or batches is None:
            return None
        totals.append((sum(parts), batches))
    batches = totals[1][1] - totals[0][1]
    return None if batches <= 0 else (totals[1][0] - totals[0][0]) / batches


def _service_layers(metrics, steady, saturation, spans, before, after_steady, after, shed) -> None:
    clock_ms = 1e6
    submit = median(r.submit_ns for r in steady.records)
    metric(metrics, "frontdoor.submit_us", steady.scaled(submit) / 1e3, "us")
    late = [phase.scaled(r.sent_ns - r.due_ns) for phase in (steady, saturation)
            for r in phase.records]
    metric(metrics, "loadgen.late_p99_ms", percentile(late, 99) / clock_ms, "ms")

    # Request spans end on the very clock reading of the batch reply that
    # resolved them, so (tenant, end) links each request to its batch.
    batch_spans = [s for s in spans if s.name == "service.batch"]
    batch_start = {(s.attrs.get("tenant"), s.end_ns): s.start_ns for s in batch_spans}
    waits = [
        steady.scaled(batch_start[key] - s.start_ns)
        for s in spans
        if s.name == "service.request"
        and s.attrs.get("status") == "ok"
        and steady.start_ns <= s.start_ns < steady.end_ns
        and (key := (s.attrs.get("tenant"), s.end_ns)) in batch_start
    ]
    if waits:
        metric(metrics, "frontdoor.queue_wait_ms", sum(waits) / len(waits) / clock_ms, "ms")
    depth = nested(after_steady, "service", "queue_depth_high_water")
    metric(metrics, "frontdoor.queue_depth_max", depth, "count")

    batches = [nested(s, "service", "batches") for s in (after_steady, after)]
    batched = [nested(s, "service", "batched_requests") for s in (after_steady, after)]
    if None not in batches and None not in batched and batches[1] > batches[0]:
        size = (batched[1] - batched[0]) / (batches[1] - batches[0])
        metric(metrics, "frontdoor.batch_size", size, "count")
    metric(metrics, "frontdoor.shed_fraction", shed / max(len(saturation.records), 1), "fraction")

    select_saturation = _worker_select_ns(after_steady, after)
    if select_saturation is not None:
        metric(metrics, "worker.select_ms", saturation.scaled(select_saturation) / clock_ms, "ms")
    select_steady = _worker_select_ns(before, after_steady)
    steady_batches = [
        s.duration_ns for s in batch_spans if steady.start_ns <= s.start_ns < steady.end_ns
    ]
    if select_steady is not None and steady_batches:
        ipc = sum(steady_batches) / len(steady_batches) - select_steady
        metric(metrics, "supervisor.ipc_ms", steady.scaled(ipc) / clock_ms, "ms")

    rtt_sum = nested(after, "obs", "service_heartbeat_rtt_ns_sum")
    rtt_count = nested(after, "obs", "service_heartbeat_rtt_ns_count")
    if rtt_sum is not None and rtt_count:
        rtt = steady.scaled(rtt_sum / rtt_count)
        metric(metrics, "supervisor.heartbeat_rtt_ms", rtt / clock_ms, "ms")
    for name, keys in (
        ("supervisor.restarts", ("service", "supervisor", "restarts_total")),
        ("frontdoor.retries", ("service", "retries")),
        ("frontdoor.redispatches", ("service", "re_dispatches")),
    ):
        first = nested(before, *keys)
        last = nested(after, *keys)
        if first is not None and last is not None:
            metric(metrics, name, last - first, "count")
