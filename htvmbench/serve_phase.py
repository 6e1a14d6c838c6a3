"""Serve phase: one open-loop schedule against both serving tiers.

A seeded Poisson schedule (open loop: requests are sent when due,
whatever the system's state) over the four packed ``mixed`` artifacts
with a 7:1:1:1 ResNet-heavy mix runs first against the in-process
``InferenceServer`` and then against the multi-process
``ServingFleet``. The hot model forms batches while the cold ones
exercise per-model queues. One generator thread sends, one collector
thread notices completions and checks every output.

Latency runs from each request's *due* time to its result, so a stall
also charges the requests sent late behind it.
"""

from __future__ import annotations

import contextlib
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import ServingError
from repro.obs import disable_tracing, enable_tracing
from repro.runtime import Executor, random_inputs, run_reference
from repro.serve import (
    InferenceServer, ServingFleet, load_artifact, save_artifact,
)

from measure import beyond, median, percentile
from tracing import LayerClock, Patch

RATE_PER_S = 200.0
#: latency limit of each tier's ``slo_ok`` share: about three times
#: the tier's median latency at this load, so that neither tier meets it
#: with every request and the share moves with latency, not only with
#: the rare tail
SLO_MS = {"serve.inproc": 30.0, "serve.fleet": 15.0}
STALL_S = 0.25
POLL_S = 0.0005  #: collector poll period
FLEET_WORKERS = 2
POOL = 8  #: distinct inputs per model
WARM_S = 0.25  #: untimed open loop before each tier's schedule
#: relative request weight of each model; the rest weigh 1
HOT = {"resnet": 7}


@dataclass
class Deployment:
    """Everything the serving tiers need for one set-up."""

    paths: Dict[str, str]
    graphs: Dict[str, object]
    load_ms: List[float]
    server: InferenceServer
    server_keys: Dict[str, str]
    fleet: ServingFleet
    inputs: Dict[str, List[dict]] = field(default_factory=dict)
    refs: Dict[str, List[np.ndarray]] = field(default_factory=dict)

    def close(self) -> None:
        self.server.shutdown(wait=True)
        self.fleet.shutdown(wait=True)


def setup(mixed_cells, art_dir: str, load_patch: Optional[Patch] = None
          ) -> Deployment:
    """Pack each ``mixed`` deployment, load it back through the
    verifier, start the fleet and register the models in-process.

    ``load_patch`` is held around each ``load_artifact`` call."""
    paths, graphs, loaded, load_ms = {}, {}, {}, []
    for cell in mixed_cells:
        path = os.path.join(art_dir, f"{cell.model}.dna")
        save_artifact(path, cell.compiled, cell.soc, cell.cfg,
                      meta={"model": cell.model})
        t0 = time.perf_counter()
        with load_patch or contextlib.nullcontext():
            loaded[cell.model] = load_artifact(path, verify=True)
        load_ms.append(1e3 * (time.perf_counter() - t0))
        paths[cell.model] = path
        graphs[cell.model] = cell.graph
    # the fleet forks its workers before any batcher thread exists
    fleet = ServingFleet(workers=FLEET_WORKERS, exec_mode="fast").start()
    for model, path in paths.items():
        fleet.add_deployment(path, key=model)
    for model in paths:
        if not fleet.wait_ready(model, timeout=60.0):
            fleet.shutdown(wait=False)
            raise RuntimeError(f"fleet deployment {model} never became ready")
    server = InferenceServer(exec_mode="fast")
    keys = {m: server.register_artifact(a) for m, a in loaded.items()}
    return Deployment(paths, graphs, load_ms, server, keys, fleet)


def make_inputs(dep: Deployment, seed: int) -> None:
    rng = random.Random(seed)
    for model, graph in dep.graphs.items():
        dep.inputs[model], dep.refs[model] = [], []
        for _ in range(POOL):
            feeds = random_inputs(graph, seed=rng.randrange(2 ** 31))
            dep.inputs[model].append(feeds)
            dep.refs[model].append(np.asarray(run_reference(graph, feeds)))


def make_schedule(models: List[str], seconds: float, seed: int) -> List[tuple]:
    """Poisson arrivals at ``RATE_PER_S``: ``(offset_s, model, input)``."""
    rng = random.Random(seed)
    weights = [HOT.get(m, 1) for m in models]
    out, t = [], 0.0
    while True:
        t += rng.expovariate(RATE_PER_S)
        if t >= seconds:
            return out
        out.append((t, rng.choices(models, weights)[0], rng.randrange(POOL)))


@dataclass
class Request:
    due: float
    model: str
    index: int
    future: object = None
    sent: float = 0.0
    done: Optional[float] = None
    ok: bool = False
    error: Optional[str] = None


@dataclass
class TierLog:
    requests: List[Request]
    max_late_s: float
    failures: List[str] = field(default_factory=list)

    @property
    def latencies_ms(self) -> List[float]:
        return [1e3 * (r.done - r.due) for r in self.requests if r.ok]


def run_schedule(submit: Callable, schedule: List[tuple],
                 dep: Deployment) -> TierLog:
    """Send ``schedule`` open-loop; collect and check every result."""
    requests = [Request(0.0, m, i) for _, m, i in schedule]
    outstanding: List[Request] = []
    lock = threading.Lock()
    sent_all = threading.Event()
    max_late = [0.0]

    def generate() -> None:
        t0 = time.monotonic() + 0.05
        try:
            for (offset, _, _), req in zip(schedule, requests):
                req.due = t0 + offset
                delay = req.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                req.sent = time.monotonic()
                max_late[0] = max(max_late[0], req.sent - req.due)
                try:
                    req.future = submit(req.model,
                                        dep.inputs[req.model][req.index])
                except ServingError as exc:  # refused: a failed request
                    req.done = time.monotonic()
                    req.error = f"refused: {exc}"
                    continue
                with lock:
                    outstanding.append(req)
        finally:
            sent_all.set()

    def collect() -> None:
        give_up = None
        while True:
            with lock:
                pending = list(outstanding)
            if not pending and sent_all.is_set():
                return
            now = time.monotonic()
            if sent_all.is_set() and give_up is None:
                give_up = now + 60.0
            finished = [r for r in pending if r.future.done()]
            for req in finished:
                req.done = now
                try:
                    out = req.future.result(0)
                except ServingError as exc:
                    req.error = f"failed: {exc}"
                    continue
                except Exception as exc:  # noqa: BLE001 — a wrong result
                    req.error = f"crashed: {type(exc).__name__}: {exc}"
                    continue
                if np.array_equal(np.asarray(out),
                                  dep.refs[req.model][req.index]):
                    req.ok = True
                else:
                    req.error = "output differs from the reference"
            if give_up is not None and now > give_up:
                for req in pending:
                    if req.done is None:
                        req.done, req.error = now, "never resolved"
                finished = pending
            if finished:
                gone = {id(r) for r in finished}
                with lock:
                    outstanding[:] = [r for r in outstanding
                                      if id(r) not in gone]
            time.sleep(POLL_S)

    threads = [threading.Thread(target=generate, name="bench-generator"),
               threading.Thread(target=collect, name="bench-collector")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    log = TierLog(requests, max_late[0])
    for req in requests:
        if req.future is None and req.error is None:
            req.error = "never sent"
        if req.error and not req.error.startswith(("refused", "failed")):
            log.failures.append(f"{req.model}#{req.index}: {req.error}")
    return log


def count_stalls(log: TierLog) -> int:
    """Gaps of ``STALL_S`` or more in which no request completed while
    at least one was outstanding."""
    events = []
    for r in log.requests:
        if r.future is not None and r.done is not None:
            events.append((r.sent, 1))
            events.append((r.done, -1))
    events.sort()
    stalls, outstanding, quiet_since = 0, 0, None
    for t, delta in events:
        if delta > 0:
            if outstanding == 0:
                quiet_since = t
            outstanding += 1
            continue
        if quiet_since is not None and t - quiet_since >= STALL_S:
            stalls += 1
        outstanding -= 1
        quiet_since = t if outstanding else None
    return stalls


def tier_metrics(prefix: str, log: TierLog) -> Dict[str, tuple]:
    lat = log.latencies_ms
    sent = len(log.requests)
    n = len(lat)
    slo_ms = SLO_MS[prefix]
    within = sum(1 for x in lat if x <= slo_ms)
    return {
        f"{prefix}.p50_ms": (median(lat), "ms", f"n={n}"),
        f"{prefix}.p99_ms": (percentile(lat, 99), "ms",
                             f"n={n}, {beyond(n, 99)} beyond"),
        f"{prefix}.slo_ok": (within / sent, "share",
                             f"{within}/{sent} sent within {slo_ms:g} ms"),
    }


def warm_up(submit: Callable, dep: Deployment) -> TierLog:
    """Fill lazy caches (batch shapes, cost replays) with bursts, then
    bring the tier to its steady state with an untimed stretch of open
    loop. Returns that stretch's log, whose outputs are checked too."""
    for model in dep.inputs:
        for burst in (8, 3, 1):
            futs = [submit(model, dep.inputs[model][i % POOL])
                    for i in range(burst)]
            for f in futs:
                f.result(60.0)
    return run_schedule(submit, make_schedule(list(dep.inputs), WARM_S, 0),
                        dep)


def inproc_submit(dep: Deployment) -> Callable:
    server, keys = dep.server, dep.server_keys
    return lambda model, feeds: server.submit(keys[model], feeds)


def fleet_submit(dep: Deployment) -> Callable:
    fleet = dep.fleet
    return lambda model, feeds: fleet.submit(model, feeds)


def tiers(dep: Deployment) -> List[tuple]:
    """``(metric prefix, submit)`` of each serving tier, in run order."""
    return [("serve.inproc", inproc_submit(dep)),
            ("serve.fleet", fleet_submit(dep))]


def traced_inproc(dep: Deployment, schedule) -> tuple:
    """Batcher-side numbers from wrapping ``Executor.run_batch``."""
    clock = LayerClock()
    batches: List[tuple] = []

    def on_batch(result, seconds):
        batches.append((result.batch, seconds))

    before = dep.server.stats()
    with Patch(clock, [(Executor, "run_batch", "serve.batcher.exec",
                        on_batch)]):
        log = run_schedule(inproc_submit(dep), schedule, dep)
    after = dep.server.stats()

    def wall_s(stats):
        return sum(s["mean_wall_ms"] * s["requests"]
                   for s in stats.values()) / 1e3

    served = sum(s["requests"] for s in after.values()) - sum(
        s["requests"] for s in before.values())
    exec_per_request = sum(b * s for b, s in batches)
    queue_s = wall_s(after) - wall_s(before) - exec_per_request
    out = {
        "serve.batcher.batch_size": (
            sum(b for b, _ in batches) / len(batches), "requests",
            f"mean per batch, {len(batches)} batches"),
        "serve.batcher.queue_ms": (1e3 * queue_s / served, "ms",
                                   f"mean per request, n={served}"),
        "serve.batcher.exec_ms": (
            1e3 * sum(s for _, s in batches) / len(batches), "ms",
            f"mean per batch, {len(batches)} batches"),
    }
    return log, out


def traced_fleet(dep: Deployment, schedule) -> tuple:
    """Fleet phases from the request spans the fleet already records."""
    clock = LayerClock()
    submit = clock.wrap("admit", fleet_submit(dep))
    retried_before = sum(s["retried"] for s in dep.fleet.stats().values())
    tracer = enable_tracing()
    try:
        log = run_schedule(submit, schedule, dep)
    finally:
        disable_tracing()
    retried = sum(s["retried"] for s in dep.fleet.stats().values()) \
        - retried_before
    spans: Dict[str, Dict[str, float]] = {}
    for sp in tracer.snapshot():
        rid = sp.attrs.get("request_id")
        if rid and sp.name in ("fleet.request", "fleet.queue_wait",
                               "worker.execute"):
            spans.setdefault(rid, {})[sp.name] = sp.duration_ns / 1e6
    full = [s for s in spans.values() if len(s) == 3]
    if not full:
        raise RuntimeError("fleet recorded no complete request spans")
    n = len(full)

    def mean(xs):
        xs = list(xs)
        return sum(xs) / len(xs)

    out = {
        "serve.fleet.admit_ms": (1e3 * clock.incl_s["admit"]
                                 / clock.calls["admit"], "ms",
                                 f"mean submit() call, n={clock.calls['admit']}"),
        "serve.fleet.queue_ms": (mean(s["fleet.queue_wait"] for s in full),
                                 "ms", f"mean per request, n={n}"),
        "serve.fleet.exec_ms": (mean(s["worker.execute"] for s in full),
                                "ms", f"mean per request, n={n}"),
        "serve.fleet.transport_ms": (
            mean(s["fleet.request"] - s["fleet.queue_wait"]
                 - s["worker.execute"] for s in full), "ms",
            f"root span minus queue and exec, mean, n={n}"),
        "serve.fleet.retries": (retried, "count", "during the schedule"),
    }
    return log, out
