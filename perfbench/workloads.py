"""The four benchmark workloads.

Every workload runs a fixed set of pinned units, so any seed measures the
same work and every unit has a pinned reference.  The seed sets the order
of the units in each pass.  A run makes a fixed number of whole passes:
as many as fill ``--seconds`` on the host the benchmark was calibrated on
(``PASS_SECONDS``), whatever the speed of the code under test, so every
run of a workload takes the same samples.  With tracing on, each unit (or
service session) runs twice, untraced then traced, so the run also yields
the tracing overhead; such a run makes half as many passes.

A workload returns a :class:`Measurement`: raw samples of the end-to-end
metrics, the premise checks, and the per-layer values the workload itself
observes (service client latencies, grid work counters, tile counters).
"""

from __future__ import annotations

import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from oracle import Oracle
from tracing import Patches, TileCounters, Tracer

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"

#: Client poll interval while a service job runs (closed loop): the
#: ``ServiceClient.wait`` default.  Each poll holds the server's GIL for a
#: few ms; polling every 10 ms made jobs up to 1.35x slower.
POLL_SECONDS = 0.05

#: Seconds one untraced pass takes on the 2-core host the benchmark was
#: calibrated on.  They fix the pass count for a given ``--seconds``.
PASS_SECONDS = {
    "lookahead-l1": 6.0,
    "tiled-5k": 5.0,
    "grid-shm": 5.0,
    "service-loop": 12.5,
}

#: Seconds :meth:`HostSpeed.kernel_seconds` takes on that host when no
#: other tenant slows it.
KERNEL_REFERENCE_S = 0.030


@dataclass
class Measurement:
    """What one workload run observed."""

    #: ``setup_s`` / ``run_s`` / ``job_s`` samples and the candidate
    #: ``evaluations`` of each checked unit; traced runs add
    #: ``traced_run_s``.
    samples: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    peak_rss_mb: float = 0.0
    premises: List[Tuple[str, bool]] = field(default_factory=list)
    #: Per-layer values measured by the workload itself (name -> value).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Host-speed factor of each sample in ``samples`` (same index); a
    #: traced sample has none.
    factors: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    #: Unit of each sample that has a factor (same index).
    units: Dict[str, List[Any]] = field(
        default_factory=lambda: defaultdict(list))
    #: Units run traced; per-layer totals are reported per traced unit.
    traced_units: int = 0

    def scaled(self, name: str) -> List[float]:
        """The ``name`` samples times their host-speed factors."""
        return [value * factor for value, factor
                in zip(self.samples[name], self.factors[name])]

    def unit_medians(self, name: str, scaled: bool = True) -> Dict[Any, float]:
        """Unit -> median of its ``name`` samples (scaled, by default).

        The units of a workload differ in size, so a median over all
        samples lands on whichever unit happens to sit in the middle;
        per-unit medians keep each unit's own noise apart.
        """
        values = self.scaled(name) if scaled else self.samples[name]
        by_unit: Dict[Any, List[float]] = defaultdict(list)
        for unit, value in zip(self.units[name], values):
            by_unit[unit].append(value)
        return {unit: statistics.median(group)
                for unit, group in by_unit.items()}

    def premise(self, name: str, holds: bool) -> None:
        """Record a premise; a failed one marks the run incorrect."""
        self.premises.append((name, bool(holds)))


class FirstEvaluation:
    """Progress observer timing set-up: the first ``on_evaluation`` call.

    The first evaluation happens once the sample is loaded, the distance
    plane is built and the initial counts exist, i.e. when the first greedy
    step can start.
    """

    def __init__(self) -> None:
        self.at: Optional[float] = None

    def on_evaluation(self, evaluations: int) -> None:
        if self.at is None:
            self.at = time.perf_counter()

    def on_step(self, step: Any, result: Any) -> None:
        pass

    def should_stop(self) -> bool:
        return False


class HostSpeed:
    """Measures how fast the host runs right now, to scale unit times.

    The 2-core host the benchmark was calibrated on is shared with other
    tenants. Its speed on a fixed pure-Python loop moved by up to ±25%
    over 20-60 s, and ten runs in a row of one workload once slowed by
    1.45x halfway through, which put their spread far outside any bound.
    So a fixed kernel (a pure-Python loop and a NumPy sort, no ``repro``
    code, so no change to the program can move it) is timed in the
    benchmark process right before and right after every untraced unit,
    and the unit's times are multiplied by ``KERNEL_REFERENCE_S`` over the
    mean of the two kernel times.
    """

    def __init__(self) -> None:
        import numpy

        # Small, so that it barely moves the workload's peak RSS.
        self._values = numpy.random.default_rng(0).random(1 << 16)

    def kernel_seconds(self) -> float:
        import numpy

        start = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i
        for _ in range(6):
            numpy.sort(self._values)
        return time.perf_counter() - start


def _peak_rss_mb(*who: int) -> float:
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


def _run_passes(workload: str, units: Sequence[Any], seconds: float,
                rng: random.Random, run_unit: Callable[[Any, bool], None],
                tracer: Optional[Tracer], m: Measurement) -> None:
    """Whole passes over ``units``; with a tracer, each unit also runs traced.

    Every sample an untraced unit adds gets the unit's host-speed factor
    and is tagged with the unit.
    """
    host = HostSpeed()
    per_pass = PASS_SECONDS[workload] * (2 if tracer is not None else 1)
    order = list(units)
    for _ in range(max(1, round(seconds / per_pass))):
        rng.shuffle(order)
        for unit in order:
            counts = {name: len(values) for name, values in m.samples.items()}
            before = host.kernel_seconds()
            run_unit(unit, False)
            factor = 2 * KERNEL_REFERENCE_S / (before + host.kernel_seconds())
            for name, values in m.samples.items():
                added = len(values) - counts.get(name, 0)
                m.factors[name] += [factor] * added
                m.units[name] += [unit] * added
            if tracer is None:
                continue
            tracer.install()
            try:
                run_unit(unit, True)
            finally:
                tracer.uninstall()
                tracer.flush()
            m.traced_units += 1


def _run_request(unit_id: str, request: Any, traced: bool, m: Measurement,
                 oracle: Oracle) -> Any:
    """One ``anonymize`` call timed as set-up + run, checked by the oracle."""
    from repro.api import anonymize

    observer = FirstEvaluation()
    start = time.perf_counter()
    try:
        response = anonymize(request, observer=observer)
    except Exception as exc:  # noqa: BLE001 — counted, never timed
        oracle.fail(unit_id, f"raised {type(exc).__name__}: {exc}")
        return None
    end = time.perf_counter()
    if not oracle.check(unit_id, [response]):
        return None
    if traced:
        m.samples["traced_run_s"].append(end - observer.at)
    else:
        m.samples["setup_s"].append(observer.at - start)
        m.samples["run_s"].append(end - observer.at)
        m.samples["job_s"].append(end - start)
        m.samples["evaluations"].append(response.evaluations)
    return response


# ----------------------------------------------------------------------
# lookahead-l1
# ----------------------------------------------------------------------
LOOKAHEAD_SEEDS = (0, 1, 2)
LOOKAHEAD_STEPS = 8


def lookahead_request(sample_seed: int) -> Any:
    from repro.api import AnonymizationRequest

    return AnonymizationRequest(dataset="wikipedia", sample_size=25,
                                seed=sample_seed, algorithm="rem", theta=0.5,
                                length_threshold=1, lookahead=2,
                                max_steps=LOOKAHEAD_STEPS)


def lookahead_unit_id(sample_seed: int) -> str:
    return f"wikipedia-25-seed{sample_seed}-L1-la2-steps{LOOKAHEAD_STEPS}"


def run_lookahead(seed: int, seconds: float, tracer: Optional[Tracer],
                  oracle: Oracle) -> Measurement:
    m = Measurement()

    def run_unit(sample_seed: int, traced: bool) -> None:
        response = _run_request(lookahead_unit_id(sample_seed),
                                lookahead_request(sample_seed), traced, m,
                                oracle)
        if response is not None:
            m.premise(f"seed {sample_seed}: exactly {LOOKAHEAD_STEPS} steps",
                      response.num_steps == LOOKAHEAD_STEPS)

    _run_passes("lookahead-l1", LOOKAHEAD_SEEDS, seconds, random.Random(seed),
                run_unit, tracer, m)
    m.peak_rss_mb = _peak_rss_mb(resource.RUSAGE_SELF)
    return m


# ----------------------------------------------------------------------
# tiled-5k
# ----------------------------------------------------------------------
TILED_SEEDS = (0, 1)
TILED_SIZE = 5000
TILED_LENGTH = 2
TILED_BUDGET = 2 << 20
TILED_STEPS = 4


def tiled_request(sample_seed: int) -> Any:
    from repro.api import AnonymizationRequest

    return AnonymizationRequest(dataset="gnutella", sample_size=TILED_SIZE,
                                seed=sample_seed, algorithm="rem", theta=0.01,
                                length_threshold=TILED_LENGTH,
                                scale_tier="tiled",
                                scale_budget_bytes=TILED_BUDGET,
                                max_steps=TILED_STEPS)


def tiled_unit_id(sample_seed: int) -> str:
    return (f"gnutella-{TILED_SIZE}-seed{sample_seed}-L{TILED_LENGTH}"
            f"-tiled-{TILED_BUDGET >> 20}MiB-steps{TILED_STEPS}")


def run_tiled(seed: int, seconds: float, tracer: Optional[Tracer],
              oracle: Oracle) -> Measurement:
    from repro.graph.distance_store import dense_matrix_bytes
    from repro.graph.matrices import distance_dtype

    m = Measurement()
    dense = dense_matrix_bytes(TILED_SIZE, distance_dtype(TILED_LENGTH))
    m.premise(f"dense matrix {dense >> 20} MiB >= 10x the "
              f"{TILED_BUDGET >> 20} MiB budget", dense >= 10 * TILED_BUDGET)
    traced_tiles: Dict[str, float] = dict.fromkeys(
        (f"graph.distance_store.{name}" for name in TileCounters.FIELDS), 0)
    counters = TileCounters().install()
    try:
        def run_unit(sample_seed: int, traced: bool) -> None:
            before = counters.totals()
            response = _run_request(tiled_unit_id(sample_seed),
                                    tiled_request(sample_seed), traced, m,
                                    oracle)
            after = counters.totals()
            if response is not None:
                m.premise(f"seed {sample_seed}: exactly {TILED_STEPS} steps",
                          response.num_steps == TILED_STEPS)
            m.premise(f"seed {sample_seed}: tile_evictions > 0",
                      after["tile_evictions"] > before["tile_evictions"])
            if traced:
                for name in TileCounters.FIELDS:
                    traced_tiles[f"graph.distance_store.{name}"] += (
                        after[name] - before[name])

        _run_passes("tiled-5k", TILED_SEEDS, seconds, random.Random(seed),
                    run_unit, tracer, m)
    finally:
        counters.uninstall()
    for name, total in traced_tiles.items():
        m.layer[name] = total / m.traced_units if m.traced_units else 0.0
    m.peak_rss_mb = _peak_rss_mb(resource.RUSAGE_SELF)
    return m


# ----------------------------------------------------------------------
# grid-shm
# ----------------------------------------------------------------------
GRID_SEEDS = (0, 1)
GRID_SIZE = 100
GRID_CAP = 80
GRID_ALGORITHMS = ("rem", "rem-ins")
GRID_LENGTHS = (1, 2)
GRID_THETAS = (0.9, 0.7, 0.5)
GRID_WORKERS = 2


def grid_request(sample_seed: int) -> Any:
    from repro.api import AnonymizationRequest, GridRequest

    base = AnonymizationRequest(dataset="enron", sample_size=GRID_SIZE,
                                seed=sample_seed,
                                insertion_candidate_cap=GRID_CAP)
    return GridRequest.from_axes(base, algorithms=GRID_ALGORITHMS,
                                 length_thresholds=GRID_LENGTHS,
                                 thetas=GRID_THETAS)


def grid_unit_id(request: Any) -> str:
    return (f"enron-{GRID_SIZE}-seed{request.seed}-cap{GRID_CAP}"
            f"-{request.algorithm}-L{request.length_threshold}"
            f"-theta{request.theta}")


def run_grid_shm(seed: int, seconds: float, tracer: Optional[Tracer],
                 oracle: Oracle) -> Measurement:
    from repro.api import run_grid
    from repro.api.shm import SharedSampleArena

    m = Measurement()
    published: List[float] = []

    def stamp_publish(original):
        def publish(cls, *args, **kwargs):
            arena = original(cls, *args, **kwargs)
            published.append(time.perf_counter())
            return arena
        return publish

    def run_unit(sample_seed: int, traced: bool) -> None:
        grid = grid_request(sample_seed)
        published.clear()
        cpu_before = _children_cpu()
        start = time.perf_counter()
        try:
            response = run_grid(grid, max_workers=GRID_WORKERS)
        except Exception as exc:  # noqa: BLE001 — counted, never timed
            oracle.fail(f"grid seed {sample_seed}",
                        f"raised {type(exc).__name__}: {exc}")
            return
        end = time.perf_counter()
        ok = [oracle.check(grid_unit_id(item.request), [item])
              for item in response.responses]
        m.premise("the pooled grid published an arena", bool(published))
        m.premise("num_sample_loads == 1", response.num_sample_loads == 1)
        m.premise("num_distance_computes == 1",
                  response.num_distance_computes == 1)
        # A serial fallback would leave the pool workers idle: demand that
        # they spent at least half the θ-groups' summed run time on CPU.
        group_work = sum(max(response.responses[index].runtime_seconds
                             for index in indices)
                         for indices in grid.groups())
        worker_cpu = _children_cpu() - cpu_before
        m.premise("pool ran: worker CPU >= half the θ-group work",
                  worker_cpu >= 0.5 * group_work)
        m.layer["api.sweeps.num_sample_loads"] = response.num_sample_loads or 0
        m.layer["api.sweeps.num_distance_computes"] = (
            response.num_distance_computes or 0)
        if not all(ok) or not published:
            return
        if traced:
            m.samples["traced_run_s"].append(end - published[0])
        else:
            m.samples["setup_s"].append(published[0] - start)
            m.samples["run_s"].append(end - published[0])
            m.samples["job_s"].append(end - start)
            m.samples["evaluations"].append(
                sum(item.evaluations for item in response.responses))

    patches = Patches()
    patches.method(SharedSampleArena, "publish", stamp_publish)
    try:
        _run_passes("grid-shm", GRID_SEEDS, seconds, random.Random(seed),
                    run_unit, tracer, m)
    finally:
        patches.undo()
    m.peak_rss_mb = _peak_rss_mb(resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return m


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# ----------------------------------------------------------------------
# service-loop
# ----------------------------------------------------------------------
SERVICE_SEEDS = tuple(range(10))
SERVICE_THETAS = (0.9, 0.7, 0.5, 0.3)
SERVICE_REPLAYS = 10


def service_job(sample_seed: int) -> Any:
    from repro.api import AnonymizationRequest, GridRequest

    base = AnonymizationRequest(dataset="enron", sample_size=80,
                                seed=sample_seed, algorithm="rem")
    return GridRequest.from_axes(base, length_thresholds=(1, 2),
                                 thetas=SERVICE_THETAS)


def service_unit_id(sample_seed: int) -> str:
    return f"enron-80-seed{sample_seed}-rem-L12-grid"


class ServeProcess:
    """A ``repro-lopacity serve`` child on an ephemeral port."""

    def __init__(self, db_dir: Path, trace_dir: Optional[Path]) -> None:
        shutil.rmtree(db_dir, ignore_errors=True)
        db_dir.mkdir(parents=True)
        command = [sys.executable, str(Path(__file__).with_name("serve_child.py"))]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        command += ["--port", "0", "--db", str(db_dir / "runs.db")]
        self.db_dir = db_dir
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
        try:
            self.url = self._read_url(timeout=60.0)
            self.client = self._wait_healthy(timeout=60.0)
        except BaseException:
            self.stop()
            raise
        self.ready = time.perf_counter()

    def _read_url(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("listening on "):
            raise RuntimeError(f"serve did not start (got {line!r})")
        return line.split("listening on ", 1)[1].strip()

    def _wait_healthy(self, timeout: float) -> Any:
        from repro.service.client import ServiceClient

        client = ServiceClient(self.url)
        deadline = time.monotonic() + timeout
        while True:
            try:
                client.health()
                return client
            except (urllib.error.URLError, ConnectionError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.005)

    def stop(self) -> None:
        """SIGINT (serve's clean shutdown), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.db_dir, ignore_errors=True)


def _timed(latencies: List[float], call: Callable[..., Any], *args: Any) -> Any:
    start = time.perf_counter()
    try:
        return call(*args)
    finally:
        latencies.append(time.perf_counter() - start)


@dataclass
class ServiceStats:
    """Client-side figures of the untraced sessions of one run."""

    latency: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    queue_wait: List[float] = field(default_factory=list)
    dedup: List[float] = field(default_factory=list)
    polls: int = 0
    jobs: int = 0

    def report(self, m: Measurement) -> None:
        """Medians (ms for HTTP latencies) as per-layer values of ``m``."""

        def median(values: List[float]) -> float:
            return statistics.median(values) if values else 0.0

        m.layer.update({
            "service.jobs.queue_wait_s": median(self.queue_wait),
            "service.http.status_polls_per_job":
                self.polls / self.jobs if self.jobs else 0.0,
            "service.http.submit_p50_ms": 1e3 * median(self.latency["submit"]),
            "service.http.status_p50_ms": 1e3 * median(self.latency["status"]),
            "service.http.result_p50_ms": 1e3 * median(self.latency["result"]),
            "service.http.dedup_p50_ms": 1e3 * median(self.dedup),
        })


def _service_session(sample_seed: int, trace_dir: Optional[Path],
                     m: Measurement, stats: ServiceStats,
                     oracle: Oracle) -> None:
    """One serve lifetime: one fresh job, then ``SERVICE_REPLAYS`` replays.

    With a ``trace_dir`` the serve child is traced, and the session adds
    only ``traced_run_s`` to ``m``.
    """
    from repro.service.client import ServiceError

    unit = service_unit_id(sample_seed)
    serve = ServeProcess(WORK / "service", trace_dir)
    try:
        client = serve.client
        job_s = None
        evaluations = None
        try:
            start = time.perf_counter()
            submitted = _timed(stats.latency["submit"], client.submit,
                               service_job(sample_seed))
            m.premise(f"{unit}: first submission not deduped",
                      submitted["deduped"] is False)
            job_id = submitted["job_id"]
            polls = 0
            while True:
                status = _timed(stats.latency["status"], client.status, job_id)
                if status["status"] in ("done", "error", "cancelled"):
                    break
                polls += 1
                time.sleep(POLL_SECONDS)
            result = _timed(stats.latency["result"], client.result, job_id)
            end = time.perf_counter()
        except ServiceError as exc:
            oracle.fail(unit, f"error response: {exc}")
        else:
            m.premise(f"{unit}: 8 checkpoints recorded",
                      status["num_checkpoints"] == 8)
            if oracle.check(unit, result.responses):
                job_s = end - start
                stats.polls += polls
                stats.jobs += 1
                stats.queue_wait.append(status["started_at"]
                                        - status["created_at"])
                evaluations = sum(item.evaluations for item in result.responses)
            for _ in range(SERVICE_REPLAYS):
                try:
                    start = time.perf_counter()
                    replay = _timed(stats.latency["submit"], client.submit,
                                    service_job(sample_seed))
                    m.premise(f"{unit}: replay deduped",
                              replay["deduped"] is True
                              and replay["job_id"] == job_id)
                    result = _timed(stats.latency["result"], client.result,
                                    replay["job_id"])
                    end = time.perf_counter()
                except ServiceError as exc:
                    oracle.fail(unit, f"error response: {exc}")
                    continue
                if oracle.check(unit, result.responses):
                    stats.dedup.append(end - start)
        run_s = time.perf_counter() - serve.ready
    finally:
        serve.stop()
    if trace_dir is not None:
        m.samples["traced_run_s"].append(run_s)
        return
    m.samples["setup_s"].append(serve.ready - serve.started)
    m.samples["run_s"].append(run_s)
    if job_s is not None:
        m.samples["job_s"].append(job_s)
        m.samples["evaluations"].append(evaluations)


def run_service(seed: int, seconds: float, tracer: Optional[Tracer],
                oracle: Oracle) -> Measurement:
    m = Measurement()
    stats = ServiceStats()
    trace_dir = Path(tracer.out_dir) if tracer is not None else None

    def run_session(sample_seed: int, traced: bool) -> None:
        # A traced session's figures go to a throwaway ServiceStats: the
        # serve child's wrappers slow every request down.
        if traced:
            _service_session(sample_seed, trace_dir, m, ServiceStats(), oracle)
        else:
            _service_session(sample_seed, None, m, stats, oracle)

    _run_passes("service-loop", SERVICE_SEEDS, seconds, random.Random(seed),
                run_session, tracer, m)
    stats.report(m)
    m.peak_rss_mb = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    return m


#: Workload name -> runner (why each was chosen: ``BENCHMARK.json``).
WORKLOADS: Dict[str, Callable[[int, float, Optional[Tracer], Oracle],
                              Measurement]] = {
    "lookahead-l1": run_lookahead,
    "tiled-5k": run_tiled,
    "grid-shm": run_grid_shm,
    "service-loop": run_service,
}


# ----------------------------------------------------------------------
# reference capture
# ----------------------------------------------------------------------
def capture_references() -> Dict[str, List[Dict[str, Any]]]:
    """Run every unit once on the serial in-process path and summarize it."""
    from oracle import summarize
    from repro.api import anonymize, run_grid

    references: Dict[str, List[Dict[str, Any]]] = {}
    for sample_seed in LOOKAHEAD_SEEDS:
        references[lookahead_unit_id(sample_seed)] = [
            summarize(anonymize(lookahead_request(sample_seed)))]
    for sample_seed in TILED_SEEDS:
        references[tiled_unit_id(sample_seed)] = [
            summarize(anonymize(tiled_request(sample_seed)))]
    for sample_seed in GRID_SEEDS:
        for item in run_grid(grid_request(sample_seed), max_workers=0).responses:
            references[grid_unit_id(item.request)] = [summarize(item)]
    for sample_seed in SERVICE_SEEDS:
        references[service_unit_id(sample_seed)] = [
            summarize(item) for item
            in run_grid(service_job(sample_seed), max_workers=0).responses]
    return references
