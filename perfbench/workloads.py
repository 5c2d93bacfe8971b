"""The benchmark's four workloads.

Each workload derives every input from the run's ``--seed``: operation
``i`` of a download workload runs on ``op_seed(seed, i)``, and round
``r`` of the served job stream on ``op_seed(seed, r)``.  The program
receives only these generated inputs.  Every operation is checked by
:mod:`perfbench.checks` before it counts as passed.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from perfbench import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes lives here, inside the checkout.
WORK = ROOT / ".perfbench"


def op_seed(seed: int, index: int) -> int:
    """The input seed of operation (or round) ``index`` of a run."""
    return random.Random(f"perfbench:{seed}:{index}").getrandbits(31)


@dataclasses.dataclass
class Download:
    """One finished, checked download."""

    wall_s: float
    q: int
    t: float
    m: int
    events: int
    outputs: dict
    problems: list
    bits_served: int = 0
    retries: int = 0


def _bits(array) -> list:
    return None if array is None else array.to_bits()


def _timed(run, tracer, telemetry):
    """``(result, wall seconds)`` of one download: untraced, traced as a
    root span, or (untimed) under a telemetry backend."""
    if telemetry is not None:
        from repro.obs.telemetry import using
        with using(telemetry):
            return run(), 0.0
    start = time.perf_counter()
    result = run() if tracer is None else tracer.call("download", run)
    return result, time.perf_counter() - start


def counting_backend():
    from repro.obs.telemetry import Telemetry

    class CountingTelemetry(Telemetry):
        """Counts emissions; records nothing else."""

        enabled = True

        def __init__(self) -> None:
            self.sites = 0

        def emit(self, kind, fields) -> None:
            self.sites += 1

        def add(self, name, value, labels) -> None:
            self.sites += 1

    return CountingTelemetry()


# -- the simulator download workloads -----------------------------------------

class SimDownloads:
    """Downloads on the discrete-event simulator with benchmark data."""

    kind = "download"

    def __init__(self, seed: int, *, protocol: str, n: int, ell: int,
                 fault_model: str, beta: float, params: dict) -> None:
        self.seed = seed
        self.config = dict(protocol=protocol, n=n, ell=ell,
                           fault_model=fault_model, beta=beta,
                           protocol_params=params)

    def setup(self) -> None:
        from repro.experiments import ExperimentSpec
        from repro.sim.runner import Simulation
        self.spec = ExperimentSpec(**self.config)
        self.simulation_class = Simulation
        self.next_input = checks.input_bits(op_seed(self.seed, 0),
                                            self.spec.ell)

    def teardown(self) -> None:
        pass

    def q_limit(self):
        raise NotImplementedError

    def download(self, index: int, tracer=None, telemetry=None) -> Download:
        spec = self.spec
        seed = op_seed(self.seed, index)
        bits = (self.next_input if index == 0
                else checks.input_bits(seed, spec.ell))

        def run():
            simulation = self.simulation_class(
                n=spec.n, peer_factory=spec.peer_factory(), data=bits,
                adversary=spec.build_adversary(), t=spec.t, seed=seed)
            return simulation.run()

        result, wall = _timed(run, tracer, telemetry)
        outputs = {pid: _bits(output)
                   for pid, output in result.outputs.items()}
        limit, exact = self.q_limit()
        q = result.report.query_complexity
        problems = checks.download_problems(
            expected=bits, outputs=outputs, honest=result.honest,
            faulty=result.faulty, t=spec.t, q=q, q_limit=limit,
            q_exact=exact)
        return Download(wall_s=wall, q=q,
                        t=result.report.time_complexity,
                        m=result.report.message_complexity,
                        events=result.events_processed,
                        outputs=outputs, problems=problems,
                        bits_served=sum(len(indices) for indices in
                                        result.queried_indices.values()))


class CommitteeByz(SimDownloads):
    name = "committee-byz"

    def __init__(self, seed: int) -> None:
        super().__init__(seed, protocol="byz-committee", n=48, ell=2048,
                         fault_model="byzantine", beta=0.25,
                         params={"block_size": 32})

    def q_limit(self):
        spec = self.spec
        return checks.committee_q_bound(
            spec.ell, spec.n, spec.t,
            spec.protocol_params["block_size"]), False


class CrashMultiWide(SimDownloads):
    name = "crash-multi-wide"

    def __init__(self, seed: int) -> None:
        super().__init__(seed, protocol="crash-multi", n=16, ell=1 << 15,
                         fault_model="crash", beta=0.5, params={})

    def q_limit(self):
        spec = self.spec
        return checks.crash_multi_q_bound(spec.ell, spec.n, spec.t), False

    def download(self, index: int, tracer=None, telemetry=None) -> Download:
        download = super().download(index, tracer, telemetry)
        spec = self.spec
        lemma = checks.crash_multi_lemma_bound(spec.ell, spec.n, spec.t)
        if tracer is None and telemetry is None and download.q > lemma:
            # Within the implementation's bound, so not a failure, but
            # every such input is named: Lemma 2.11 alone does not hold.
            print(f"operation {index}: Q={download.q} exceeds Lemma "
                  f"2.11's ell/(n-t)+n={lemma:.0f}", file=sys.stderr)
        return download


# -- the net download workload ---------------------------------------------------

def use_short_socket_dir() -> None:
    """Make this process's temporary directories (where the net layer
    puts its Unix sockets) under ``.perfbench/s``, named relative to the
    checkout root: socket paths are limited to about 107 bytes, which a
    deep checkout's absolute path could exceed."""
    socket_root = WORK / "s"
    socket_root.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = os.path.relpath(socket_root)


class NetBalanced:
    """Fault-free balanced downloads over real Unix sockets (task mode,
    chaos proxy with no faults)."""

    name = "net-balanced"
    kind = "download"
    n, ell = 16, 16384

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.net import run_net_download
        from repro.sim import run_download
        from repro.protocols import get
        use_short_socket_dir()
        self.run_net = run_net_download
        self.run_sim = run_download
        self.factory = get("balanced").factory()

    def teardown(self) -> None:
        tempfile.tempdir = None

    def download(self, index: int, tracer=None, telemetry=None) -> Download:
        seed = op_seed(self.seed, index)

        def run():
            return self.run_net(n=self.n, ell=self.ell,
                                protocol="balanced", seed=seed,
                                mode="task")

        result, wall = _timed(run, tracer, telemetry)
        served = result.data.to_bits()
        outputs = {pid: _bits(output)
                   for pid, output in result.outputs.items()}
        problems = checks.download_problems(
            expected=served, outputs=outputs, honest=range(self.n),
            faulty=(), t=0, q=result.query_complexity,
            q_limit=self.ell // self.n, q_exact=True)
        if tracer is None and telemetry is None:
            # The traced twin of this download is compared with this one,
            # so the simulator reference runs once, outside any trace.
            reference = self.run_sim(n=self.n, ell=self.ell,
                                     peer_factory=self.factory, seed=seed)
            if reference.data.to_bits() != served:
                problems.append("the source served another array than "
                                "the simulator derives from the same seed")
            if reference.report.query_complexity != \
                    result.query_complexity:
                problems.append(f"net Q={result.query_complexity} differs "
                                f"from sim Q="
                                f"{reference.report.query_complexity}")
        return Download(wall_s=wall, q=result.query_complexity, t=0.0,
                        m=result.message_complexity, events=0,
                        outputs=outputs, problems=problems,
                        bits_served=result.total_query_bits,
                        retries=result.retries)


# -- the served job stream ----------------------------------------------------------

REPEATS = 2
ROUND = 12


def job_round(seed: int, round_no: int) -> list[dict]:
    """The 12 submissions of round ``round_no``.

    Fresh base seeds make every round's distinct jobs new to the
    server; sweeps reuse a point of an earlier job of the round (the
    result cache answers it once that job finished) and resubmissions
    repeat an earlier entry verbatim (dedup coalesces them).
    """
    rng = random.Random(op_seed(seed, round_no))

    def fresh(**fields) -> dict:
        return dict(fields, repeats=REPEATS,
                    base_seed=rng.getrandbits(31))

    crash = fresh(protocol="crash-multi", n=12,
                  ell=rng.choice((512, 768, 1024)),
                  fault_model="crash", beta=0.25)
    committee = fresh(protocol="byz-committee", n=12, ell=512,
                      fault_model="byzantine", beta=0.25,
                      protocol_params={"block_size": 16})
    expander = fresh(protocol="balanced", n=16,
                     ell=rng.choice((512, 1024)), topology="expander")
    sync_committee = fresh(protocol="byz-committee", n=12, ell=512,
                           fault_model="byzantine", beta=0.25,
                           backend="sync", network="synchronous",
                           protocol_params={"block_size": 16})
    entries = [
        {"kind": "sim", "spec": crash},
        {"kind": "sim", "spec": committee},
        {"kind": "sync", "spec": fresh(protocol="crash-multi", n=12,
                                       ell=512, fault_model="crash",
                                       beta=0.25, backend="sync",
                                       network="synchronous")},
        {"kind": "expander", "spec": expander},
        {"kind": "complete-twin", "spec": dict(expander,
                                               topology="complete"),
         "twin_of": 3},
        {"kind": "sweep", "spec": crash, "axis": "ell",
         "values": [crash["ell"], crash["ell"] + 256]},
        {"kind": "resubmit", "same_as": 0},
        {"kind": "sim", "spec": fresh(protocol="balanced", n=16,
                                      ell=2048)},
        {"kind": "sync", "spec": sync_committee},
        {"kind": "resubmit", "same_as": 3},
        {"kind": "sweep", "spec": committee, "axis": "beta",
         "values": [0.25, 0.125]},
        {"kind": "resubmit", "same_as": 8},
    ]
    for entry in entries:
        if entry["kind"] == "resubmit":
            original = entries[entry["same_as"]]
            entry.update(spec=original["spec"],
                         axis=original.get("axis"),
                         values=original.get("values", []))
    return entries


def _children(pid: int) -> list[tuple[int, str]]:
    """``(pid, start time)`` of every live child of ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append((int(entry), fields[19]))
    return found


def _alive(pid: int, started: str) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    fields = stat.rsplit(")", 1)[1].split()
    return fields[19] == started and fields[0] != "Z"


def _hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class Server:
    """One ``repro serve`` process with a fresh data dir, stopped with
    SIGINT; stopping fails if a child of the server outlives it."""

    def __init__(self, *, traced: bool, trace_dir: Path = None) -> None:
        self.data_dir = Path(tempfile.mkdtemp(prefix="serve-",
                                              dir=WORK))
        port_file = self.data_dir / "port"
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   TMPDIR=str(WORK))
        args = ["--port", "0", "--port-file", str(port_file),
                "--data-dir", str(self.data_dir / "data"),
                "--pool", "1", "--pool-mode", "process"]
        if traced:
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
            command = [sys.executable, str(ROOT / "perfbench" /
                                           "serve_launcher.py")] + args
        else:
            command = [sys.executable, "-m", "repro", "serve"] + args
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            text = ""
            while not text.strip():
                if self.process.poll() is not None or \
                        time.monotonic() > deadline:
                    raise RuntimeError("server did not start")
                time.sleep(0.01)
                text = port_file.read_text() if port_file.exists() else ""
            self.base_url = f"http://127.0.0.1:{int(text)}"
            urllib.request.urlopen(self.base_url + "/healthz",
                                   timeout=30).read()
        except BaseException:
            self.process.kill()
            self.process.wait()
            shutil.rmtree(self.data_dir, ignore_errors=True)
            raise

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus its pool workers."""
        pids = [self.process.pid] + [pid for pid, _ in
                                     _children(self.process.pid)]
        total = 0.0
        for pid in pids:
            try:
                total += _hwm_mb(pid)
            except OSError:
                pass
        return total

    def stop(self) -> list[str]:
        """SIGINT the server, wait for it, and report survivors."""
        children = _children(self.process.pid)
        self.process.send_signal(signal.SIGINT)
        problems = []
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            problems.append("server ignored SIGINT for 30 s")
        deadline = time.monotonic() + 10
        survivors = children
        while survivors and time.monotonic() < deadline:
            time.sleep(0.05)
            survivors = [(pid, st) for pid, st in survivors
                         if _alive(pid, st)]
        for pid, _ in survivors:
            problems.append(f"server child {pid} outlived the server")
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        shutil.rmtree(self.data_dir, ignore_errors=True)
        return problems


@dataclasses.dataclass
class JobRun:
    """One submission's client-side record."""

    index: int
    entry: dict
    latency_s: float = 0.0
    job_id: str = ""
    created: bool = False
    state: str = ""
    correct: bool = False
    payload: bytes = b""
    record: dict = dataclasses.field(default_factory=dict)
    rtts: list = dataclasses.field(default_factory=list)
    error: str = ""


class ServeMixed:
    """A closed loop of two clients driving ``repro serve``."""

    name = "serve-mixed"
    kind = "serve"
    clients = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.server = None

    def setup(self, *, traced: bool = False, trace_dir=None) -> None:
        from repro.service import ServiceClient
        WORK.mkdir(parents=True, exist_ok=True)
        self.client_class = ServiceClient
        self.first_round = job_round(self.seed, 0)
        self.server = Server(traced=traced, trace_dir=trace_dir)

    def teardown(self) -> list[str]:
        server, self.server = self.server, None
        return server.stop() if server is not None else []

    def _http(self, job: JobRun, method: str, path: str,
              body: dict = None) -> bytes:
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            self.server.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        start = time.perf_counter()
        with urllib.request.urlopen(request, timeout=30) as response:
            raw = response.read()
        job.rtts.append(time.perf_counter() - start)
        return raw

    def _one(self, job: JobRun) -> None:
        entry = job.entry
        client = self.client_class(self.server.base_url, timeout=30)
        start = time.perf_counter()
        try:
            reply = json.loads(self._http(job, "POST", "/api/jobs", {
                "spec": entry["spec"], "axis": entry.get("axis"),
                "values": entry.get("values", []),
                "client": f"perfbench-{job.index % self.clients}"}))
            job.job_id = reply["job"]["id"]
            job.created = reply["created"]
            final = client.wait(job.job_id, timeout=30)
            job.state = final["state"]
            job.correct = bool(final["correct"])
            job.record = final
            if job.state == "done":
                job.payload = self._http(job, "GET",
                                         f"/api/jobs/{job.job_id}/result")
        except Exception as exc:  # a failed job is counted, not fatal
            job.error = f"{type(exc).__name__}: {exc}"
        job.latency_s = time.perf_counter() - start

    def drive(self, seconds: float) -> tuple[list, float]:
        """Run whole rounds for about ``seconds``; returns the jobs and
        the wall time from the first submit to the last result."""
        jobs: list[JobRun] = []
        lock = threading.Lock()
        rounds: dict[int, list] = {0: self.first_round}
        state = {"next": 0, "stop": False}
        start = time.perf_counter()

        def take():
            with lock:
                index = state["next"]
                if index % ROUND == 0 and (
                        state["stop"]
                        or time.perf_counter() - start >= seconds):
                    state["stop"] = True
                    return None
                state["next"] = index + 1
                round_no = index // ROUND
                if round_no not in rounds:
                    rounds[round_no] = job_round(self.seed, round_no)
                job = JobRun(index=index,
                             entry=rounds[round_no][index % ROUND])
                jobs.append(job)
                return job

        def client_loop():
            while True:
                job = take()
                if job is None:
                    return
                self._one(job)

        threads = [threading.Thread(target=client_loop)
                   for _ in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return sorted(jobs, key=lambda job: job.index), \
            time.perf_counter() - start

    def stats(self) -> dict:
        with urllib.request.urlopen(self.server.base_url + "/api/stats",
                                    timeout=30) as response:
            return json.loads(response.read())["stats"]

    @staticmethod
    def _references(requests: dict) -> dict:
        """job id -> outcome dicts of the same request run directly:
        ``execute_repeat`` per (point, repeat), folded by
        ``aggregate_outcome``, with no service and no cache.  Two forked
        processes share the tasks so that checking stays shorter than
        measuring.  Forked, not spawned: a spawn pool starts
        multiprocessing's resource tracker, a process that would outlive
        the benchmark."""
        from repro.experiments import (ExperimentSpec, aggregate_outcome,
                                       execute_repeat, sweep_points)
        from repro.persistence import outcome_to_dict
        points = {}
        for job_id, entry in requests.items():
            spec = ExperimentSpec(**entry["spec"])
            points[job_id] = ([spec] if not entry.get("axis") else
                              sweep_points(spec, axis=entry["axis"],
                                           values=entry["values"]))
        tasks = [(point, repeat) for job_points in points.values()
                 for point in job_points for repeat in range(point.repeats)]
        with ProcessPoolExecutor(
                2, mp_context=multiprocessing.get_context("fork")) as pool:
            records = iter(list(pool.map(
                execute_repeat, [point for point, _ in tasks],
                [repeat for _, repeat in tasks], chunksize=8)))
        return {job_id: [outcome_to_dict(aggregate_outcome(
                    point, [next(records) for _ in range(point.repeats)]))
                    for point in job_points]
                for job_id, job_points in points.items()}

    def check(self, jobs: list, stats: dict) -> tuple[list, list]:
        """Per-job problems (index-aligned) and run-level problems."""
        requests = {}
        for job in jobs:
            if job.job_id and job.state == "done":
                requests.setdefault(job.job_id, job.entry)
        references = self._references(requests)
        by_index = {job.index: job for job in jobs}
        per_job = []
        for job in jobs:
            problems = []
            if job.error or job.state != "done" or not job.correct:
                problems.append(f"job ended {job.state or job.error} "
                                f"(correct={job.correct})")
                per_job.append(problems)
                continue
            payload = json.loads(job.payload)
            problems += checks.served_problems(payload["outcomes"],
                                               references[job.job_id])
            base = job.index - job.index % ROUND
            if job.entry["kind"] == "resubmit":
                first = by_index[base + job.entry["same_as"]]
                problems += checks.dedup_problems(
                    first_id=first.job_id, again_id=job.job_id,
                    created=job.created, first_payload=first.payload,
                    again_payload=job.payload)
            if job.entry["kind"] == "complete-twin":
                twin = by_index[base + job.entry["twin_of"]]
                if twin.payload:
                    problems += checks.topology_problems(
                        json.loads(twin.payload)["outcomes"][0],
                        payload["outcomes"][0])
            per_job.append(problems)
        distinct = {}
        for job in jobs:
            if job.created and job.job_id:
                distinct[job.job_id] = len(job.entry.get("values") or [1])
        run_problems = checks.execution_count_problems(
            tasks_executed=stats["tasks_executed"],
            job_points=sum(distinct.values()),
            cache_hits=stats["cache_hits"], repeats=REPEATS)
        return per_job, run_problems


WORKLOADS = {
    "committee-byz": CommitteeByz,
    "crash-multi-wide": CrashMultiWide,
    "serve-mixed": ServeMixed,
    "net-balanced": NetBalanced,
}
