"""Self-tests of the benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench -q        # or: python3 -m unittest perfbench.test_perfbench

The check functions must reject a run with one output bit flipped, a Q
above its bound and a served result that differs from the direct run;
the full command must pass on seed 23 (the README's reference figures
use seeds 1 to 10), print every metric ``BENCHMARK.json`` names, and fail
without printing a result where the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks  # noqa: E402
from perfbench.run import END_TO_END, PER_LAYER  # noqa: E402

SELF_TEST_SEED = 23


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


class CheckFunctionsReject(unittest.TestCase):

    def setUp(self):
        from repro.experiments import ExperimentSpec
        from repro.sim import run_download
        self.spec = ExperimentSpec(
            protocol="byz-committee", n=8, ell=256,
            fault_model="byzantine", beta=0.25,
            protocol_params={"block_size": 16})
        self.bits = checks.input_bits(7, self.spec.ell)
        self.result = run_download(
            n=self.spec.n, data=self.bits,
            peer_factory=self.spec.peer_factory(),
            adversary=self.spec.build_adversary(), t=self.spec.t, seed=7)
        self.outputs = {pid: None if output is None else output.to_bits()
                        for pid, output in self.result.outputs.items()}
        self.bound = checks.committee_q_bound(256, 8, self.spec.t, 16)

    def problems(self, outputs=None, q=None):
        return checks.download_problems(
            expected=self.bits, outputs=outputs or self.outputs,
            honest=self.result.honest, faulty=self.result.faulty,
            t=self.spec.t,
            q=self.result.report.query_complexity if q is None else q,
            q_limit=self.bound)

    def test_real_download_passes(self):
        self.assertEqual(self.problems(), [])

    def test_one_flipped_output_bit_fails(self):
        pid = min(self.result.honest)
        flipped = dict(self.outputs)
        flipped[pid] = list(flipped[pid])
        flipped[pid][100] ^= 1
        self.assertEqual(self.problems(outputs=flipped),
                         [f"peer {pid} output differs in 1 bits"])

    def test_q_above_bound_fails(self):
        self.assertEqual(self.problems(q=self.bound), [])
        self.assertTrue(self.problems(q=self.bound + 1))

    def test_exact_q_must_match(self):
        problems = checks.download_problems(
            expected=[0], outputs={0: [0]}, honest=[0], faulty=(), t=0,
            q=2, q_limit=1, q_exact=True)
        self.assertEqual(problems, ["Q=2 differs from the exact 1"])

    def test_faulty_set_beyond_t_fails(self):
        problems = checks.download_problems(
            expected=[1], outputs={0: [1]}, honest=[0], faulty={1, 2},
            t=1, q=1, q_limit=1)
        self.assertEqual(problems, ["2 faulty peers exceed t=1"])

    def test_crash_bound_replaces_n_by_the_direct_query_tail(self):
        # Lemma 2.11's ell/(n-t) + n = 4112; the tail is ell/(n-t) here.
        self.assertEqual(checks.crash_multi_lemma_bound(1 << 15, 16, 8),
                         4096 + 16)
        self.assertEqual(checks.crash_multi_q_bound(1 << 15, 16, 8),
                         2 * 4096)


class ServedChecksReject(unittest.TestCase):

    def test_served_result_differing_from_direct_run_fails(self):
        from perfbench.workloads import ServeMixed
        entry = {"spec": {"protocol": "balanced", "n": 8, "ell": 256,
                          "repeats": 2, "base_seed": 3}}
        reference = ServeMixed._references({"job": entry})["job"]
        self.assertEqual(checks.served_problems(reference, reference), [])
        tampered = [dict(reference[0],
                         mean_query_complexity=reference[0][
                             "mean_query_complexity"] + 1)]
        self.assertEqual(checks.served_problems(tampered, reference),
                         ["point 0 differs in ['mean_query_complexity']"])

    def test_dedup_and_execution_count(self):
        self.assertEqual(checks.dedup_problems(
            first_id="a", again_id="a", created=False,
            first_payload=b"x", again_payload=b"x"), [])
        self.assertEqual(len(checks.dedup_problems(
            first_id="a", again_id="b", created=True,
            first_payload=b"x", again_payload=b"y")), 3)
        self.assertEqual(checks.execution_count_problems(
            tasks_executed=10, job_points=6, cache_hits=1, repeats=2), [])
        self.assertTrue(checks.execution_count_problems(
            tasks_executed=12, job_points=6, cache_hits=1, repeats=2))

    def test_topology_q_mismatch_fails(self):
        outcome = {"mean_query_complexity": 64.0,
                   "max_query_complexity": 64}
        self.assertEqual(checks.topology_problems(outcome, outcome), [])
        self.assertTrue(checks.topology_problems(
            outcome, dict(outcome, max_query_complexity=65)))


class TracerRestores(unittest.TestCase):

    def test_uninstall_restores_every_patched_attribute(self):
        import repro.experiments  # noqa: F401  (loads every layer)
        from perfbench.tracer import Tracer
        from repro.sim.network import Network
        from repro.util import rng
        original_send, original_derive = Network.send, rng.derive_seed
        tracer = Tracer().install()
        self.assertIsNot(Network.send, original_send)
        tracer.uninstall()
        self.assertIs(Network.send, original_send)
        self.assertIs(rng.derive_seed, original_derive)


class FullCommand(unittest.TestCase):
    """The command as the benchmark's runner calls it, on a seed the
    README's reference figures do not use."""

    def _result(self, workload, trace):
        done = _run("--workload", workload, "--seed", str(SELF_TEST_SEED),
                    "--seconds", "2", "--trace", str(trace))
        self.assertEqual(done.returncode, 0, done.stderr)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_every_workload_passes_with_every_metric(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [workload["name"] for workload in declared["workloads"]]
        self.assertEqual(
            [metric["name"] for metric in declared["end_to_end"]],
            list(END_TO_END))
        self.assertEqual(
            [metric["name"] for metric in declared["per_layer"]],
            list(PER_LAYER))
        for workload in names:
            with self.subTest(workload=workload):
                result = self._result(workload, 0)
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(list(result["metrics"]), list(END_TO_END))
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_run_reports_every_layer(self):
        result = self._result("committee-byz", 1)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), list(PER_LAYER))
        self.assertGreater(result["metrics"]["network.sends"]["value"], 0)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = _run("--workload", "committee-byz", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
