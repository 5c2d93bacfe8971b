"""Correctness checks of the benchmark, computed apart from the program.

Every function here takes plain Python values (bit lists, integers,
JSON-shaped dicts) and returns a list of problems; an empty list means
the operation passed.  Nothing in this module imports ``repro``: the
bounds are recomputed from the paper's formulas and the expected bits
come from the benchmark's own generator, so a fault in the program
cannot hide itself by also corrupting its check.
"""

from __future__ import annotations

import json
import random


def input_bits(seed: int, ell: int) -> list[int]:
    """The benchmark's input array for one operation: ``ell`` bits drawn
    from :class:`random.Random` seeded with ``seed``."""
    word = random.Random(seed).getrandbits(ell)
    return [(word >> index) & 1 for index in range(ell)]


def committee_q_bound(ell: int, n: int, t: int, block_size: int) -> int:
    """Thm 3.4 at block size ``block_size``: ``ceil(ell / block_size)``
    blocks, each covered by a committee of ``2t + 1`` peers assigned
    round-robin, so no peer sits on more than
    ``ceil(blocks * (2t + 1) / n)`` committees of ``block_size`` bits."""
    blocks = -(-ell // block_size)
    return -(-blocks * (2 * t + 1) // n) * block_size


def crash_multi_lemma_bound(ell: int, n: int, t: int) -> float:
    """Lemma 2.11's per-peer query bound, ``ell / (n - t) + n``."""
    return ell / (n - t) + n


def crash_multi_q_bound(ell: int, n: int, t: int) -> float:
    """Lemma 2.11's phased cost ``ell / (n - t)`` plus the direct-query
    tail of the implementation: peers stop phasing once at most
    ``max(n, ceil(ell / (n - t)))`` bits are unknown and query those
    directly.  The tail replaces the lemma's ``+ n``; for
    ``ell / (n - t) >= n`` the bound is ``2 * ell / (n - t)``."""
    return ell / (n - t) + max(n, -(-ell // (n - t)))


def download_problems(*, expected: list[int], outputs: dict,
                      honest, faulty, t: int, q: int,
                      q_limit: float, q_exact: bool = False) -> list[str]:
    """Problems of one finished download.

    ``outputs`` maps peer id to its output as a bit list (``None`` when
    the peer produced none).  Every honest peer must output
    ``expected`` bit for bit, the faulty set must stay within ``t``,
    and ``q`` must stay within ``q_limit`` (equal it when ``q_exact``).
    """
    problems = []
    for pid in sorted(honest):
        output = outputs.get(pid)
        if output is None:
            problems.append(f"honest peer {pid} produced no output")
        elif len(output) != len(expected):
            problems.append(f"peer {pid} output has {len(output)} bits, "
                            f"expected {len(expected)}")
        elif output != expected:
            wrong = sum(1 for got, want in zip(output, expected)
                        if got != want)
            problems.append(f"peer {pid} output differs in {wrong} bits")
    if len(faulty) > t:
        problems.append(f"{len(faulty)} faulty peers exceed t={t}")
    if q_exact and q != q_limit:
        problems.append(f"Q={q} differs from the exact {q_limit}")
    elif q > q_limit:
        problems.append(f"Q={q} exceeds the bound {q_limit:.1f}")
    return problems


def canonical(payload) -> str:
    """One canonical JSON text, for byte-level comparisons."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def served_problems(served: list[dict], reference: list[dict]) -> list[str]:
    """A served job's outcomes must equal the direct run's, point by
    point, in every field."""
    if len(served) != len(reference):
        return [f"{len(served)} served points, {len(reference)} expected"]
    problems = []
    for index, (got, want) in enumerate(zip(served, reference)):
        if canonical(got) != canonical(want):
            fields = sorted(key for key in set(got) | set(want)
                            if got.get(key) != want.get(key))
            problems.append(f"point {index} differs in {fields}")
    return problems


def topology_problems(expander: dict, complete: dict) -> list[str]:
    """The same spec on the expander and on the complete graph must
    give the same query complexity (the topology layer touches T and
    M, never Q)."""
    problems = []
    for key in ("mean_query_complexity", "max_query_complexity"):
        if expander[key] != complete[key]:
            problems.append(f"{key}: expander {expander[key]} != "
                            f"complete {complete[key]}")
    return problems


def dedup_problems(*, first_id: str, again_id: str, created: bool,
                   first_payload: str, again_payload: str) -> list[str]:
    """An identical resubmission names the same job, creates nothing,
    and reads a byte-identical payload."""
    problems = []
    if again_id != first_id:
        problems.append(f"resubmission named job {again_id}, "
                        f"not {first_id}")
    if created:
        problems.append("resubmission created a new job")
    if again_payload != first_payload:
        problems.append("resubmission read a different payload")
    return problems


def execution_count_problems(*, tasks_executed: int, job_points: int,
                             cache_hits: int, repeats: int) -> list[str]:
    """Each point of each distinct job runs its repeats exactly once,
    unless the result cache answered it: resubmissions that coalesced
    into an existing job add nothing."""
    expected = (job_points - cache_hits) * repeats
    if tasks_executed != expected:
        return [f"{tasks_executed} tasks executed, expected {expected} "
                f"({job_points} points over distinct jobs, {cache_hits} "
                f"cache hits, {repeats} repeats each)"]
    return []
