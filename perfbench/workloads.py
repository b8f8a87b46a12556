"""The three workloads: their inputs, one pass over their jobs, and the
check of every job's verdict.

A job is one circuit family, one n and one labeling, verified for every y
through the same public calls ``fpp run`` and ``fpp dense`` make, in the
same order.  Inputs are built once per process (the set-up); a pass runs
every job once and is what ``wall_s`` times.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass, field
from math import factorial
from typing import Callable

from fpp import (
    Circuit,
    FactoradicLabeling,
    Labeling,
    enumerate_valid_labelings,
    nlogn_circuit,
    phase_profile,
    sim_switch_circuit,
    six_query_n3,
    solve_profile,
    sqrt_circuit,
    superperm_sim_switch,
)
from fpp import densesim

from mutants import reject_suite
from spans import JOB, PASS

CONSTRUCTORS: dict[str, Callable[[int, Labeling], Circuit]] = {
    "nlogn": lambda n, labeling: nlogn_circuit(n),
    "sim-switch": sim_switch_circuit,
    "sqrt": sqrt_circuit,
    "six-query": lambda n, labeling: six_query_n3(labeling),
    "superperm": superperm_sim_switch,
}

_WITNESS = re.compile(r"\bx=\d+")


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # "solve", "dense" or "reject"
    circuit: Circuit
    labeling: Labeling | None  # None: the pass's shared labeling, else a fresh factoradic one
    state_seed: int | None = None


@dataclass
class Inputs:
    jobs: list[Job]
    shared_n: int | None  # reject: one factoradic labeling per pass, shared
    speed_kernel: str = "python"  # the speed.py loop that matches the work
    notes: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    states: int = 0  # n! per job, summed
    gates: int = 0
    queries: int = 0
    rejected: int = 0
    witnessed: int = 0
    errors: list[str] = field(default_factory=list)


def setup(workload: str, seed: int, smoke: bool, tracer) -> Inputs:
    """Build the workload's inputs from ``seed``; no labeling is validated."""
    rng = random.Random(seed)

    def build(family: str, n: int, labeling: Labeling) -> Circuit:
        return tracer.call("algorithms.build", CONSTRUCTORS[family], n, labeling)

    if workload == "exhaustive-n8":
        n = 5 if smoke else 8
        jobs = [
            Job(f"{family}/n{n}/factoradic", "solve", build(family, n, FactoradicLabeling(n)), None)
            for family in ("nlogn", "sqrt")
        ]
        rng.shuffle(jobs)
        return Inputs(jobs, None)

    if workload == "labelings-n3-dense":
        labelings = tracer.call("perms.enumerate", enumerate_valid_labelings, 3)
        if smoke:
            labelings = labelings[:2]
        jobs = [
            Job(f"{family}/n3/{labeling.name}", "dense", build(family, 3, labeling),
                labeling, rng.randrange(2**31))
            for labeling in labelings
            for family in ("sim-switch", "six-query", "superperm")
        ]
        rng.shuffle(jobs)
        return Inputs(jobs, None, speed_kernel="blas")

    if workload == "reject-n7":
        n = 5 if smoke else 7
        originals = {
            family: build(family, n, FactoradicLabeling(n))
            for family in ("nlogn", "sim-switch", "sqrt")
        }
        with tracer.span("bench.mutate"):
            mutants = reject_suite(originals, build, seed)
        jobs = [Job(m.name, "reject", m.circuit, None) for m in mutants]
        return Inputs(jobs, n, notes=[f"mutant: {m.name}" for m in mutants])

    raise ValueError(f"unknown workload {workload!r}")


def _solve_all(profile, tracer) -> list:
    with tracer.span("algorithms.solve") as s:
        reports = [solve_profile(profile, y) for y in range(profile.modulus)]
        s.count = len(reports)
    return reports


def _run_solve(job: Job, labeling: Labeling, tracer, out: PassResult) -> bool:
    """`fpp run --y all`: every y must read back as itself."""
    profile = tracer.call("algorithms.phase_profile", phase_profile,
                          job.circuit, labeling, processes=1)
    out.queries += profile.query_count
    reports = _solve_all(profile, tracer)
    return profile.counts_match and all(r.solved_y == r.y for r in reports)


def _run_dense(job: Job, labeling: Labeling, tracer, out: PassResult) -> bool:
    """`fpp dense --y all`: dense y == symbolic y == y at peak probability."""
    validation = labeling.validate()
    if not validation.consistent:
        return False
    n = labeling.n
    profile = tracer.call("algorithms.phase_profile", phase_profile,
                          job.circuit, labeling, processes=1)
    out.queries += profile.query_count
    ok = True
    for y in range(labeling.size):
        units = tracer.call("densesim.build_promise_unitaries",
                            densesim.build_promise_unitaries, n, y, validation.table)
        result = tracer.call("densesim.run_dense", densesim.run_dense,
                             job.circuit, units, seed=job.state_seed)
        with tracer.span("algorithms.solve") as s:
            symbolic = solve_profile(profile, y).solved_y
            s.count = 1
        ok &= (
            result.measured_y == symbolic == y
            and result.peak_probability >= 1 - densesim.PROBABILITY_TOL
        )
    return ok


def _run_reject(job: Job, labeling: Labeling, tracer, out: PassResult) -> bool:
    """The job must not pass as a whole (`fpp run` would exit 1)."""
    profile = tracer.call("algorithms.phase_profile", phase_profile,
                          job.circuit, labeling, processes=1)
    out.queries += profile.query_count
    reports = _solve_all(profile, tracer)
    passed = profile.counts_match and all(r.passed for r in reports)
    if not passed:
        out.rejected += 1
        out.witnessed += bool(_WITNESS.search(profile.failure or ""))
    return not passed


_RUNNERS = {"solve": _run_solve, "dense": _run_dense, "reject": _run_reject}


def run_pass(inputs: Inputs, tracer) -> PassResult:
    """Run every job once, closed loop, and check each verdict."""
    out = PassResult()
    t0 = time.perf_counter()
    with tracer.span(PASS):
        shared = None
        if inputs.shared_n is not None:
            shared = FactoradicLabeling(inputs.shared_n)
            shared.validate()
        for job in inputs.jobs:
            labeling = job.labeling or shared or FactoradicLabeling(job.circuit.n)
            out.attempted += 1
            out.states += factorial(job.circuit.n)
            out.gates += len(job.circuit.gates)
            with tracer.span(JOB, job=job.name):
                try:
                    ok = _RUNNERS[job.kind](job, labeling, tracer, out)
                    error = "wrong verdict"
                except Exception as exc:  # an error is a wrong verdict, never a rejection
                    ok = False
                    error = f"{type(exc).__name__}: {exc}"
            if not ok:
                out.failed += 1
                out.errors.append(f"{job.name}: {error}")
    out.wall = time.perf_counter() - t0
    return out


def pool2_speedup(n: int) -> tuple[float, bool]:
    """sqrt sweep with a 2-process pool against the serial sweep, on one
    pre-validated labeling; also whether both gave the same profile."""
    labeling = FactoradicLabeling(n)
    labeling.validate()
    circuit = sqrt_circuit(n, labeling)
    t0 = time.perf_counter()
    serial = phase_profile(circuit, labeling, processes=1)
    t1 = time.perf_counter()
    pooled = phase_profile(circuit, labeling, processes=2)
    t2 = time.perf_counter()
    return (t1 - t0) / (t2 - t1), serial == pooled
