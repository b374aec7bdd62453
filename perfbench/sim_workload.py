"""The ``sim-netlist`` workload: gate-level simulation and fault coverage.

Four designs are simulated through ``simulate_batch(backend="auto")`` at
1 and 16 vectors per call (fixed per-call cost and ``auto`` routing) and
at 1024 and 16384 (level-vectorized evaluation), then fault coverage runs
on the two speculative designs at 1024 vectors.

On a shared 2-vCPU host these calls run at two speeds about 1.6x apart,
core by core, as the host's other tenants come and go; a regime lasts
from seconds to whole runs, so the median of a run lands in either.  The
end-to-end figures are therefore taken at the low quantile
:data:`LOW_QUANTILE` of CPU times: the cost of the code in the fast
regime, which a run needs to meet for only a small share of its rounds.
To meet it on either core, the rounds run in two processes side by side,
each pinned to its own core.  Every call is timed twice: wall time for
the workload's own figures, and the calling thread's CPU time, which
leaves out time the thread sat preempted or stolen by the hypervisor,
for the end-to-end ones.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from typing import Dict, List, Tuple

from report import Metric, Summary, latency_metrics, median, percentile
from tracing import measured_pass

#: (architecture, width, window) of the simulated designs.
DESIGNS = (
    ("vlcsa1", 64, 8),
    ("vlcsa2", 256, 12),
    ("designware", 64, None),
    ("kogge_stone", 64, None),
)

#: Designs whose stuck-at fault coverage is measured.
FAULT_DESIGNS = (("vlcsa1", 64, 8), ("vlcsa2", 256, 12))

#: Small calls per design and size in one round.
SMALL_CALLS = 8

#: Distinct input batches prepared per (design, size).
BATCHES = {1: 32, 16: 32, 1024: 4, 16384: 1}

#: Calls compared against the reference interpreter, per design.
CHECKED_CALLS = 3

#: Faults per design compared against the reference fault simulator.
CHECKED_FAULTS = 32

#: Timed fault-coverage repetitions (the median is reported).
FAULT_REPEATS = 3

#: Quantile of the CPU times behind the end-to-end figures.
LOW_QUANTILE = 0.01

_JOIN_TIMEOUT_S = 60


class SimNetlist:
    """Small and large ``simulate_batch`` calls, then fault coverage."""

    name = "sim-netlist"

    def __init__(self, seed: int, workdir, tiny: bool = False, plant: str = ""):
        self.seed = seed
        self.rng = random.Random(seed)
        self.check_rng = random.Random(seed ^ 0x5EED)
        self.tiny = tiny
        self.plant = plant
        self.sizes = (1, 16, 64, 256) if tiny else (1, 16, 1024, 16384)
        self.circuits: Dict[tuple, object] = {}
        self.inputs: Dict[Tuple[tuple, int], list] = {}
        # One entry per call: (design, vectors, wall ms, CPU ms).
        self.calls: List[Tuple[tuple, int, float, float]] = []
        # Per round, the summed CPU time of its small (1- and 16-vector) calls.
        self.round_ms: List[float] = []
        # First output of each checked call, in this process; then per worker.
        self.outputs: Dict[Tuple[tuple, int, int], dict] = {}
        self.worker_outputs: List[Dict[Tuple[tuple, int, int], dict]] = []
        self.wanted: set = set()
        self.fault_s: List[float] = []

    def setup(self) -> None:
        """Elaborate and compile every design, warm each call size once."""
        from repro.engine.elab import build_design
        from repro.netlist import _accel
        from repro.netlist.compile import compile_circuit
        from repro.netlist.simulate import simulate_batch

        _accel.load()  # build or load the C transpose library up front
        for design in DESIGNS:
            circuit = build_design(*design)
            compile_circuit(circuit)
            self.circuits[design] = circuit
        for design, circuit in self.circuits.items():
            for size in self.sizes:
                simulate_batch(circuit, self._draw(circuit, size))

    def _draw(self, circuit, size: int) -> dict:
        return {
            name: [self.rng.getrandbits(len(nets)) for _ in range(size)]
            for name, nets in circuit.input_buses.items()
        }

    def prepare(self) -> None:
        """Seeded operand batches, and which calls are checked later."""
        for design, circuit in self.circuits.items():
            for size in self.sizes:
                count = BATCHES.get(size, 4)
                self.inputs[(design, size)] = [self._draw(circuit, size) for _ in range(count)]
            for _ in range(CHECKED_CALLS):
                size = self.check_rng.choice(self.sizes[:3])
                batch = self.check_rng.randrange(len(self.inputs[(design, size)]))
                self.wanted.add((design, size, batch))

    def _call(self, design: tuple, size: int, serial: int) -> float:
        """One timed call; returns its CPU milliseconds."""
        from repro.netlist.simulate import simulate_batch

        batches = self.inputs[(design, size)]
        batch = serial % len(batches)
        start = time.perf_counter()
        start_cpu = time.thread_time()
        out = simulate_batch(self.circuits[design], batches[batch])
        cpu_ms = (time.thread_time() - start_cpu) * 1e3
        wall_ms = (time.perf_counter() - start) * 1e3
        self.calls.append((design, size, wall_ms, cpu_ms))
        key = (design, size, batch)
        if key in self.wanted and key not in self.outputs:
            self.outputs[key] = out
        return cpu_ms

    def _round(self, serial: int) -> None:
        small, large = self.sizes[:2], self.sizes[2:]
        order = list(DESIGNS)
        self.rng.shuffle(order)
        small_ms = 0.0
        for design in order:
            for i in range(SMALL_CALLS):
                for size in small:
                    small_ms += self._call(design, size, serial * SMALL_CALLS + i)
            self._call(design, large[0], serial)
        # The largest size once per round, rotating through the designs.
        self._call(DESIGNS[serial % len(DESIGNS)], large[1], serial)
        self.round_ms.append(small_ms)

    def _rounds(self, deadline: float) -> None:
        """Rounds until ``deadline`` (``perf_counter``), ending on a whole
        rotation of the largest size so every design gets as many of those."""
        serial = 0
        while serial % len(DESIGNS) or time.perf_counter() < deadline:
            self._round(serial)
            serial += 1

    def _worker(self, deadline: float, conn, cpu) -> None:
        """The forked second worker: its own call order, the same inputs."""
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        self.rng = random.Random(f"{self.seed}/worker")
        self.calls, self.round_ms, self.outputs = [], [], {}
        self._rounds(deadline)
        conn.send((self.calls, self.round_ms, self.outputs))
        conn.close()

    def run(self, seconds: float) -> None:
        """Rounds of calls in two workers until ``seconds`` have passed,
        then fault coverage."""
        import repro.netlist.faults as faults

        # One core each, so the scheduler cannot time-slice both workers
        # on one core while the other idles.
        allowed = os.sched_getaffinity(0)
        cpus = sorted(allowed)[:2] if len(allowed) > 1 else [None, None]
        deadline = time.perf_counter() + seconds
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        helper = context.Process(target=self._worker, args=(deadline, send, cpus[1]))
        helper.start()
        send.close()
        try:
            if cpus[0] is not None:
                os.sched_setaffinity(0, {cpus[0]})
            self._rounds(deadline)
            calls, round_ms, outputs = receive.recv()
        finally:
            os.sched_setaffinity(0, allowed)
            receive.close()
            helper.join(_JOIN_TIMEOUT_S)
            if helper.is_alive():
                helper.terminate()
                helper.join()
        self.calls += calls
        self.round_ms += round_ms
        self.worker_outputs = [self.outputs, outputs]
        for _ in range(FAULT_REPEATS):
            total = 0.0
            for design in FAULT_DESIGNS:
                vectors = self.inputs[(design, self.sizes[2])][0]
                start = time.perf_counter()
                faults.fault_coverage(self.circuits[design], vectors)
                total += time.perf_counter() - start
            self.fault_s.append(total)

    def check(self) -> List[str]:
        """Sampled calls against the reference interpreter; sampled faults
        against the reference fault simulator."""
        from repro.netlist.faults import (
            enumerate_faults,
            fault_coverage,
            fault_coverage_reference,
        )
        from repro.netlist.simulate import simulate_batch_reference

        problems = []
        if self.plant == "sim" and self.outputs:
            out = self.outputs[min(self.outputs, key=repr)]
            bus = sorted(out)[0]
            out[bus] = [out[bus][0] ^ 1] + list(out[bus][1:])
        for worker, outputs in enumerate(self.worker_outputs):
            for design, size, batch in sorted(outputs, key=repr):
                inputs = self.inputs[(design, size)][batch]
                expected = simulate_batch_reference(self.circuits[design], inputs)
                if expected != outputs[(design, size, batch)]:
                    problems.append(f"worker {worker}: {design} {size} vectors batch "
                                    f"{batch}: outputs differ from the reference "
                                    f"interpreter")
            missing = len(self.wanted) - len(outputs)
            if missing:
                problems.append(f"worker {worker}: {missing} checked call(s) never ran")
        for design in FAULT_DESIGNS:
            circuit = self.circuits[design]
            vectors = self.inputs[(design, self.sizes[2])][0]
            sample = self.check_rng.sample(enumerate_faults(circuit), CHECKED_FAULTS)
            fast = fault_coverage(circuit, vectors, faults=sample)
            slow = fault_coverage_reference(circuit, vectors, faults=sample)
            if (fast.total, fast.detected, fast.undetected) != (
                slow.total, slow.detected, slow.undetected
            ):
                problems.append(f"{design}: fault report differs from the reference")
        return problems

    def summary(self) -> Summary:
        small = [wall for _, size, wall, _ in self.calls if size <= self.sizes[1]]
        large = [(size, wall, cpu) for _, size, wall, cpu in self.calls
                 if size >= self.sizes[2]]
        vectors = sum(size for size, _, _ in large)
        large_s = sum(wall for _, wall, _ in large) / 1e3
        extra = [Metric("sim_vectors_per_s", vectors / large_s, "1/s", len(large),
                        f"over the {self.sizes[2]}- and {self.sizes[3]}-vector calls, "
                        f"wall time")]
        extra += latency_metrics("sim_call_ms", small,
                                 f"{self.sizes[0]}- and {self.sizes[1]}-vector calls")
        extra.append(Metric("fault_s", median(self.fault_s), "s", len(self.fault_s),
                            "fault coverage of vlcsa1@64 + vlcsa2@256, median"))
        # Per-call times cluster by design and size, so their median sits on
        # a boundary between clusters and jumps with small shifts; the
        # end-to-end latency is therefore taken per round of small calls.
        mix_vectors, mix_s = self._large_mix()
        return Summary(
            work=mix_vectors, work_s=mix_s,
            work_unit=f"simulated vectors of one round's {self.sizes[2]}- and "
                      f"{self.sizes[3]}-vector calls, each at the p{LOW_QUANTILE * 100:g} "
                      f"CPU time of its design and size,",
            op_ms=self.round_ms, op_quantile=LOW_QUANTILE,
            op_label=f"CPU time of a round of {len(DESIGNS) * SMALL_CALLS * 2} small "
                     f"calls ({self.sizes[0]} and {self.sizes[1]} vectors, 4 designs)",
            attempted=len(self.calls) + len(self.fault_s), failed=0, extra=extra,
        )

    def _large_mix(self) -> Tuple[float, float]:
        """Vectors and CPU seconds of one round's large calls (one per design
        at the third size, a quarter of one per design at the fourth), each
        call timed at the low quantile of its design's and size's CPU times."""
        cpu: Dict[Tuple[tuple, int], List[float]] = {}
        for design, size, _, cpu_ms in self.calls:
            cpu.setdefault((design, size), []).append(cpu_ms)
        vectors = seconds = 0.0
        for design in DESIGNS:
            for size, share in ((self.sizes[2], 1.0), (self.sizes[3], 1 / len(DESIGNS))):
                vectors += share * size
                seconds += share * percentile(cpu[(design, size)], LOW_QUANTILE) / 1e3
        return vectors, seconds

    def layer_counters(self) -> Dict[str, float]:
        return {}

    def trace_pass(self, tracer) -> Dict[str, float]:
        """Fresh elaboration and compile, a fixed call mix, fault coverage."""
        import repro.engine.elab as elab
        import repro.netlist.compile as compile_mod
        import repro.netlist.faults as faults
        from repro.engine.cache import ElaborationCache
        from repro.netlist.simulate import simulate_batch

        out: Dict[str, float] = {}
        total = detected = 0
        with measured_pass(tracer, out):
            fresh = {}
            for design in DESIGNS:
                circuit = elab.build_design(*design)
                compile_mod.compile_circuit(circuit, cache=ElaborationCache())
                fresh[design] = circuit
            for design, circuit in fresh.items():
                for size in self.sizes:
                    repeats = SMALL_CALLS if size <= self.sizes[1] else 1
                    for i in range(repeats):
                        batches = self.inputs[(design, size)]
                        with tracer.span("sim.simulate_batch"):
                            simulate_batch(circuit, batches[i % len(batches)])
            for design in FAULT_DESIGNS:
                vectors = self.inputs[(design, self.sizes[2])][0]
                report = faults.fault_coverage(fresh[design], vectors)
                total += report.total
                detected += report.detected
        out.update({"faults.total": total, "faults.detected": detected})
        return out

    def close(self) -> None:
        pass
