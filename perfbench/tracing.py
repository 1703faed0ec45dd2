"""Per-layer timing for the traced run, kept entirely in the benchmark.

Nothing under `src/` changes.  The layers are timed at their public entry
points, from outside:

* the backend handed to `synthesize` is `TimedSolver`, a delegate around the
  real backend, which the `SolverBackend` protocol allows;
* `encode_bmc`, `decode` and `replay_verify`, as `gssynth.driver` looks them
  up, are swapped for timing wrappers by `traced_driver` and restored on exit;
* `write_dimacs` and the generator functions are timed where the benchmark
  calls them, with `LayerTrace.timed`.

`oracle` runs outside every timed region; `graphs` has no figure of its own,
its time counts inside the layers that call it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator


class LayerTrace:
    """Seconds and counts per layer, summed over a run."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.probe_s_max = 0.0

    def add_time(self, key: str, seconds: float) -> None:
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds

    def add_count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def layer_seconds(self) -> float:
        """Seconds spent so far in the layers `synthesize` calls into."""
        return sum(self.seconds.get(key, 0.0) for key in ("encode", "solve", "decode", "replay"))

    def timed(self, key: str, function, *args):
        start = time.perf_counter()
        result = function(*args)
        self.add_time(key, time.perf_counter() - start)
        return result


class TimedSolver:
    """SolverBackend delegate that times every call and files it by answer."""

    def __init__(self, inner, trace: LayerTrace) -> None:
        self.inner = inner
        self.name = inner.name
        self.trace = trace

    def solve(self, formula, timeout=None):
        start = time.perf_counter()
        result = self.inner.solve(formula, timeout)
        elapsed = time.perf_counter() - start
        self.trace.add_time("solve", elapsed)
        self.trace.add_time(f"solve_{result.status.value}", elapsed)
        self.trace.add_count("probes", 1)
        self.trace.probe_s_max = max(self.trace.probe_s_max, elapsed)
        return result


@contextmanager
def traced_driver(trace: LayerTrace) -> Iterator[None]:
    """Time the encoder, decoder and replay calls that the driver makes."""
    import gssynth.driver as driver

    originals = {name: getattr(driver, name) for name in ("encode_bmc", "decode", "replay_verify")}

    def encode_bmc(inst, num_states):
        start = time.perf_counter()
        formula, layout = originals["encode_bmc"](inst, num_states)
        trace.add_time("encode", time.perf_counter() - start)
        trace.add_count("clauses", len(formula.clauses))
        trace.add_count("vars", formula.num_vars)
        return formula, layout

    def decode(assignment, layout):
        return trace.timed("decode", originals["decode"], assignment, layout)

    def replay_verify(inst, witness):
        return trace.timed("replay", originals["replay_verify"], inst, witness)

    driver.encode_bmc = encode_bmc
    driver.decode = decode
    driver.replay_verify = replay_verify
    try:
        yield
    finally:
        for name, function in originals.items():
            setattr(driver, name, function)
