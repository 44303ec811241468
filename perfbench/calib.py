"""Host-speed calibration for the timed passes.

On a few cores of a shared host, speed changes by up to about 1.5x within
minutes as neighbours come and go (measured on a 2-vCPU Xeon guest with
CPython 3.11.7). Raw job times follow that drift, so runs of the same code
minutes apart disagree by more than any useful bound. A `Calibrator` interleaves a fixed pure-Python
workload (`unit`) with the jobs: each job owes `share` of its time in units,
and the debt is paid as soon as it reaches one unit. A job expected to run
long (from its time in the previous pass) gets half of it paid just before
it starts. Every job is then paired with the mean unit time of the batches
just before and just after it, and the job's time is divided by the host's
speed factor

    factor = measured unit time / UNIT_REF_S

so the reported times are "seconds on a host where one unit takes
UNIT_REF_S". A slower program still reads slower; a slower host does not.
On that guest, two pure-Python workloads interleaved at this grain kept
their ratio within 4% over three minutes, while each alone moved by 26%.
"""

from __future__ import annotations

import time

# One unit on a 2-vCPU Xeon guest with CPython 3.11 when the host is quiet;
# it only fixes the scale of the reported times.
UNIT_REF_S = 250e-6
SHARE = 0.25


def unit() -> int:
    """A fixed mix of the interpreter work prlab does: dict and set updates
    keyed by small tuples, integer arithmetic, list building and sorting."""
    counts: dict = {}
    acc = 0
    for i in range(800):
        k = (i * 7919) % 211
        key = (k, i & 7)
        counts[key] = counts.get(key, 0) + 1
        acc += len(counts) ^ k
    residues = {k[0] % 97 for k in counts}
    ordered = sorted((x * x) % 101 for x in range(200))
    return acc + len(residues) + ordered[0]


class Calibrator:
    """Pays calibration debt between jobs and hands back one speed factor
    per job of a pass."""

    def __init__(self, share: float = SHARE):
        self.share = share
        self.debt = 0.0
        self.unit_s = UNIT_REF_S
        self.pending: list[int] = []
        self.factors: list[float] = []
        self.spent = 0.0
        self.units = 0
        self.prev = self._measure(40)

    def _measure(self, count: int) -> tuple[float, int]:
        """Run `count` units; returns (seconds, count)."""
        t0 = time.perf_counter()
        for _ in range(count):
            unit()
        elapsed = time.perf_counter() - t0
        self.spent += elapsed
        self.units += count
        self.unit_s = elapsed / count
        return elapsed, count

    def start_pass(self, jobs: int) -> None:
        self.factors = [0.0] * jobs
        self.pending.clear()
        self.debt = 0.0

    def before_job(self, expected_s: float) -> bool:
        """Pays half the debt of a job expected to take `expected_s` up front
        when that half is at least one unit; returns whether it did."""
        half = self.share * expected_s / 2
        if half < self.unit_s:
            return False
        self.debt += half
        self._pay()
        return True

    def after_job(self, index: int, seconds: float, prepaid: bool = False) -> None:
        self.pending.append(index)
        self.debt += self.share * seconds / (2 if prepaid else 1)
        if self.debt >= self.unit_s:
            self._pay()

    def _pay(self) -> None:
        """Run the units owed; the jobs since the last batch get the mean
        unit time of that batch and this one, weighted by their units."""
        batch = self._measure(max(1, round(self.debt / self.unit_s)))
        factor = (self.prev[0] + batch[0]) / (self.prev[1] + batch[1]) / UNIT_REF_S
        for index in self.pending:
            self.factors[index] = factor
        self.pending.clear()
        self.debt = 0.0
        self.prev = batch

    def end_pass(self) -> list[float]:
        """The factors of the pass, paying what is still owed."""
        if self.pending:
            self._pay()
        return self.factors

    @property
    def mean_factor(self) -> float:
        return self.spent / self.units / UNIT_REF_S
