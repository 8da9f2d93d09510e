"""Single-threaded load generator on a virtual clock.

The clock advances by the measured wall time of every ``engine.submit``
and ``engine.step`` call, so admission, scheduling and commit costs count
as well as the forward pass, and it jumps idle gaps between arrivals.
Each request is timed from its due time; each output token is stamped
with the clock at the end of the step that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Sequence

from repro.serving import (
    GenerationRequest,
    InferenceEngine,
    RequestState,
    StepReport,
    TraceRequest,
)


@dataclass
class Sample:
    """One request as the generator saw it."""

    request: GenerationRequest
    due: float
    submitted: float
    token_times: List[float] = field(default_factory=list)


@dataclass
class StepSample:
    wall_s: float
    report: StepReport


class LoadGenerator:
    """Drives one engine; ``on_step(report)`` runs after every step, off
    the clock (traced runs collect their per-layer numbers there)."""

    def __init__(self, engine: InferenceEngine, on_step: Optional[Callable] = None) -> None:
        self.engine = engine
        self.on_step = on_step
        self.now = 0.0
        self.samples: List[Sample] = []
        self.steps: List[StepSample] = []
        self.cancelled_at_end = 0
        self._live: List[Sample] = []

    def submit(self, item: TraceRequest, due: float) -> Sample:
        submitted = self.now
        started = perf_counter()
        request = self.engine.submit(item.prompt, item.max_new_tokens, now=due)
        self.now += perf_counter() - started
        sample = Sample(request, due, submitted)
        self.samples.append(sample)
        if not request.done:
            self._live.append(sample)
        return sample

    def step(self) -> List[Sample]:
        """One engine step; returns the samples that became terminal."""
        started = perf_counter()
        report = self.engine.step(self.now)
        wall = perf_counter() - started
        self.now += wall
        self.steps.append(StepSample(wall, report))
        finished = []
        live = []
        for sample in self._live:
            stamps = sample.token_times
            stamps.extend([self.now] * (sample.request.n_generated - len(stamps)))
            (finished if sample.request.done else live).append(sample)
        self._live = live
        if self.on_step is not None:
            self.on_step(report)
        return finished

    def run_open(self, items: Sequence[TraceRequest]) -> None:
        """Submit each request when the clock passes its arrival time."""
        cursor = 0
        while cursor < len(items) or self.engine.has_work:
            while cursor < len(items) and items[cursor].arrival_time <= self.now:
                self.submit(items[cursor], due=items[cursor].arrival_time)
                cursor += 1
            if not self.engine.has_work:
                if cursor < len(items):
                    self.now = items[cursor].arrival_time  # idle: jump the gap
                continue
            self.step()

    def run_closed(self, items: Sequence[TraceRequest], clients: int, window_s: float) -> None:
        """``clients`` callers each send their next request as soon as the
        previous one ends, until the clock passes ``window_s``; requests
        still in flight then are cancelled and counted apart."""
        pending = iter(items)
        ready = [0.0] * clients  # due times of idle clients
        while self.now < window_s:
            for due in ready:
                item = next(pending, None)
                if item is not None:
                    self.submit(item, due=due)
            ready = []
            if not self.engine.has_work:
                break  # request pool exhausted
            ready = [self.now for _ in self.step()]
        for sample in self._live:
            self.engine.cancel(sample.request.request_id, now=self.now)
            self.cancelled_at_end += 1
        self._live = []

    # -- outcome --------------------------------------------------------------
    def finished(self) -> List[Sample]:
        return [s for s in self.samples if s.request.state is RequestState.FINISHED]

    def failed(self) -> List[Sample]:
        """Rejected, or cancelled by the engine itself (a deadline); the
        generator's own cancellations at window end are not failures."""
        return [
            s for s in self.samples
            if s.request.state is RequestState.REJECTED
            or (s.request.state is RequestState.CANCELLED
                and s.request.finish_reason != "cancelled")
        ]
