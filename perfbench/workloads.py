"""The benchmark's serving workloads and the seeded inputs each one replays.

Every workload serves ``serve-llama`` with seeded random weights under one
engine configuration.  Open-loop workloads replay an arrival schedule;
closed-loop workloads keep a fixed number of clients busy.  Inputs depend
only on the workload, the seed and the run length, never on the code
under test.  Why each workload exists is recorded in ``BENCHMARK.json``
and ``README.md``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import List, Tuple

import numpy as np

from repro.serving import EngineConfig, TraceRequest, make_trace

MODEL = "serve-llama"
WEIGHT_SEED = 0  # model weights are the same for every workload seed
ENGINE = EngineConfig(max_batch=16, token_budget=128, n_blocks=512, block_tokens=16)

# Warm-up traffic (set-up, not measured): one full batch whose prompts
# fill the token budget, so the fast-path arena has seen the biggest
# prefill chunk and a 16-row decode before the timed region starts.
WARMUP_REQUESTS = 16
WARMUP_PROMPT = 8
WARMUP_NEW_TOKENS = 4
WARMUP_SEED = 12345


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str                  # "open": arrival schedule; "closed": clients
    variant: str               # VariantRegistry spec
    tp: int
    family: str                # make_trace family
    params: dict = field(default_factory=dict)
    rate_rps: float = 0.0      # open loop: offered rate
    window_per_s: float = 0.0  # open loop: virtual trace seconds per run second
    clients: int = 0           # closed loop: concurrent clients

    def n_requests(self, seconds: float) -> int:
        """Open loop: arrivals in the trace window; closed loop: size of
        the request pool the clients draw from (more than a run uses)."""
        if self.loop == "open":
            return max(2, round(self.rate_rps * self.window_per_s * seconds))
        return self.clients + max(16, round(40 * seconds))

    def inputs(self, seed: int, seconds: float, vocab_size: int) -> List[TraceRequest]:
        """The run's requests, a pure function of (workload, seed, seconds)."""
        n = self.n_requests(seconds)
        rate = self.rate_rps if self.loop == "open" else 1.0
        trace = make_trace(self.family, n, rate, vocab_size, seed=seed, **self.params)
        if self.loop == "closed":
            return trace  # arrival times unused: clients issue back to back
        # Condition the Poisson process on exactly n arrivals in the window,
        # so the offered load is the nominal rate on every seed.
        window = self.window_per_s * seconds
        scale = window / trace[-1].arrival_time
        return [replace(r, arrival_time=r.arrival_time * scale) for r in trace]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="chat",
            loop="open", variant="dense", tp=1, family="poisson",
            params={"prompt_len": (16, 64), "new_tokens": (16, 64)},
            rate_rps=3.0, window_per_s=2.0,
        ),
        Workload(
            name="tenants",
            loop="open", variant="dense", tp=1, family="prefix",
            params={"n_tenants": 8, "prefix_tokens": 128, "suffix_len": (8, 32),
                    "new_tokens": (8, 32), "zipf_alpha": 1.0},
            rate_rps=4.0, window_per_s=2.0,
        ),
        Workload(
            name="batch-rank8-int8",
            loop="closed", variant="rank8-int8", tp=1, family="poisson",
            params={"prompt_len": (16, 64), "new_tokens": (32, 96)},
            clients=16,
        ),
        Workload(
            name="batch-dense-tp2",
            loop="closed", variant="dense", tp=2, family="poisson",
            params={"prompt_len": (16, 64), "new_tokens": (32, 96)},
            clients=16,
        ),
    )
}


def warmup_inputs(vocab_size: int) -> List[Tuple[np.ndarray, int]]:
    rng = np.random.default_rng(WARMUP_SEED)
    return [
        (rng.integers(0, vocab_size, size=WARMUP_PROMPT, dtype=np.int64), WARMUP_NEW_TOKENS)
        for _ in range(WARMUP_REQUESTS)
    ]


def inputs_digest(inputs: List[TraceRequest]) -> str:
    """SHA-256 over every field the engine sees, for reproducibility checks."""
    digest = hashlib.sha256()
    for request in inputs:
        digest.update(np.float64(request.arrival_time).tobytes())
        digest.update(np.int64(request.max_new_tokens).tobytes())
        digest.update(request.prompt.astype(np.int64).tobytes())
    return digest.hexdigest()
