"""In-process continuous-batching inference engine.

Iteration-level scheduling in the style of Orca/vLLM: every call to
:meth:`InferenceEngine.step` schedules *prefill chunks* of newly admitted
requests next to *single-token decode steps* of all running requests,
bounded by a per-step token budget, and runs them through the model's
ragged cached forward: one pass for the single-token rows and one for the
multi-token rows, so decode rows never pad to a chunk's width.  KV state
lives in one shared preallocated :class:`~repro.serving.paged.PagedKVStore`;
when it runs dry the youngest running request is preempted (pages
released, tokens kept) and later re-prefilled, so results are unchanged.

The engine is clock-agnostic: callers pass ``now`` into :meth:`submit` /
:meth:`step`, and the step's *measured* duration advances whatever clock
the caller maintains (the benchmark replays a Poisson trace on a virtual
clock driven by real compute durations).  Deadlines, TTFT, and queue waits
are all expressed on that clock.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import PoolExhaustedError, ServingError
from repro.runtime.decode import DecodeState
from repro.serving.metrics import EngineMetrics
from repro.serving.paged import PagedKVStore
from repro.serving.request import (
    ACTIVE_STATES,
    GenerationRequest,
    GenerationResult,
    RequestState,
)


@dataclass(frozen=True)
class EngineConfig:
    """Engine sizing knobs."""

    max_batch: int = 16         # max concurrently running requests
    token_budget: int = 64      # max tokens processed per step (prefill + decode)
    n_blocks: int = 256         # KV pool size, in blocks
    block_tokens: int = 16      # token slots per block
    max_queue: int = 4096       # admission queue bound
    spec_k: int = 4             # draft tokens per speculative cycle (the cap)
    spec_blocks: Optional[int] = None  # drafter KV pool size (None: n_blocks)
    # Acceptance-aware draft lengths: each request tracks an EMA of its own
    # acceptance rate and drafts K in [1, spec_k] proportional to it, so a
    # request the drafter predicts well speculates deep while one it keeps
    # missing on stops wasting drafter steps (committed tokens are
    # unchanged either way — adaptation only moves the draft/verify split).
    spec_adaptive: bool = False
    spec_ema_alpha: float = 0.5  # acceptance-EMA weight (fresh cycle share)
    # Cross-request prefix sharing: the paged store's radix index over
    # token ids lets requests with a common prefix skip its prefill and
    # share pages copy-on-write.  Off, admission does no prefix lookup and
    # no token ids are noted, so nothing seals: every request prefills its
    # whole prompt into private pages (the identity baseline).
    prefix_sharing: bool = True

    def __post_init__(self) -> None:
        if self.max_batch <= 0 or self.token_budget <= 0:
            raise ServingError("max_batch and token_budget must be positive")
        if self.token_budget < self.max_batch:
            raise ServingError(
                "token_budget must be >= max_batch so every running request "
                "can decode one token per step"
            )
        if self.max_queue <= 0:
            raise ServingError("max_queue must be positive")
        if self.spec_k < 1:
            raise ServingError("spec_k must be >= 1")
        if self.spec_blocks is not None and self.spec_blocks <= 0:
            raise ServingError("spec_blocks must be positive when set")
        if not 0.0 < self.spec_ema_alpha <= 1.0:
            raise ServingError("spec_ema_alpha must be in (0, 1]")


@dataclass(frozen=True)
class StepReport:
    """What one engine iteration did."""

    now: float
    duration_s: float
    decode_rows: int
    prefill_rows: int
    prefill_tokens: int
    finished: Tuple[int, ...] = ()
    committed: int = 0       # tokens emitted this step (all rows)
    spec_drafted: int = 0    # drafter proposals verified this step
    spec_accepted: int = 0   # proposals accepted this step
    swaps: int = 0           # mid-flight variant hot-swaps this step

    @property
    def n_rows(self) -> int:
        return self.decode_rows + self.prefill_rows

    @property
    def idle(self) -> bool:
        return self.n_rows == 0


class InferenceEngine:
    """Continuous-batching greedy-decoding engine over one model.

    With a ``router`` and a ``variants`` map the engine becomes
    *multi-variant*: each step the router picks, per request, the cheapest
    decomposed variant satisfying the request's quality floor at current
    load, and the step's ragged forward is grouped by variant.  KV caches
    hold variant-agnostic token state, so a running request's variant can
    change between steps with no recomputation (factor-structured weight
    hot-swap); only *sealing* new shared pages is frozen after a mid-decode
    swap, because a sealed page advertises "computed by the admission
    variant" to future prefix matches.
    """

    def __init__(
        self,
        model,
        config: Optional[EngineConfig] = None,
        timer: Callable[[], float] = time.perf_counter,
        drafter=None,
        router=None,
        variants: Optional[Dict[str, object]] = None,
    ) -> None:
        """``drafter`` — an optional cheaper model (canonically a decomposed
        variant of ``model``) enabling per-request speculative decoding via
        ``submit(..., speculative=True)``.  It gets its own KV pool
        (``config.spec_blocks`` blocks) so draft state never competes with
        verifier admission control.

        ``router`` — a :class:`~repro.serving.qos.RankRouter` (or scripted
        double) enabling adaptive variant routing; requires ``variants``
        mapping every ladder spec to a servable model.  ``model`` may be
        None in that case (the ladder's best variant anchors the pool)."""
        if router is not None:
            if not variants:
                raise ServingError("a routed engine needs a variants map")
            missing = [spec for spec in router.ladder if spec not in variants]
            if missing:
                raise ServingError(
                    f"variants map missing ladder specs: {missing}"
                )
            if model is None:
                model = variants[router.ladder[0]]
        elif variants:
            raise ServingError("variants without a router have no effect")
        self.router = router
        self.variants: Dict[str, object] = dict(variants or {})
        for variant_model in self.variants.values():
            variant_model.eval()
        self.model = model
        self.model.eval()
        self.config = config or EngineConfig()
        self.timer = timer
        # Tensor-parallel model facades supply their own store holding one
        # KV slice per rank; a plain model gets the shared single store.
        self.pool = self._make_pool(model, self.config.n_blocks)
        self.drafter = drafter
        self.draft_pool = None
        if drafter is not None:
            drafter.eval()
            # The drafter's KV is private per request and rebuilt from the
            # prefix after preemption — never shared, so its caches are
            # acquired with no key and never noted.
            self.draft_pool = self._make_pool(
                drafter, self.config.spec_blocks or self.config.n_blocks
            )
        self.metrics = EngineMetrics()
        self._queue: Deque[GenerationRequest] = deque()
        self._running: List[GenerationRequest] = []
        self._requests: Dict[int, GenerationRequest] = {}
        self._next_id = 0

    def _make_pool(self, model, n_blocks: int):
        block_tokens = self.config.block_tokens
        if hasattr(model, "make_kv_pool"):
            return model.make_kv_pool(n_blocks=n_blocks, block_tokens=block_tokens)
        return PagedKVStore(model.config, n_blocks=n_blocks, block_tokens=block_tokens)

    def _model_for(self, spec: Optional[str]):
        return self.model if spec is None else self.variants[spec]

    # -- submission --------------------------------------------------------
    def submit(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        stop_token: Optional[int] = None,
        deadline: Optional[float] = None,
        now: float = 0.0,
        speculative: bool = False,
        qos=None,
    ) -> GenerationRequest:
        """Enqueue a request; may reject it immediately (graceful refusal).

        Rejection reasons: the prompt + generation budget cannot fit the
        model's context window, could never fit the KV pool, or the queue
        is full.  Rejected requests carry ``finish_reason`` and never raise.

        ``speculative=True`` decodes this request through the engine's
        drafter/verifier loop — same tokens, fewer verifier-bound steps.
        Requesting it on an engine built without a drafter is a
        configuration error and raises.

        ``qos`` — an optional :class:`~repro.serving.qos.QoSClass` tagging
        the request with a TTFT SLO (measured, soft) and a quality floor
        (enforced: the router never serves it below that variant).  A hard
        ``deadline_s`` on the class becomes this request's deadline unless
        an explicit one is given.  Floors require a routed engine.
        """
        if speculative and self.drafter is None:
            raise ServingError(
                "speculative submission requires an engine drafter; "
                "construct InferenceEngine(model, drafter=...)"
            )
        if qos is not None:
            if qos.ttft_slo_s is None and qos.ttft_slo_units is not None:
                raise ServingError(
                    f"QoS class {qos.name!r} SLO is unresolved; call "
                    ".resolve(unit_s) or qos_catalog(..., unit_s=...) first"
                )
            if self.router is not None:
                # Fail fast on floors the ladder cannot satisfy.
                self.router.variant_for(qos.quality_floor)
            if deadline is None and qos.deadline_s is not None:
                deadline = now + qos.deadline_s
        request = GenerationRequest(
            request_id=self._next_id,
            prompt=prompt,
            max_new_tokens=max_new_tokens,
            stop_token=stop_token,
            deadline=deadline,
            arrival_time=now,
            speculative=speculative,
            qos_name=qos.name if qos is not None else None,
            quality_floor=qos.quality_floor if qos is not None else None,
            ttft_slo_s=qos.ttft_slo_s if qos is not None else None,
        )
        self._next_id += 1
        self._requests[request.request_id] = request
        total = request.prompt.size + request.max_new_tokens
        if total > self.model.config.max_seq_len:
            self._reject(request, now, "context-overflow")
        elif not self.pool.fits(total):
            self._reject(request, now, "exceeds-pool")
        elif len(self._queue) >= self.config.max_queue:
            self._reject(request, now, "queue-full")
        else:
            self._queue.append(request)
        return request

    def cancel(self, request_id: int, now: float = 0.0) -> bool:
        """Cancel a queued or running request; returns False if terminal."""
        request = self._requests[request_id]
        if request.done:
            return False
        self._terminate(request, now, RequestState.CANCELLED, "cancelled")
        return True

    # -- state -------------------------------------------------------------
    @property
    def has_work(self) -> bool:
        return bool(self._queue) or bool(self._running)

    @property
    def n_running(self) -> int:
        return len(self._running)

    @property
    def n_queued(self) -> int:
        return len(self._queue)

    def request(self, request_id: int) -> GenerationRequest:
        return self._requests[request_id]

    def results(self) -> List[GenerationResult]:
        """Results of every terminal request, in submission order."""
        return [
            request.result()
            for request_id, request in sorted(self._requests.items())
            if request.done
        ]

    # -- the engine loop ---------------------------------------------------
    def step(self, now: float = 0.0) -> StepReport:
        """Run one continuous-batching iteration at virtual time ``now``.

        A step that runs rows is timed from here to its return, so
        admission, reservation and commit count in ``duration_s`` next to
        the draft and forward work."""
        started = self.timer()
        self._expire_deadlines(now)
        if self.router is not None:
            # Load is observed before admissions so the router reacts to
            # the backlog the step is about to face.
            self.router.observe(now, len(self._queue), self._active_count())
        rows = self._schedule(now)
        if not rows:
            return StepReport(
                now=now, duration_s=0.0, decode_rows=0, prefill_rows=0,
                prefill_tokens=0,
            )
        swaps = self._apply_routing(rows) if self.router is not None else 0
        # Draft phase (speculative rows only): drafter forwards happen here
        # so their cost lands inside the step's measured duration.
        feeds, draft_counts = self._draft_extend(rows)
        # The paged store indexes sealed pages by token ids; tell each
        # cache what the forward is about to append (chunk + any draft
        # tokens).  Unshared, nothing is noted, so nothing seals.
        if self.config.prefix_sharing:
            for (request, _), feed in zip(rows, feeds):
                request.cache.note_tokens(feed)
        lengths = np.asarray([feed.size for feed in feeds], dtype=np.int64)
        row_logits = self._forward_rows(rows, feeds, lengths)
        # Tokens are stamped when their logits exist; the step's duration
        # runs on through the commit below.
        completion = now + max(self.timer() - started, 1e-9)

        decode_rows = sum(1 for request, _ in rows if request.state is RequestState.DECODE)
        prefill_rows = len(rows) - decode_rows
        prefill_tokens = int(
            sum(
                chunk.size
                for request, chunk in rows
                if request.state is not RequestState.DECODE
            )
        )
        finished: List[int] = []
        committed = 0
        decode_committed = 0  # tokens from rows already decoding (metrics)
        spec_drafted = 0
        spec_accepted = 0
        preempted: List[GenerationRequest] = []
        for index, (request, chunk) in enumerate(rows):
            drafted = draft_counts[index]
            # The forward advanced the cache over the chunk *and* any draft
            # positions; prefix coverage is measured without the drafts.
            covered = request.cache.seq_len - drafted
            if covered < request.prefix.size:
                continue  # mid-prefill: more prompt chunks to come
            was_decode = request.state is RequestState.DECODE
            base = int(lengths[index]) - drafted - 1
            if drafted == 0:
                token = DecodeState.select(row_logits[index][base])
                self._append_token(request, token, completion)
                emitted = 1
            else:
                try:
                    accepted, emitted = self._accept_drafts(
                        request, row_logits[index], base, completion
                    )
                except PoolExhaustedError:
                    # The rollback had to fork a shared sealed page and the
                    # store had none; truncate changed nothing and no token
                    # was committed.  Recompute it: greedy re-prefill
                    # regenerates the same tokens.
                    self._preempt(request, preempted)
                    continue
                spec_drafted += drafted
                spec_accepted += accepted
                self.metrics.spec_steps += 1
                self.metrics.spec_drafted += drafted
                self.metrics.spec_accepted += accepted
                if self.config.spec_adaptive:
                    self._update_spec_k(request, accepted, drafted)
            committed += emitted
            if was_decode:
                decode_committed += emitted
            if request.done:
                finished.append(request.request_id)
        self._running = [r for r in self._running if r.state in ACTIVE_STATES]
        self._requeue(preempted)
        duration = max(self.timer() - started, 1e-9)
        if self.router is not None:
            self.router.note_step(duration)
        self.metrics.record_step(
            duration,
            decode_rows,
            prefill_rows,
            prefill_tokens,
            decode_tokens=decode_committed,
        )
        return StepReport(
            now=now,
            duration_s=duration,
            decode_rows=decode_rows,
            prefill_rows=prefill_rows,
            prefill_tokens=prefill_tokens,
            finished=tuple(finished),
            committed=committed,
            spec_drafted=spec_drafted,
            spec_accepted=spec_accepted,
            swaps=swaps,
        )

    def run_until_idle(self, now: float = 0.0, max_steps: int = 100000) -> float:
        """Step until all submitted work is terminal; returns the final time."""
        steps = 0
        while self.has_work:
            report = self.step(now)
            now += report.duration_s
            steps += 1
            if steps > max_steps:
                raise ServingError(f"engine failed to drain within {max_steps} steps")
        return now

    # -- adaptive routing --------------------------------------------------
    def _apply_routing(self, rows: List[Tuple[GenerationRequest, np.ndarray]]) -> int:
        """Re-map every scheduled row to the router's current choice.

        A change on a live cache is a *hot-swap*: the KV state carries over
        untouched (token state is variant-agnostic), but the cache stops
        sealing new shared pages — sealed pages advertise "computed by the
        admission-namespace variant" to future prefix matches, which would
        no longer hold.  Returns the number of swaps applied this step.
        """
        swaps = 0
        for request, _ in rows:
            spec = self.router.variant_for(request.quality_floor)
            if request.assign_variant(spec):
                swaps += 1
                self.metrics.variant_swaps += 1
                request.cache.freeze_sealing()
        return swaps

    def _forward_rows(
        self,
        rows: List[Tuple[GenerationRequest, np.ndarray]],
        feeds: List[np.ndarray],
        lengths: np.ndarray,
    ) -> List[np.ndarray]:
        """Run the step's rows through their models; per-row logits back.

        Rows batch into one ragged forward per (variant, single-token row)
        group, so decode rows never pad to the width of a prefill chunk or
        a speculative verify row and a mixed step costs about what its real
        tokens cost.  A router-less engine has one variant; results scatter
        back into row order so the commit loop stays group-agnostic.
        """
        groups: Dict[Tuple[Optional[str], bool], List[int]] = {}
        for index, (request, _) in enumerate(rows):
            key = (request.variant, bool(lengths[index] == 1))
            groups.setdefault(key, []).append(index)
        row_logits: List[np.ndarray] = [None] * len(rows)  # type: ignore[list-item]
        for (spec, _), indices in groups.items():
            model = self._model_for(spec)
            group_lengths = lengths[indices]
            batch = np.zeros((len(indices), int(group_lengths.max())), dtype=np.int64)
            for position, index in enumerate(indices):
                batch[position, : feeds[index].size] = feeds[index]
            caches = [rows[index][0].cache for index in indices]
            logits = model.forward_ragged(batch, caches, group_lengths)
            for position, index in enumerate(indices):
                row_logits[index] = logits.data[position]
        return row_logits

    # -- scheduling --------------------------------------------------------
    def _schedule(self, now: float) -> List[Tuple[GenerationRequest, np.ndarray]]:
        """Pick this step's rows: running requests first, then admissions."""
        rows: List[Tuple[GenerationRequest, np.ndarray]] = []
        scheduled = set()  # ids already placed in rows: never preempt these
        budget = self.config.token_budget
        preempted: List[GenerationRequest] = []
        for request in list(self._running):
            if request.state not in ACTIVE_STATES:
                continue  # preempted earlier in this very scheduling pass
            if budget <= 0:
                break
            prefix = request.prefix
            remaining = prefix[request.cache.seq_len :]
            take = min(remaining.size, budget)
            if take == 0:
                raise ServingError(
                    f"request {request.request_id} scheduled with empty chunk"
                )
            if not self._reserve_with_preemption(request, take, scheduled, preempted):
                continue  # request itself was preempted
            rows.append((request, remaining[:take]))
            scheduled.add(request.request_id)
            budget -= take
        self._requeue(preempted)

        while budget > 0 and self._queue and self._active_count() < self.config.max_batch:
            request = self._queue[0]
            prefix = request.prefix
            # Admission reserves *new* pages only: a paged store seeds the
            # cache with the longest indexed prefix (page-aligned, always
            # leaving >= 1 token to feed), so prefill covers just the
            # uncovered suffix.  Re-admission after preemption re-links the
            # same way — recompute-style preemption becomes mostly free.
            if self.router is not None:
                # Admission assignment: the variant that will compute this
                # cache's KV, and therefore the prefix-sharing namespace it
                # may match/seal pages in (cross-variant page reuse would
                # silently violate quality floors).
                if request.assign_variant(
                    self.router.variant_for(request.quality_floor)
                ):
                    # Re-admission after preemption under a different level:
                    # counts as a swap, but the fresh cache is computed
                    # entirely by the new variant, so sealing stays enabled.
                    self.metrics.variant_swaps += 1
            sharing = self.config.prefix_sharing
            cache = self.pool.acquire_sequence(
                prefix if sharing else None, namespace=request.variant
            )
            shared = cache.seq_len
            take = min(prefix.size - shared, budget)
            try:
                cache.reserve(take)
            except PoolExhaustedError:
                cache.free()
                break  # pool pressure: leave queued, try next step
            self._queue.popleft()
            if sharing:
                self.metrics.prefix_lookups += 1
                if shared:
                    self.metrics.prefix_hits += 1
                    self.metrics.prefill_tokens_saved += shared
            request.cache = cache
            request.state = RequestState.PREFILL
            if request.first_scheduled_time is None:
                request.first_scheduled_time = now
            self._running.append(request)
            rows.append((request, prefix[shared : shared + take]))
            budget -= take
        return rows

    def _active_count(self) -> int:
        return sum(1 for r in self._running if r.state in ACTIVE_STATES)

    def _reserve_with_preemption(
        self,
        request: GenerationRequest,
        tokens: int,
        scheduled: set,
        preempted: List[GenerationRequest],
    ) -> bool:
        """Reserve cache slots, preempting younger requests on pool pressure.

        Victims are drawn youngest-first from running requests not yet
        scheduled into this step (rows already built must keep their
        reserved blocks).  Returns False when ``request`` itself had to be
        preempted because no other victim remained.
        """
        while True:
            try:
                request.cache.reserve(tokens)
                return True
            except PoolExhaustedError:
                victim = self._youngest_running(exclude=request, scheduled=scheduled)
                if victim is None:
                    self._preempt(request, preempted)
                    return False
                self._preempt(victim, preempted)

    def _youngest_running(self, exclude: GenerationRequest, scheduled: set):
        for candidate in reversed(self._running):
            if (
                candidate is exclude
                or candidate.request_id in scheduled
                or candidate.state not in ACTIVE_STATES
            ):
                continue
            return candidate
        return None

    def _preempt(
        self, request: GenerationRequest, preempted: List[GenerationRequest]
    ) -> None:
        request.cache.free()
        request.cache = None
        self._drop_draft_state(request)
        request.state = RequestState.QUEUED
        request.preemptions += 1
        self.metrics.preemptions += 1
        preempted.append(request)

    def _drop_draft_state(self, request: GenerationRequest) -> None:
        """Release a request's drafter-side state (preemption/termination).

        The drafter cache is rebuilt from the prefix on the next
        speculative cycle, so dropping it never changes outputs.
        """
        if request.draft_cache is not None:
            request.draft_cache.free()
            request.draft_cache = None
        request.pending_drafts = []

    def _requeue(self, preempted: List[GenerationRequest]) -> None:
        if not preempted:
            return
        self._running = [r for r in self._running if r.state in ACTIVE_STATES]
        # Preempted requests go back to the queue head in arrival order so
        # they are re-admitted before newer traffic.
        ordered = sorted(
            preempted, key=lambda r: (r.arrival_time, r.request_id), reverse=True
        )
        for request in ordered:
            self._queue.appendleft(request)

    # -- speculative decoding ---------------------------------------------
    def _draft_extend(
        self, rows: List[Tuple[GenerationRequest, np.ndarray]]
    ) -> Tuple[List[np.ndarray], List[int]]:
        """Extend speculative rows' feeds with drafter proposals.

        Only rows whose chunk completes the prefix this step can speculate
        (mid-prefill rows have no next-token position to draft from), and
        drafts spend the step's leftover token budget — speculation never
        displaces scheduled prefill/decode work.  Returns the per-row feed
        arrays and draft counts; non-speculative rows pass through.
        """
        feeds: List[np.ndarray] = [chunk for _, chunk in rows]
        counts = [0] * len(rows)
        if self.drafter is None:
            return feeds, counts
        leftover = self.config.token_budget - int(sum(chunk.size for _, chunk in rows))
        for index, (request, chunk) in enumerate(rows):
            if leftover <= 0:
                break
            if not request.speculative:
                continue
            if request.cache.seq_len + chunk.size < request.prefix.size:
                continue  # still mid-prefill after this step
            k = min(
                self._spec_k_for(request),
                leftover,
                # Leave room for the verifier's correction token.
                request.max_new_tokens - request.decode.n_generated - 1,
            )
            if k <= 0:
                continue
            drafts = self._draft_tokens(request, chunk, k)
            if not drafts:
                continue  # pool pressure: plain decode this step
            request.pending_drafts = drafts
            feeds[index] = np.concatenate(
                [chunk, np.asarray(drafts, dtype=np.int64)]
            )
            counts[index] = len(drafts)
            leftover -= len(drafts)
        return feeds, counts

    def _spec_k_for(self, request: GenerationRequest) -> int:
        """This request's draft length for the next speculative cycle.

        Fixed-K engines always use ``config.spec_k``; adaptive engines use
        the request's EMA-derived length (full K until the first verify
        cycle has measured anything).
        """
        if not self.config.spec_adaptive or request.spec_k_current is None:
            return self.config.spec_k
        return request.spec_k_current

    def _update_spec_k(
        self, request: GenerationRequest, accepted: int, drafted: int
    ) -> None:
        """Fold one verify cycle's acceptance into the request's EMA and
        re-derive its draft length: K ≈ EMA * K_max, clamped to [1, K_max]
        so a cold streak still probes one draft per cycle (the EMA can
        recover) and a hot streak saturates at the engine cap."""
        rate = accepted / drafted
        alpha = self.config.spec_ema_alpha
        if request.spec_acceptance_ema is None:
            request.spec_acceptance_ema = rate
        else:
            request.spec_acceptance_ema += alpha * (rate - request.spec_acceptance_ema)
        request.spec_k_current = int(
            min(
                self.config.spec_k,
                max(1, round(request.spec_acceptance_ema * self.config.spec_k)),
            )
        )

    def _draft_tokens(
        self, request: GenerationRequest, chunk: np.ndarray, k: int
    ) -> List[int]:
        """Run the drafter ``k`` greedy steps ahead for one request.

        Reserves verifier capacity for the draft positions (they are
        appended optimistically during the verify forward) and drafter
        capacity for the uncovered prefix suffix plus ``k - 1`` proposals.
        Either reservation failing falls back to plain decode for this step
        — reservations are atomic, so no state needs unwinding.
        """
        try:
            request.cache.reserve(chunk.size + k)
        except PoolExhaustedError:
            self.metrics.spec_fallbacks += 1
            return []
        try:
            if request.draft_cache is None:
                request.draft_cache = self.draft_pool.acquire_sequence()
            suffix = request.prefix[request.draft_cache.seq_len :]
            request.draft_cache.reserve(suffix.size + k - 1)
        except PoolExhaustedError:
            self.metrics.spec_fallbacks += 1
            return []
        drafts: List[int] = []
        feed = suffix.reshape(1, -1)
        for _ in range(k):
            logits = self.drafter.forward_cached(feed, request.draft_cache)
            token = DecodeState.select(logits.data[0, -1])
            drafts.append(token)
            feed = np.array([[token]], dtype=np.int64)
        return drafts

    def _accept_drafts(
        self,
        request: GenerationRequest,
        row_logits: np.ndarray,
        base: int,
        completion: float,
    ) -> Tuple[int, int]:
        """Accept the longest matching draft prefix; roll both caches back.

        ``base`` is the logits index of the prefix-final token, so
        ``row_logits[base + i]`` is the verifier's greedy choice given the
        prefix plus the first ``i`` drafts.  Returns (accepted, emitted).
        Raises :class:`PoolExhaustedError`, with both caches unchanged and
        nothing committed, when the verifier's rollback finds no free page
        to fork a shared sealed page with.
        """
        drafts = request.pending_drafts
        request.pending_drafts = []
        prefix_len = request.prefix.size
        targets = np.argmax(row_logits[base : base + len(drafts) + 1], axis=-1)
        accepted = 0
        while accepted < len(drafts) and drafts[accepted] == int(targets[accepted]):
            accepted += 1
        # Rejected draft KV must not survive: the verifier keeps exactly the
        # committed prefix (minus the trailing token fed next step), the
        # drafter at most that.  Paged caches return surplus pages here.
        request.cache.truncate(prefix_len + accepted)
        request.draft_cache.truncate(
            min(request.draft_cache.seq_len, prefix_len + accepted)
        )
        emitted = 0
        for token in drafts[:accepted]:
            self._append_token(request, token, completion)
            emitted += 1
            if request.done:
                return accepted, emitted
        self._append_token(request, int(targets[accepted]), completion)
        emitted += 1
        return accepted, emitted

    # -- token/terminal bookkeeping ---------------------------------------
    def _append_token(
        self, request: GenerationRequest, token: int, completion: float
    ) -> None:
        # Termination policy lives in the runtime's DecodeState (shared with
        # the greedy-generation loop); the engine only maps the finish
        # reason onto the request lifecycle.
        reason = request.decode.append(token)
        if request.first_token_time is None:
            request.first_token_time = completion
        request.state = RequestState.DECODE
        if reason is not None:
            self._terminate(request, completion, RequestState.FINISHED, reason)

    def _expire_deadlines(self, now: float) -> None:
        for request in list(self._queue) + list(self._running):
            if request.done or request.deadline is None:
                continue
            if now > request.deadline:
                self._terminate(request, now, RequestState.CANCELLED, "deadline")

    def _reject(self, request: GenerationRequest, now: float, reason: str) -> None:
        self._terminate(request, now, RequestState.REJECTED, reason)

    def _terminate(
        self,
        request: GenerationRequest,
        now: float,
        state: RequestState,
        reason: str,
    ) -> None:
        if request.cache is not None:
            request.cache.free()
            request.cache = None
        self._drop_draft_state(request)
        was_queued = request.state is RequestState.QUEUED
        request.state = state
        request.finish_reason = reason
        request.finish_time = now
        if was_queued and request in self._queue:
            try:
                self._queue.remove(request)
            except ValueError:
                pass
        self._running = [r for r in self._running if r.state in ACTIVE_STATES]
        self.metrics.record_terminal(request)
