"""Speculative decoding: a cheap decomposed drafter, an exact dense verifier.

The paper's central trade-off — aggressively decomposed variants (rank-1 /
rank-8) are far cheaper per token but less accurate — is precisely the
profile speculative decoding wants in a *drafter*.  The drafter proposes
``K`` tokens one cheap cached forward at a time; the dense verifier then
scores all ``K`` proposals (plus the position after them) in **one**
batched cached forward, and the longest prefix of proposals matching the
verifier's own greedy choices is accepted, with the verifier supplying the
first correction token.  Accuracy loss from decomposition becomes a pure
throughput knob: a bad drafter only lowers the acceptance rate, never the
output.

Hard contract (enforced by ``tests/runtime/test_speculative.py``): the
generated tokens are **token-for-token identical** to dense greedy decoding
for every drafter, every ``K``, both cache flavours (growable and paged),
and every world size.
The invariants that make this hold:

- verifier cache always covers exactly ``len(row) - 1`` positions at the
  top of each cycle (the last row token is re-fed as the first verify
  position), so verifier logits are bit-identical to the dense
  :class:`~repro.runtime.decode.DecodeSession` single-step logits;
- drafter cache covers a (possibly shorter) prefix of the row and is fed
  ``row[drafter_cache.seq_len:]`` — rollbacks never desynchronize it;
- after accepting ``j`` drafts both caches are truncated back to the
  committed prefix, so rejected draft KV entries never influence later
  steps (and paged caches return surplus pages to their store);
- the cycle drafts at most ``window_limit - len(row)`` tokens, so the
  context-window overflow point — and the fallback to windowed
  recomputation — lands on exactly the same token as the dense loop.

Both models run through the shared layer-program driver, and every
``forward_cached`` call — draft step or verify block — is a one-row ragged
forward, the one cached attention path the serving engine also runs; the
no-grad fast path takes it automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.runtime.decode import (
    DecodeSession,
    DecodeState,
    _as_prompt_row,
    _check_budget,
    _TokenRow,
)


@dataclass
class SpecStats:
    """Counters for one speculative session (cumulative across generates).

    ``acceptance_rate`` is accepted-drafts over proposed-drafts — the
    single number that decides whether a drafter pays for itself.  The
    verifier's bonus/correction tokens are counted in ``committed`` but
    never in ``drafted``/``accepted``, so an all-rejected run reports
    exactly 0.0 and an all-accepted run exactly 1.0.
    """

    drafted: int = 0        # tokens proposed by the drafter
    accepted: int = 0       # proposals matching the verifier's greedy choice
    committed: int = 0      # tokens emitted (prefill token + accepted + corrections)
    verify_steps: int = 0   # batched verifier forwards (one per cycle)
    draft_forwards: int = 0  # drafter forwards (one per proposed token)

    @property
    def acceptance_rate(self) -> float:
        if self.drafted == 0:
            return 0.0
        return self.accepted / self.drafted

    def reset(self) -> None:
        self.drafted = 0
        self.accepted = 0
        self.committed = 0
        self.verify_steps = 0
        self.draft_forwards = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "drafted": self.drafted,
            "accepted": self.accepted,
            "committed": self.committed,
            "verify_steps": self.verify_steps,
            "draft_forwards": self.draft_forwards,
            "acceptance_rate": self.acceptance_rate,
        }


@dataclass
class SpeculativeConfig:
    """How to speculate: which drafter model, how many tokens per cycle."""

    drafter: object
    k: int = 4

    def __post_init__(self) -> None:
        self.k = int(self.k)
        if self.k < 1:
            raise ConfigError(f"speculative k must be >= 1, got {self.k}")
        if not DecodeSession.supports(self.drafter):
            raise ConfigError(
                "speculative drafter needs forward_cached() and make_cache(); "
                f"got {type(self.drafter).__name__}"
            )


class SpeculativeSession:
    """Drafter/verifier greedy generation, token-identical to the dense loop.

    ``model`` is the verifier (the dense model whose outputs define
    correctness); ``drafter`` is any cheaper model exposing the same
    cached-decoding surface — canonically a decomposed variant from
    :class:`~repro.serving.variants.VariantRegistry`.  Either side may be a
    :class:`~repro.parallel.local.ShardedLlama`; the caches it hands out
    support the same ``truncate`` rollback.
    """

    def __init__(self, model, drafter, k: int = 4) -> None:
        if not DecodeSession.supports(model):
            raise ConfigError(
                "SpeculativeSession verifier needs forward_cached() and "
                f"make_cache(); got {type(model).__name__}"
            )
        config = SpeculativeConfig(drafter, k)  # validates drafter and k
        self.model = model
        self.drafter = config.drafter
        self.k = config.k
        self.stats = SpecStats()
        self._dense = DecodeSession(model)

    @classmethod
    def from_config(cls, model, config: SpeculativeConfig) -> "SpeculativeSession":
        return cls(model, config.drafter, config.k)

    def generate(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        stop_token: Optional[int] = None,
    ) -> np.ndarray:
        """Greedily extend ``prompt``; same signature and same tokens as
        ``DecodeSession.generate(..., use_cache=True)``."""
        max_new_tokens = _check_budget(max_new_tokens)
        tokens = _as_prompt_row(prompt)
        if max_new_tokens == 0:
            return tokens[0].copy()
        window_limit = self.model.config.max_seq_len
        draft_limit = min(window_limit, self.drafter.config.max_seq_len)
        vcache = self.model.make_cache()
        dcache = self.drafter.make_cache()
        state = DecodeState(max_new_tokens, stop_token)
        row = _TokenRow(tokens, reserve=max_new_tokens)

        # Prefill + first token: exactly the dense session's opening move.
        logits = self.model.forward_cached(tokens[:, -window_limit:], vcache)
        first = state.select(logits.data[0, -1])
        state.append(first)
        row.append(first)
        self.stats.committed += 1

        while not state.done:
            if vcache.seq_len >= window_limit:
                # Context full: same fallback point, same fallback path as
                # the dense loop — windowed recomputation for the rest.
                remaining = max_new_tokens - state.n_generated
                return self._dense._generate_recompute(row.row, remaining, stop_token)
            length = row.row.shape[1]
            # Draft no further than the window edge and leave room for the
            # verifier's correction token inside the generation budget.
            k_eff = min(
                self.k,
                draft_limit - length,
                max_new_tokens - state.n_generated - 1,
            )
            drafts = self._draft(row, dcache, max(k_eff, 0))
            self._verify_and_commit(row, state, vcache, dcache, drafts, length)
        return row.row[0].copy()

    # -- one speculative cycle --------------------------------------------
    def _draft(self, row: _TokenRow, dcache, k: int) -> List[int]:
        """Propose ``k`` greedy tokens from the drafter, extending its cache.

        The drafter cache holds a prefix of the row (rollbacks may have
        left it short), so the first forward feeds the uncovered suffix —
        at least the row's final token.
        """
        if k == 0:
            return []
        drafts: List[int] = []
        feed = row.row[:, dcache.seq_len :]
        for _ in range(k):
            logits = self.drafter.forward_cached(feed, dcache)
            self.stats.draft_forwards += 1
            token = DecodeState.select(logits.data[0, -1])
            drafts.append(token)
            feed = np.array([[token]], dtype=np.int64)
        self.stats.drafted += k
        return drafts

    def _verify_and_commit(
        self,
        row: _TokenRow,
        state: DecodeState,
        vcache,
        dcache,
        drafts: List[int],
        length: int,
    ) -> int:
        """One batched verifier forward; commit the accepted prefix plus the
        verifier's own next token.  Returns the number of accepted drafts.

        ``length`` is the row length at cycle start; the verifier cache
        holds ``length - 1`` positions, so feeding ``[row[-1]] + drafts``
        scores every draft *and* the position after the last one in a
        single forward.  With ``drafts == []`` this degenerates into a
        plain dense decode step.
        """
        verify = np.empty((1, len(drafts) + 1), dtype=np.int64)
        verify[0, 0] = row.row[0, -1]
        if drafts:
            verify[0, 1:] = drafts
        logits = self.model.forward_cached(verify, vcache)
        self.stats.verify_steps += 1
        targets = np.argmax(logits.data[0], axis=-1)

        accepted = 0
        while accepted < len(drafts) and drafts[accepted] == int(targets[accepted]):
            accepted += 1
        # Roll both caches back to the committed prefix: the verifier keeps
        # KV for row[:length + accepted]; the drafter keeps at most that.
        vcache.truncate(length + accepted)
        dcache.truncate(min(dcache.seq_len, length + accepted))
        self.stats.accepted += accepted

        done = None
        for token in drafts[:accepted]:
            self.stats.committed += 1
            row.append(token)
            done = state.append(token)
            if done:
                break
        if done is None:
            correction = int(targets[accepted])
            self.stats.committed += 1
            row.append(correction)
            state.append(correction)
        return accepted
