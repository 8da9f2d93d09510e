"""The one greedy-decoding loop shared by evaluation and serving.

:class:`DecodeState` is the per-sequence token bookkeeping — greedy
selection, stop-token and budget termination — that used to be duplicated
between ``LlamaModel.greedy_generate`` and the serving engine's
``_append_token``.  :class:`DecodeSession` is the full generation loop
(prefill once into a KV cache, decode one position at a time, fall back to
windowed recomputation when the context window fills) that
``LlamaModel.greedy_generate``, the GSM8K-style generative evaluation
harness, and the tensor-parallel facade all drive.

The session runs against any model exposing the cached-decoding surface::

    config.max_seq_len
    forward(tokens)                  # full stateless forward
    forward_cached(tokens, cache)    # extend `cache` by one (1, T) row
    make_cache()                     # fresh whole-model KV cache

which :class:`~repro.models.llama.LlamaModel` and
:class:`~repro.parallel.local.ShardedLlama` both provide.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import ConfigError, ShapeError

FINISH_STOP_TOKEN = "stop-token"
FINISH_MAX_TOKENS = "max-tokens"


class DecodeState:
    """Greedy token selection + termination bookkeeping for one sequence.

    ``tokens`` may be a caller-owned list (the serving engine passes the
    request's ``generated`` list) so appends are visible to both sides
    without copying.
    """

    __slots__ = ("max_new_tokens", "stop_token", "tokens", "finish_reason")

    def __init__(
        self,
        max_new_tokens: int,
        stop_token: Optional[int] = None,
        tokens: Optional[List[int]] = None,
    ) -> None:
        self.max_new_tokens = int(max_new_tokens)
        self.stop_token = None if stop_token is None else int(stop_token)
        self.tokens = tokens if tokens is not None else []
        self.finish_reason: Optional[str] = None

    @staticmethod
    def select(logits_row: np.ndarray) -> int:
        """Greedy (argmax) token choice from one position's logits."""
        return int(np.argmax(logits_row))

    @property
    def n_generated(self) -> int:
        return len(self.tokens)

    @property
    def done(self) -> bool:
        return self.finish_reason is not None

    def append(self, token: int) -> Optional[str]:
        """Record one generated token; returns the finish reason if this
        token terminates the sequence (stop token wins over the budget)."""
        token = int(token)
        self.tokens.append(token)
        if self.stop_token is not None and token == self.stop_token:
            self.finish_reason = FINISH_STOP_TOKEN
        elif len(self.tokens) >= self.max_new_tokens:
            self.finish_reason = FINISH_MAX_TOKENS
        return self.finish_reason


def _check_budget(max_new_tokens: int) -> int:
    """The generation budget as an int (ConfigError when negative)."""
    budget = int(max_new_tokens)
    if budget < 0:
        raise ConfigError(f"max_new_tokens must be >= 0, got {budget}")
    return budget


def _as_prompt_row(prompt: np.ndarray) -> np.ndarray:
    """Validate and shape a prompt to one (1, T) row of token ids."""
    tokens = np.asarray(prompt)
    if tokens.ndim == 1:
        return tokens.reshape(1, -1)
    if tokens.ndim == 2 and tokens.shape[0] == 1:
        return tokens
    raise ShapeError(
        f"prompt must be 1-D or a single (1, T) row, got shape {tokens.shape}"
    )


class _TokenRow:
    """One (1, T) token row backed by geometrically grown capacity.

    The generation loop extends the row by one token per step; growing with
    ``np.concatenate`` would copy the whole history every step (O(T^2) over
    a generation).  Doubling capacity amortizes to O(T), the same strategy
    :class:`~repro.nn.kv_cache.LayerKVCache` uses for KV entries.
    """

    __slots__ = ("_buf", "_len")

    def __init__(self, row: np.ndarray, reserve: int) -> None:
        length = row.shape[1]
        self._buf = np.empty((1, length + max(int(reserve), 1)), dtype=np.int64)
        self._buf[:, :length] = row
        self._len = length

    @property
    def row(self) -> np.ndarray:
        """The live (1, T) view of the tokens so far."""
        return self._buf[:, : self._len]

    def append(self, token: int) -> None:
        if self._len == self._buf.shape[1]:
            grown = np.empty((1, 2 * self._buf.shape[1]), dtype=np.int64)
            grown[:, : self._len] = self._buf
            self._buf = grown
        self._buf[0, self._len] = token
        self._len += 1


class DecodeSession:
    """Greedy generation loop over one cached-decoding model."""

    def __init__(self, model) -> None:
        if not self.supports(model):
            raise ConfigError(
                "DecodeSession needs a model with forward_cached() and "
                f"make_cache(); got {type(model).__name__}"
            )
        self.model = model
        # Populated by generate(speculative=...) with the cycle counters of
        # the most recent speculative run.
        self.spec_stats = None

    @staticmethod
    def supports(model) -> bool:
        """Whether ``model`` exposes the cached-decoding surface."""
        return hasattr(model, "forward_cached") and hasattr(model, "make_cache")

    def generate(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        stop_token: Optional[int] = None,
        use_cache: bool = True,
        speculative=None,
    ) -> np.ndarray:
        """Greedily extend ``prompt`` by up to ``max_new_tokens`` tokens.

        With ``use_cache`` (default) the prompt is prefilled once and each
        new token runs a single-position forward pass against the KV cache;
        without it, the full window is recomputed per token (kept as the
        reference implementation — both paths produce identical tokens).

        ``speculative`` — a
        :class:`~repro.runtime.speculative.SpeculativeConfig` or a bare
        drafter model — routes the generation through the drafter/verifier
        loop instead; the tokens are guaranteed identical, only the forward
        schedule changes.  Counters land on ``self.spec_stats``.

        A budget of 0 returns the prompt unchanged on every path; a
        negative one raises ConfigError.
        """
        max_new_tokens = _check_budget(max_new_tokens)
        if speculative is not None:
            if not use_cache:
                raise ConfigError(
                    "speculative decoding requires the cached decode path "
                    "(use_cache=True)"
                )
            from repro.runtime.speculative import SpeculativeConfig, SpeculativeSession

            config = (
                speculative
                if isinstance(speculative, SpeculativeConfig)
                else SpeculativeConfig(speculative)
            )
            session = SpeculativeSession.from_config(self.model, config)
            out = session.generate(prompt, max_new_tokens, stop_token=stop_token)
            self.spec_stats = session.stats
            return out
        tokens = _as_prompt_row(prompt)
        if max_new_tokens == 0:
            return tokens[0].copy()
        if not use_cache:
            return self._generate_recompute(tokens, max_new_tokens, stop_token)
        window_limit = self.model.config.max_seq_len
        cache = self.model.make_cache()
        state = DecodeState(max_new_tokens, stop_token)
        row = _TokenRow(tokens, reserve=max_new_tokens)
        logits = self.model.forward_cached(tokens[:, -window_limit:], cache)
        next_token = state.select(logits.data[0, -1])
        state.append(next_token)
        row.append(next_token)
        while not state.done:
            if cache.seq_len >= window_limit:
                # Context full: fall back to windowed recomputation for the
                # part of the generation budget not yet spent.
                remaining = max_new_tokens - state.n_generated
                return self._generate_recompute(row.row, remaining, stop_token)
            logits = self.model.forward_cached(row.row[:, -1:], cache)
            next_token = state.select(logits.data[0, -1])
            state.append(next_token)
            row.append(next_token)
        return row.row[0].copy()

    def _generate_recompute(
        self,
        tokens: np.ndarray,
        max_new_tokens: int,
        stop_token: Optional[int],
    ) -> np.ndarray:
        """Windowed recomputation of one (1, T) row; the budget is >= 1."""
        window_limit = self.model.config.max_seq_len
        state = DecodeState(max_new_tokens, stop_token)
        row = _TokenRow(tokens, reserve=max_new_tokens)
        while not state.done:
            window = row.row[:, -window_limit:]
            logits = self.model.forward(window)
            next_token = state.select(logits.data[0, -1])
            state.append(next_token)
            row.append(next_token)
        return row.row[0].copy()
