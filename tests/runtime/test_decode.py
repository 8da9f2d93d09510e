"""The shared greedy-decoding loop: state machine and session identity."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.models import build_model
from repro.runtime import DecodeSession, DecodeState
from repro.runtime.decode import FINISH_MAX_TOKENS, FINISH_STOP_TOKEN


class TestDecodeState:
    def test_select_is_argmax(self):
        assert DecodeState.select(np.array([0.1, 3.0, -2.0])) == 1

    def test_budget_termination(self):
        state = DecodeState(max_new_tokens=2)
        assert state.append(5) is None
        assert not state.done
        assert state.append(7) == FINISH_MAX_TOKENS
        assert state.done and state.finish_reason == FINISH_MAX_TOKENS
        assert state.n_generated == 2

    def test_stop_token_wins_over_budget(self):
        state = DecodeState(max_new_tokens=1, stop_token=9)
        assert state.append(9) == FINISH_STOP_TOKEN

    def test_caller_owned_token_list_is_shared(self):
        generated = [1, 2]
        state = DecodeState(max_new_tokens=8, tokens=generated)
        state.append(3)
        assert generated == [1, 2, 3]
        assert state.n_generated == 3


class TestDecodeSession:
    def test_rejects_model_without_cached_surface(self):
        class Stub:
            pass

        assert not DecodeSession.supports(Stub())
        with pytest.raises(ConfigError):
            DecodeSession(Stub())

    def test_supports_llama(self, micro_llama):
        assert DecodeSession.supports(micro_llama)

    @pytest.mark.parametrize("bad_shape", [(2, 3), (1, 2, 3)])
    def test_rejects_bad_prompt_shapes(self, micro_llama, bad_shape):
        micro_llama.eval()
        prompt = np.zeros(bad_shape, dtype=np.int64)
        with pytest.raises(ShapeError):
            DecodeSession(micro_llama).generate(prompt, 3)

    def test_row_prompt_matches_flat_prompt(self, micro_llama):
        """A (1, T) prompt must produce exactly the 1-D prompt's tokens."""
        micro_llama.eval()
        session = DecodeSession(micro_llama)
        flat = np.array([3, 5, 8])
        row = flat.reshape(1, -1)
        np.testing.assert_array_equal(
            session.generate(flat, 6), session.generate(row, 6)
        )

    def test_row_prompt_window_overflow_matches_no_cache(self, micro_llama_config):
        """The cache-full fallback must spend exactly the remaining budget.

        A (1, T) prompt used to corrupt the fallback's remaining-token
        arithmetic (``len(np.asarray(prompt))`` is 1 for a row); both
        orientations must match the pure recompute reference, token for
        token, through a window overflow.
        """
        config = replace(micro_llama_config, max_seq_len=12, name="short-ctx")
        model = build_model(config, rng=np.random.default_rng(9))
        model.eval()
        session = DecodeSession(model)
        flat = np.arange(8) % config.vocab_size
        new_tokens = 10  # 8 + 10 > max_seq_len=12: overflow mid-decode
        reference = session.generate(flat, new_tokens, use_cache=False)
        assert reference.size == flat.size + new_tokens
        for prompt in (flat, flat.reshape(1, -1)):
            cached = session.generate(prompt, new_tokens, use_cache=True)
            np.testing.assert_array_equal(cached, reference)

    def test_generate_matches_model_greedy_generate(self, micro_llama):
        """model.greedy_generate is the same session loop."""
        micro_llama.eval()
        prompt = np.array([2, 11, 5])
        np.testing.assert_array_equal(
            DecodeSession(micro_llama).generate(prompt, 5),
            micro_llama.greedy_generate(prompt, 5),
        )

    @pytest.mark.parametrize("path", ["cached", "recompute", "speculative"])
    def test_zero_budget_returns_prompt_and_negative_raises(self, micro_llama, path):
        """Every path spends a budget of 0 as nothing and refuses a negative
        one (cached and speculative used to emit a token for either)."""
        micro_llama.eval()
        kwargs = {
            "cached": {},
            "recompute": {"use_cache": False},
            "speculative": {"speculative": micro_llama},
        }[path]
        prompt = np.array([1, 2, 3])
        out = micro_llama.greedy_generate(prompt, 0, **kwargs)
        np.testing.assert_array_equal(out, prompt)
        with pytest.raises(ConfigError, match="max_new_tokens"):
            micro_llama.greedy_generate(prompt, -1, **kwargs)
