"""QoS classes, the load-aware rank router, and goodput scoring.

The deterministic core: a ``VirtualTimer`` plus per-variant ``MeteredModel``
wrappers make every step duration an exact function of which variants served
which rows, so routing decisions — and therefore goodput — are reproducible
bit for bit.  The headline property mirrors the subsystem's acceptance
criterion: on a bursty trace the routed replay's goodput beats every fixed
variant replaying the identical trace.
"""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import (
    DEFAULT_QOS_CLASSES,
    QUALITY_LADDER,
    EngineConfig,
    InferenceEngine,
    QoSClass,
    RankRouter,
    RouterConfig,
    ScriptedRouter,
    VariantRegistry,
    calibrate_unit,
    goodput_summary,
    ladder_index,
    make_trace,
    qos_catalog,
    qos_mix,
    replay_trace,
    request_records,
)


class VirtualTimer:
    """A clock the metered models advance; injected as the engine timer."""

    def __init__(self) -> None:
        self.now_s = 0.0

    def __call__(self) -> float:
        return self.now_s

    def advance(self, dt_s: float) -> None:
        self.now_s += dt_s


class MeteredModel:
    """Wraps a variant model; each forward advances the virtual clock by a
    per-token cost, making step durations (and router behaviour) exact."""

    def __init__(self, inner, timer: VirtualTimer, per_token_s: float) -> None:
        self._inner = inner
        self._timer = timer
        self._per_token_s = per_token_s

    def forward_ragged(self, tokens, caches, new_lengths):
        self._timer.advance(self._per_token_s * int(sum(new_lengths)))
        return self._inner.forward_ragged(tokens, caches, new_lengths)

    def eval(self):
        self._inner.eval()
        return self

    def __getattr__(self, name):
        return getattr(self._inner, name)


#: Virtual per-token model time: dense is 5x the cheapest rung, mirroring
#: the real decode-speed ordering of the ladder on perf-sized models.
VIRTUAL_COST_S = {"dense": 5e-3, "rank8": 2e-3, "rank1": 1e-3}


def engine_config(**overrides):
    defaults = dict(max_batch=4, token_budget=32, n_blocks=48, block_tokens=8)
    defaults.update(overrides)
    return EngineConfig(**defaults)


class TestQoSClass:
    def test_validation(self):
        with pytest.raises(ServingError):
            QoSClass("", quality_floor="dense")
        with pytest.raises(ServingError):
            QoSClass("a", quality_floor="dense", share=0.0)
        with pytest.raises(ServingError):
            QoSClass("a", quality_floor="dense", ttft_slo_units=-1.0)

    def test_resolve_scales_units(self):
        cls = QoSClass("gold", quality_floor="dense", ttft_slo_units=10.0)
        assert cls.resolve(0.02).ttft_slo_s == pytest.approx(0.2)

    def test_absolute_slo_wins(self):
        cls = QoSClass(
            "gold", quality_floor="dense", ttft_slo_units=10.0, ttft_slo_s=0.5
        )
        assert cls.resolve(0.02).ttft_slo_s == 0.5

    def test_resolve_without_unit_raises(self):
        cls = QoSClass("gold", quality_floor="dense", ttft_slo_units=10.0)
        with pytest.raises(ServingError):
            cls.resolve(None)

    def test_catalog_rejects_duplicates(self):
        cls = QoSClass("gold", quality_floor="dense")
        with pytest.raises(ServingError):
            qos_catalog([cls, cls])

    def test_default_catalog_spans_ladder(self):
        floors = {cls.quality_floor for cls in DEFAULT_QOS_CLASSES}
        assert floors == set(QUALITY_LADDER)
        assert sum(qos_mix().values()) == pytest.approx(1.0)

    def test_ladder_index_unknown_below_cheapest(self):
        assert ladder_index(QUALITY_LADDER, "dense") == 0
        assert ladder_index(QUALITY_LADDER, "nope") == len(QUALITY_LADDER)
        assert ladder_index(QUALITY_LADDER, None) == len(QUALITY_LADDER)


class TestRouterConfig:
    def test_band_required(self):
        with pytest.raises(ServingError):
            RouterConfig(degrade_at=2, upgrade_at=2)

    def test_dwell_positive(self):
        with pytest.raises(ServingError):
            RouterConfig(dwell_steps=0)


class TestRankRouter:
    def make(self, **overrides):
        defaults = dict(degrade_at=4, upgrade_at=1, dwell_steps=2)
        defaults.update(overrides)
        return RankRouter(QUALITY_LADDER, RouterConfig(**defaults))

    def test_ladder_validation(self):
        with pytest.raises(ServingError):
            RankRouter(("dense",))
        with pytest.raises(ServingError):
            RankRouter(("dense", "dense"))

    def test_degrades_at_watermark(self):
        router = self.make()
        assert router.observe(0.0, queue_depth=1, running=2) is None
        decision = router.observe(0.1, queue_depth=3, running=2)
        assert decision.action == "degrade"
        assert router.level == 1
        assert router.variant_for(None) == "rank8"

    def test_dwell_spaces_changes(self):
        router = self.make(dwell_steps=3)
        assert router.observe(0.0, 8, 0).action == "degrade"
        assert router.observe(0.1, 8, 0) is None
        assert router.observe(0.2, 8, 0) is None
        assert router.observe(0.3, 8, 0).action == "degrade"
        assert router.level == 2

    def test_clamps_at_ladder_ends(self):
        router = self.make(dwell_steps=1)
        for _ in range(5):
            router.observe(0.0, 10, 0)
        assert router.level == len(QUALITY_LADDER) - 1
        for _ in range(5):
            router.observe(1.0, 0, 0)
        assert router.level == 0
        assert router.downgrades == 2
        assert router.upgrades == 2

    def test_floor_clamps_variant(self):
        router = self.make(dwell_steps=1)
        router.observe(0.0, 10, 0)
        router.observe(0.0, 10, 0)
        assert router.level == 2
        assert router.variant_for("dense") == "dense"
        assert router.variant_for("rank8") == "rank8"
        assert router.variant_for("rank1") == "rank1"
        assert router.variant_for(None) == "rank1"

    def test_unknown_floor_raises(self):
        with pytest.raises(ServingError):
            self.make().variant_for("rank999")

    def test_projected_ttft_tracks_ema(self):
        router = self.make()
        router.note_step(0.1)
        assert router.projected_ttft_s(4) == pytest.approx(0.4)

    def test_snapshot_round_trips_decisions(self):
        router = self.make(dwell_steps=1)
        router.observe(0.5, 10, 2)
        snap = router.snapshot()
        assert snap["level"] == 1
        assert snap["decisions"][0]["action"] == "degrade"
        assert snap["decisions"][0]["from"] == "dense"
        assert snap["decisions"][0]["to"] == "rank8"


class TestProjectedWatermark:
    """``watermark="projected"`` swaps the ladder's signal from integer
    backlog marks to projected-TTFT seconds (backlog x EMA step time)."""

    def make(self, **overrides):
        defaults = dict(
            watermark="projected",
            degrade_ttft_s=0.5,
            upgrade_ttft_s=0.1,
            dwell_steps=1,
        )
        defaults.update(overrides)
        return RankRouter(QUALITY_LADDER, RouterConfig(**defaults))

    def test_mode_validated(self):
        with pytest.raises(ServingError):
            RouterConfig(watermark="psychic")
        with pytest.raises(ServingError):
            RouterConfig(watermark="projected", degrade_ttft_s=0.1,
                         upgrade_ttft_s=0.5)

    def test_no_pressure_before_any_measured_step(self):
        # EMA step time starts at 0, so the projection reads 0 seconds
        # regardless of backlog — but 0 <= upgrade mark trips an upgrade
        # only when there is a level to climb back to, so nothing happens.
        router = self.make()
        assert router.observe(0.0, queue_depth=50, running=4) is None
        assert router.level == 0

    def test_degrades_when_projection_crosses_mark(self):
        router = self.make()
        router.note_step(0.1)  # EMA = 100ms/step
        assert router.observe(0.0, queue_depth=2, running=2) is None  # 0.4s
        decision = router.observe(0.1, queue_depth=4, running=2)      # 0.6s
        assert decision.action == "degrade"
        assert decision.projected_ttft_s == pytest.approx(0.6)
        assert router.variant_for(None) == "rank8"

    def test_upgrades_when_projection_drains(self):
        router = self.make()
        router.note_step(0.1)
        router.observe(0.0, 6, 0)  # 0.6s -> degrade
        assert router.level == 1
        decision = router.observe(0.1, queue_depth=1, running=0)  # 0.1s
        assert decision.action == "upgrade"
        assert router.level == 0

    def test_backlog_marks_ignored_in_projected_mode(self):
        """A deep backlog of fast steps projects under the mark: no change
        (the integer marks would have degraded long ago)."""
        router = self.make(degrade_at=2)
        router.note_step(0.01)  # 10ms/step
        assert router.observe(0.0, queue_depth=20, running=4) is None  # 0.24s
        assert router.level == 0

    def test_snapshot_carries_watermark_config(self):
        snap = self.make().snapshot()
        assert snap["config"]["watermark"] == "projected"
        assert snap["config"]["degrade_ttft_s"] == 0.5
        assert snap["config"]["upgrade_ttft_s"] == 0.1


class TestScriptedRouter:
    def test_replays_levels(self):
        router = ScriptedRouter(QUALITY_LADDER, [0, 0, 2, 2, 1])
        seen = []
        for _ in range(6):
            router.observe(0.0, 0, 0)
            seen.append(router.level)
        assert seen == [0, 0, 2, 2, 1, 1]
        assert router.downgrades == 1
        assert router.upgrades == 1

    def test_rejects_out_of_range_levels(self):
        with pytest.raises(ServingError):
            ScriptedRouter(QUALITY_LADDER, [3])


class TestGoodputSummary:
    CATALOG = {
        "gold": QoSClass("gold", quality_floor="dense", ttft_slo_s=1.0),
        "batch": QoSClass("batch", quality_floor="rank1", ttft_slo_s=9.0),
    }

    def record(self, **overrides):
        base = dict(
            qos="gold",
            state="finished",
            ttft_s=0.5,
            slo_met=True,
            variants=["dense"],
        )
        base.update(overrides)
        return base

    def test_counts_good_and_violations(self):
        records = [
            self.record(),
            self.record(slo_met=False, ttft_s=2.0),
            self.record(variants=["dense", "rank8"]),  # floor violation
            self.record(qos="batch", variants=["rank1"]),
            self.record(state="cancelled", slo_met=False),
        ]
        summary = goodput_summary(records, self.CATALOG)
        assert summary.eligible == 5
        assert summary.good == 2
        assert summary.slo_violations == 1
        assert summary.quality_violations == 1
        assert summary.not_finished == 1
        assert summary.rate == pytest.approx(2 / 5)

    def test_untagged_records_held_only_to_finishing(self):
        finished = self.record(qos=None, slo_met=None, variants=["rank1"])
        cancelled = self.record(qos=None, state="cancelled")
        summary = goodput_summary([finished, cancelled], self.CATALOG)
        assert summary.eligible == 2
        assert summary.good == 1
        assert summary.per_class["untagged"]["eligible"] == 2

    def test_unknown_tag_raises(self):
        with pytest.raises(ServingError):
            goodput_summary([self.record(qos="platinum")], self.CATALOG)

    def test_default_spec_fills_missing_variants(self):
        record = self.record()
        record.pop("variants")
        summary = goodput_summary([record], self.CATALOG, default_spec="rank1")
        assert summary.quality_violations == 1

    def test_per_class_breakdown(self):
        records = [self.record(), self.record(qos="batch", variants=["rank1"])]
        summary = goodput_summary(records, self.CATALOG)
        assert summary.per_class["gold"]["good"] == 1
        assert summary.per_class["batch"]["eligible"] == 1


class TestCalibration:
    def test_positive_unit(self, smoke_model):
        trace = make_trace("poisson", 2, 10.0, 128, seed=0)
        unit = calibrate_unit(smoke_model, trace, engine_config())
        assert unit > 0.0

    def test_empty_trace_raises(self, smoke_model):
        with pytest.raises(ServingError):
            calibrate_unit(smoke_model, [], engine_config())


class TestRoutedEngineConstruction:
    def test_router_requires_variants(self):
        with pytest.raises(ServingError):
            InferenceEngine(None, engine_config(), router=RankRouter())

    def test_variants_require_router(self, smoke_model):
        with pytest.raises(ServingError):
            InferenceEngine(
                smoke_model, engine_config(), variants={"dense": smoke_model}
            )

    def test_missing_ladder_spec_raises(self, smoke_model):
        with pytest.raises(ServingError):
            InferenceEngine(
                None,
                engine_config(),
                router=RankRouter(),
                variants={"dense": smoke_model},
            )

    def test_unresolved_slo_rejected_at_submit(self, smoke_model):
        engine = InferenceEngine(smoke_model, engine_config())
        unresolved = QoSClass("gold", quality_floor=None, ttft_slo_units=5.0)
        with pytest.raises(ServingError):
            engine.submit(np.arange(4), 2, qos=unresolved)

    def test_off_ladder_floor_rejected_at_submit(self, smoke_model):
        registry = VariantRegistry(smoke_model)
        engine = InferenceEngine(
            None,
            engine_config(),
            router=RankRouter(("dense", "rank1")),
            variants=registry.ladder(("dense", "rank1")),
        )
        bad = QoSClass("gold", quality_floor="rank8", ttft_slo_s=1.0)
        with pytest.raises(ServingError):
            engine.submit(np.arange(4), 2, qos=bad)


def metered_ladder(registry, timer):
    return {
        spec: MeteredModel(registry.get(spec).model, timer, VIRTUAL_COST_S[spec])
        for spec in QUALITY_LADDER
    }


def virtual_catalog():
    """Absolute SLOs sized for the virtual cost model: tight enough that a
    fixed dense replay misses them under the burst, loose enough that the
    degraded rungs can meet them."""
    return {
        "gold": QoSClass("gold", quality_floor="dense", ttft_slo_s=0.35),
        "interactive": QoSClass(
            "interactive", quality_floor="rank8", ttft_slo_s=0.25
        ),
        "batch": QoSClass("batch", quality_floor="rank1", ttft_slo_s=2.0),
    }


def virtual_trace(vocab_size=128):
    return make_trace(
        "bursty",
        24,
        120.0,
        vocab_size,
        seed=7,
        prompt_len=(6, 12),
        new_tokens=(4, 8),
        qos_mix={"gold": 0.25, "interactive": 0.35, "batch": 0.4},
    )


def replay_metered(registry, trace, catalog, router=None):
    """One deterministic replay: virtual clock, metered forwards."""
    timer = VirtualTimer()
    variants = metered_ladder(registry, timer)
    if router is None:
        raise ValueError("router required")
    engine = InferenceEngine(
        None, engine_config(), timer=timer, router=router, variants=variants
    )
    requests = replay_trace(engine, trace, catalog=catalog)
    return requests, engine


def replay_metered_fixed(registry, trace, catalog, spec):
    """A fixed-variant baseline under the same virtual cost model, scored
    against the same catalog (its served variant is ``spec`` throughout)."""
    timer = VirtualTimer()
    model = MeteredModel(registry.get(spec).model, timer, VIRTUAL_COST_S[spec])
    engine = InferenceEngine(model, engine_config(), timer=timer)
    requests = replay_trace(engine, trace, catalog=catalog)
    return requests, engine


class TestRoutedBeatsFixed:
    """The acceptance property, made deterministic by the virtual clock."""

    @pytest.fixture(scope="class")
    def scores(self, smoke_model):
        registry = VariantRegistry(smoke_model)
        trace = virtual_trace()
        catalog = virtual_catalog()
        # upgrade_at=2: inter-burst gaps drain the backlog to the last
        # couple of running requests, which is what the upgrade should
        # trigger on under the virtual cost model.
        router = RankRouter(
            QUALITY_LADDER, RouterConfig(degrade_at=5, upgrade_at=2, dwell_steps=3)
        )
        routed_requests, routed_engine = replay_metered(
            registry, trace, catalog, router=router
        )
        routed = goodput_summary(
            request_records(routed_requests), catalog, QUALITY_LADDER
        )
        fixed = {}
        for spec in QUALITY_LADDER:
            requests, _ = replay_metered_fixed(registry, trace, catalog, spec)
            fixed[spec] = goodput_summary(
                request_records(requests),
                catalog,
                QUALITY_LADDER,
                default_spec=spec,
            )
        return routed, fixed, router, routed_engine

    def test_routed_beats_every_fixed_variant(self, scores):
        routed, fixed, _, _ = scores
        for spec, summary in fixed.items():
            assert routed.rate > summary.rate, (
                f"routed {routed.rate:.3f} does not beat fixed {spec} "
                f"{summary.rate:.3f}"
            )

    def test_router_downgraded_and_upgraded(self, scores):
        _, _, router, _ = scores
        assert router.downgrades >= 1
        assert router.upgrades >= 1

    def test_floors_never_violated(self, scores):
        routed, _, _, _ = scores
        assert routed.quality_violations == 0

    def test_swaps_recorded_in_metrics(self, scores):
        _, _, _, engine = scores
        assert engine.metrics.variant_swaps >= 1
        assert engine.metrics.qos_classes  # per-class breakdown populated

    def test_fixed_cheap_variants_forfeit_floors(self, scores):
        _, fixed, _, _ = scores
        assert fixed["rank8"].quality_violations > 0
        assert fixed["rank1"].quality_violations > fixed["rank8"].quality_violations

    def test_fixed_dense_misses_slos_under_burst(self, scores):
        _, fixed, _, _ = scores
        assert fixed["dense"].slo_violations > 0


class TestDenseDegeneracy:
    """A single dense-floor class pins every request to the ladder's best
    variant: the routed engine must be token-for-token the dense engine."""

    def test_tokens_identical_to_dense_baseline(self, smoke_model):
        trace = make_trace(
            "bursty",
            12,
            150.0,
            128,
            seed=3,
            prompt_len=(6, 12),
            new_tokens=(4, 8),
            qos_mix={"gold": 1.0},
        )
        catalog = {"gold": QoSClass("gold", quality_floor="dense", ttft_slo_s=5.0)}
        registry = VariantRegistry(smoke_model)
        router = RankRouter(QUALITY_LADDER, RouterConfig())
        routed_engine = InferenceEngine(
            None,
            engine_config(),
            router=router,
            variants=registry.ladder(QUALITY_LADDER),
        )
        routed = replay_trace(routed_engine, trace, catalog=catalog)
        dense_engine = InferenceEngine(smoke_model, engine_config())
        dense = replay_trace(dense_engine, trace, catalog=catalog)
        for routed_request, dense_request in zip(routed, dense):
            assert routed_request.served_variants == ["dense"]
            np.testing.assert_array_equal(
                np.asarray(routed_request.generated),
                np.asarray(dense_request.generated),
            )
