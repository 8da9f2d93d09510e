"""Command-line interface: ``repro <command>``.

Commands
--------
- ``repro experiments`` — list available experiment ids.
- ``repro run <id> [--limit N]`` — regenerate one paper table/figure.
- ``repro all [--limit N]`` — regenerate every artifact in order.
- ``repro train [--model tiny-llama|tiny-bert]`` — (re)train and cache the
  tiny model checkpoints.
- ``repro eval [--limit N]`` — evaluate the cached tiny Llama on the suite.
- ``repro serve-bench [--variants dense,pr33,...] [--trace FAMILY]
  [--tp N] [--pp P] [--json PATH]`` — replay a synthetic trace through
  the continuous-batching engine for each model variant and report
  TTFT/throughput percentiles (plus prefix-sharing hit rate / prefill
  tokens saved) next to the analytic hardware-model projection.
  ``--trace`` picks the arrival/length family (poisson, diurnal, bursty,
  heavy-tail, or the shared-prefix tenant mix ``prefix``); ``--tp N``
  runs each variant tensor-parallel over N ranks (identical logits by
  construction) and prints measured vs analytic collective traffic;
  ``--pp P`` stacks pipeline parallelism on top — layers split into P
  stages on a P x N device grid, with measured vs analytic P2P traffic
  reported per channel;
  ``--no-prefix-sharing`` serves from the paged store with no prefix
  lookup or sealing, so every request prefills its whole prompt into
  private pages; ``--verify-identity`` re-replays on the unshared
  engine and fails on any token mismatch; ``--run-dir``/``--run-name``
  persist the run as manifest.json / metrics.jsonl / summary.json /
  report.md (bit-identically replayable); ``--json`` dumps the full
  report; ``--profile`` attaches the fast path's op-level profiler.
  ``--router slo`` turns the variant list into a quality ladder (best
  first), tags trace requests with QoS classes (``--qos-mix`` reweights
  the default gold/interactive/batch split), and appends an adaptively
  routed replay whose goodput is compared against every fixed variant;
  ``--degrade-at``/``--upgrade-at``/``--dwell`` set the router's
  hysteresis (``--watermark projected`` switches the signal to projected
  TTFT seconds via ``--degrade-ttft``/``--upgrade-ttft``).  Whenever a run persists evidence (``--json`` or a run
  dir) one summary line is appended to ``benchmarks/trajectory.jsonl``
  (``--trajectory`` overrides the path, ``--no-trajectory`` disables).
- ``repro bench-decode [--variants dense,rank1,...] [--tp 1,2]
  [--bits B] [--json PATH]`` — measure prefill/decode tokens-per-second
  of the Tensor-graph driver vs. the no-grad fast path per variant and
  tensor-parallel degree, verifying bit-identical logits along the way.
  ``--bits 8`` measures each variant's int8-quantized twin alongside it
  and reports the quantized-vs-fp32 decode ratio plus the weight-memory
  reduction of the int grids against the dense fp32 projections.
- ``repro quant-sweep [--specs dense,rank8,rank1] [--bits 8,4]
  [--run-name NAME]`` — walk the rank × bits joint design space on the
  pretrained tiny Llama: per point, six-benchmark accuracy through the
  real quantized weights, fast-path decode tokens/s (bit-identity
  checked), and the hardware model's memory/energy projection; persists
  a replayable run artifact (``--replay DIR`` verifies one bit for bit).
  With ``--speculative`` it instead benchmarks speculative decoding:
  low-rank drafters (``--drafters``) propose ``--spec-k`` tokens per cycle
  on a spectrum-shaped model, the dense model verifies, and every cell
  checks token identity with dense greedy decoding while reporting the
  measured acceptance rate and effective tokens/s.  ``serve-bench
  --speculative DRAFTER[:K]`` serves a whole Poisson trace that way.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.version import __version__


def _cmd_experiments(_: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS

    for name in sorted(EXPERIMENTS):
        print(name)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import run_experiment

    print(f"== {args.experiment} ==")
    print(run_experiment(args.experiment, limit=args.limit))
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS, run_experiment

    seen = set()
    for name in EXPERIMENTS:
        driver_id = id(EXPERIMENTS[name])
        if driver_id in seen:
            continue
        seen.add(driver_id)
        print(f"== {name} ==")
        print(run_experiment(name, limit=args.limit))
        print()
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    if args.model in ("tiny-llama", "all"):
        from repro.experiments import pretrained_tiny_llama

        model, _ = pretrained_tiny_llama(verbose=True)
        print(f"tiny-llama ready: {model.num_parameters():,} parameters")
    if args.model in ("tiny-bert", "all"):
        from repro.experiments import pretrained_tiny_bert

        model, _ = pretrained_tiny_bert(verbose=True)
        print(f"tiny-bert ready: {model.num_parameters():,} parameters")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from repro.eval import build_suite, evaluate_suite
    from repro.experiments import get_world, pretrained_tiny_llama

    model, tokenizer = pretrained_tiny_llama()
    suite = build_suite(get_world())
    result = evaluate_suite(model, tokenizer, suite, limit=args.limit)
    print(result.table())
    return 0


def _parse_range(text: str, flag: str):
    try:
        low, _, high = text.partition(":")
        return (int(low), int(high if high else low))
    except ValueError:
        raise SystemExit(f"{flag} expects LOW:HIGH (e.g. 8:32), got {text!r}")


def _trace_params(args: argparse.Namespace) -> dict:
    """Family-specific generator params from CLI flags (manifest-ready)."""
    new_tokens = list(_parse_range(args.new_tokens, "--new-tokens"))
    prompt_len = list(_parse_range(args.prompt_len, "--prompt-len"))
    if args.trace == "poisson":
        return {"prompt_len": prompt_len, "new_tokens": new_tokens}
    if args.trace == "diurnal":
        return {
            "prompt_len": prompt_len,
            "new_tokens": new_tokens,
            "peak_ratio": args.peak_ratio,
            "period_s": args.period,
        }
    if args.trace == "bursty":
        return {
            "prompt_len": prompt_len,
            "new_tokens": new_tokens,
            "burst_factor": args.burst_factor,
        }
    if args.trace == "heavy-tail":
        return {
            "prompt_len": prompt_len,
            "new_tokens": new_tokens,
            "sigma": args.sigma,
        }
    if args.trace == "prefix":
        return {
            "n_tenants": args.tenants,
            "prefix_tokens": args.prefix_tokens,
            "suffix_len": list(_parse_range(args.suffix_len, "--suffix-len")),
            "new_tokens": new_tokens,
            "zipf_alpha": args.zipf_alpha,
        }
    raise SystemExit(f"unknown trace family {args.trace!r}")


def _parse_qos_mix(text: str, defaults) -> list:
    import dataclasses

    by_name = {cls.name: cls for cls in defaults}
    classes = []
    for item in text.split(","):
        name, sep, share_text = item.strip().partition("=")
        if name not in by_name:
            raise SystemExit(
                f"--qos-mix: unknown QoS class {name!r}; known: {sorted(by_name)}"
            )
        try:
            share = float(share_text) if sep else None
        except ValueError:
            share = None
        if share is None or share <= 0:
            raise SystemExit(
                f"--qos-mix expects NAME=SHARE with SHARE > 0, got {item!r}"
            )
        classes.append(dataclasses.replace(by_name[name], share=share))
    return classes


def _maybe_append_trajectory(args: argparse.Namespace, entry: dict) -> None:
    """Append one ledger line when the run persisted evidence."""
    if args.no_trajectory:
        return
    from repro.serving import append_trajectory

    path = append_trajectory(entry, path=args.trajectory)
    print(f"appended trajectory line to {path}")


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import dataclasses

    import numpy as np

    from repro.models import build_model, get_config
    from repro.serving import (
        DEFAULT_QOS_CLASSES,
        EngineConfig,
        RouterConfig,
        run_serve_bench,
        trace_from_manifest,
        trace_manifest,
        trace_stats,
        write_run_artifact,
    )

    config = get_config(args.model)
    model = build_model(config, rng=np.random.default_rng(args.seed))
    model.eval()
    variants_text = args.variants
    if variants_text is None:
        variants_text = "dense,rank8,rank1" if args.router else "dense,pr33"
    qos_classes = None
    if args.qos_mix:
        qos_classes = _parse_qos_mix(args.qos_mix, DEFAULT_QOS_CLASSES)
    router_config = None
    if args.router:
        try:
            router_config = RouterConfig(
                degrade_at=args.degrade_at,
                upgrade_at=args.upgrade_at,
                dwell_steps=args.dwell,
                watermark=args.watermark,
                degrade_ttft_s=args.degrade_ttft,
                upgrade_ttft_s=args.upgrade_ttft,
            )
        except Exception as error:
            raise SystemExit(str(error))
    trace_params = _trace_params(args)
    if args.router or args.qos_mix:
        # QoS tags ride inside the trace (and therefore the manifest), so
        # recorded routed runs replay with identical class assignments.
        mix_classes = qos_classes or list(DEFAULT_QOS_CLASSES)
        trace_params["qos_mix"] = {cls.name: cls.share for cls in mix_classes}
    # Build the trace *through* its manifest description so the recorded
    # run replays bit-identically (one seeded Generator end to end).
    trace_spec = trace_manifest(
        args.trace,
        args.requests,
        args.rate,
        config.vocab_size,
        args.seed,
        **trace_params,
    )
    trace = trace_from_manifest({"trace": trace_spec})
    trace_info = {"family": args.trace, "stats": trace_stats(trace)}
    drafter_spec = None
    spec_k = 4
    spec_adaptive = False
    if args.speculative:
        drafter_spec, _, k_text = args.speculative.partition(":")
        if k_text == "auto":
            # Acceptance-aware draft length: K adapts per request inside
            # [1, spec_k] from an EMA of observed acceptance rates.
            spec_adaptive = True
        elif k_text:
            try:
                spec_k = int(k_text)
            except ValueError:
                raise SystemExit(
                    f"--speculative expects DRAFTER[:K|:auto], got {args.speculative!r}"
                )
    engine_config = EngineConfig(
        max_batch=args.max_batch,
        token_budget=args.token_budget,
        n_blocks=args.blocks,
        block_tokens=args.block_tokens,
        spec_k=spec_k,
        spec_adaptive=spec_adaptive,
        prefix_sharing=not args.no_prefix_sharing,
    )
    variants = [spec.strip() for spec in variants_text.split(",") if spec.strip()]
    report = run_serve_bench(
        model,
        variants,
        trace,
        engine_config=engine_config,
        gpu_name=args.gpu,
        tp=args.tp,
        pp=args.pp,
        seed=args.seed,
        profile=args.profile,
        drafter_spec=drafter_spec,
        verify_identity=args.verify_identity,
        trace_info=trace_info,
        router=args.router,
        qos_classes=qos_classes,
        router_config=router_config,
    )
    print(report.table())
    print()
    for result in report.results:
        if result.spec != "dense" and "dense" in variants:
            print(
                f"{result.spec}: measured decode speedup over dense "
                f"{report.speedup_over_dense(result.spec):.2f}x "
                f"(hwmodel projects {result.projected_tokens_per_s:,.0f} tok/s "
                f"at batch {result.projection.batch})"
            )
    if args.json:
        import json
        from pathlib import Path

        path = Path(args.json)
        path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"wrote {path}")
    if args.run_dir or args.run_name:
        from pathlib import Path

        run_dir = (
            Path(args.run_dir)
            if args.run_dir
            else Path("benchmarks") / "runs" / args.run_name
        )
        manifest = {
            "name": run_dir.name,
            "model": args.model,
            "variants": variants,
            "gpu": args.gpu,
            "tp": args.tp,
            "pp": args.pp,
            "seed": args.seed,
            "speculative": args.speculative,
            "verify_identity": args.verify_identity,
            "router": args.router,
            "router_config": (
                dataclasses.asdict(router_config) if router_config else None
            ),
            "engine": dataclasses.asdict(engine_config),
            "trace": trace_spec,
        }
        write_run_artifact(run_dir, manifest, report)
        print(f"wrote run artifact {run_dir}/")
    if args.verify_identity and not all(
        result.tokens_match_unshared for result in report.results
    ):
        print("ERROR: paged-engine output diverged from the unshared engine")
        return 1
    if args.json or args.run_dir or args.run_name:
        entry = {
            "bench": "serve-bench",
            "model": args.model,
            "trace": args.trace,
            "tp": args.tp,
            "pp": args.pp,
            "requests": args.requests,
            "variants": variants,
            "decode_tokens_per_s": {
                result.spec: round(result.decode_tokens_per_s, 2)
                for result in report.results
            },
        }
        goodput_rates = {
            result.spec: round(result.goodput["rate"], 4)
            for result in report.results
            if result.goodput
        }
        if goodput_rates:
            entry["goodput_rates"] = goodput_rates
        comparison = report.goodput_vs_fixed()
        if comparison:
            entry["goodput_vs_fixed"] = comparison
        _maybe_append_trajectory(args, entry)
    return 0


def _cmd_bench_decode(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.models import build_model, get_config
    from repro.runtime.benchmark import run_decode_bench, run_spec_bench

    config = get_config(args.model)
    model = build_model(config, rng=np.random.default_rng(args.seed))
    model.eval()
    tp_degrees = [int(t) for t in args.tp.split(",") if t.strip()]
    if args.speculative:
        drafters = [d.strip() for d in args.drafters.split(",") if d.strip()]
        k_values = [int(k) for k in args.spec_k.split(",") if k.strip()]
        report = run_spec_bench(
            model,
            drafter_specs=drafters,
            k_values=k_values,
            tp_degrees=tp_degrees,
            prompt_tokens=args.prompt_tokens,
            new_tokens=args.new_tokens,
            seed=args.seed,
            decay=args.spec_decay,
        )
        print(report.table())
        if args.json:
            import json
            from pathlib import Path

            path = Path(args.json)
            path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
            print(f"wrote {path}")
        if not report.all_tokens_match:
            print("ERROR: speculative output diverged from dense greedy decoding")
            return 1
        if args.json:
            _maybe_append_trajectory(
                args,
                {
                    "bench": "bench-decode-spec",
                    "model": args.model,
                    "cells": len(report.cells),
                    "max_acceptance_rate": round(report.max_acceptance_rate, 4),
                    "best_speedup_tp1": round(report.best_speedup_tp1, 3),
                },
            )
        return 0
    variants = [spec.strip() for spec in args.variants.split(",") if spec.strip()]
    report = run_decode_bench(
        model,
        variant_specs=variants,
        tp_degrees=tp_degrees,
        prompt_tokens=args.prompt_tokens,
        new_tokens=args.new_tokens,
        seed=args.seed,
        profile=args.profile,
        bits=args.bits,
    )
    print(report.table())
    ratios = report.quant_decode_ratios()
    if ratios:
        print()
        for spec, ratio in ratios.items():
            print(f"{spec}: {ratio:.2f}x fp32 fast-path decode at tp=1")
        print(
            f"min quantized weight-memory reduction "
            f"{report.min_quant_memory_reduction:.2f}x (vs dense fp32 projections)"
        )
    if args.json:
        import json
        from pathlib import Path

        path = Path(args.json)
        path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"wrote {path}")
    if not report.all_bit_identical:
        print("ERROR: fast-path logits diverged from the Tensor-graph driver")
        return 1
    if args.json:
        entry = {
            "bench": "bench-decode",
            "model": args.model,
            "cells": len(report.cells),
            "decode_tokens_per_s": {
                f"{cell.spec}/tp{cell.tp}": round(
                    cell.fast.decode_tokens_per_s, 1
                )
                for cell in report.cells
            },
            "min_decode_speedup": round(report.min_decode_speedup, 3),
        }
        if report.min_quant_decode_ratio is not None:
            entry["min_quant_decode_ratio"] = round(
                report.min_quant_decode_ratio, 3
            )
        if report.min_quant_memory_reduction is not None:
            entry["min_quant_memory_reduction"] = round(
                report.min_quant_memory_reduction, 2
            )
        _maybe_append_trajectory(args, entry)
    return 0


def _cmd_quant_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.quant_sweep import (
        replay_quant_sweep,
        run_quant_sweep,
        sweep_manifest,
        write_quant_sweep_artifact,
    )

    if args.replay:
        report, matches = replay_quant_sweep(args.replay)
        for spec, match in matches.items():
            verdict = "bit-identical" if match else "FINGERPRINT MISMATCH"
            print(f"{spec}: {verdict}")
        if not all(matches.values()):
            print(f"ERROR: replay of {args.replay} diverged from the recorded run")
            return 1
        print(f"replayed {args.replay}: all {len(matches)} points bit-identical")
        return 0
    base_specs = [spec.strip() for spec in args.specs.split(",") if spec.strip()]
    bit_widths = [None] + [
        int(bits) for bits in args.bits.split(",") if bits.strip()
    ]
    report = run_quant_sweep(
        base_specs=base_specs,
        bit_widths=bit_widths,
        limit=args.limit,
        prompt_tokens=args.prompt_tokens,
        new_tokens=args.new_tokens,
        seed=args.seed,
    )
    print(report.table())
    if args.json:
        import json
        from pathlib import Path

        path = Path(args.json)
        path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"wrote {path}")
    run_dir = None
    if args.run_dir or args.run_name:
        from pathlib import Path

        run_dir = (
            Path(args.run_dir)
            if args.run_dir
            else Path("benchmarks") / "runs" / args.run_name
        )
        write_quant_sweep_artifact(
            run_dir, sweep_manifest(report, base_specs, bit_widths), report
        )
        print(f"wrote run artifact {run_dir}/")
    if not report.all_bit_identical:
        print("ERROR: fast-path logits diverged from the Tensor-graph driver")
        return 1
    if args.json or run_dir is not None:
        _maybe_append_trajectory(args, report.trajectory_entry())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.report import generate_report

    output = Path(args.output)
    generate_report(limit=args.limit, path=output)
    print(f"wrote {output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Characterizing the Accuracy-Efficiency Trade-off "
            "of Low-rank Decomposition in Language Models' (IISWC 2024)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list experiment ids").set_defaults(
        func=_cmd_experiments
    )

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment")
    run.add_argument("--limit", type=int, default=None, help="items per benchmark")
    run.set_defaults(func=_cmd_run)

    everything = sub.add_parser("all", help="run every experiment")
    everything.add_argument("--limit", type=int, default=None)
    everything.set_defaults(func=_cmd_all)

    train = sub.add_parser("train", help="train and cache the tiny models")
    train.add_argument(
        "--model", choices=("tiny-llama", "tiny-bert", "all"), default="tiny-llama"
    )
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("eval", help="evaluate the cached tiny Llama")
    evaluate.add_argument("--limit", type=int, default=None)
    evaluate.set_defaults(func=_cmd_eval)

    serve = sub.add_parser(
        "serve-bench",
        help="replay a Poisson trace through the serving engine per variant",
    )
    serve.add_argument("--model", default="serve-llama")
    serve.add_argument(
        "--variants",
        default=None,
        help=(
            "comma-separated specs: dense, pr<NN> (Table 4), rank<K> "
            "(default dense,pr33; with --router the quality ladder "
            "dense,rank8,rank1, best quality first)"
        ),
    )
    serve.add_argument(
        "--router",
        choices=("slo",),
        default=None,
        help=(
            "add an adaptively routed replay: requests carry QoS classes "
            "and the router walks the variant ladder under load "
            "(goodput is compared against every fixed variant)"
        ),
    )
    serve.add_argument(
        "--qos-mix",
        default=None,
        metavar="NAME=SHARE,...",
        help=(
            "reweight the default QoS classes (gold, interactive, batch), "
            "e.g. gold=0.5,batch=0.5 — omitted classes are dropped"
        ),
    )
    serve.add_argument(
        "--degrade-at", type=int, default=5,
        help="router: degrade one ladder level when backlog reaches N",
    )
    serve.add_argument(
        "--upgrade-at", type=int, default=1,
        help="router: upgrade one ladder level when backlog falls to N",
    )
    serve.add_argument(
        "--dwell", type=int, default=3,
        help="router: minimum engine steps between level changes",
    )
    serve.add_argument(
        "--watermark",
        choices=("backlog", "projected"),
        default="backlog",
        help=(
            "router watermark signal: integer backlog marks (--degrade-at/"
            "--upgrade-at) or projected TTFT seconds (--degrade-ttft/"
            "--upgrade-ttft)"
        ),
    )
    serve.add_argument(
        "--degrade-ttft", type=float, default=0.5,
        help="projected watermark: degrade when projected TTFT exceeds S seconds",
    )
    serve.add_argument(
        "--upgrade-ttft", type=float, default=0.1,
        help="projected watermark: upgrade when projected TTFT falls below S seconds",
    )
    serve.add_argument("--requests", type=int, default=32)
    serve.add_argument("--rate", type=float, default=50.0, help="arrivals per second")
    serve.add_argument("--prompt-len", default="8:32", help="prompt length LOW:HIGH")
    serve.add_argument("--new-tokens", default="4:16", help="generation budget LOW:HIGH")
    serve.add_argument(
        "--trace",
        default="poisson",
        choices=("poisson", "diurnal", "bursty", "heavy-tail", "prefix"),
        help="trace family shaping arrivals/lengths (see EXPERIMENTS.md)",
    )
    serve.add_argument(
        "--tenants", type=int, default=4,
        help="prefix trace: number of tenants with distinct shared prefixes",
    )
    serve.add_argument(
        "--prefix-tokens", type=int, default=32,
        help="prefix trace: shared prefix length per tenant "
             "(align to --block-tokens for full sharing)",
    )
    serve.add_argument(
        "--suffix-len", default="4:12",
        help="prefix trace: private suffix length LOW:HIGH",
    )
    serve.add_argument(
        "--zipf-alpha", type=float, default=1.0,
        help="prefix trace: tenant popularity skew (0 = uniform)",
    )
    serve.add_argument(
        "--burst-factor", type=float, default=8.0,
        help="bursty trace: rate multiplier inside bursts",
    )
    serve.add_argument(
        "--peak-ratio", type=float, default=4.0,
        help="diurnal trace: peak-to-trough arrival-rate ratio",
    )
    serve.add_argument(
        "--period", type=float, default=10.0,
        help="diurnal trace: seconds per compressed day",
    )
    serve.add_argument(
        "--sigma", type=float, default=0.8,
        help="heavy-tail trace: log-normal length spread",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--gpu", default="a100-80gb", help="GPU spec for the projection")
    serve.add_argument("--max-batch", type=int, default=8)
    serve.add_argument("--token-budget", type=int, default=64)
    serve.add_argument("--blocks", type=int, default=256)
    serve.add_argument("--block-tokens", type=int, default=16)
    serve.add_argument(
        "--tp",
        type=int,
        default=1,
        help="tensor-parallel degree: run each variant sharded over N ranks",
    )
    serve.add_argument(
        "--pp",
        type=int,
        default=1,
        help=(
            "pipeline-parallel depth: partition each variant's layers over "
            "P stages (composes with --tp into a P x N device grid)"
        ),
    )
    serve.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="dump the full metrics/projection report as JSON",
    )
    serve.add_argument(
        "--profile",
        action="store_true",
        help="record and print the fast path's per-op wall-time profile",
    )
    serve.add_argument(
        "--no-prefix-sharing",
        action="store_true",
        help="serve from the paged store with no prefix lookup or sealing: "
             "every request prefills its whole prompt into private pages",
    )
    serve.add_argument(
        "--verify-identity",
        action="store_true",
        help="re-replay each variant on the unshared engine and fail "
             "unless every request's tokens match exactly",
    )
    serve.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="persist manifest.json/metrics.jsonl/summary.json to DIR",
    )
    serve.add_argument(
        "--run-name",
        default=None,
        metavar="NAME",
        help="persist the run artifact to benchmarks/runs/NAME/",
    )
    serve.add_argument(
        "--speculative",
        default=None,
        metavar="DRAFTER[:K|:auto]",
        help=(
            "serve every request speculatively: the variant verifies K "
            "(default 4) drafts per cycle from this drafter spec, e.g. "
            "rank8 or rank1:8; ':auto' adapts K per request from the "
            "observed acceptance rate"
        ),
    )
    serve.add_argument(
        "--trajectory",
        default=None,
        metavar="PATH",
        help="performance-ledger path (default benchmarks/trajectory.jsonl)",
    )
    serve.add_argument(
        "--no-trajectory",
        action="store_true",
        help="do not append a summary line to the performance ledger",
    )
    serve.set_defaults(func=_cmd_serve_bench)

    bench_decode = sub.add_parser(
        "bench-decode",
        help="measure Tensor-path vs fast-path prefill/decode throughput",
    )
    bench_decode.add_argument("--model", default="serve-llama")
    bench_decode.add_argument(
        "--variants",
        default="dense,rank1,rank8",
        help="comma-separated specs: dense, rank<K>, pr<NN>, <base>-int<B>",
    )
    bench_decode.add_argument(
        "--bits",
        type=int,
        default=None,
        metavar="B",
        help=(
            "also measure each variant's int-B quantized twin "
            "(e.g. 8 adds dense-int8 next to dense) and report the "
            "quantized-vs-fp32 decode ratio and weight-memory reduction"
        ),
    )
    bench_decode.add_argument(
        "--tp", default="1,2", help="comma-separated tensor-parallel degrees"
    )
    bench_decode.add_argument("--prompt-tokens", type=int, default=32)
    bench_decode.add_argument("--new-tokens", type=int, default=48)
    bench_decode.add_argument("--seed", type=int, default=0)
    bench_decode.add_argument(
        "--json", default=None, metavar="PATH", help="dump the report as JSON"
    )
    bench_decode.add_argument(
        "--profile",
        action="store_true",
        help="record and print the fast path's per-op wall-time profile",
    )
    bench_decode.add_argument(
        "--speculative",
        action="store_true",
        help=(
            "benchmark speculative decoding instead: low-rank drafters "
            "propose tokens, the dense model verifies (token-identical by "
            "contract); reports acceptance rate and effective tok/s vs the "
            "dense fast path"
        ),
    )
    bench_decode.add_argument(
        "--drafters",
        default="rank8,rank1",
        help="comma-separated drafter specs for --speculative",
    )
    bench_decode.add_argument(
        "--spec-k",
        default="4",
        help="comma-separated draft lengths K for --speculative",
    )
    bench_decode.add_argument(
        "--spec-decay",
        type=float,
        default=0.5,
        help=(
            "singular-spectrum decay imposed on the benchmark model's "
            "weights (trained-weight regime; 0 disables shaping)"
        ),
    )
    bench_decode.add_argument(
        "--trajectory",
        default=None,
        metavar="PATH",
        help="performance-ledger path (default benchmarks/trajectory.jsonl)",
    )
    bench_decode.add_argument(
        "--no-trajectory",
        action="store_true",
        help="do not append a summary line to the performance ledger",
    )
    bench_decode.set_defaults(func=_cmd_bench_decode)

    quant_sweep = sub.add_parser(
        "quant-sweep",
        help=(
            "measure the rank × bits joint design space on the pretrained "
            "tiny Llama: accuracy, fast-path decode tok/s, and hwmodel "
            "memory/energy per (variant, precision) point"
        ),
    )
    quant_sweep.add_argument(
        "--specs",
        default="dense,rank8,rank1",
        help="comma-separated base variant specs to cross with precisions",
    )
    quant_sweep.add_argument(
        "--bits",
        default="8,4",
        help="comma-separated quantized widths (fp32 is always included)",
    )
    quant_sweep.add_argument(
        "--limit", type=int, default=24, help="items per accuracy benchmark"
    )
    quant_sweep.add_argument("--prompt-tokens", type=int, default=16)
    quant_sweep.add_argument("--new-tokens", type=int, default=24)
    quant_sweep.add_argument("--seed", type=int, default=0)
    quant_sweep.add_argument(
        "--json", default=None, metavar="PATH", help="dump the report as JSON"
    )
    quant_sweep.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="persist manifest.json/metrics.jsonl/summary.json to DIR",
    )
    quant_sweep.add_argument(
        "--run-name",
        default=None,
        metavar="NAME",
        help="persist the run artifact to benchmarks/runs/NAME/",
    )
    quant_sweep.add_argument(
        "--replay",
        default=None,
        metavar="DIR",
        help=(
            "instead of sweeping, rebuild the sweep recorded in DIR from "
            "its manifest and verify every point's logits fingerprint"
        ),
    )
    quant_sweep.add_argument(
        "--trajectory",
        default=None,
        metavar="PATH",
        help="performance-ledger path (default benchmarks/trajectory.jsonl)",
    )
    quant_sweep.add_argument(
        "--no-trajectory",
        action="store_true",
        help="do not append a summary line to the performance ledger",
    )
    quant_sweep.set_defaults(func=_cmd_quant_sweep)

    report = sub.add_parser(
        "report", help="regenerate every artifact into a markdown report"
    )
    report.add_argument("--limit", type=int, default=60)
    report.add_argument("--output", default="RESULTS.md")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
