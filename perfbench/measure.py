"""The two kinds of benchmark run: end-to-end (untraced) and per-layer (traced)."""

from __future__ import annotations

import statistics

import tracer as T
import workloads as W

# traced ops whose spans cover less of their wall time than this fail
MIN_SELF_COVERAGE = 0.95


def end_to_end(w: W.Workload, seed: int, seconds: float, checks: W.Checks) -> dict:
    """Set-up time, the untraced closed loop, then a tracemalloc pass."""
    bench, setup_times, _ = W.set_up(w, seed)
    print(f"# set-up times: {', '.join(f'{s:.4f}' for s in setup_times)} s")
    results, pairs = W.timed_loop(bench, seconds, checks)
    heap = W.heap_pass(bench, pairs, checks)
    metrics = {"setup_s": statistics.median(setup_times)}
    for mode in W.MODES:
        metrics[f"step_s.{mode}.p50"] = W.p50(results[mode])
        done = W.completed(results[mode])
        mean_s = sum(r.seconds for r in done) / len(done)
        print(f"# {mode}: {len(done)} timed steps, mean {mean_s:.4f} s, "
              f"{w.batch / mean_s:.4f} samples/s")
        metrics[f"peak_activation_bytes.{mode}"] = max(r.peak_bytes for r in done)
        metrics[f"heap_peak_bytes.{mode}"] = heap[mode]
    return metrics


def per_layer(w: W.Workload, seed: int, seconds: float, checks: W.Checks) -> dict:
    """The untraced loop, then a traced pass over a fresh set-up."""
    bench, _, make_times = W.set_up(w, seed)
    untraced, _ = W.timed_loop(bench, seconds, checks)
    rev_macs, head_macs, pred = W.cost_model(bench)

    fresh = W.Bench(w, seed)
    tracer = T.Tracer()
    layer = {mode: [] for mode in W.MODES}
    traced = {mode: [] for mode in W.MODES}

    def after_op(mode, result):
        spans = tracer.take()
        traced[mode].append(result)
        if result is not None:
            layer[mode].append(T.summarize(spans, result.seconds))

    tracer.install(W.revfuse)
    try:
        for t in range(w.traced_pairs):
            fresh.pair(t, checks, after_op)
    finally:
        tracer.restore()
    if not tracer.restored():
        checks.fail("trace: a wrapper was not restored")
    print(f"# trace: {tracer.wrapper_count} wrappers installed, then restored")

    metrics = {}
    for mode in W.MODES:
        for t, (a, b) in enumerate(zip(untraced[mode], traced[mode])):
            if a is not None and b is not None and a.value != b.value:
                checks.fail(f"trace: {mode} op {t} reads {b.value!r} traced, "
                            f"{a.value!r} untraced")
        sums: dict[str, float] = {}
        for summary in layer[mode]:
            cover = summary["bench.self_coverage"]
            if not MIN_SELF_COVERAGE <= cover <= 1.0 or summary["min_self_s"] < -1e-6:
                checks.fail(f"trace: {mode} spans cover {cover:.4f} of the op, "
                            f"min self time {summary['min_self_s']:.2e} s")
            for k, v in summary.items():
                sums[k] = sums.get(k, 0.0) + v
        n = max(len(layer[mode]), 1)
        m = {name: sums.get(name, 0.0) / n for name, _ in T.LAYER_METRICS}
        done = W.completed(traced[mode])
        f_fwd, f_bwd = done[0].f_evals if done else (0, 0)
        m["context.f_evals.forward"], m["context.f_evals.backward"] = f_fwd, f_bwd
        m["bench.step.s"] = W.p50(traced[mode])
        m["bench.trace_overhead.s"] = m["bench.step.s"] - W.p50(untraced[mode])
        # replayed forwards run the conv kernels again, so they count
        conv_macs = rev_macs * (f_fwd + f_bwd) / max(f_fwd, 1) + head_macs
        conv_fwd_s = m["kernels.conv1x1.fwd.s"] + m["kernels.dwconv.fwd.s"]
        m["kernels.conv.fwd.gmac_per_s"] = conv_macs / conv_fwd_s / 1e9
        metrics.update({f"{mode}.{k}": v for k, v in m.items()})

    checks.attempted += 1
    recon = fresh.roundtrip_error(fresh.models["recompute"])
    if not recon <= W.BROKEN_INVERSE_REL_ERR:
        checks.fail(f"reconstruction error {recon:.3e} (inverse broken)")
    metrics.update({
        "engine.recompute_over_stored":
            W.p50(untraced["recompute"]) / W.p50(untraced["stored"]),
        "costmodel.recompute_over_stored_pred": pred,
        "costmodel.fwd_macs": rev_macs + head_macs,
        "dataset.make_s": statistics.median(make_times),
        "coupling.recon_rel_err": recon,
    })
    return metrics
