"""Backbone assembly: stem rearrangement, pyramid growth, published-scale
shapes, head behavior, full-model inversion, and toy training runs."""

from __future__ import annotations

import gc
import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from revfuse import coupling, engine
from revfuse.backbone import (BackboneConfig, ClassifierHead, SGDMomentum,
                              StemStage, build, image_pyramid, neck_channels,
                              scale_channels, softmax_cross_entropy,
                              step_gradients, train_toy)
from revfuse.context import BACKWARD, FORWARD
from revfuse.coupling import (FeaturePyramid, pyramid_max_rel_diff,
                              randomize_parameters)
from revfuse.dataset import make_synthetic_dataset
from revfuse.engine import (LiveBytesRegistry, Tape, _iter_arrays,
                            count_forward_evals, invert_chain)
from revfuse.errors import ConfigurationError, DivergenceError
from revfuse.layers import Conv2d
from revfuse.tensor import Tensor

from helpers import rel_diff, richardson_fd, watch_norm_caches

TOY = BackboneConfig(channels=(16, 16, 16, 16), width_multiplier=1.0,
                     extra_depth=1, resolution=32, num_classes=4,
                     in_channels=1, precision="double", seed=0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_scale_channels_rounds_to_sixteen():
    assert scale_channels(48, 1.0) == 48
    assert scale_channels(48, 2.0) == 96
    assert scale_channels(80, 1.33) == 112
    assert scale_channels(48, 0.01) == 16          # floor at one quantum


def test_width_multiplier_two_matches_published_s2():
    cfg = BackboneConfig(channels=(48, 64, 80, 160), width_multiplier=2.0,
                         extra_depth=2, resolution=256, num_classes=10)
    assert cfg.effective_channels == (96, 128, 160, 320)


def test_neck_channels_published_s0():
    assert neck_channels((48, 64, 80, 160)) == (48, 64, 128, 320)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        replace(TOY, resolution=50)                    # not divisible by 32
    with pytest.raises(ConfigurationError):
        replace(TOY, channels=(12, 16, 16, 16))        # not multiple of 16
    with pytest.raises(ConfigurationError):
        replace(TOY, num_classes=1)
    with pytest.raises(ConfigurationError):
        replace(TOY, extra_depth=-1)
    with pytest.raises(ConfigurationError):
        replace(TOY, precision="half")
    # finest width must be divisible by 16 * in_channels for the stem
    with pytest.raises(ConfigurationError):
        replace(TOY, in_channels=3)


def test_pyramid_shapes():
    shapes = TOY.pyramid_shapes(batch=2)
    assert shapes == [(2, 16, 8, 8), (2, 16, 4, 4), (2, 16, 2, 2), (2, 16, 1, 1)]


def test_depth_controls_block_count():
    assert len(build(replace(TOY, extra_depth=0)).blocks) == 4   # stem + 3 expands
    assert len(build(replace(TOY, extra_depth=3)).blocks) == 7


def _reachable_convs(root) -> list:
    """Every ``Conv2d`` reachable from ``root`` through the attributes,
    lists, tuples and dicts of revfuse objects."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Conv2d):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif type(obj).__module__.startswith("revfuse."):
            stack.extend(getattr(obj, "__dict__", {}).values())
    return found


def test_every_conv_of_an_s0_model_is_centred():
    model = build(BackboneConfig(channels=(48, 64, 80, 160), extra_depth=2,
                                 resolution=224, num_classes=1000, in_channels=3))
    convs = _reachable_convs(model)
    # 1x1 convs, 3x3 up transforms and necks, the head's 5x5 downs and the
    # silos' down transforms over gaps 1..3
    assert {c.params.kernel for c in convs} == {(k, k) for k in (1, 3, 5, 9, 17)}
    assert all(c.params.padding == c.params.kernel[0] // 2 for c in convs)


# ---------------------------------------------------------------------------
# stem
# ---------------------------------------------------------------------------

def test_stem_round_trip_and_duplication():
    rng = np.random.default_rng(80)
    stem = StemStage(in_channels=1, duplication=1)
    x = rng.standard_normal((2, 1, 16, 16))
    p = FeaturePyramid([Tensor(x)])
    out, _ = stem.forward(p)
    assert out.shapes == ((2, 16, 4, 4),)          # 16x channels, /4 spatial
    back, extra = stem.inverse(out)
    assert extra is None
    assert np.array_equal(back.levels[0].data, x)


def test_stem_duplication_replicates_and_backward_sums():
    rng = np.random.default_rng(81)
    stem = StemStage(in_channels=1, duplication=2)
    x = rng.standard_normal((1, 1, 8, 8))
    out, cache = stem.forward(FeaturePyramid([Tensor(x)]), want_cache=True)
    assert out.shapes == ((1, 32, 2, 2),)
    back, _ = stem.inverse(out)
    assert np.array_equal(back.levels[0].data, x)
    # gradient of a duplicated input is the sum over the copies
    gy = Tensor(np.ones(out.shapes[0]))
    _, gx, grads = stem.backward(cache, None, [gy])
    assert grads == {}
    assert np.all(gx[0].data == 2.0)


def test_published_scale_s0_shapes():
    cfg = BackboneConfig(channels=(48, 64, 80, 160), width_multiplier=1.0,
                         extra_depth=0, resolution=224, num_classes=10,
                         in_channels=3, precision="single", seed=0)
    model = build(cfg)
    assert model.blocks[0].out_channels == 48      # stem: 3 -> 48 channels
    rng = np.random.default_rng(82)
    p = image_pyramid(rng.standard_normal((1, 3, 224, 224)), cfg.dtype)
    tape = Tape(model.blocks, mode="recompute")
    out = tape.forward(p)
    tape.discard()
    assert out.shapes == ((1, 48, 56, 56), (1, 64, 28, 28),
                          (1, 80, 14, 14), (1, 160, 7, 7))


# ---------------------------------------------------------------------------
# full-model inversion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("precision,tol", [("double", 1e-11), ("single", 1e-4)])
def test_toy_backbone_inversion(precision, tol):
    # resolution 64 keeps the coarsest level at 2x2 spatial: batch statistics
    # over a couple of values are degenerate and amplify reconstruction error
    cfg = replace(TOY, precision=precision, extra_depth=2, resolution=64)
    model = build(cfg)
    rng = np.random.default_rng(83)
    for block in model.blocks:
        randomize_parameters(block.parameters(), rng)
    p = image_pyramid(rng.standard_normal((2, 1, 64, 64)), cfg.dtype)
    tape = Tape(model.blocks, mode="recompute")
    out = tape.forward(p)
    tape.discard()
    back = invert_chain(model.blocks, out)
    assert pyramid_max_rel_diff(back, p) < tol


def _chain_running_averages(model) -> list[bytes]:
    return [a.tobytes() for silo in model.silos
            for t in [*silo.down.values(), *silo.up.values()]
            for bn in (t.block.bn_expand, t.block.bn_dw, t.block.bn_project)
            if bn is not None
            for a in (bn.state.running_mean, bn.state.running_var)]


def test_replays_without_a_ctx_leave_the_running_averages_alone():
    # an inverse and a reverse step replay the forward: given no ctx they
    # run in the backward phase, so no norm folds a batch's statistics
    # into its running averages a second time
    cfg = replace(TOY, extra_depth=2, resolution=64)
    model = build(cfg)
    rng = np.random.default_rng(84)
    p = image_pyramid(rng.standard_normal((2, 1, 64, 64)), cfg.dtype)
    tape = Tape(model.blocks, mode="recompute")
    out = tape.forward(p)
    tape.discard()
    before = _chain_running_averages(model)
    invert_chain(model.blocks, out)
    assert _chain_running_averages(model) == before
    silo = model.blocks[-1]
    silo.inverse(out)
    assert _chain_running_averages(model) == before
    registry = LiveBytesRegistry()
    silo.backward(None, out, [Tensor(np.ones(t.shape)) for t in out.levels], None, registry)
    del out                     # the levels its replay caches read
    registry.assert_empty()
    assert _chain_running_averages(model) == before


# ---------------------------------------------------------------------------
# head
# ---------------------------------------------------------------------------

def test_head_zero_pyramid_yields_classifier_bias():
    rng = np.random.default_rng(84)
    head = ClassifierHead((16, 16, 16, 16), num_classes=5, rng=rng,
                          dtype=np.float64)
    p = FeaturePyramid([Tensor(np.zeros(s))
                        for s in TOY.pyramid_shapes(batch=2)])
    logits, _ = head.forward(p, None)
    bias = dict(head.parameters())["head.classifier.bias"]
    assert np.array_equal(logits, np.broadcast_to(bias, (2, 5)))


def test_head_final_width_is_four_times_last_neck():
    rng = np.random.default_rng(85)
    head = ClassifierHead((16, 16, 16, 16), num_classes=4, rng=rng,
                          dtype=np.float64)
    shapes = dict((n, a.shape) for n, a in head.parameters())
    assert shapes["head.final.weight"] == (128, 32, 1, 1)   # 4 * neck(32)
    assert shapes["head.classifier.weight"] == (4, 128)


def _run_head(head, p, labels, mode):
    """The head alone on a tape: (logits, input gradients, grads, the bytes
    still counted when the tape lets go of every entry)."""
    tape = Tape(head.blocks, mode)
    tape.registry = _LeakLog()
    out = tape.forward(p, step_key=0)
    logits = out.levels[0].data[:, :, 0, 0].copy()
    del out
    _, glogits = softmax_cross_entropy(logits, labels)
    result = tape.backward([Tensor(glogits[:, :, None, None])])
    return logits, result.input_grads, result.param_grads, tape.registry.leaked_bytes


def test_head_gradients_match_finite_differences():
    rng = np.random.default_rng(86)
    head = ClassifierHead((16, 16, 16, 16), num_classes=3, rng=rng,
                          dtype=np.float64)
    randomize_parameters(head.parameters(), rng)
    p = FeaturePyramid([Tensor(rng.standard_normal(s))
                        for s in TOY.pyramid_shapes(batch=2)])
    labels = np.array([0, 2])

    def loss():
        logits, _ = head.forward(p, None)
        return softmax_cross_entropy(logits, labels)[0]

    _, glevels, grads, _ = _run_head(head, p, labels, "stored")

    params = dict(head.parameters())
    grad_scale = max(float(np.max(np.abs(g))) for g in grads.values())
    worst = 0.0
    for name in sorted(params):
        flat = params[name].reshape(-1)
        gflat = grads[name].reshape(-1)
        idx = int(rng.integers(flat.size))
        fd = richardson_fd(loss, flat, idx, 1e-4)
        an = float(gflat[idx])
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-3 * grad_scale))
    assert worst < 1e-4

    # input gradient through the whole head, same audit
    for lvl in range(4):
        flat = p.levels[lvl].data.reshape(-1)
        gflat = glevels[lvl].data.reshape(-1)
        idx = int(rng.integers(flat.size))
        fd = richardson_fd(loss, flat, idx, 1e-4)
        an = float(gflat[idx])
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-5) < 1e-4


def _running_averages(head) -> list[bytes]:
    norms = [n for b in head.necks + head.downs for n in (b.bn_dw, b.bn_project)]
    return [a.tobytes() for n in norms + [head.tail.final_norm]
            for a in (n.state.running_mean, n.state.running_var)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_head_replay_gives_the_stored_bits(dtype):
    rng = np.random.default_rng(88)
    p = FeaturePyramid([Tensor(rng.standard_normal(s).astype(dtype))
                        for s in TOY.pyramid_shapes(batch=2)])
    labels = np.array([0, 2])
    runs = []
    for mode in ("stored", "recompute"):
        head = ClassifierHead((16, 16, 16, 16), num_classes=3,
                              rng=np.random.default_rng(89), dtype=dtype)
        randomize_parameters(head.parameters(), np.random.default_rng(90))
        logits, glevels, grads, leaked = _run_head(head, p, labels, mode)
        assert leaked == p.nbytes       # only the necks' inputs live
        runs.append((logits.tobytes(), [g.data.tobytes() for g in glevels],
                     list(grads), [g.tobytes() for g in grads.values()],
                     _running_averages(head)))
    assert runs[0] == runs[1]
    # the tape's VJP order: the tail, down2..0, neck0..3
    assert [k for k in runs[0][2] if k.endswith("project.weight")] == [
        f"head.{s}.project.weight" for s in
        ("down2", "down1", "down0", "neck0", "neck1", "neck2", "neck3")]
    assert runs[0][2][0].startswith("head.classifier.")


@pytest.mark.parametrize("mode", ["stored", "recompute"])
def test_a_fault_in_a_head_stage_is_named_at_its_block(mode):
    # the head's stages are tape blocks, so the tape names the one at fault
    ds = make_synthetic_dataset(4, 2, 32, 1, seed=24)
    model = build(TOY)
    first = len(model.blocks)           # the head's first block, neck3
    dict(model.head.parameters())["head.down1.dw.weight"].flat[0] = np.nan
    with pytest.raises(FloatingPointError,
                       match=rf"block {first + 5} \(head.down1\) forward"):
        step_gradients(model, mode, ds.images, ds.labels)
    model = build(TOY)
    model.head = ClassifierHead((16, 16, 16, 32), num_classes=4,
                                rng=np.random.default_rng(0), dtype=np.float64)
    with pytest.raises(ConfigurationError,
                       match=rf"block {first} \(head.neck3\): conv expects 32"):
        step_gradients(model, mode, ds.images, ds.labels)


def test_step_key_none_folds_the_head_norms_once_in_both_modes():
    ds = make_synthetic_dataset(4, 2, 32, 1, seed=19)
    averages = []
    for mode in ("stored", "recompute"):
        model = build(TOY)
        step_gradients(model, mode, ds.images, ds.labels, step_key=None)
        averages.append(_running_averages(model.head))
    assert averages[0] == averages[1]


# ---------------------------------------------------------------------------
# loss, optimizer, dataset
# ---------------------------------------------------------------------------

def test_softmax_cross_entropy_uniform_logits():
    logits = np.zeros((3, 4))
    labels = np.array([0, 1, 3])
    loss, grad = softmax_cross_entropy(logits, labels)
    assert abs(loss - np.log(4.0)) < 1e-12
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)
    assert grad.shape == (3, 4)


def _cross_entropy_in(dtype, logits, labels):
    """The loss and gradient formulas, evaluated in ``dtype``."""
    z = logits.astype(dtype)
    z = z - z.max(axis=1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = len(labels)
    grad = np.exp(log_p)
    grad[np.arange(n), labels] -= 1.0
    return float(-log_p[np.arange(n), labels].mean()), grad / n


def test_softmax_cross_entropy_forms_the_loss_in_float64():
    # a memorised float32 batch: the softmax sums are within 1e-6 of 1,
    # where float32 steps by 1.2e-7, so a float32 log is 3% off the loss
    logits = np.array([[14.0, -1.5, 0.25, -3.0], [0.5, 15.5, -0.75, 1.0]], np.float32)
    labels = np.array([0, 1])
    wide = logits.astype(np.float64)
    rest = np.exp(wide - wide[[0, 1], labels][:, None])
    rest[[0, 1], labels] = 0.0
    exact = float(np.mean(np.log1p(rest.sum(axis=1))))
    loss, grad = softmax_cross_entropy(logits, labels)
    assert abs(loss - exact) < 1e-9 * exact
    # the loss's bits are float64's; the gradient stays in float32
    assert loss == _cross_entropy_in(np.float64, logits, labels)[0]
    assert grad.dtype == np.float32
    assert grad.tobytes() == _cross_entropy_in(np.float32, logits, labels)[1].tobytes()
    loss64, grad64 = softmax_cross_entropy(wide, labels)
    assert (loss64, grad64.tobytes()) == (loss, _cross_entropy_in(np.float64, wide, labels)[1].tobytes())


def test_sgd_momentum_two_hand_computed_steps():
    w = np.array([1.0, -2.0])
    opt = SGDMomentum([("w", w)], lr=0.1, momentum=0.5)
    opt.step({"w": np.array([1.0, 1.0])})
    assert np.allclose(w, [0.9, -2.1], atol=1e-15)       # v = g
    opt.step({"w": np.array([1.0, 1.0])})
    assert np.allclose(w, [0.75, -2.25], atol=1e-15)     # v = 0.5 v + g = 1.5


def test_synthetic_dataset_is_separable_and_deterministic():
    ds1 = make_synthetic_dataset(num_classes=4, samples=64, image_size=16,
                                 channels=1, noise=0.25, seed=9)
    ds2 = make_synthetic_dataset(num_classes=4, samples=64, image_size=16,
                                 channels=1, noise=0.25, seed=9)
    assert np.array_equal(ds1.images, ds2.images)
    assert np.array_equal(ds1.labels, ds2.labels)
    assert ds1.images.shape == (64, 1, 16, 16)
    assert set(np.unique(ds1.labels)) <= set(range(4))
    # labels are the nearest prototype by construction: re-derive them
    protos = np.stack([ds1.images[ds1.labels == k].mean(axis=0)
                       for k in range(4)])
    d = ((ds1.images[:, None] - protos[None]) ** 2).sum(axis=(2, 3, 4))
    assert (d.argmin(axis=1) == ds1.labels).mean() > 0.95


def test_synthetic_dataset_validation():
    with pytest.raises(ConfigurationError):
        make_synthetic_dataset(num_classes=1, samples=8, image_size=16)
    with pytest.raises(ConfigurationError):
        make_synthetic_dataset(num_classes=2, samples=0, image_size=16)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_step_gradients_mode_parity_full_model():
    model = build(TOY)
    rng = np.random.default_rng(87)
    randomize_parameters(model.parameters(), rng)
    ds = make_synthetic_dataset(4, 8, 32, 1, seed=11)
    loss_s, gs, _, cs = step_gradients(model, "stored", ds.images[:2], ds.labels[:2])
    loss_r, gr, _, cr = step_gradients(model, "recompute", ds.images[:2], ds.labels[:2])
    assert loss_s == loss_r                      # identical forward
    scale = max(float(np.max(np.abs(g))) for g in gs.values())
    for name in gs:
        err = float(np.max(np.abs(gs[name] - gr[name])))
        denom = max(float(np.max(np.abs(gs[name]))), 1e-3 * scale)
        assert err / denom < 1e-10, name
    from revfuse.context import BACKWARD, FORWARD
    from revfuse.engine import count_forward_evals
    assert count_forward_evals(cs)[BACKWARD] == 0
    assert count_forward_evals(cr)[BACKWARD] == count_forward_evals(cr)[FORWARD]


def test_model_silos_give_the_f_eval_contract():
    # a benchmark derives its exact f-eval contract from ``Model.silos``
    model = build(replace(TOY, extra_depth=2))
    assert [s.name for s in model.silos] == [
        "expand1", "expand2", "expand3", "fuse0", "fuse1"]
    assert model.silos == model.blocks[1:]
    assert [s.expands for s in model.silos] == [True, True, True, False, False]
    contract = sum(len(s.spec.down_pairs()) + len(s.spec.up_pairs())
                   for s in model.silos)
    ds = make_synthetic_dataset(4, 2, 32, 1, seed=12)
    for mode in ("stored", "recompute"):
        _, _, _, counters = step_gradients(model, mode, ds.images, ds.labels)
        evals = count_forward_evals(counters)
        assert evals[FORWARD] == contract
        assert evals[BACKWARD] == (contract if mode == "recompute" else 0)


def test_recompute_heap_is_flat_in_depth_once_param_grads_are_subtracted():
    # The recompute heap peak holds two pyramids, one transform cache and
    # kernel scratch, none of which grows with depth; what does grow is the
    # O(params) gradient dict, so it is subtracted.  S0 widths at 64 px keep
    # the arrays large enough that Python object overhead (which made a
    # 26% spread at toy scale) does not swamp them.
    cfg = BackboneConfig(channels=(48, 64, 80, 160), extra_depth=1, resolution=64,
                         num_classes=10, in_channels=3, precision="single", seed=3)
    ds = make_synthetic_dataset(10, 2, 64, 3, seed=13)
    net = []
    for depth in (1, 2, 4):
        model = build(replace(cfg, extra_depth=depth))
        step_gradients(model, "recompute", ds.images, ds.labels)   # warm-up
        tracemalloc.start()
        try:
            _, grads, _, _ = step_gradients(model, "recompute", ds.images, ds.labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        net.append(peak - _footprint(grads))
    assert max(net) <= 1.02 * min(net), net


def _footprint(grads) -> int:
    """Heap bytes of a gradient dict: each array's object (with its data, or
    plus it for a view), each key and the dict itself."""
    return sys.getsizeof(grads) + sum(
        sys.getsizeof(k) + sys.getsizeof(g) + (0 if g.base is None else g.nbytes)
        for k, g in grads.items())


def test_recompute_heap_follows_the_registry():
    # Once param grads are subtracted, the recompute heap holds what the
    # registry counts plus kernel scratch; it stays within twice the
    # registry peak only if the step drops what the registry has released.
    cfg = BackboneConfig(channels=(48, 64, 80, 160), extra_depth=1, resolution=64,
                         num_classes=10, in_channels=3, precision="single", seed=3)
    ds = make_synthetic_dataset(10, 2, 64, 3, seed=13)
    for depth in (1, 2, 4):
        model = build(replace(cfg, extra_depth=depth))
        step_gradients(model, "recompute", ds.images, ds.labels)   # warm-up
        tracemalloc.start()
        try:
            _, grads, registry, _ = step_gradients(model, "recompute",
                                                   ds.images, ds.labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        net = peak - _footprint(grads)
        assert net <= 2 * registry.peak, (depth, net, registry.peak)


def test_the_recompute_peak_is_reached_before_the_chain_runs_backward():
    # s0-128-train's geometry.  A reverse step rebuilds its block's input in
    # the arrays of its output, so the chain's own high (one pyramid and one
    # transform's working set) stays below the head's tail VJP (the chain
    # output, the four aggregates and the tail's cache), which runs before
    # the chain's backward
    cfg = BackboneConfig(channels=(48, 64, 80, 160), extra_depth=2, resolution=128,
                         num_classes=10, in_channels=3, precision="single", seed=1)
    ds = make_synthetic_dataset(10, 2, 128, 3, seed=18)
    model = build(cfg)
    at_start = []
    backward = model.blocks[-1].backward

    def watched(*args):
        registry = args[-1]
        at_start.append(registry.peak)
        registry.peak = registry.current     # the chain's own high from here
        return backward(*args)

    model.blocks[-1].backward = watched
    _, _, registry, _ = step_gradients(model, "recompute", ds.images, ds.labels)
    assert registry.peak < at_start[0]


# ---------------------------------------------------------------------------
# release at last use
# ---------------------------------------------------------------------------

def _watch(obj, skip=frozenset()):
    """Weak references to the arrays inside ``obj`` whose ids are not in
    ``skip``."""
    return [weakref.ref(a) for a in _iter_arrays(obj) if id(a) not in skip]


def _alive(refs) -> int:
    return sum(r() is not None for r in refs)


def _watch_head(model):
    """Wrap the head's blocks and their stages; returns weak references to
    the chain output and to every cache a head block or stage returns (the
    stages' replays included) less the chain output, filled in as they run."""
    chain_out, head_cache, skip = [], [], set()

    def watch(forward, first=False):
        def watched(x, *args):
            if first:
                chain_out.extend(_watch(x))
                skip.update(id(t.data) for t in x.levels)
            y, cache = forward(x, *args)
            head_cache.extend(_watch(cache, skip))
            return y, cache
        return watched

    for i, block in enumerate(model.head.blocks):
        block.forward = watch(block.forward, first=i == 0)
        block.stage.forward = watch(block.stage.forward)
    return chain_out, head_cache


def _before(block, method, probe):
    """Run ``probe()`` each time ``block.method`` is called, before it runs."""
    inner = getattr(block, method)

    def wrapped(*args):
        probe()
        return inner(*args)

    setattr(block, method, wrapped)


@pytest.mark.parametrize("mode", ["stored", "recompute"])
def test_head_cache_is_freed_before_the_chain_runs_backward(mode):
    model = build(TOY)
    ds = make_synthetic_dataset(4, 2, 32, 1, seed=14)
    _, head_cache = _watch_head(model)
    seen = []
    _before(model.blocks[-1], "backward", lambda: seen.append(_alive(head_cache)))
    step_gradients(model, mode, ds.images, ds.labels)
    assert head_cache and seen == [0]


def test_head_replay_holds_one_stage_cache_at_a_time():
    model = build(TOY)
    ds = make_synthetic_dataset(4, 2, 32, 1, seed=20)
    caches, seen = [], []

    def watch(forward):
        def watched(x, ctx=None):
            seen.append(_alive(caches))
            y, cache = forward(x, ctx)
            caches.extend(_watch(cache, skip={id(x.data)}))   # less its input
            return y, cache
        return watched

    for block in model.head.blocks:
        block.stage.forward = watch(block.stage.forward)
    step_gradients(model, "recompute", ds.images, ds.labels)
    assert caches and seen == [0] * 16       # 8 stages, run forward then replayed


def test_head_replay_lets_each_norm_cache_go_once_its_vjp_returns(monkeypatch):
    # each stage's VJP takes its cache over, stored or replayed: each
    # norm's cache is freed before the conv VJP that follows it, and no
    # head block's cache outlives the step
    rng = np.random.default_rng(91)
    p = FeaturePyramid([Tensor(rng.standard_normal(s))
                        for s in TOY.pyramid_shapes(batch=2)])
    labels = np.array([0, 2])
    head = ClassifierHead((16, 16, 16, 16), num_classes=3, rng=rng, dtype=np.float64)
    log = watch_norm_caches(monkeypatch)
    for mode in ("stored", "recompute"):
        log.clear()
        _, _, _, leaked = _run_head(head, p, labels, mode)
        assert leaked == p.nbytes       # only the necks' inputs live
        assert sum(read for _, read in log) > 0
        assert all(alive == 0 for alive, _ in log), log


def test_head_replay_lets_go_of_each_aggregate_once_its_reader_has_run():
    # agg0's one reader is down0: once down0's VJP has returned, no
    # reference (a loop variable left in a frame, say) may keep it, or the
    # registry counts it through the rest of the head's walk
    rng = np.random.default_rng(92)
    p = FeaturePyramid([Tensor(rng.standard_normal(s))
                        for s in TOY.pyramid_shapes(batch=2)])
    head = ClassifierHead((16, 16, 16, 16), num_classes=3, rng=rng, dtype=np.float64)
    agg0, seen = [], []
    neck0, down0 = head.necks[0], head.downs[0]
    forward, backward = neck0.forward, down0.backward

    def watched_forward(*args):
        y, cache = forward(*args)
        agg0.append(weakref.ref(y.data))
        return y, cache

    def watched_backward(*args):
        result = backward(*args)
        seen.append(agg0[0]() is None)
        return result

    neck0.forward, down0.backward = watched_forward, watched_backward
    gc.disable()
    try:
        _run_head(head, p, np.array([0, 2]), "recompute")
    finally:
        gc.enable()
    assert seen == [True]


class _LeakLog(LiveBytesRegistry):
    """A registry that records the labels and bytes still alive when the
    tape lets go of every entry at the end of a step."""

    leaked = leaked_bytes = None

    def release_all(self):
        self.leaked = sorted({e.label for e in self._live.values()})
        self.leaked_bytes = self.current
        super().release_all()


@pytest.mark.parametrize("mode", ["stored", "recompute"])
def test_a_training_step_leaves_no_counted_array_alive(mode, monkeypatch):
    # with the cycle collector off, every array the step counted has died
    # by refcount alone once the chain's backward ends
    monkeypatch.setattr(engine, "LiveBytesRegistry", _LeakLog)
    model = build(TOY)
    ds = make_synthetic_dataset(4, 8, 32, 1, seed=23)
    gc.disable()
    try:
        _, _, registry, _ = step_gradients(model, mode, ds.images, ds.labels)
    finally:
        gc.enable()
    assert type(registry) is _LeakLog and registry.peak > 0
    assert registry.leaked == []


@pytest.mark.parametrize("mode", ["stored", "recompute"])
def test_tape_lets_go_of_the_chain_input_once_the_first_block_has_run(mode):
    # no stored cache reads the chain input and the stem's reverse step
    # rebuilds it, so once forward returns the tape keeps no reference to
    # it; the input is the caller's, and the registry never counts it
    model = build(replace(TOY, precision="single"))
    ds = make_synthetic_dataset(4, 2, 32, 1, seed=22)
    p = image_pyramid(ds.images, np.float32)
    assert p.levels[0].data is not ds.images     # the float32 copy
    x = weakref.ref(p.levels[0].data)
    tape = Tape(model.blocks, mode=mode)
    out = tape.forward(p, step_key=0)
    assert not any(id(t.data) in tape.registry._live for t in p.levels)
    del p
    assert x() is None
    grad = [Tensor(np.ones_like(t.data)) for t in out.levels]
    del out
    result = tape.backward(grad)
    tape.registry.assert_empty()
    assert result.input_grads[0].shape == ds.images.shape


def test_stored_backward_frees_each_cache_before_the_next_block_runs():
    model = build(TOY)
    ds = make_synthetic_dataset(4, 2, 32, 1, seed=15)
    watched = {}
    for i, block in enumerate(model.blocks):
        def forward(p, ctx=None, want_cache=False, _inner=block.forward, _i=i):
            out, cache = _inner(p, ctx, want_cache)
            # block i's cache, less its input: that is block i - 1's output,
            # which stays registered until block i - 1's backward is done
            watched[_i] = _watch(cache, skip={id(t.data) for t in p.levels})
            return out, cache
        block.forward = forward
    seen = {}
    for i, block in enumerate(model.blocks[:-1]):
        _before(block, "backward", lambda i=i: seen.setdefault(i, _alive(watched[i + 1])))
    step_gradients(model, "stored", ds.images, ds.labels)
    assert all(watched[i] for i in range(1, len(model.blocks)))
    assert seen == {i: 0 for i in range(len(model.blocks) - 1)}


def test_recompute_frees_each_chain_output_level_with_the_block_that_drops_it():
    # the reverse steps rebuild each block's input in the chain output's
    # arrays, so a level lives until the block that drops it has reversed:
    # each expanding silo drops its coarsest level, the stem the last one
    model = build(TOY)
    ds = make_synthetic_dataset(4, 2, 32, 1, seed=16)
    chain_out, _ = _watch_head(model)
    seen = []
    for block in model.blocks[-2::-1]:       # expand3, expand2, expand1, stem
        _before(block, "backward", lambda: seen.append(_alive(chain_out)))
    step_gradients(model, "recompute", ds.images, ds.labels)
    assert seen == [4, 3, 2, 1] and _alive(chain_out) == 0


def test_stored_backward_frees_the_chain_output_before_the_last_block_runs():
    # the last silo's up transforms read the coarsest output level, so its
    # cache keeps that one; nothing keeps the three finer levels
    model = build(TOY)
    ds = make_synthetic_dataset(4, 2, 32, 1, seed=17)
    chain_out, _ = _watch_head(model)
    seen = []
    _before(model.blocks[-1], "backward", lambda: seen.append(_alive(chain_out[:-1])))
    step_gradients(model, "stored", ds.images, ds.labels)
    assert len(chain_out) == 4 and seen == [0]


def test_stored_step_keeps_no_appended_zero_level(monkeypatch):
    # no VJP reads the zero level an expanding silo appends, so no stored
    # cache keeps it
    model = build(TOY)
    ds = make_synthetic_dataset(4, 2, 32, 1, seed=18)
    zeros = []
    expanded_input = coupling.expanded_input

    def watched(silo, p):
        out = expanded_input(silo, p)
        zeros.append(weakref.ref(out.levels[-1].data))
        return out

    monkeypatch.setattr(coupling, "expanded_input", watched)
    seen = []
    _before(model.blocks[-1], "backward", lambda: seen.append(_alive(zeros)))
    step_gradients(model, "stored", ds.images, ds.labels)
    assert len(zeros) == 3 and seen == [0]


def test_train_toy_loss_decreases():
    ds = make_synthetic_dataset(4, 64, 32, 1, noise=0.25, seed=5)
    record = train_toy(TOY, ds, "recompute", steps=12, seed=5, lr=0.05,
                       batch_size=8)
    losses = record.losses
    assert len(losses) == 12
    assert all(np.isfinite(losses))
    assert losses[-1] < losses[0]


@pytest.mark.parametrize("mode", ["stored", "recompute"])
def test_finite_logits_with_an_infinite_loss_raise_divergence(mode):
    # float64 logits (1e308, -1e308, 0, 0) are finite, but z - max(z)
    # overflows to -inf, so the cross-entropy of label 1 is inf
    model = build(TOY)
    model.head.tail.classifier.weights[...] = 0.0
    model.head.tail.classifier.bias[:] = (1e308, -1e308, 0.0, 0.0)
    ds = make_synthetic_dataset(4, 2, 32, 1, seed=19)
    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError):
            step_gradients(model, mode, ds.images, np.array([1, 1]))


def test_train_toy_divergence_raises():
    ds = make_synthetic_dataset(4, 16, 32, 1, seed=5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises((DivergenceError, FloatingPointError)):
            train_toy(TOY, ds, "stored", steps=30, seed=5, lr=1e6, batch_size=8)
