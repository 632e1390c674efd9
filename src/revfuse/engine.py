"""Two-mode training engine over chains of reversible blocks.

A ``Tape`` executes a fixed sequence of blocks: reversible ones, which may
be followed by non-invertible ones that keep a checkpoint (the backbone's
head).  Each block has one backward, which reads the forward's cache if
there is one, or else replays from the block's output; the two backward
modes differ only in which caches forward keeps, and must produce the
same gradients:

* ``stored`` — conventional backprop: every block's VJP cache stays
  counted as live activations from forward until that block's backward
  reads it, letting go of each part after its last reader.  A block's
  output is kept only as far as the next block's cache holds it.  Peak
  activation memory grows affinely with depth; the backward phase
  re-evaluates nothing.
* ``recompute`` — reversible backprop: forward keeps no cache, only the
  checkpoints and the outputs replays start from (see ``Tape``).  Each
  reversible block's backward then replays: it reconstructs the
  block's input and back-propagates one transform at a time, re-evaluating
  each exactly once, with a cache that its VJP consumes at once.
  It rebuilds its input, and its input gradient, in the arrays of its
  output and output gradient, as in-place activated batch norm recovers
  values (Rota Bulò et al. 2018, arXiv 1712.02616).  Peak
  activation memory is flat in depth: one pyramid plus one *transform's*
  working set, whatever the chain length.  That working set is small
  because an MBConv cache keeps one normalized array per batch norm (of an
  expansion stage replayed in channel chunks, only statistics), its VJP
  rebuilds the rest (see ``layers``), and the VJP lets go of each norm's
  cache once read.

Live activation bytes are tracked by a registry rather than by heap
inspection.  The registry counts each array it is handed once (an aliased
cache entry is not double-counted) until the array dies: it holds a weak
reference per array, so it follows the references the code holds and
needs no release call.  Only engine-managed activations are counted:
parameters, gradient buffers, and kernel-internal scratch are out of scope
by design.  Activations a backward rebuilds are engine-managed too: the
tape passes its registry into every ``backward``, and each rebuilt array
is counted while alive, in both modes.  A step holds no activation past
its last use, so the heap follows the registry: a recompute step's heap
peak is about the registry peak plus the parameter gradients, the
caller's batch, the activation gradients in flight and one kernel's
scratch (``kernels``).
A 1x1 conv's VJP holds its two gradients and at most one row block of a
weight-gradient term.  A depthwise backward's scratch is one channel
chunk's stride phases, stack, phase weights and weight-gradient blocks,
its stride-1 stack at most about twice its input; a depthwise forward's
is its input's stride phases, one block's phase weights and product, and
the temporaries of its strided window add.
The chain input is the caller's, like the batch and the parameters: the
tape does not count it, and lets go of it once the first block has run, in
both modes (a stored cache that reads it keeps it, and the first block's
replay rebuilds it; the backbone's stem caches nothing, so a
training step frees its model-dtype copy of the batch there).  The caller
may hold it, and the pyramid that ``forward`` returns, past the step: what
is alive when ``backward`` ends is the caller's, and the registry forgets
it.  At S0 widths the recompute registry peak is reached in the
conventional head, whose stages replay one at a time
(``backbone.HeadStage``): its tail's VJP holds the chain output, the four
aggregates and the tail's cache.  In a narrow model a block's replay
working set can set it instead.

Finiteness is checked at block boundaries, not in every kernel: each
block's forward output, the gradient entering the chain, and after each
block's backward the input and parameter gradients (and, after a replay,
the reconstructed input).  A NaN or an Inf raises ``FloatingPointError``
naming the block and the phase.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .context import BACKWARD, F_EVAL, FORWARD, ExecContext, OpCounters
from .coupling import FeaturePyramid, Silo
from .errors import AccountingError, ConfigurationError, StateError
from .tensor import Tensor, assert_finite


class BackwardMode(str, Enum):
    STORED = "stored"
    RECOMPUTE = "recompute"

    @staticmethod
    def parse(value) -> "BackwardMode":
        if isinstance(value, BackwardMode):
            return value
        try:
            return BackwardMode(str(value).lower())
        except ValueError:
            raise ConfigurationError(
                f"backward mode must be 'stored' or 'recompute', got {value!r}"
            ) from None


# ---------------------------------------------------------------------------
# live-activation accounting
# ---------------------------------------------------------------------------

def _iter_arrays(obj):
    """Yield every ndarray reachable inside a cache/pyramid structure."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, Tensor):
        yield obj.data
    elif isinstance(obj, FeaturePyramid):
        for lv in obj.levels:
            yield lv.data
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _iter_arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _iter_arrays(v)


class _Entry(weakref.ref):
    """A counted array's weak reference, with what its death takes off."""

    __slots__ = ("key", "nbytes", "label")


class LiveBytesRegistry:
    """Byte registry for engine-managed activations.

    ``add`` walks a structure and counts every ndarray it reaches that is
    not live already (an alias is counted once, a view with its own
    ``nbytes``), until that array dies: a weak reference per array takes its
    bytes off when it is freed, so the registry follows the references the
    code holds and needs no release.  The callback shared by the entries
    holds the registry only weakly, so dropping the registry frees it.
    """

    def __init__(self) -> None:
        self._live: dict[int, _Entry] = {}   # id(array) -> its entry
        self.current = 0
        self.peak = 0
        this = weakref.ref(self)

        def died(entry: _Entry) -> None:
            registry = this()
            if registry is not None:
                del registry._live[entry.key]
                registry.current -= entry.nbytes
        self._died = died

    def add(self, obj, label: str):
        """Count ``obj``'s arrays under ``label`` while they live; returns ``obj``."""
        for arr in _iter_arrays(obj):
            key = id(arr)
            if key not in self._live:
                entry = self._live[key] = _Entry(arr, self._died)
                entry.key, entry.nbytes, entry.label = key, arr.nbytes, label
                self.current += entry.nbytes
        self.peak = max(self.peak, self.current)
        return obj

    def release_all(self) -> None:
        """Forget every entry: what is still alive is no longer counted."""
        self._live.clear()
        self.current = 0

    def assert_empty(self) -> None:
        if self._live:
            labels = sorted({e.label for e in self._live.values()})
            raise AccountingError(
                f"activation registry not empty: {self.current} bytes live, "
                f"labels {labels}"
            )

    def reset_peak(self) -> None:
        """Start a fresh per-step peak; nothing may be live."""
        self.assert_empty()
        self.peak = 0


# ---------------------------------------------------------------------------
# the tape
# ---------------------------------------------------------------------------

@dataclass
class BackwardResult:
    input_grads: list[Tensor]
    param_grads: dict[str, np.ndarray]


class Tape:
    """Executes a block chain forward and backward under one of two modes.

    A reversible block (a ``Silo`` or the backbone's stem) has a ``name``
    and four methods.  ``forward(p, ctx, want_cache)`` returns (p_out,
    cache), the cache ``None`` unless asked for.  ``inverse(p_out, ctx)``
    returns (p_in, extra), ``extra`` whatever else the block reconstructed.
    ``backward(cache, p_out, grad_out, ctx, registry)`` maps per-level
    gradient lists from output side to input side and returns (p_in,
    grad_in, param_grads).  Given the forward's cache it reads only that,
    and ``p_in`` is ``None``.  Given ``None``, it replays from the output
    pyramid ``p_out`` under the forward's ctx in the ``BACKWARD`` phase,
    and returns the rebuilt input as ``p_in``; the gradients are the same
    either way.  It counts in ``registry`` whatever activations it
    rebuilds or keeps alive; the tape counts ``p_in`` itself.  It takes
    its cache, ``p_out`` and ``grad_out`` over: the results may be written
    into their arrays.  ``parameters()`` lists (name, array) pairs.

    A checkpointing block (``backbone.HeadStage``) has no inverse: not
    asked for a cache, it returns a checkpoint, never ``None``, which its
    backward replays from under the ctx it is given; its ``p_in`` is ``None``.

    The mode decides one thing, what forward keeps: each block's cache in
    stored mode; in recompute mode only the checkpoints, the final output
    and, where block ``i`` returns a cache and block ``i - 1`` none, block
    ``i - 1``'s output, which backward hands it as its replay start.  In
    both, forward lets go of each block's input, the chain input included,
    once the block has run, and backward is one loop over the blocks.
    ``backward`` ends by forgetting every registry entry: what the caller
    still holds is the caller's.
    """

    def __init__(self, blocks: list, mode=BackwardMode.STORED):
        if not blocks:
            raise ConfigurationError("tape needs at least one block")
        self.blocks = list(blocks)
        self.mode = BackwardMode.parse(mode)
        self.counters = OpCounters()
        self.registry = LiveBytesRegistry()
        self.saved_caches: list = []     # each block's cache, or None
        self.replay_starts: dict[int, FeaturePyramid] = {}  # block -> its kept output
        self.output_pyramid: FeaturePyramid | None = None
        self._phase = "idle"        # idle -> forwarded -> idle
        self._ctx: ExecContext | None = None  # the forward's, of the step in flight

    # -- helpers -----------------------------------------------------------
    def _run_block(self, fn, index: int, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigurationError as e:
            raise ConfigurationError(
                f"block {index} ({self.blocks[index].name}): {e}"
            ) from e

    # -- forward -------------------------------------------------------------
    def forward(self, p: FeaturePyramid, step_key: object | None = None,
                train: bool = True) -> FeaturePyramid:
        if self._phase != "idle":
            raise StateError("forward called while a step is already in flight")
        try:
            return self._forward(p, step_key, train)
        except BaseException:
            self.discard()
            raise

    def _forward(self, p: FeaturePyramid, step_key, train: bool) -> FeaturePyramid:
        self.counters.reset()
        self.registry.reset_peak()
        self.saved_caches = []
        ctx = self._ctx = ExecContext(self.counters, FORWARD, step_key, train)
        want_cache = self.mode is BackwardMode.STORED   # the one place the mode is read

        # the chain input is the caller's, and is not counted; each block's
        # input is held until its output and cache are counted, then let go
        # (a stored cache that reads it keeps it)
        cur = p
        for i, block in enumerate(self.blocks):
            out, cache = self._run_block(block.forward, i, cur, ctx, want_cache)
            self._check_finite(i, "forward", out.levels)
            self.registry.add(out, f"block{i}.out")
            if cache is not None and i and self.saved_caches[i - 1] is None:
                self.replay_starts[i - 1] = cur     # block i - 1's output
            self.saved_caches.append(self.registry.add(cache, f"block{i}.cache"))
            cur = out
        self.output_pyramid = cur
        self._phase = "forwarded"
        return cur

    # -- backward --------------------------------------------------------------
    def backward(self, grad_out: list[Tensor]) -> BackwardResult:
        """Back-propagate ``grad_out``, the chain output's gradient, which
        the tape takes over: it empties the list, so each level is freed
        once the last block has consumed it.  A caller that reads those
        gradients afterwards passes a copy.  In recompute mode, backward
        overwrites the pyramid that ``forward`` returned, so a caller that
        reads it afterwards keeps a copy."""
        if self._phase != "forwarded":
            raise StateError("backward requires a completed forward pass")
        if len(grad_out) != self.output_pyramid.num_levels:
            raise ConfigurationError(
                f"gradient has {len(grad_out)} levels, output has "
                f"{self.output_pyramid.num_levels}"
            )
        try:
            return self._backward(grad_out)
        except BaseException:
            self.discard()
            raise

    def _backward(self, grad_out: list[Tensor]) -> BackwardResult:
        g = list(grad_out)
        grad_out.clear()    # the caller's list: only ``g`` holds the levels now
        ctx = replace(self._ctx, phase=BACKWARD)    # a replay of the forward
        param_grads: dict[str, np.ndarray] = {}
        last = len(self.blocks) - 1
        self._check_finite(last, "incoming gradient", g)
        # each block gets its cache or, without one, the pyramid rebuilt so
        # far, or else its kept replay start.  The tape lets go of each array at its last use: of a pyramid
        # before a block with a cache runs (the cache holds what is needed of
        # it), or once a replay has rebuilt its input in it; of each cache
        # once its block has consumed it
        cur, self.output_pyramid = self.output_pyramid, None
        for i in range(last, -1, -1):
            if self.saved_caches[i] is not None:
                cur = None
            elif cur is None:
                cur = self.replay_starts.pop(i)
            cur, g, grads = self._run_block(self.blocks[i].backward, i, self.saved_caches[i],
                                            cur, g, ctx, self.registry)
            self.saved_caches[i] = None
            self._check_finite(i, "backward", g, () if cur is None else cur.levels, grads=grads)
            cur = self.registry.add(cur, f"block{i}.reconstructed")
            param_grads.update(grads)
        del cur             # a rebuilt chain input: nothing reads it

        # whatever the caller still holds, the chain input included, is theirs
        self.discard()
        return BackwardResult(input_grads=g, param_grads=param_grads)

    def _check_finite(self, index: int, phase: str, *tensor_lists, grads=None) -> None:
        """Raise ``FloatingPointError`` naming block ``index`` and ``phase``
        if a tensor or a parameter gradient holds a NaN or an Inf."""
        where = f"block {index} ({self.blocks[index].name}) {phase}"
        for tensors in tensor_lists:
            for t in tensors:
                assert_finite(t.data, where)
        for name, arr in (grads or {}).items():
            assert_finite(arr, f"{where}, gradient of {name}")

    def discard(self) -> None:
        """Release a step without running backward, or after a block raised
        mid-forward or mid-backward; the tape is then ready for a new step."""
        self.registry.release_all()
        self.saved_caches = []
        self.replay_starts = {}
        self.output_pyramid = None
        self._phase = "idle"


def SiloStage(silo: Silo) -> Silo:
    """A silo as a tape block: the silo itself, which implements the protocol."""
    return silo


def invert_chain(blocks: list, p_out, ctx: ExecContext | None = None):
    """Reconstruct a chain's input from its output (no caches, no grads);
    ``p_out`` is a pyramid, or a tensor for a chain of ``RevBlock``."""
    cur = p_out
    for block in reversed(blocks):
        cur, _ = block.inverse(cur, ctx)
    return cur


def count_forward_evals(counters: OpCounters) -> dict[str, int]:
    """Forward-evaluation totals per phase for the last executed step."""
    return {
        FORWARD: counters.get(FORWARD, F_EVAL),
        BACKWARD: counters.get(BACKWARD, F_EVAL),
    }
