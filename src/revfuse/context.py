"""Execution context threaded through forward/backward code paths.

The phase is the one signal that a forward is a replay: a forward run in
the ``BACKWARD`` phase (a block's backward without a cache, an inverse, a
head replay) recomputes what the ``FORWARD`` phase computed.  So a
train-mode batch norm folds its running averages only in the ``FORWARD``
phase, and an MBConv keeps a replay cache only in the ``BACKWARD`` phase.

``OpCounters`` tallies forward evaluations of coupling transforms, bucketed
by the phase of the training step in which they ran.  The silo counts them
where it runs its transforms (its two forward halves and the undo loop of
its inverse and replay), one per evaluation; a transform run outside a
silo, or a head stage, counts nothing.  The counters are the measurement side
of the compute cost model: a recompute-mode backward pass re-executes every
fusion transform exactly once, and that surcharge has to show up here, in the
``backward`` phase bucket, while a stored-mode backward must show zero.
"""

from __future__ import annotations

from dataclasses import dataclass

FORWARD = "forward"
BACKWARD = "backward"

# Counter key for one evaluation of a coupling transform (the unit the
# analytic compute model predicts); the only kind anything tallies.
F_EVAL = "f_eval"


class OpCounters:
    """Per-step tally of forward evaluations, keyed by (phase, kind)."""

    def __init__(self) -> None:
        self._counts: dict[tuple[str, str], int] = {}

    def add(self, phase: str, kind: str, n: int = 1) -> None:
        key = (phase, kind)
        self._counts[key] = self._counts.get(key, 0) + n

    def get(self, phase: str, kind: str) -> int:
        return self._counts.get((phase, kind), 0)

    def reset(self) -> None:
        self._counts.clear()


@dataclass
class ExecContext:
    """Carries the counters, the current phase, the step id and the
    train/eval flag.  ``step_key`` only names the step; no layer reads it.
    """

    counters: OpCounters | None = None
    phase: str = FORWARD
    step_key: object | None = None
    train: bool = True

    def count(self, kind: str, n: int = 1) -> None:
        if self.counters is not None:
            self.counters.add(self.phase, kind, n)
