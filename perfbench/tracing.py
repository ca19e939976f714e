"""Spans around the public functions of each fusionkit module.

The benchmark wraps whole calls at layer boundaries from the outside, never
per-candidate helpers such as ``ScorerWeights.combine``: their call counts
(hundreds of thousands per decode) would make the trace measure itself.
A target that no longer exists is skipped and its metrics are reported as
unmeasured, so renaming or deleting a function does not break the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


def _candidates(args, kwargs) -> int:
    return len(kwargs["candidates"] if "candidates" in kwargs else args[2])


@dataclass(frozen=True)
class Target:
    metric: str  # "<layer>.<qualname>", the prefix of its metric names
    module: str
    qualname: str
    nests: bool = False  # other targets run inside it: report self time
    per_call: bool = False  # keep each call's duration
    items: Callable | None = None  # work items in one call, from (args, kwargs)


TARGETS = (
    Target("cli.read_corpus_dir", "fusionkit.cli", "read_corpus_dir"),
    Target("cli.load_lm", "fusionkit.cli", "load_lm"),
    Target("cli.build_joint_scorers", "fusionkit.cli", "build_joint_scorers", nests=True),
    Target("cli.decode_utterance", "fusionkit.cli", "decode_utterance", nests=True, per_call=True),
    Target("cli.prepare_posteriorgram", "fusionkit.cli", "prepare_posteriorgram", nests=True),
    Target("core.read_posteriorgram", "fusionkit.core", "read_posteriorgram"),
    Target("ctc.CtcPrefixScorer.step", "fusionkit.ctc", "CtcPrefixScorer.step", items=_candidates),
    Target("ctc.topk_prune", "fusionkit.ctc", "topk_prune"),
    Target("ctc.compress_posteriors", "fusionkit.ctc", "compress_posteriors"),
    Target("search.labelsync_beam", "fusionkit.search", "labelsync_beam", nests=True),
    Target("search.timesync_ctc_beam", "fusionkit.search", "timesync_ctc_beam", nests=True),
    Target("search.CtcPrefixLabelScorer.advance", "fusionkit.search", "CtcPrefixLabelScorer.advance"),
    Target("search.write_nbest", "fusionkit.search", "write_nbest"),
    Target("lm.NGramModel.conditionals", "fusionkit.lm", "NGramModel.conditionals"),
    Target("decoder.decoder_step", "fusionkit.decoder", "decoder_step"),
    Target("decoder.seeded_weights", "fusionkit.decoder", "seeded_weights"),
)


@dataclass
class SpanStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    items: int = 0
    item_errors: int = 0
    durations: list[float] = field(default_factory=list)


class Tracer:
    """Aggregates nested spans of one traced decode call at a time."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, SpanStats] = {}
        self.top_seconds = 0.0  # direct children of the root span
        self._stack: list[list] = []  # [start, child seconds] per open span

    @contextmanager
    def root(self):
        """One traced call: resets the statistics; its children count
        towards coverage."""
        self.stats = {t.metric: SpanStats() for t in self.targets}
        self.top_seconds = 0.0
        self._stack = [[time.perf_counter(), 0.0]]
        try:
            yield
        finally:
            self._stack = []

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[0]
                self._stack.pop()
                s = self.stats[target.metric]
                s.calls += 1
                s.seconds += dur
                s.self_seconds += dur - frame[1]
                if target.per_call:
                    s.durations.append(dur)
                if target.items is not None:
                    try:
                        s.items += target.items(args, kwargs)
                    except (TypeError, IndexError, KeyError):
                        s.item_errors += 1
                if self._stack:
                    self._stack[-1][1] += dur
                    if len(self._stack) == 1:
                        self.top_seconds += dur

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target that exists; yields the metrics left unmeasured."""
        patches = []  # (owner, name, original, owner held it in its own dict)
        missing = []
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                missing.append(target.metric)
                continue
            owner, obj = None, module
            for part in target.qualname.split("."):
                owner, obj = obj, getattr(obj, part, None)
                if obj is None:
                    break
            if not callable(obj):
                missing.append(target.metric)
                continue
            name = target.qualname.rsplit(".", 1)[-1]
            wrapper = self._wrap(target, obj)
            if isinstance(owner, type):
                patches.append((owner, name, obj, name in vars(owner)))
                setattr(owner, name, wrapper)
            else:
                # a function imported by name elsewhere is replaced there too
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").split(".")[0] != "fusionkit":
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is obj:
                            patches.append((mod, attr, obj, True))
                            setattr(mod, attr, wrapper)
        try:
            yield missing
        finally:
            for owner, name, original, own in reversed(patches):
                if own:
                    setattr(owner, name, original)
                else:
                    delattr(owner, name)
