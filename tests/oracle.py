"""The label-synchronous beam's oracle: exhaustive search over the scorer
protocol of ``fusionkit.scorers``, imported by the tests that compare the
beam against it.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from fusionkit.core import NEG_INF, ScorerWeights, Vocabulary
from fusionkit.search import DecodeStats, LabelScorer, NBestEntry, NBestList


def exhaustive_decode(
    scorers: Sequence[LabelScorer],
    weights: ScorerWeights,
    vocab: Vocabulary,
    max_len: int,
    stats: DecodeStats | None = None,
) -> NBestList:
    """Score every label sequence up to ``max_len``; the beam-search oracle.

    Every label's score is requested exactly, never bounded.
    """
    plain = [i for i in range(vocab.size) if not vocab.is_special(i)]
    if len(plain) ** max_len > 10**6:
        raise ValueError("exhaustive enumeration budget exceeded")
    active = [s for s in scorers if weights.weights.get(s.name, 0.0) != 0.0]
    if not active:
        raise ValueError("all scorers have zero weight")
    t0 = time.perf_counter()
    entries: list[NBestEntry] = []

    every = np.array(plain + [vocab.eos_id])
    rows = np.zeros(every.size, dtype=np.int64)

    def visit(labels, components, states, depth):
        vectors = {}
        artifacts = {}
        for s in active:
            _, _, art = s.step(states[s.name])
            vectors[s.name] = s.exact(art, rows, every)
            artifacts[s.name] = art
            if stats:
                stats.scorer_evaluations += len(plain) + 1
        # an entry that any scorer gives probability zero is impossible,
        # whatever the sign of its weight
        eos_comps = {
            n: components[n] + float(vectors[n][-1]) for n in vectors
        }
        if NEG_INF not in eos_comps.values():
            combined = weights.combine(eos_comps)
            entries.append(
                NBestEntry(labels + (vocab.eos_id,), eos_comps, combined, finished=True)
            )
        if depth == max_len:
            return
        for i, c in enumerate(plain):
            comps = {n: components[n] + float(vectors[n][i]) for n in vectors}
            if NEG_INF in comps.values():
                continue
            succ = {s.name: s.advance(artifacts[s.name], [0], [c]) for s in active}
            visit(labels + (c,), comps, succ, depth + 1)

    start_states = {s.name: s.start(1) for s in active}
    visit((), {s.name: 0.0 for s in active}, start_states, 0)
    if stats:
        stats.wall_time_s += time.perf_counter() - t0
    return NBestList(entries)
