"""Slow references that the tests compare the fast paths against: the CTC
forward probability summed over every alignment, posteriorgram compression
grouped frame by frame, and the label-synchronous beam's oracle, exhaustive
search over the scorer protocol of ``fusionkit.scorers``.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from fusionkit.core import NEG_INF, Posteriorgram, ScorerWeights, Vocabulary, logsumexp
from fusionkit.search import DecodeStats, LabelScorer, NBestEntry, NBestList


def ctc_forward_logprob(pg: Posteriorgram, target: Sequence[int], blank_id: int) -> float:
    """Log probability that the collapsed frame labels equal ``target``.

    Sums over every alignment path; infeasible targets give -inf.
    """
    target = list(target)
    if blank_id in target:
        raise ValueError("target must not contain the blank label")
    lp = pg.log_probs
    T = lp.shape[0]
    S = len(target)
    if S == 0:
        return float(np.sum(lp[:, blank_id]))

    # interleave blanks: extended target of length 2S+1
    ext = np.empty(2 * S + 1, dtype=np.int64)
    ext[0::2] = blank_id
    ext[1::2] = target
    n = ext.size

    alpha = np.full(n, NEG_INF)
    alpha[0] = lp[0, ext[0]]
    alpha[1] = lp[0, ext[1]]
    for t in range(1, T):
        prev = alpha
        stay = prev
        from_prev = np.concatenate(([NEG_INF], prev[:-1]))
        # skip transition is allowed into a non-blank that differs from the
        # non-blank two positions back
        from_skip = np.full(n, NEG_INF)
        can_skip = np.zeros(n, dtype=bool)
        can_skip[3::2] = ext[3::2] != ext[1:-2:2]
        from_skip[can_skip] = prev[:-2][can_skip[2:]]
        alpha = np.logaddexp(np.logaddexp(stay, from_prev), from_skip) + lp[t, ext]
    return float(np.logaddexp(alpha[-1], alpha[-2]))


def compressed_log_probs(pg: Posteriorgram, threshold: float) -> np.ndarray:
    """The rows of ``ctc.compress_posteriors(pg, threshold)``, one frame at a
    time: a frame joins the group before it when both have the same argmax
    (the lowest id on ties) with a probability of at least ``threshold``;
    each group's rows are max-pooled, then renormalized.  With every group
    one frame, the rows are ``pg``'s as they are."""
    groups: list[np.ndarray] = []
    before = None
    for row in pg.log_probs:
        best = int(np.argmax(row))
        now = (best, bool(np.exp(row[best]) >= threshold))
        if now[1] and now == before:
            groups[-1] = np.maximum(groups[-1], row)
        else:
            groups.append(row.copy())
        before = now
    if len(groups) == pg.num_frames:
        return pg.log_probs
    return np.array([g - logsumexp(g) for g in groups])


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
