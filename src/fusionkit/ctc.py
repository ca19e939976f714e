"""CTC probabilities, collapsing, prefix scoring, compression, and pruning.

All functions are pure over immutable inputs.  Argmax ties break toward the
lowest label id so every result is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fusionkit.core import NEG_INF, EncoderOutput, Posteriorgram, logsumexp


def collapse(frame_labels: Sequence[int], blank_id: int) -> list[int]:
    """Merge adjacent duplicate labels, then remove blanks."""
    out: list[int] = []
    prev = None
    for lab in frame_labels:
        if lab != prev:
            out.append(lab)
        prev = lab
    return [lab for lab in out if lab != blank_id]


def greedy_decode(pg: Posteriorgram, blank_id: int) -> list[int]:
    """Collapse the per-frame argmax path (ties go to the lowest id)."""
    best = np.argmax(pg.log_probs, axis=1)
    return collapse(best.tolist(), blank_id)


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


@dataclass(frozen=True)
class MergeIndexMap:
    """Frame-to-group assignment for confident-argmax run merging."""

    indices: tuple[int, ...]
    threshold: float

    def __post_init__(self):
        idx = self.indices
        if not idx or idx[0] != 1:
            raise ValueError("merge indices must start at 1")
        for a, b in zip(idx, idx[1:]):
            if b - a not in (0, 1):
                raise ValueError("merge indices must be nondecreasing with unit steps")

    @property
    def num_groups(self) -> int:
        return self.indices[-1]

    @property
    def is_identity(self) -> bool:
        return self.num_groups == len(self.indices)


def merge_indices(pg: Posteriorgram, threshold: float) -> MergeIndexMap:
    """Assign consecutive frames to one group when they share a confident argmax.

    Two neighbours merge iff their argmax labels agree and both argmax
    probabilities reach the threshold.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    lp = pg.log_probs
    best = np.argmax(lp, axis=1)
    best_prob = np.exp(lp[np.arange(lp.shape[0]), best])
    indices = [1]
    for t in range(1, lp.shape[0]):
        merge = (
            best[t] == best[t - 1]
            and best_prob[t] >= threshold
            and best_prob[t - 1] >= threshold
        )
        indices.append(indices[-1] if merge else indices[-1] + 1)
    return MergeIndexMap(tuple(indices), threshold)


def compress_encoder(enc: EncoderOutput, index_map: MergeIndexMap) -> EncoderOutput:
    """Mean-pool encoder frames that share a merge group."""
    if len(index_map.indices) != enc.num_frames:
        raise ValueError(
            f"merge map covers {len(index_map.indices)} frames, encoder has {enc.num_frames}"
        )
    if index_map.is_identity:
        return enc
    idx = np.asarray(index_map.indices) - 1
    out = np.zeros((index_map.num_groups, enc.dim))
    counts = np.bincount(idx, minlength=index_map.num_groups)
    np.add.at(out, idx, enc.frames)
    return EncoderOutput(out / counts[:, None])


def compress_posteriors(pg: Posteriorgram, index_map: MergeIndexMap) -> Posteriorgram:
    """Max-pool label probabilities over each merge group, then renormalize."""
    if len(index_map.indices) != pg.num_frames:
        raise ValueError(
            f"merge map covers {len(index_map.indices)} frames, posteriorgram has {pg.num_frames}"
        )
    if index_map.is_identity:
        return pg
    idx = np.asarray(index_map.indices) - 1
    pooled = np.full((index_map.num_groups, pg.num_labels), NEG_INF)
    np.maximum.at(pooled, idx, pg.log_probs)
    norms = np.array([logsumexp(row) for row in pooled])
    return Posteriorgram(pooled - norms[:, None], pg.frame_duration_ms)


def topk_prune(pg: Posteriorgram, k: int, keep_blank: bool, blank_id: int) -> Posteriorgram:
    """Keep the k labels with the highest max-over-time probability.

    Dropped labels get zero probability everywhere and rows are renormalized.
    With keep_blank the blank label always survives, counted within k.
    k = V is an exact no-op.  A frame whose entire mass sat on pruned labels
    becomes a pure blank frame (a pruned label's frames carry no output).
    """
    v = pg.num_labels
    if not 1 <= k <= v:
        raise ValueError(f"k must be in [1, {v}], got {k}")
    if k == v:
        return pg
    s_max = np.max(pg.log_probs, axis=0)
    # sort by (-score, id) so ties go to the lower id
    order = np.lexsort((np.arange(v), -s_max))
    kept = set(order[:k].tolist())
    if keep_blank and blank_id not in kept:
        kept.discard(int(order[k - 1]))
        kept.add(blank_id)
    mask = np.zeros(v, dtype=bool)
    mask[list(kept)] = True
    pruned = np.where(mask, pg.log_probs, NEG_INF)
    norms = np.array([logsumexp(row) for row in pruned])
    empty = norms == NEG_INF
    if np.any(empty):
        pruned[empty] = NEG_INF
        pruned[empty, blank_id] = 0.0
        norms[empty] = 0.0
    return Posteriorgram(pruned - norms[:, None], pg.frame_duration_ms)


def kept_labels(pg: Posteriorgram) -> np.ndarray:
    """Labels with nonzero probability in at least one frame."""
    return np.flatnonzero(np.max(pg.log_probs, axis=0) > NEG_INF)


@dataclass(frozen=True)
class PrefixScorerState:
    """Forward variables of one hypothesis prefix over all frames.

    ``log_nonblank[t]`` / ``log_blank[t]`` are the log probabilities that
    frames 1..t+1 collapse exactly to the prefix with the path ending in the
    prefix's last label / in blank.  ``log_prefix_prob`` is the log
    probability that the full collapsed output starts with the prefix.
    """

    prefix: tuple[int, ...]
    log_nonblank: np.ndarray
    log_blank: np.ndarray
    log_prefix_prob: float


@dataclass(frozen=True)
class PrefixStep:
    """What one batched :meth:`CtcPrefixScorer.step` hands to ``advance``.

    ``log_blank`` and ``log_sum`` hold the parents' blank and total forward
    variables as (T, B) columns; ``last`` their last labels (-1 for none).
    """

    states: tuple[PrefixScorerState, ...]
    candidates: np.ndarray
    scores: np.ndarray
    log_blank: np.ndarray
    log_sum: np.ndarray
    last: np.ndarray

    def phi(self, rows, labels, frames: slice = slice(None)) -> np.ndarray:
        """Log probability that parent ``rows`` cover frames 1..t+1 such that
        ``labels`` may start at frame t+2: a repeated label needs a blank
        in between.  Time runs along axis 0; rows and labels broadcast."""
        same = self.last[rows] == labels
        return np.where(same, self.log_blank[frames, rows], self.log_sum[frames, rows])


class CtcPrefixScorer:
    """Incremental prefix probabilities of the CTC output distribution.

    For a prefix g and candidate c the step score is the log probability
    that the collapsed output begins with g.c; the EOS candidate scores the
    probability that the output equals g exactly.
    """

    def __init__(self, pg: Posteriorgram, blank_id: int, eos_id: int):
        self.pg = pg
        self.log_probs = pg.log_probs
        self.blank_id = blank_id
        self.eos_id = eos_id
        self.num_frames = pg.num_frames

    def initial_state(self) -> PrefixScorerState:
        blanks = np.cumsum(self.log_probs[:, self.blank_id])
        return PrefixScorerState(
            prefix=(),
            log_nonblank=np.full(self.num_frames, NEG_INF),
            log_blank=blanks,
            log_prefix_prob=0.0,
        )

    def step(
        self, states: Sequence[PrefixScorerState], candidates: Sequence[int]
    ) -> tuple[np.ndarray, PrefixStep]:
        """Score every candidate extension of every state's prefix at once.

        The B states must have prefixes of one length, as the live
        hypotheses of a label-synchronous beam do.  Returns the (B, C)
        absolute log prefix probabilities and the artifacts
        :meth:`advance` builds successor states from; the forward variables
        of the extensions are left to it, since only survivors need them.
        """
        cands = np.asarray(candidates, dtype=np.int64)
        if np.any(cands == self.blank_id):
            raise ValueError("blank cannot be a prefix-scorer candidate")
        S = len(states[0].prefix)
        if any(len(s.prefix) != S for s in states):
            raise ValueError("states of one step must have prefixes of one length")
        T = self.num_frames
        B, C = len(states), cands.size
        log_b = np.stack([s.log_blank for s in states], axis=1)
        log_nb = np.stack([s.log_nonblank for s in states], axis=1)
        step = PrefixStep(
            states=tuple(states),
            candidates=cands,
            scores=np.full((B, C), NEG_INF),
            log_blank=log_b,
            log_sum=np.logaddexp(log_nb, log_b),
            last=np.array([s.prefix[-1] if s.prefix else -1 for s in states]),
        )
        scores = step.scores

        nonterm = cands != self.eos_id
        if S < T and np.any(nonterm):
            # EOS may lie outside the posteriorgram columns; gather a dummy
            # column for it, the scores are overwritten below
            xs = self.log_probs[:, np.where(nonterm, cands, self.blank_id)]
            xs[:, ~nonterm] = NEG_INF
            # the prefix probability sums, over the frame t+1 at which the
            # new label starts, phi[t] + x[t+1]; frame 1 only when S == 0
            start = max(S, 1)
            terms = step.phi(np.arange(B)[:, None], cands, slice(start - 1, T - 1))
            terms += xs[start:, None, :]
            if S == 0:
                terms = np.concatenate([np.broadcast_to(xs[0], (1, B, C)), terms])
            # a reduction over axis 0 folds the frames in order, bit for bit
            # the sequential log-add of the per-state recursion
            scores[:, nonterm] = np.logaddexp.reduce(terms, axis=0)[:, nonterm]

        eos_mask = ~nonterm
        if np.any(eos_mask):
            scores[:, eos_mask] = step.log_sum[T - 1][:, None]
        return scores, step

    def advance(
        self, step: PrefixStep, rows: Sequence[int], cols: Sequence[int]
    ) -> list[PrefixScorerState]:
        """Successor states for the (state row, candidate column) pairs that
        survived pruning, aligned with them.

        One (T, k) recursion over the k pairs gives their forward
        variables.  An EOS column returns its parent state, since EOS ends
        the hypothesis.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        labels = step.candidates[cols]
        S = len(step.states[0].prefix)
        phi = step.phi(rows, labels)
        # an EOS column gets a dummy gather: its parent is returned instead
        xs = self.log_probs[:, np.where(labels == self.eos_id, self.blank_id, labels)]
        blank = self.log_probs[:, self.blank_id]
        r_n = np.full(phi.shape, NEG_INF)
        r_b = np.full(phi.shape, NEG_INF)
        if S == 0:
            r_n[0] = xs[0]
        for t in range(max(S, 1), self.num_frames):
            np.logaddexp(r_n[t - 1], r_b[t - 1], out=r_b[t])
            r_b[t] += blank[t]
            np.logaddexp(r_n[t - 1], phi[t - 1], out=r_n[t])
            r_n[t] += xs[t]
        out = []
        for k, (b, j, label) in enumerate(zip(rows.tolist(), cols.tolist(), labels.tolist())):
            parent = step.states[b]
            if label == self.eos_id:
                out.append(parent)
                continue
            out.append(
                PrefixScorerState(
                    prefix=parent.prefix + (label,),
                    log_nonblank=r_n[:, k].copy(),
                    log_blank=r_b[:, k].copy(),
                    log_prefix_prob=float(step.scores[b, j]),
                )
            )
        return out
