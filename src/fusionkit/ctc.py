"""CTC collapsing, prefix scoring, compression, and pruning.

All functions are pure over immutable inputs.  Argmax ties break toward the
lowest label id so every result is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fusionkit.core import NEG_INF, Posteriorgram, Vocabulary, check_width, logsumexp_rows

_EPS = float(np.finfo(np.float64).eps)
_BLOCK_SIZE = 12288  # a quarter of the float64 terms per block of CtcPrefixScorer's folds
_UNDERFLOW = 2.0**-900  # a dot product below this may have lost terms to underflow
_NO_PEAK = -float(np.finfo(np.float64).max)  # the peak of a row with no finite term


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


def compress_posteriors(pg: Posteriorgram, threshold: float) -> Posteriorgram:
    """Merge each run of neighbouring frames that share a confident argmax:
    max-pool its label probabilities, then renormalize.

    Two neighbours merge iff their argmax labels agree and both argmax
    probabilities reach the threshold.  With no merge (a threshold above 1,
    or one frame) ``pg`` itself is returned.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    lp = pg.log_probs
    best = np.argmax(lp, axis=1)
    sure = np.exp(lp[np.arange(lp.shape[0]), best]) >= threshold
    opens = (best[1:] != best[:-1]) | ~sure[1:] | ~sure[:-1]  # a frame starting a group
    if opens.all():
        return pg
    pooled = np.maximum.reduceat(lp, np.flatnonzero(np.append(True, opens)), axis=0)
    norms = logsumexp_rows(pooled)
    return Posteriorgram(pooled - norms[:, None], pg.frame_duration_ms)


def topk_prune(pg: Posteriorgram, k: int, blank_id: int) -> Posteriorgram:
    """Keep the k labels with the highest max-over-time probability.

    Dropped labels get zero probability everywhere and rows are renormalized.
    The blank label always survives, counted within k.
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
    kept = order[:k].copy()
    if blank_id not in kept:
        kept[-1] = blank_id
    mask = np.zeros(v, dtype=bool)
    mask[kept] = True
    pruned = np.where(mask, pg.log_probs, NEG_INF)
    norms = logsumexp_rows(pruned)
    empty = norms == NEG_INF
    if np.any(empty):
        pruned[empty] = NEG_INF
        pruned[empty, blank_id] = 0.0
        norms[empty] = 0.0
    return Posteriorgram(pruned - norms[:, None], pg.frame_duration_ms)


def kept_labels(pg: Posteriorgram) -> np.ndarray:
    """Labels with nonzero probability in at least one frame."""
    return np.flatnonzero(np.max(pg.log_probs, axis=0) > NEG_INF)


def log_add_bounds(peak: np.ndarray, n, log_n) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on the log-add fold of n terms whose largest is ``peak``, as
    ``np.logaddexp.reduce`` computes it along the terms' axis.

    With M the largest of n terms, the float fold F satisfies
    M <= F <= M + log n + eps.  Lower: each log-add returns its larger
    input plus a nonnegative log1p(exp(.)), and float addition is monotone.
    Upper: the exact log-sum is at most M + log n.  Each of the n log-adds
    rounds once at a magnitude of at most |M| + log n and adds a few ulps
    from log1p(exp(.)) < 1; an earlier rounding reaches F damped by
    exp(a_k - F) <= 1.  eps is at least four times the sum of those errors.
    Columns whose terms are all -inf are -inf in both bounds.

    ``log_n`` is ``math.log(n)``, elementwise for an integer array ``n``
    that broadcasts against ``peak`` (``np.log`` may round differently).
    """
    magnitude = np.where(peak > NEG_INF, np.abs(peak), 0.0) + log_n + 4.0
    return peak, peak + (log_n + 4.0 * (n + 1) * _EPS * magnitude)


@dataclass(frozen=True)
class PrefixStates:
    """Forward variables of B hypothesis prefixes of one length, a column
    each.

    Row b extends posteriorgram ``utt[b]`` of its scorer.
    ``log_nonblank[t, b]`` / ``log_blank[t, b]`` are the log probabilities
    that frames 1..t+1 collapse exactly to the prefix with the path ending
    in the prefix's last label / in blank; they are -inf past the
    posteriorgram's last frame.  ``log_prefix_prob[b]`` is the log
    probability that the full collapsed output starts with the prefix, and
    ``last[b]`` its last label (-1 for the empty prefix).
    """

    length: int
    utt: np.ndarray
    last: np.ndarray
    log_nonblank: np.ndarray
    log_blank: np.ndarray
    log_sum: np.ndarray  # np.logaddexp(log_nonblank, log_blank), bit for bit
    log_prefix_prob: np.ndarray

    def __len__(self) -> int:
        return self.utt.size

    def phi(self, rows, labels, frames: slice = slice(None)) -> np.ndarray:
        """Log probability that ``rows`` cover frames 1..t+1 such that
        ``labels`` may start at frame t+2: a repeated label needs a blank
        in between.  Time runs along axis 0; rows and labels broadcast."""
        same = self.last[rows] == labels
        return np.where(same, self.log_blank[frames, rows], self.log_sum[frames, rows])


@dataclass(frozen=True)
class PrefixStep:
    """What one batched :meth:`CtcPrefixScorer.step` hands to ``exact`` and
    ``advance``: the parent states, and in ``folded`` the (B, C) absolute
    exact scores computed so far, NaN elsewhere, so that ``advance`` reuses
    the survivors' folds.
    """

    states: PrefixStates
    folded: np.ndarray


class CtcPrefixScorer:
    """Joint-decoding CTC scorer, a ``scorers.LabelScorer``: incremental
    prefix probabilities of the CTC output distribution, for the
    posteriorgrams of a lockstep at once, each row against its own.

    For a prefix g and label c the step score is the log probability that
    the collapsed output begins with g.c, less that of g (-inf whenever the
    first is); EOS scores the probability that the output equals g exactly.
    For a prefix of length S < T that probability folds n = T - S terms
    phi[t] + x[t+1] by log-add, one per frame at which c may start.

    The candidates, fixed at construction, are every plain label that some
    posteriorgram emits, then EOS; any other label scores -inf, as does one
    that a row's posteriorgram never emits.  ``counts`` holds each
    utterance's own number of candidates.  Their columns are gathered once
    into (T, U, C) arrays, time first, those shorter than the longest
    padded with -inf frames: ``logaddexp(x, -inf)`` and ``max(x, -inf)``
    return x, so a row's scores are those of its own posteriorgram, each
    with its own n.  A posteriorgram whose width is not the vocabulary's
    raises ValidationError.
    """

    def __init__(self, pgs: Posteriorgram | Sequence[Posteriorgram], vocab: Vocabulary, name: str = "ctc"):
        pgs = [pgs] if isinstance(pgs, Posteriorgram) else list(pgs)
        if not pgs:
            raise ValueError("prefix scoring needs at least one posteriorgram")
        for pg in pgs:
            check_width(pg, vocab)
        self.pgs, self.vocab, self.name = pgs, vocab, name
        self.lengths = np.array([pg.num_frames for pg in pgs])
        self.num_frames = T = int(self.lengths.max())
        self._ends = self.lengths.tolist()
        self._logs = np.array([NEG_INF] + [math.log(n) for n in range(1, T + 1)])
        support = np.zeros((len(pgs), vocab.size), dtype=bool)
        for u, pg in enumerate(pgs):
            support[u, kept_labels(pg)] = True
        support[:, [vocab.blank_id, vocab.bos_id, vocab.eos_id]] = False
        self.candidates = np.append(np.flatnonzero(support.any(axis=0)), vocab.eos_id)
        self.counts = np.count_nonzero(support, axis=1) + 1
        # a candidate's column, -1 for any other label and at index -1
        self._column = np.full(vocab.size + 1, -1)
        self._column[self.candidates] = np.arange(self.candidates.size)
        self._blank = self._padded(np.array([vocab.blank_id]))[:, :, 0]
        # per posteriorgram and candidate: the peak m_col (0 where it never
        # emits the label, as for EOS), whether it emits it, and
        # exp(x - m_col), 1 for EOS, whose bounds are replaced
        self._xs = self._padded(self.candidates)
        self._xs[:, :, -1] = NEG_INF
        peak = self._xs.max(axis=0)
        self._emits = peak > NEG_INF
        self._m_col = np.where(self._emits, peak, 0.0)
        self._scaled = np.subtract(self._xs, self._m_col)
        np.exp(self._scaled, out=self._scaled)
        self._scaled[:, :, -1] = 1.0

    def _padded(self, labels: np.ndarray) -> np.ndarray:
        """Columns ``labels`` of every posteriorgram as one (T, U, L) array."""
        out = np.full((self.num_frames, len(self.pgs), labels.size), NEG_INF)
        for u, pg in enumerate(self.pgs):
            out[: pg.num_frames, u] = pg.log_probs[:, labels]
        return out

    def start(self, count: int) -> PrefixStates:
        """The empty prefix of every posteriorgram, one row each."""
        U = self.lengths.size
        if count != U:
            raise ValueError(f"the CTC scorer holds {U} posteriorgrams, not {count}")
        log_nb, log_b = np.full((self.num_frames, U), NEG_INF), np.cumsum(self._blank, axis=0)
        log_sum = np.logaddexp(log_nb, log_b)
        return PrefixStates(0, np.arange(U), np.full(U, -1), log_nb, log_b, log_sum, np.zeros(U))

    def step(self, states: PrefixStates) -> tuple[np.ndarray, np.ndarray, PrefixStep]:
        """Bound every label's extension of every state's prefix at once.

        Returns (B, V) lower and upper bounds on the scores that
        :meth:`exact` gives, -inf outside the candidates, and the artifacts
        it and :meth:`advance` work from."""
        bounds = list(self._bounds(states))
        # each (B, C) bound goes as soon as its (B, V) copy is filled; the
        # last one's array then holds the step's folds, none made yet
        for i, bound in enumerate(bounds):
            np.subtract(bound, states.log_prefix_prob[:, None], out=bound, where=bound > NEG_INF)
            bounds[i] = np.full((len(states), self.vocab.size), NEG_INF)
            bounds[i][:, self.candidates] = bound
        bound.fill(np.nan)
        return bounds[0], bounds[1], PrefixStep(states, folded=bound)

    def _bounds(self, states: PrefixStates) -> tuple[np.ndarray, np.ndarray]:
        """(B, C) lower and upper bounds on the absolute log prefix
        probabilities that :meth:`_fold` folds.

        A pair's terms phi[t] + x[t+1] sum to exp(m_row + m_col) G, m_row
        the row's peak over its own frames, m_col the column's over its
        posteriorgram and G the dot product of exp(phi - m_row) and
        exp(x - m_col).  Each utterance's G is one stacked (R_u, 1, K) @ (K, C)
        product of its rows and its scaled columns, zero in the columns it
        never emits (and one in EOS's, whose bounds are replaced): a (1, K)
        @ (K, C) BLAS call per row, the one a scorer of its own with these
        candidates makes (BLAS blocks the product by C, so a bound's last
        bit may depend on C).  (A 2-D (R_u, K) product has OpenBLAS touch
        its gemm buffers, about 0.5 MB of resident memory.)  One pass over
        the (B, C) pairs then turns G into the bounds (:meth:`_dot_bounds`).
        A repeated label's phi is log_blank: those pairs, at most one per
        row, get one multiply and sum in frame order together, each row's
        frames past its end zero.  A G of exactly 0 on a row with no finite
        phi or in a column the utterance never emits is -inf in both bounds;
        a live pair whose G may have underflowed takes the bounds of its
        largest term (:func:`log_add_bounds`).  EOS is exact."""
        S, utt, ends = states.length, states.utt, self.lengths[states.utt]
        B, C = len(states), self.candidates.size
        emits, scaled = self._emits, self._scaled

        g, m_row = np.zeros((B, C)), np.full(B, _NO_PEAK)
        order = np.argsort(utt, kind="stable")
        hi = np.cumsum(np.bincount(utt, minlength=len(self.pgs))).tolist()
        for u, (lo, end) in enumerate(zip([0] + hi, self._ends)):
            r = order[lo : hi[u]]
            if end > S and r.size:
                # phi[t - 1] at the frames t in [S, end) at which a label
                # may start, the leading term 0 at S = 0; a row each
                a = states.log_sum[max(S - 1, 0) : end - 1, r].T
                a = np.hstack([np.zeros((r.size, 1)), a]) if S == 0 else a.copy()
                m_row[r] = m = a.max(axis=1, initial=_NO_PEAK)
                np.exp(np.subtract(a, m[:, None], out=a), out=a)
                g[r] = (a[:, None, :] @ scaled[S:end, u])[:, 0]
        rep = self._column[states.last]  # the empty prefix has no last label to repeat
        # EOS's too, but only on a row with no finite phi; no (B, C) mask
        # outlives this line, as the bounds' arrays come next
        r, c = np.nonzero(g <= _UNDERFLOW)
        if r.size:
            live = (m_row[r] > _NO_PEAK) & emits[utt[r], c] & (rep[r] != c)
            r, c = r[live], c[live]
        lower, upper = self._dot_bounds(g, m_row[:, None], self._m_col[utt], np.maximum(ends - S, 1)[:, None])

        k = np.flatnonzero((rep >= 0) & (ends > S))
        if k.size:
            j, u, end = rep[k], utt[k], ends[k]
            a = states.log_blank[S - 1 : end.max() - 1, k]
            a[np.arange(a.shape[0])[:, None] >= end - S] = NEG_INF
            m = a.max(axis=0, initial=_NO_PEAK)
            np.exp(np.subtract(a, m, out=a), out=a)
            a *= scaled[S : end.max(), u, j]
            g = np.cumsum(a, axis=0, out=a)[-1]  # in frame order: the zeros past an end change no bit
            if np.any(g <= _UNDERFLOW):
                live = (g <= _UNDERFLOW) & (m > _NO_PEAK) & emits[u, j]
                r, c = np.append(r, k[live]), np.append(c, j[live])
            lower[k, j], upper[k, j] = self._dot_bounds(g, m, self._m_col[u, j], end - S)
        if r.size:
            n = self.lengths[utt[r]] - S
            peak = self._reduce_terms(states, r, c, np.max)
            lower[r, c], upper[r, c] = log_add_bounds(peak, n, self._logs[n])
        lower[:, -1] = upper[:, -1] = states.log_sum[ends - 1, np.arange(B)]
        return lower, upper

    def _dot_bounds(self, g, m_row, m_col, n) -> tuple[np.ndarray, np.ndarray]:
        """Bounds m_row + m_col + log G -+ delta on folds of n terms, made in
        place over g and m_col (a copy of the caller's), where
        delta = 64 (n + 1024) eps (|m_row| + |m_col| + 900 ln 2 + log n + 8)
        covers the rounding of exp, log, the dot product and the fold.
        900 ln 2 + log n bounds |log G| for 2**-900 < G <= n, so delta
        is a row term plus a row times |m_col|, with no log per pair.  A G
        of 0 gives -inf in both bounds; one in (0, 2**-900] needs other
        bounds."""
        with np.errstate(divide="ignore"):
            center = np.log(g, out=g)
        center += m_row
        center += m_col
        delta = np.abs(m_col, out=m_col)
        delta += np.abs(m_row) + (self._logs[n] - math.log(_UNDERFLOW) + 8.0)
        delta *= 64.0 * (n + 1024) * _EPS
        return center - delta, np.add(center, delta, out=center)

    def _reduce_terms(self, states: PrefixStates, rows, cols, reduce) -> np.ndarray:
        """``reduce`` over the frames, in order, of the terms phi[t] + x[t+1]
        of plain pairs whose posteriorgram runs past the prefix."""
        S = states.length
        ends = self.lengths[states.utt[rows]]
        labels = self.candidates[cols]
        out = np.empty(rows.size)
        start = max(S, 1)
        # blocks of pairs keep the (T', k) terms near four times _BLOCK_SIZE
        pairs_per_block = max(1, 4 * _BLOCK_SIZE // max(1, self.num_frames - start + 1))
        for p0 in range(0, rows.size, pairs_per_block):
            block = slice(p0, p0 + pairs_per_block)
            r, lab, x = rows[block], labels[block], cols[block]
            u = states.utt[r]
            end = int(ends[block].max())
            terms = states.phi(r, lab, slice(start - 1, end - 1))
            terms += self._xs[start:end, u, x]
            if S == 0:
                terms = np.concatenate([self._xs[:1, u, x], terms])
            out[block] = reduce(terms, axis=0)
        return out

    def _fold(self, step: PrefixStep, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Exact absolute log prefix probabilities of the (state row,
        candidate column) pairs, aligned with them and kept in
        ``step.folded``.

        Each pair's terms are rebuilt from the candidates' columns and
        folded frame by frame in order: bit for bit the sequential log-add
        of a per-state recursion, whichever pairs are asked for together.
        """
        ends = self.lengths[step.states.utt[rows]]
        out = np.full(rows.size, NEG_INF)
        eos = cols == self.candidates.size - 1
        out[eos] = step.states.log_sum[ends[eos] - 1, rows[eos]]
        plain = np.flatnonzero(~eos & (ends > step.states.length))
        # a reduction over axis 0 folds the frames in order, from -inf
        out[plain] = self._reduce_terms(step.states, rows[plain], cols[plain], np.logaddexp.reduce)
        step.folded[rows, cols] = out
        return out

    def exact(self, step: PrefixStep, rows: Sequence[int], labels: Sequence[int]) -> np.ndarray:
        """Exact scores of the (state row, label) pairs, aligned with them:
        the log prefix probability less the parent's, -inf for a label
        that is no candidate."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = self._column[labels]
        known = np.flatnonzero(cols >= 0)
        out = np.full(rows.size, NEG_INF)
        out[known] = self._fold(step, rows[known], cols[known])
        return np.subtract(out, step.states.log_prefix_prob[rows], out=out, where=out > NEG_INF)

    def advance(self, step: PrefixStep, rows: Sequence[int], labels: Sequence[int]) -> PrefixStates:
        """Successor states for the (state row, label) pairs that survived
        pruning, a row each, aligned with them; every label a candidate.

        One (T, k) recursion over the k pairs gives their forward
        variables and, on the way, their log-sums.  An EOS pair keeps its
        parent's, since EOS ends the hypothesis.
        """
        rows = np.asarray(rows, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        cols = self._column[labels]
        parent = step.states
        S = parent.length
        utt = parent.utt[rows]
        T = self.num_frames
        # rows phi, r_n, r_b of one (T, 3, k) array: per frame, one log-add of
        # the windows (r_n, r_b) and (phi, r_n) at t-1 gives sums[t], r_n[t]
        # and r_b[t] before the one add of the (label, blank) emissions.
        # np.logaddexp is symmetric bit for bit, so sums[t, 1] is log_sum[t-1]
        fwd = np.full((T, 3, rows.size), NEG_INF)
        fwd[:, 0] = parent.phi(rows, labels)
        sums = np.full((T + 1, 2, rows.size), NEG_INF)
        emit = np.empty((T, 2, rows.size))
        emit[:, 0] = emit[:, 1] = self._blank[:, utt]
        # an EOS pair keeps the dummy blank emission; its parent's replace it
        eos = labels == self.vocab.eos_id
        emit[:, 0, ~eos] = self._xs[:, utt[~eos], cols[~eos]]
        if S == 0:
            fwd[0, 1] = emit[0, 0]
        # past every row's last frame the variables stay -inf
        lo, hi = max(S, 1), int(self.lengths[utt].max(initial=0))
        prev, cur = fwd[lo - 1 : hi - 1], fwd[lo:hi, 1:]
        for n_b, phi_n, pre, new, e in zip(prev[:, 1:], prev[:, :2], sums[lo:hi], cur, emit[lo:hi]):
            np.logaddexp(n_b, phi_n, pre)
            np.add(pre, e, new)
        np.logaddexp(fwd[hi - 1, 1:], fwd[hi - 1, :2], sums[hi])  # k = 0 writes nothing
        scores = step.folded[rows, cols]
        again = np.isnan(scores)
        if np.any(again):
            scores[again] = self._fold(step, rows[again], cols[again])
        log_nb, log_b, log_sum = fwd[:, 1].copy(), fwd[:, 2].copy(), sums[1:, 1].copy()
        last = labels.copy()
        if np.any(eos):
            kept = rows[eos]
            log_nb[:, eos] = parent.log_nonblank[:, kept]
            log_b[:, eos] = parent.log_blank[:, kept]
            log_sum[:, eos] = parent.log_sum[:, kept]
            scores[eos] = parent.log_prefix_prob[kept]
            last[eos] = parent.last[kept]
        return PrefixStates(S + 1, utt, last, log_nb, log_b, log_sum, scores)
