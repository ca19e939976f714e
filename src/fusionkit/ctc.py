"""CTC probabilities, collapsing, prefix scoring, compression, and pruning.

All functions are pure over immutable inputs.  Argmax ties break toward the
lowest label id so every result is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fusionkit.core import NEG_INF, EncoderOutput, Posteriorgram, logsumexp_rows

_EPS = float(np.finfo(np.float64).eps)
_BLOCK_SIZE = 12288  # a quarter of the float64 terms per block of CtcPrefixScorer's folds
_UNDERFLOW = 2.0**-900  # a dot product below this may have lost terms to underflow


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
    sure = np.exp(lp[np.arange(lp.shape[0]), best]) >= threshold
    opens = (best[1:] != best[:-1]) | ~sure[1:] | ~sure[:-1]  # a frame starting a group
    return MergeIndexMap(tuple(np.cumsum(np.append(1, opens)).tolist()), threshold)


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
    norms = logsumexp_rows(pooled)
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
    kept = order[:k].copy()
    if keep_blank and blank_id not in kept:
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


def log_add_bounds(peak: np.ndarray, n, log_n=None) -> tuple[np.ndarray, np.ndarray]:
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

    ``n`` may be an integer array that broadcasts against ``peak``, with
    ``log_n`` its ``math.log`` values (``np.log`` may round differently).
    """
    if log_n is None:
        log_n = math.log(n)
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


@dataclass(frozen=True)
class PrefixStep:
    """What one batched :meth:`CtcPrefixScorer.step` hands to ``exact`` and
    ``advance``.

    ``xs`` holds the plain candidates' posteriors as (T, U, C') columns,
    and ``plain[c]`` is candidate c's column there (-1 for EOS).
    ``folded`` keeps the (B, C) exact scores computed so far, NaN
    elsewhere, so that ``advance`` reuses the survivors' folds.
    """

    states: PrefixStates
    candidates: np.ndarray
    xs: np.ndarray
    plain: np.ndarray
    folded: np.ndarray

    def phi(self, rows, labels, frames: slice = slice(None)) -> np.ndarray:
        """Log probability that parent ``rows`` cover frames 1..t+1 such that
        ``labels`` may start at frame t+2: a repeated label needs a blank
        in between.  Time runs along axis 0; rows and labels broadcast."""
        same = self.states.last[rows] == labels
        return np.where(same, self.states.log_blank[frames, rows], self.states.log_sum[frames, rows])


class CtcPrefixScorer:
    """Incremental prefix probabilities of the CTC output distribution, for
    the posteriorgrams of a lockstep at once.

    For a prefix g and candidate c the step score is the log probability
    that the collapsed output begins with g.c; the EOS candidate scores the
    probability that the output equals g exactly.  For a prefix of length
    S < T that probability folds n = T - S terms phi[t] + x[t+1] by log-add,
    one per frame at which c may start.

    The posteriorgrams' columns are gathered into (T, U, ...) arrays, time
    first, those shorter than the longest padded with -inf frames:
    ``logaddexp(x, -inf)`` and ``max(x, -inf)`` return x, so a row's scores
    are those of its own posteriorgram, each with its own n.
    """

    def __init__(self, pgs: Posteriorgram | Sequence[Posteriorgram], blank_id: int, eos_id: int):
        pgs = [pgs] if isinstance(pgs, Posteriorgram) else list(pgs)
        if not pgs or len({pg.num_labels for pg in pgs}) != 1:
            raise ValueError("prefix scoring needs posteriorgrams of one width")
        self.pgs = pgs
        self.blank_id = blank_id
        self.eos_id = eos_id
        self.lengths = np.array([pg.num_frames for pg in pgs])
        self.num_frames = T = int(self.lengths.max())
        self._blank = self._padded(np.array([blank_id]))[:, :, 0]
        self._logs = np.array([NEG_INF] + [math.log(n) for n in range(1, T + 1)])
        self._columns: tuple | None = None

    def _padded(self, labels: np.ndarray) -> np.ndarray:
        """Columns ``labels`` of every posteriorgram as one (T, U, L) array."""
        out = np.full((self.num_frames, len(self.pgs), labels.size), NEG_INF)
        for u, pg in enumerate(self.pgs):
            out[: pg.num_frames, u] = pg.log_probs[:, labels]
        return out

    def initial_state(self) -> PrefixStates:
        """The empty prefix of every posteriorgram, one row each."""
        U = self.lengths.size
        log_nb, log_b = np.full((self.num_frames, U), NEG_INF), np.cumsum(self._blank, axis=0)
        log_sum = np.logaddexp(log_nb, log_b)
        return PrefixStates(0, np.arange(U), np.full(U, -1), log_nb, log_b, log_sum, np.zeros(U))

    def _plain_columns(self, cands: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
        """Each candidate's column among the plain ones (-1 for EOS), their
        (T, U, C') posteriors and per posteriorgram its frames, support
        columns, their peaks m_col and exp(x - m_col), kept while the
        candidates stay the same."""
        if self._columns is None or not np.array_equal(self._columns[0], cands):
            plain = cands != self.eos_id
            pos = np.where(plain, np.cumsum(plain) - 1, -1)
            xs = self._padded(cands[plain])
            scaled = []
            for u, end in enumerate(self.lengths.tolist()):
                support = np.flatnonzero(xs[:end, u].max(axis=0) > NEG_INF)
                m_col = xs[:end, u, support].max(axis=0)
                scaled.append((end, support, m_col, np.exp(xs[:end, u, support] - m_col)))
            self._columns = (cands, pos, xs, scaled)
        return self._columns[1:]

    def step(
        self, states: PrefixStates, candidates: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, PrefixStep]:
        """Bound every candidate extension of every state's prefix at once.

        Returns (B, C) lower and upper bounds on the absolute log prefix
        probabilities that :meth:`exact` folds, and the artifacts it and
        :meth:`advance` work from.  A pair's terms phi[t] + x[t+1] sum to
        exp(m_row + m_col) G, m_row and m_col the row's and column's peaks
        and G the dot product of exp(phi - m_row) and exp(x - m_col): one
        (1, K) @ (K, c_u) BLAS call per row, as a scorer of its own makes
        it.  The bounds are m_row + m_col + log G -+ delta, a margin for the
        rounding of exp, log, the dot product and the fold.  A repeated
        label's phi is log_blank: its pair gets a dot product of its own.
        Where G may have underflowed, the bounds are those of the largest
        term (:func:`log_add_bounds`).  EOS is exact."""
        cands = np.asarray(candidates, dtype=np.int64)
        if np.any(cands == self.blank_id):
            raise ValueError("blank cannot be a prefix-scorer candidate")
        S = states.length
        B, C = len(states), cands.size
        plain, xs, scaled = self._plain_columns(cands)
        step = PrefixStep(states, cands, xs, plain, folded=np.full((B, C), np.nan))
        lower = np.full((B, C), NEG_INF)
        upper = np.full((B, C), NEG_INF)

        cols = np.flatnonzero(plain >= 0)
        for u, (end, support, m_col, x) in enumerate(scaled):
            r = np.flatnonzero(states.utt == u)
            if end <= S or not r.size or not support.size:
                continue
            # phi[t - 1] at the frames t in [S, end) at which a label may
            # start, the leading term 0 at S = 0; a row each
            phi = states.log_sum[max(S - 1, 0) : end - 1, r]
            a = (np.vstack([np.zeros(r.size), phi]) if S == 0 else phi).T.copy()
            m_row = self._scale_rows(a)
            g = (a[:, None, :] @ x[S:end])[:, 0]
            mine = cols[support]
            grid = np.ix_(r, mine)
            lower[grid], upper[grid] = self._dot_bounds(m_row, m_col, g, end - S)
            # the empty prefix has no last label to repeat
            rep, j = np.nonzero(states.last[r, None] == cands[mine])
            if rep.size:
                a = states.log_blank[S - 1 : end - 1, r[rep]].T.copy()
                m_row = self._scale_rows(a)[:, 0]
                g = np.multiply(a, x[S:end, j].T, out=a).sum(axis=1)
                pairs = r[rep], mine[j]
                lower[pairs], upper[pairs] = self._dot_bounds(m_row, m_col[j], g, end - S)
        r, c = np.nonzero(np.isnan(lower))
        if r.size:
            n = self.lengths[states.utt[r]] - S
            peak = self._reduce_terms(step, r, c, np.max)
            lower[r, c], upper[r, c] = log_add_bounds(peak, n, self._logs[n])

        ends = self.lengths[states.utt]
        eos = cands == self.eos_id
        if np.any(eos):
            lower[:, eos] = upper[:, eos] = states.log_sum[ends - 1, np.arange(B)][:, None]
        return lower, upper, step

    @staticmethod
    def _scale_rows(a: np.ndarray) -> np.ndarray:
        """exp(a - m_row) in place; returns the (k, 1) row peaks m_row, 0 for
        a row with no finite entry (G = 0 and a peak of -inf)."""
        m_row = a.max(axis=1, keepdims=True)
        m_row[m_row == NEG_INF] = 0.0
        np.exp(np.subtract(a, m_row, out=a), out=a)
        return m_row

    def _dot_bounds(self, m_row, m_col, g, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Bounds m_row + m_col + log G -+ delta on a fold of n terms, NaN
        where G may have underflowed."""
        log_g = np.log(np.where(g > _UNDERFLOW, g, np.nan))
        center = m_row + m_col + log_g
        magnitude = np.abs(m_row) + np.abs(m_col) + np.abs(log_g) + self._logs[n] + 8.0
        delta = 64.0 * (n + 1024) * _EPS * magnitude
        return center - delta, center + delta

    def _reduce_terms(self, step: PrefixStep, rows, cols, reduce) -> np.ndarray:
        """``reduce`` over the frames, in order, of the terms phi[t] + x[t+1]
        of plain pairs whose posteriorgram runs past the prefix."""
        S = step.states.length
        ends = self.lengths[step.states.utt[rows]]
        labels = step.candidates[cols]
        out = np.empty(rows.size)
        start = max(S, 1)
        # blocks of pairs keep the (T', k) terms near four times _BLOCK_SIZE
        pairs_per_block = max(1, 4 * _BLOCK_SIZE // max(1, self.num_frames - start + 1))
        for p0 in range(0, rows.size, pairs_per_block):
            block = slice(p0, p0 + pairs_per_block)
            r, lab, x = rows[block], labels[block], step.plain[cols[block]]
            u = step.states.utt[r]
            end = int(ends[block].max())
            terms = step.phi(r, lab, slice(start - 1, end - 1))
            terms += step.xs[start:end, u, x]
            if S == 0:
                terms = np.concatenate([step.xs[:1, u, x], terms])
            out[block] = reduce(terms, axis=0)
        return out

    def exact(self, step: PrefixStep, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Exact log prefix probabilities of the (state row, candidate
        column) pairs, aligned with them.

        Each pair's terms are rebuilt from the step's columns and folded
        frame by frame in order: bit for bit the sequential log-add of a
        per-state recursion, whichever pairs are asked for together.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        ends = self.lengths[step.states.utt[rows]]
        out = np.full(rows.size, NEG_INF)
        eos = step.candidates[cols] == self.eos_id
        out[eos] = step.states.log_sum[ends[eos] - 1, rows[eos]]
        plain = np.flatnonzero(~eos & (ends > step.states.length))
        # a reduction over axis 0 folds the frames in order, from -inf
        out[plain] = self._reduce_terms(step, rows[plain], cols[plain], np.logaddexp.reduce)
        step.folded[rows, cols] = out
        return out

    def advance(self, step: PrefixStep, rows: Sequence[int], cols: Sequence[int]) -> PrefixStates:
        """Successor states for the (state row, candidate column) pairs that
        survived pruning, a row each, aligned with them.

        One (T, k) recursion over the k pairs gives their forward
        variables and, on the way, their log-sums.  An EOS column keeps its
        parent's, since EOS ends the hypothesis.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        labels = step.candidates[cols]
        parent = step.states
        S = parent.length
        utt = parent.utt[rows]
        T = self.num_frames
        # rows phi, r_n, r_b of one (T, 3, k) array: per frame, one log-add of
        # the windows (r_n, r_b) and (phi, r_n) at t-1 gives sums[t], r_n[t]
        # and r_b[t] before the one add of the (label, blank) emissions.
        # np.logaddexp is symmetric bit for bit, so sums[t, 1] is log_sum[t-1]
        fwd = np.full((T, 3, rows.size), NEG_INF)
        fwd[:, 0] = step.phi(rows, labels)
        sums = np.full((T + 1, 2, rows.size), NEG_INF)
        emit = np.empty((T, 2, rows.size))
        emit[:, 0] = emit[:, 1] = self._blank[:, utt]
        # an EOS column keeps the dummy blank emission; its parent's replace it
        eos = labels == self.eos_id
        emit[:, 0, ~eos] = step.xs[:, utt[~eos], step.plain[cols[~eos]]]
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
            scores[again] = self.exact(step, rows[again], cols[again])
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
