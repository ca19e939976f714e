"""Decoding strategies over posteriorgrams and label-synchronous scorers.

Tie-breaking everywhere: higher score, then shorter sequence, then
lexicographically smaller label ids.  Length normalization divides the
running combined score by the current length at pruning time only; stored
components stay un-normalized so final scores are comparable across flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from fusionkit.core import (
    NEG_INF, Posteriorgram, ScorerWeights, ValidationError, Vocabulary, check_width,
)
from fusionkit.lm import NGramModel, TableLM, lm_logprob, retokenize
from fusionkit.scorers import (  # the scorer kinds are part of the search API
    ContextLMScorer,
    CtcPrefixLabelScorer,
    DecoderLabelScorer,
    LabelScorer,
)

__all__ = [
    "ContextLMScorer", "CtcPrefixLabelScorer", "DecodeStats", "DecoderLabelScorer",
    "LabelScorer", "NBestEntry", "NBestList", "frame_lm", "labelsync_beam", "rescore_nbest",
    "timesync_ctc_beam", "write_nbest",
]


@dataclass
class DecodeStats:
    """Counters for one decode run; the memory proxy is the candidate set.

    ``ctc_exact_pairs`` counts the (hypothesis, label) pairs, EOS excluded,
    whose CTC prefix probability the label-synchronous beam folded exactly;
    every other pair it only bounded.  The searches only count, each
    utterance's own counters even in a lockstep.  The caller that times a
    search (``cli.Session.search``) sets ``audio_seconds`` and splits its
    wall time between the utterances by frames, so their ``wall_time_s``
    (and with ``audio_seconds`` their RTF) sum to the search's own.
    """

    scorer_evaluations: int = 0
    peak_live_hypotheses: int = 0
    peak_candidate_set: int = 0
    steps: int = 0
    ctc_exact_pairs: int = 0
    wall_time_s: float = 0.0
    audio_seconds: float = 0.0

    @property
    def rtf(self) -> float | None:
        if self.audio_seconds <= 0:
            return None
        return self.wall_time_s / self.audio_seconds

    def merge(self, other: "DecodeStats") -> None:
        self.scorer_evaluations += other.scorer_evaluations
        self.peak_live_hypotheses = max(self.peak_live_hypotheses, other.peak_live_hypotheses)
        self.peak_candidate_set = max(self.peak_candidate_set, other.peak_candidate_set)
        self.steps += other.steps
        self.ctc_exact_pairs += other.ctc_exact_pairs
        self.wall_time_s += other.wall_time_s
        self.audio_seconds += other.audio_seconds


@dataclass(frozen=True)
class NBestEntry:
    labels: tuple[int, ...]
    components: dict[str, float]
    combined: float
    finished: bool

    def output_labels(self, eos_id: int) -> tuple[int, ...]:
        if self.labels and self.labels[-1] == eos_id:
            return self.labels[:-1]
        return self.labels


class NBestList:
    """Hypotheses ranked by combined score under deterministic tie-breaking."""

    def __init__(self, entries: Iterable[NBestEntry], presorted: bool = False):
        entries = list(entries)
        self.entries = entries if presorted else sorted(entries, key=_rank_key)
        for e in self.entries:
            if not math.isfinite(e.combined):
                raise ValueError("n-best entries must have finite scores")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> NBestEntry:
        return self.entries[i]

    @property
    def best(self) -> NBestEntry:
        return self.entries[0]

    @property
    def finished(self) -> list[NBestEntry]:
        return [e for e in self.entries if e.finished]

    @property
    def best_finished(self) -> NBestEntry | None:
        for e in self.entries:
            if e.finished:
                return e
        return None


def _rank_key(entry: NBestEntry):
    return (-entry.combined, len(entry.labels), entry.labels)


def write_nbest(nbest: NBestList, vocab: Vocabulary, path: str | Path) -> None:
    """Ranked text lines: rank, combined, components, token strings."""
    lines = []
    for rank, e in enumerate(nbest, 1):
        comps = ",".join(f"{k}={v!r}" for k, v in sorted(e.components.items()))
        toks = " ".join(vocab.tokens[i] for i in e.output_labels(vocab.eos_id))
        lines.append(f"{rank}\t{e.combined!r}\t{comps}\t{toks}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def labelsync_beam(
    scorers: Sequence[LabelScorer],
    weights: ScorerWeights,
    beam: int,
    vocab: Vocabulary,
    max_lens: Sequence[int],
    stats: Sequence[DecodeStats] | None = None,
) -> list[NBestList]:
    """Label-synchronous beam search with log-linear score fusion, run in
    lockstep over ``len(max_lens)`` utterances; one n-best list each.

    The scorers are built for the utterances in that order: a CTC scorer
    holds all of them, the others are shared.  Longest first is fastest, as
    the CTC scorer's folds run each block of pairs to its longest.  Each live
    hypothesis is expanded over every candidate label (its utterance's CTC
    support when a CTC scorer is present, otherwise the full non-special
    vocabulary) plus EOS.  Every (hypothesis, candidate) pair is bounded,
    and exact scores are asked for only where the bounds leave the pair a
    chance at the beam; the result equals scoring every pair exactly.
    Finished hypotheses compete for beam slots.

    Label step n advances every running utterance with one ``step``,
    ``exact`` and ``advance`` call per scorer over all their live rows,
    which all hold n labels.  The live set is a set of arrays gathered by
    survivor index: utterance, trie node (parent, label), the (B, scorers)
    components and the combined score.  Each utterance cuts its own pairs
    (one ``np.partition`` over a (U, S·C) block) and ranks its own pool,
    the finished hypotheses in its beam and its refined pairs (one
    ``np.lexsort`` with the utterance first).  Label tuples are built only
    for pool entries tied at the cut or at the top, whose order the labels
    settle, and for the output.  An utterance retires, and its rows drop
    out, when its beam-best is finished, when it has taken ``max_lens[u]``
    steps or when no pair can extend it; each sees the float operations of
    a search of its own, so its results never depend on which utterances
    share a lockstep.  Nor do its counters, but for one case: the last bit
    of a CTC bound depends on the candidate count, so a pair whose upper
    bound lies within an ulp of the cut could move ``ctc_exact_pairs``
    (none seen at seeds 0-31).  ``stats``, one per utterance, get its
    counters.  A scorer that holds audio, a decoder scorer with audio, holds
    one utterance's: given more than one utterance it raises ValueError.
    """
    if not max_lens:
        return []
    if len(max_lens) > 1 and any(getattr(s, "audio", None) is not None for s in scorers):
        raise ValueError("a decoder scorer with audio decodes one utterance per call")
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if min(max_lens) < 1:
        raise ValueError("max_len must be >= 1")
    if not scorers:
        raise ValueError("at least one scorer is required")
    names = [s.name for s in scorers]
    if len(set(names)) != len(names):
        raise ValueError("scorer names must be unique")
    for name in weights.weights:
        if name not in names:
            raise ValueError(f"weight given for unknown scorer {name!r}")
    active = [s for s in scorers if weights.weights.get(s.name, 0.0) != 0.0]
    active_names = [s.name for s in active]
    scales = [weights.weights[name] for name in active_names]

    num = len(max_lens)
    ctc_scorers = [s for s in active if isinstance(s, CtcPrefixLabelScorer)]
    if ctc_scorers:
        candidates, counts = ctc_scorers[0].candidates, ctc_scorers[0].counts
    else:
        plain = [i for i in range(vocab.size) if not vocab.is_special(i)]
        candidates = np.array(plain + [vocab.eos_id])
        counts = np.full(num, candidates.size)
    # the bounds are combined over the whole vocabulary, the labels that
    # are no candidates masked as impossible
    allowed = np.zeros(vocab.size, dtype=bool)
    allowed[candidates] = True
    max_lens = np.asarray(max_lens)

    states = [s.start(num) for s in active]
    trie_parent, trie_label = [-1] * num, [-1] * num

    def labels_of(node):
        return _trie_labels(trie_parent, trie_label, node)

    # the live hypotheses, grouped by utterance: utterance, trie node,
    # components and combined score
    utt, node = np.arange(num), np.arange(num)
    comps, comb = np.zeros((num, len(active))), np.zeros(num)
    # the finished hypotheses in a beam: the same, plus length and prune key
    f_utt, f_node = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    f_comps, f_comb = np.zeros((0, len(active))), np.zeros(0)
    f_depth, f_key = np.zeros(0, dtype=np.int64), np.zeros(0)
    # every finished hypothesis that made a beam, in chunks
    done: list[tuple[np.ndarray, ...]] = []
    steps = np.zeros(num, dtype=np.int64)
    peak_live = np.zeros(num, dtype=np.int64)
    evaluations = np.zeros(num, dtype=np.int64)
    exact_pairs = np.zeros(num, dtype=np.int64)
    results: list[NBestList | None] = [None] * num

    def finalize(u, beam_nodes, beam_comps, beam_comb):
        """Utterance u's n-best list: the unfinished hypotheses of its last
        beam and every finished one that made a beam."""
        nodes, rows, combs = list(beam_nodes), list(beam_comps), list(beam_comb)
        for d_utt, d_node, d_comps, d_comb in done:
            mine = d_utt == u
            nodes += d_node[mine].tolist()
            rows += list(d_comps[mine])
            combs += d_comb[mine].tolist()
        entries = [
            NBestEntry(
                labels_of(n), dict(zip(active_names, row.tolist())), c,
                bool(trie_label[n] == vocab.eos_id),
            )
            for n, row, c in zip(nodes, rows, combs)
            if math.isfinite(c)
        ]
        results[u] = NBestList(entries)

    running = np.ones(num, dtype=bool)
    n = 0
    while running.any():
        live = np.bincount(utt, minlength=num)
        steps += running
        np.maximum(peak_live, live + np.bincount(f_utt, minlength=num), out=peak_live)
        evaluations += live * len(active) * counts

        # bound: one step call per scorer covers every live row.  The float
        # operations of ScorerWeights.combine, in its order, are monotone
        # in each component, so combining the lower (upper) bounds bounds
        # the combined score; a negative weight swaps them.
        # Bounds are only compared, so -0.0 and 0.0 may differ there and the
        # sums start from the first term, in place.
        artifacts = []
        lower = upper = None
        possible = np.repeat(allowed[None], utt.size, axis=0)
        for j, (s, scale) in enumerate(zip(active, scales)):
            lo_matrix, hi_matrix, art = s.step(states[j])
            artifacts.append(art)
            # a pair that any scorer gives probability zero is impossible,
            # whatever the sign of its weight; its bounds, inf - inf at
            # times, are masked
            possible &= hi_matrix != NEG_INF
            with np.errstate(invalid="ignore"):
                parent = comps[:, j, None]
                lo = lo_matrix + parent
                hi = lo if hi_matrix is lo_matrix else hi_matrix + parent
                del lo_matrix, hi_matrix
                if scale < 0:
                    lo, hi = hi, lo
                lo *= scale
                if hi is not lo:
                    hi *= scale
                if lower is None:
                    lower, upper = lo, hi.copy() if hi is lo else hi
                else:
                    lower += lo
                    upper += hi
            del lo, hi
        # length normalization divides by a positive count: order is kept
        norm = n + 1 if weights.length_norm else 1
        if norm != 1:
            lower /= norm
            upper /= norm

        # cut: per utterance, at least beam pairs have an exact key at or
        # above the beam-th best lower key, so no pair whose upper key falls
        # below it can make the beam; the bounds are -inf together with the
        # exact score, so every possible pair has finite bounds
        cut_at = np.full(num, _LOWEST)
        pairs = np.bincount(utt, weights=np.count_nonzero(possible, axis=1), minlength=num)
        over = pairs > beam
        if over.any():
            compact = np.cumsum(running) - 1
            run = np.flatnonzero(running)
            row_utt = compact[utt]
            slot = np.arange(utt.size) - (np.cumsum(live[run]) - live[run])[row_utt]
            want = np.maximum(1, np.minimum(beam, pairs[run])).astype(np.int64)
            lower[~possible] = NEG_INF
            cut_at[run] = _cut_threshold(lower, row_utt, slot, live[run], want)
        del lower
        # refine: exact components for the pairs that pass the cut only
        possible &= upper >= cut_at[utt][:, None]
        del upper
        rows, labels = np.nonzero(possible)
        del possible
        ends = labels == vocab.eos_id
        new_comps = np.empty((rows.size, len(active)))
        combined = 0.0
        for j, (s, scale, art) in enumerate(zip(active, scales, artifacts)):
            new_comps[:, j] = comps[rows, j] + s.exact(art, rows, labels)
            combined = combined + scale * new_comps[:, j]
        keys = combined / norm
        if ctc_scorers:
            folds = np.bincount(utt[rows], weights=~ends, minlength=num)
            exact_pairs += len(ctc_scorers) * folds.astype(np.int64)

        # rank each utterance's pool, the finished hypotheses in its beam
        # and its refined pairs; whether the best is finished matters too
        p_utt = np.concatenate([f_utt, utt[rows]])
        p_key = np.concatenate([f_key, -keys])
        p_depth = np.concatenate([f_depth, np.full(rows.size, n + 1)])
        p_done = np.concatenate([np.ones(f_utt.size, dtype=bool), ends])

        def pool_labels(i):
            if i < f_utt.size:
                return labels_of(int(f_node[i]))
            k = i - f_utt.size
            return labels_of(int(node[rows[k]])) + (int(labels[k]),)

        order, rank, first, per_utt = _rank(p_utt, p_key, p_depth, num, beam, pool_labels, True)
        top = order[rank < beam]

        # survivors: finished ones keep their node, children get one
        s_utt, s_done = p_utt[top], p_done[top]
        child = top >= f_utt.size
        k = top[child] - f_utt.size
        s_node = np.empty(top.size, dtype=np.int64)
        s_node[~child] = f_node[top[~child]]
        s_node[child] = len(trie_label) + np.arange(k.size)
        trie_parent.extend(node[rows[k]].tolist())
        trie_label.extend(labels[k].tolist())
        s_comps = np.concatenate([f_comps, new_comps])[top]
        s_comb = np.concatenate([f_comb, combined])[top]
        joined = child & s_done
        if joined.any():
            done.append((s_utt[joined], s_node[joined], s_comps[joined], s_comb[joined]))

        # an utterance retires when no pair extends it (its last beam
        # stands), when its beam-best is finished, or at its max_len
        stuck = running & (per_utt == 0)
        best_done = np.zeros(num, dtype=bool)
        best_done[per_utt > 0] = p_done[order[first[per_utt > 0]]]
        retire = running & (stuck | best_done | (steps == max_lens))
        for u in np.flatnonzero(retire).tolist():
            if stuck[u]:
                mine = utt == u
                finalize(u, node[mine].tolist(), comps[mine], comb[mine].tolist())
            else:
                mine = (s_utt == u) & ~s_done
                finalize(u, s_node[mine].tolist(), s_comps[mine], s_comb[mine].tolist())
        running &= ~retire
        if not running.any():
            break

        # the scorer rows of the growing survivors of running utterances;
        # each scorer's old rows and artifacts go once it has advanced
        grow = child & ~s_done & running[s_utt]
        g = top[grow] - f_utt.size
        for j, s in enumerate(active):
            states[j] = None
            states[j], artifacts[j] = s.advance(artifacts[j], rows[g], labels[g]), None
        utt, node, comps, comb = s_utt[grow], s_node[grow], s_comps[grow], s_comb[grow]
        held = s_done & running[s_utt]
        f_utt, f_node, f_comps, f_comb = s_utt[held], s_node[held], s_comps[held], s_comb[held]
        f_depth, f_key = p_depth[top][held], p_key[top][held]
        n += 1

    for u, s in enumerate(stats or ()):
        s.steps += int(steps[u])
        s.peak_live_hypotheses = max(s.peak_live_hypotheses, int(peak_live[u]))
        if steps[u]:
            s.peak_candidate_set = max(s.peak_candidate_set, int(counts[u]))
        s.scorer_evaluations += int(evaluations[u])
        s.ctc_exact_pairs += int(exact_pairs[u])
    return results


class _NoLM:
    """The frame LM of a search without one: zero deltas, no state, at
    weight 0, which never asks for a final residual."""

    weight = 0.0

    def __init__(self, vocab: Vocabulary):
        self.size = vocab.size

    def root(self):
        return None

    def child(self, state, label):
        return None

    def rows(self, states):
        return np.zeros((len(states), self.size))


class _LabelLM:
    """Label-wise fusion: each appended label's LM log-prob lands at once,
    the EOS term at finalization.  A prefix's state is its LM context."""

    def __init__(self, lm: NGramModel | TableLM, vocab: Vocabulary, weight: float):
        self.lm = lm
        self.weight = weight
        self.bos_id = vocab.bos_id
        self.eos_id = vocab.eos_id

    def root(self):
        return (self.bos_id,)

    def child(self, state, label):
        return state + (label,)

    def rows(self, states):
        return self.lm.rows(states)

    def finals(self, states):
        return self.lm.rows(states)[:, self.eos_id]


class _WordLM:
    """Delayed fusion on the LM's own vocabulary: the pending word's LM
    score lands when a label that begins the next word is appended, and
    the pending word plus EOS land at finalization.

    A prefix's state is (LM context before the pending word, the pending
    word's labels, its LM score, the LM context after it); the word
    completed by any word-begin label is the pending one, whichever label
    starts the next word.
    """

    def __init__(self, lm: NGramModel | TableLM, vocab: Vocabulary, weight: float):
        self.lm = lm
        self.vocab = vocab
        self.weight = weight
        self.begins = np.array(vocab.begins_word)

    def root(self):
        ctx = (self.lm.vocab.bos_id,)
        return ctx, (), 0.0, ctx

    def child(self, state, label):
        ctx, pending, _, after = state
        if self.vocab.begins_word[label]:
            ctx, pending = after, (label,)
        else:
            pending = pending + (label,)
        toks = tuple(retokenize(self.lm.vocab, [self.vocab.word_text(pending)]))
        delta = 0.0
        for row, tok in zip(self.lm.rows(ctx + toks[:i] for i in range(len(toks))), toks):
            delta += float(row[tok])
        return ctx, pending, delta, ctx + toks

    def rows(self, states):
        out = np.zeros((len(states), self.vocab.size))
        out[:, self.begins] = np.array([s[2] for s in states])[:, None]
        return out

    def finals(self, states):
        eos = self.lm.rows([s[3] for s in states])[:, self.lm.vocab.eos_id]
        return np.array([s[2] for s in states]) + eos


_LOWEST = -np.finfo(float).max
# a lockstep's prefix trie is cut back to the live prefixes and their
# ancestors once it holds this many nodes more than twice what it kept
_TRIE_SLACK = 4096


def _cut_threshold(scores, utt, slot, counts, want):
    """Per utterance, the ``want[u]``-th largest of its rows' ``scores``,
    or the lowest finite float where it has no more finite entries than
    that: the scores at or above it are the shortlist.

    Row r, the ``slot[r]``-th of utterance ``utt[r]``, is laid into row
    ``utt[r]`` of a (U, S·V) block, with -inf padding, so one
    ``np.partition`` along the rows serves every utterance.
    """
    num, width = counts.size, scores.shape[1]
    top = int(want.max())
    # enough slots for ``top`` entries, so that a short row reads -inf
    slots = max(int(counts.max()), -(-top // width))
    block = np.full((num * slots, width), NEG_INF)
    block[utt * slots + slot] = scores
    block = block.reshape(num, slots * width)
    if top < block.shape[1]:
        block.partition(block.shape[1] - top, axis=1)
    tail = block[:, -top:]
    tail.sort(axis=1)
    return np.maximum(tail[np.arange(num), top - want], _LOWEST)


def _trie_labels(parent: list[int], label: list[int], node: int) -> tuple[int, ...]:
    """The labels on the path from a trie root to ``node``."""
    out = []
    while label[node] >= 0:
        out.append(label[node])
        node = parent[node]
    return tuple(reversed(out))


def _rank(utt, key, depth, num, beam, labels, top=False):
    """Each of ``num`` utterances' entries in beam order, by (key, length,
    labels): one ``np.lexsort`` by (utterance, key, length), then the
    labels, ``labels(i)`` for entry i, settle ties where the order
    matters, at the beam cut (rank beam - 1 against beam) and with ``top``
    at the top (rank 0 against 1).

    Returns the order, each ordered entry's rank within its utterance, and
    each utterance's first position and number of entries.
    """
    order = np.lexsort((depth, key, utt))
    per_utt = np.bincount(utt, minlength=num)
    first = per_utt.cumsum() - per_utt
    at = (first + beam - 1)[per_utt > beam]
    if top:
        at = np.concatenate([first[per_utt > 1], at])
    a, b = order[at], order[at + 1]
    for pos in at[(key[a] == key[b]) & (depth[a] == depth[b])].tolist():
        u = utt[order[pos]]
        seg = order[first[u] : first[u] + per_utt[u]]
        ref = order[pos]
        group = np.flatnonzero((key[seg] == key[ref]) & (depth[seg] == depth[ref]))
        members = seg[group]
        names = [labels(i) for i in members.tolist()]
        seg[group] = members[sorted(range(members.size), key=names.__getitem__)]
    return order, np.arange(order.size) - first[utt[order]], first, per_utt


def _trie_closure(parent: list[int], label: list[int], live: list[int], roots: int):
    """The prefix trie cut down to the ``live`` nodes and their ancestors.

    The first ``roots`` nodes are the roots, which keep their ids; the other
    kept nodes keep their order.  Returns the new parent and label lists,
    the (parent, label) -> node map and the array mapping old ids to new,
    -1 at index -1.
    """
    kept = set(range(roots))
    for n in set(live):
        while n not in kept:
            kept.add(n)
            n = parent[n]
    old = sorted(kept)
    remap = np.full(len(parent) + 1, -1)
    remap[old] = np.arange(len(old))
    new_parent = remap[np.array(parent)[old]].tolist()
    new_label = [label[n] for n in old]
    children = {(p, c): n for n, (p, c) in enumerate(zip(new_parent, new_label)) if c >= 0}
    return new_parent, new_label, children, remap


def timesync_ctc_beam(
    pgs: Sequence[Posteriorgram],
    vocab: Vocabulary,
    beam: int,
    frame_lm: _NoLM | _LabelLM | _WordLM,
    stats: Sequence[DecodeStats] | None = None,
) -> list[NBestList]:
    """Frame-synchronous prefix beam search with path merging, run in
    lockstep over a list of posteriorgrams; one n-best list each, fused
    by ``frame_lm``, :func:`frame_lm`'s.

    Step t advances every utterance that has a frame t with one set of
    array operations over all their B live prefixes: the stay paths (blank,
    or the last label repeated) as B-vectors, the extensions by every label
    as one (B, V) block, -inf where a label cannot extend.  An utterance is
    finalized, and its rows dropped, at the step where its frames end.  The
    fused score is CTC plus ``frame_lm.weight`` times LM.

    The live prefixes are arrays gathered by survivor index from step to
    step; each is a node of a trie keyed by (parent node, label).  Distinct
    parents never produce the same extension, so an extension merges (by
    log-sum-exp) only into a live prefix whose parent node is live.  The
    trie keeps the live prefixes and their ancestors: it is cut back to them
    whenever it outgrows them (``_TRIE_SLACK``).
    ``frame_lm.child(state, label)`` gives a new prefix's LM state and
    ``frame_lm.rows(states)`` its (V,) LM deltas, for new beam survivors
    only; a prefix carries its LM score plus those deltas, the LM scores of
    its extensions, from its birth on.  ``frame_lm.finals(states)`` gives
    the residuals at finalization.

    Each utterance keeps its ``beam`` best by (score, length, labels).  Of
    its extensions, only the ``beam`` best and those tied with the last of
    them are ranked with its stay entries.  The order of the survivors
    affects no result, so label tuples are built only for entries tied in
    (score, length) at the beam cut and for the output.
    Each prefix sees the float operations of the per-utterance search in
    ``tests/test_timesync.py``, so neither results nor counters depend on
    which utterances share a lockstep.  ``stats``, one per posteriorgram,
    get that utterance's counters.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    for pg in pgs:
        check_width(pg, vocab)
    if not pgs:
        return []
    lm_weight = frame_lm.weight
    # longest first, so that the utterances still running form a prefix
    by_length = sorted(range(len(pgs)), key=lambda u: -pgs[u].num_frames)
    lengths = [pgs[u].num_frames for u in by_length]
    log_probs = [pgs[u].log_probs for u in by_length]
    # only plain labels extend a prefix; their count in frame t of
    # utterance u is at start[u] + t
    specials = [vocab.blank_id, vocab.bos_id, vocab.eos_id]
    plain = np.ones(vocab.size, dtype=bool)
    plain[specials] = False
    cands_at = np.concatenate(
        [np.count_nonzero(lp[:, plain] > NEG_INF, axis=1) for lp in log_probs]
    )
    start = np.cumsum(lengths) - lengths

    num = len(pgs)
    trie_parent = [-1] * num
    trie_label = [-1] * num
    children: dict[tuple[int, int], int] = {}
    row_of = np.full(num + 1, -1)  # -1 but at the live nodes during a step
    compact_at = num + _TRIE_SLACK  # trie size that prompts cutting it back

    def labels_of(node):
        return _trie_labels(trie_parent, trie_label, node)

    utt = np.arange(num)
    slot = np.zeros(num, dtype=np.int64)  # rank among the utterance's prefixes
    node = np.arange(num)
    up = np.full(num, -1)  # parent node; -1 at the root
    depth = np.zeros(num, dtype=np.int64)
    log_b = np.zeros(num)
    log_nb = np.full(num, NEG_INF)
    lm = np.zeros(num)
    # the root's blank has -inf in every frame's extension row
    last = np.full(num, vocab.blank_id)
    states = [frame_lm.root()] * num  # each live prefix's LM state
    # each live prefix's LM score plus its (V,) LM deltas: the LM scores of
    # its extensions
    lm_sum = frame_lm.rows(states) + lm[:, None]
    evaluations = np.zeros(num, dtype=np.int64)
    peak_live = np.zeros(num, dtype=np.int64)
    results: list[NBestList | None] = [None] * num

    running = num
    for t in range(lengths[0]):
        live = np.bincount(utt, minlength=running)
        evaluations[:running] += live * cands_at[start[:running] + t]
        np.maximum(peak_live[:running], live, out=peak_live[:running])
        if utt.size:
            # frame t of each running utterance
            frame = np.array([lp[t] for lp in log_probs[:running]])
            blank = frame[:, vocab.blank_id].copy()
            frame[:, specials] = NEG_INF
            rows = np.arange(utt.size)
            ext = frame[utt]
            am = np.logaddexp(log_b, log_nb)
            repeat = ext[rows, last]

            # stay paths.  Each merged entry log-adds its arrivals from -inf,
            # which turns -0.0 into +0.0 and leaves -inf as it is.
            stay_b = np.logaddexp(NEG_INF, am + blank[utt])
            stay_nb = np.logaddexp(NEG_INF, log_nb + repeat)

            # extensions, one (B, V) block of CTC scores: a repeated label
            # continues from the blank-ending paths
            ext += am[:, None]
            ext[rows, last] = log_b + repeat

            # an extension landing on a live prefix merges into its stay
            # entry: the prefix's parent is live too, at row i
            if row_of.size <= len(trie_label):
                # longer than the trie: row_of[-1], read for the roots'
                # parent -1, is never a node's
                row_of = np.full(2 * len(trie_label), -1)
            row_of[node] = rows
            parent_row = row_of[up]
            row_of[node] = -1
            landed = (parent_row >= 0).nonzero()[0]
            i, c = parent_row[landed], last[landed]
            stay_nb[landed] = np.logaddexp(stay_nb[landed], ext[i, c])
            ext[i, c] = NEG_INF
            merged_am = np.logaddexp(stay_b, stay_nb)
            ranked = (merged_am > NEG_INF).nonzero()[0]

            # the block turns, in place, into the fused scores of the new
            # prefixes, -inf for those the LM gives probability zero (live
            # prefixes have finite LM scores); without an LM it would only
            # add zeros.  Per utterance, shortlist its beam best extensions
            # and their ties: one below them has beam better ones and cannot
            # survive
            if lm_weight > 0.0:
                ext += lm_sum * lm_weight
            elif not isinstance(frame_lm, _NoLM):
                # a -inf LM sum turns NaN or +inf here: masked
                with np.errstate(invalid="ignore"):
                    ext += lm_sum * lm_weight
                ext[lm_sum == NEG_INF] = NEG_INF
            kth = _cut_threshold(ext, utt, slot, live, np.full(running, beam))
            e_row, e_label = np.divmod((ext >= kth[utt][:, None]).ravel().nonzero()[0], vocab.size)
            del ext
            # the shortlisted extensions' CTC and LM scores, as in the block
            e_am = np.where(e_label == last[e_row], log_b[e_row], am[e_row])
            e_am += frame[utt[e_row], e_label]
            e_lm = lm_sum[e_row, e_label]

            # candidates: the ranked stay entries, then the shortlisted
            # extensions, sorted by (utterance, key, length)
            src = np.concatenate([ranked, e_row])
            cand_utt = utt[src]
            cand_depth = np.concatenate([depth[ranked], depth[e_row] + 1])
            cand_key = np.concatenate([
                -(merged_am[ranked] + lm_weight * lm[ranked]),
                -(np.logaddexp(NEG_INF, e_am) + lm_weight * e_lm),
            ])
            def cand_labels(k):
                if k < ranked.size:
                    return labels_of(node[src[k]])
                return labels_of(node[src[k]]) + (int(e_label[k - ranked.size]),)

            order, rank, _, _ = _rank(cand_utt, cand_key, cand_depth, running, beam, cand_labels)
            kept = rank < beam
            keep, slot = order[kept], rank[kept]

            # survivors; trie nodes, LM states and LM sums for the new
            # prefixes, whose gathered entries are their parents'
            new = (keep >= ranked.size).nonzero()[0]
            src = src[keep]
            utt, depth = cand_utt[keep], cand_depth[keep]
            log_b = np.concatenate([stay_b[ranked], np.full(e_row.size, NEG_INF)])[keep]
            log_nb = np.concatenate([stay_nb[ranked], e_am])[keep]
            lm = np.concatenate([lm[ranked], e_lm])[keep]
            last = np.concatenate([last[ranked], e_label])[keep]
            up, node, lm_sum = up[src], node[src], lm_sum[src]
            states = [states[k] for k in src.tolist()]
            up[new] = node[new]
            for j, parent, label in zip(new.tolist(), up[new].tolist(), last[new].tolist()):
                # a prefix that drops out and comes back keeps its node
                n = children.setdefault((parent, label), len(trie_label))
                if n == len(trie_label):
                    trie_parent.append(parent)
                    trie_label.append(label)
                node[j] = n
                states[j] = frame_lm.child(states[j], label)
            if new.size:
                lm_sum[new] = frame_lm.rows([states[j] for j in new.tolist()]) + lm[new, None]
            if len(trie_label) > compact_at:
                # the nodes of prefixes gone from every beam are forgotten:
                # no live prefix can extend into them
                trie_parent, trie_label, children, remap = _trie_closure(
                    trie_parent, trie_label, node.tolist(), num
                )
                node, up = remap[node], remap[up]
                compact_at = 2 * len(trie_label) + _TRIE_SLACK

        # finalize the utterances whose frames end here
        still = running
        while still and lengths[still - 1] == t + 1:
            still -= 1
        if still == running:
            continue
        end = int(np.searchsorted(utt, still))
        am_end = np.logaddexp(log_b[end:], log_nb[end:]).tolist()
        lm_end = lm[end:]
        if lm_weight != 0.0:
            lm_end = lm_end + frame_lm.finals(states[end:])
        entries = [[] for _ in range(still, running)]
        ended = zip(utt[end:].tolist(), node[end:].tolist(), am_end, lm_end.tolist())
        for u, n, am_r, lm_total in ended:
            if am_r == NEG_INF:
                continue
            comps = {"ctc": am_r}
            combined = am_r
            if lm_weight != 0.0:
                if lm_total == NEG_INF:
                    continue
                comps["lm"] = lm_total
                combined = am_r + lm_weight * lm_total
            entries[u - still].append(NBestEntry(labels_of(n), comps, combined, finished=True))
        for u in range(still, running):
            results[by_length[u]] = NBestList(entries[u - still])
        utt, slot, node, up, depth = utt[:end], slot[:end], node[:end], up[:end], depth[:end]
        log_b, log_nb, lm, last = log_b[:end], log_nb[:end], lm[:end], last[:end]
        lm_sum, states = lm_sum[:end], states[:end]
        running = still

    if stats is not None:
        peak_cands = np.maximum.reduceat(cands_at, start)
        for u, orig in enumerate(by_length):
            s = stats[orig]
            s.steps += lengths[u]
            s.peak_live_hypotheses = max(s.peak_live_hypotheses, int(peak_live[u]))
            s.peak_candidate_set = max(s.peak_candidate_set, int(peak_cands[u]) + 1)
            s.scorer_evaluations += int(evaluations[u])
    return results


def frame_lm(
    vocab: Vocabulary, lm: NGramModel | TableLM | None, lm_weight: float, delayed: bool
) -> _NoLM | _LabelLM | _WordLM:
    """The frame LM that fuses ``lm`` at ``lm_weight`` into a search over
    ``vocab``: word by word with ``delayed``, else label by label, or not at
    all without an LM or at weight 0.  An LM that does not fit the strategy,
    or a weight that is not finite, raises ValidationError."""
    if not math.isfinite(lm_weight):
        raise ValidationError(f"lm_weight must be finite, not {lm_weight!r}")
    same = lm is not None and lm.vocab.tokens == vocab.tokens
    if delayed:
        if lm is None or same:
            raise ValidationError("delayed needs an LM on a vocabulary of its own, unlike timesync")
        return _WordLM(lm, vocab, lm_weight)
    if lm is None or lm_weight == 0.0:
        return _NoLM(vocab)
    if not same:
        raise ValidationError("timesync needs an LM on the acoustic vocabulary, unlike delayed")
    return _LabelLM(lm, vocab, lm_weight)


def rescore_nbest(
    nbest: NBestList,
    vocab: Vocabulary,
    lm: NGramModel | TableLM,
    lm_weight: float,
    length_reward: float = 0.0,
) -> NBestList:
    """Log-linear rescoring: AM score + weighted LM log prob + length reward.

    Cross-vocabulary hypotheses are retokenized word by word; the sort is
    stable so tied entries keep their incoming order.
    """
    rescored = []
    for e in nbest:
        out = e.output_labels(vocab.eos_id)
        if lm.vocab.tokens == vocab.tokens:
            toks = list(out)
        else:
            words = vocab.text(out).split()
            toks = retokenize(lm.vocab, words)
        llp = lm_logprob(lm, toks)
        combined = e.combined + lm_weight * llp + length_reward * len(out)
        comps = dict(e.components)
        comps["rescore_lm"] = llp
        rescored.append(NBestEntry(e.labels, comps, float(combined), e.finished))
    return NBestList(sorted(rescored, key=lambda e: -e.combined), presorted=True)
