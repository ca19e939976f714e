"""Decoding strategies over posteriorgrams and label-synchronous scorers.

Tie-breaking everywhere: higher score, then shorter sequence, then
lexicographically smaller label ids.  Length normalization divides the
running combined score by the current length at pruning time only; stored
components stay un-normalized so final scores are comparable across flags.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Protocol, Sequence

import numpy as np

from fusionkit.core import NEG_INF, Posteriorgram, ScorerWeights, Vocabulary
from fusionkit.ctc import CtcPrefixScorer, kept_labels
from fusionkit.decoder import DecoderWeights, InterfaceConfig, decoder_init, decoder_step
from fusionkit.lm import NGramModel, TableLM, lm_logprob, retokenize


class LabelScorer(Protocol):
    """Incremental scorer over label prefixes, batched over hypotheses.

    ``step`` takes the states of the B live hypotheses, all of one length,
    and returns lower and upper B x V bounds on the incremental log-scores
    for appending each vocab label (EOS column included), plus opaque
    artifacts.  A scorer whose step scores are exact returns one matrix
    twice.  ``exact`` takes those artifacts and (parent row, label) pairs
    and returns the pairs' exact scores, which lie within the bounds and
    are -inf exactly where the bounds are.  ``advance`` takes the artifacts
    and the beam survivors, given as parent rows and appended labels, and
    returns one successor state per survivor; no state is built for a
    candidate that did not survive.
    """

    name: str

    def start(self) -> Any: ...

    def step(self, states: Sequence[Any]) -> tuple[np.ndarray, np.ndarray, Any]: ...

    def exact(self, artifacts: Any, rows: Sequence[int], labels: Sequence[int]) -> np.ndarray: ...

    def advance(self, artifacts: Any, rows: Sequence[int], labels: Sequence[int]) -> list[Any]: ...


class _ExactScorer:
    """Base of scorers whose step scores are exact: both bounds are one
    matrix, which the artifacts carry beside what ``advance`` needs."""

    def step(self, states):
        matrix, inner = self._scores(states)
        return matrix, matrix, (matrix, inner)

    def exact(self, artifacts, rows, labels):
        return artifacts[0][rows, labels]


class CtcPrefixLabelScorer:
    """Joint-decoding CTC scorer: prefix-probability deltas per candidate."""

    def __init__(self, pg: Posteriorgram, vocab: Vocabulary, name: str = "ctc"):
        self.name = name
        self.vocab = vocab
        self._scorer = CtcPrefixScorer(pg, vocab.blank_id, vocab.eos_id)
        support = set(kept_labels(pg).tolist())
        support.discard(vocab.blank_id)
        support.discard(vocab.bos_id)
        support.discard(vocab.eos_id)
        self.candidates = np.array(sorted(support) + [vocab.eos_id])
        self._column = np.full(vocab.size, -1)
        self._column[self.candidates] = np.arange(self.candidates.size)

    def start(self):
        return self._scorer.initial_state()

    def step(self, states):
        lower, upper, step = self._scorer.step(states, self.candidates)
        parent = np.array([s.log_prefix_prob for s in states])[:, None]
        bounds = []
        for bound in (lower, upper):
            out = np.full((len(states), self.vocab.size), NEG_INF)
            out[:, self.candidates] = bound - parent
            bounds.append(out)
        return bounds[0], bounds[1], step

    def exact(self, artifacts, rows, labels):
        # a label outside the CTC support has prefix probability zero
        rows = np.asarray(rows, dtype=np.int64)
        cols = self._column[labels]
        known = cols >= 0
        parent = np.array([s.log_prefix_prob for s in artifacts.states])[rows[known]]
        out = np.full(rows.size, NEG_INF)
        out[known] = self._scorer.exact(artifacts, rows[known], cols[known]) - parent
        return out

    def advance(self, artifacts, rows, labels):
        return self._scorer.advance(artifacts, rows, self._column[labels])


class ContextLMScorer(_ExactScorer):
    """N-gram or table LM as a label-synchronous scorer."""

    def __init__(self, model: NGramModel | TableLM, name: str = "lm"):
        self.name = name
        self.model = model

    def start(self):
        return (self.model.vocab.bos_id,)

    def _scores(self, ctxs):
        return np.stack([self.model.conditionals(ctx) for ctx in ctxs]), ctxs

    def advance(self, artifacts, rows, labels):
        ctxs = artifacts[1]
        return [ctxs[r] + (label,) for r, label in zip(rows, labels)]


class DecoderLabelScorer(_ExactScorer):
    """Toy attention decoder as a scorer; audio absent means pure LM mode.

    Blank and BOS entries are masked to -inf without renormalizing, so step
    scores equal the decoder's own log-softmax outputs.  ``advance`` feeds
    all survivors of a label step to one ``decoder_step``.  It keeps a
    singleton row axis on every tensor, so each survivor's row is
    bit-identical to stepping that survivor alone.
    """

    def __init__(
        self,
        weights: DecoderWeights,
        config: InterfaceConfig,
        vocab: Vocabulary,
        audio=None,
        name: str = "decoder",
    ):
        if weights.hp.vocab_size != vocab.size:
            raise ValueError("decoder vocab size does not match search vocabulary")
        self.name = name
        self.weights = weights
        self.config = config
        self.vocab = vocab
        self.audio = audio
        self._mask = np.zeros(vocab.size)
        self._mask[[vocab.blank_id, vocab.bos_id]] = NEG_INF

    def start(self):
        state = decoder_init(self.weights, self.config, self.audio)
        (row,), (inc,) = decoder_step(self.weights, self.config, [state], [self.vocab.bos_id])
        return row, inc

    def _scores(self, states):
        return np.stack([row for row, _ in states]) + self._mask, [inc for _, inc in states]

    def advance(self, artifacts, rows, labels):
        incs = artifacts[1]
        out, successors = decoder_step(self.weights, self.config, [incs[r] for r in rows], labels)
        return list(zip(out, successors))


@dataclass
class ScorerHandle:
    """Declarative scorer description; ``build`` makes the runtime scorer.

    Kinds: ``ctc_prefix`` (needs the decode's posteriorgram), ``ngram`` and
    ``table`` (need a model), ``decoder_am``/``decoder_lm`` (need weights and
    an interface config; the lm variant runs the same decoder without audio).
    """

    name: str
    kind: str
    model: NGramModel | TableLM | None = None
    decoder_weights: DecoderWeights | None = None
    interface: InterfaceConfig | None = None

    def build(self, vocab: Vocabulary, pg: Posteriorgram | None, audio=None) -> LabelScorer:
        if self.kind == "ctc_prefix":
            if pg is None:
                raise ValueError("ctc_prefix scorer needs a posteriorgram")
            return CtcPrefixLabelScorer(pg, vocab, self.name)
        if self.kind in ("ngram", "table"):
            if self.model is None:
                raise ValueError(f"{self.kind} scorer needs a model")
            return ContextLMScorer(self.model, self.name)
        if self.kind in ("decoder_am", "decoder_lm"):
            if self.decoder_weights is None or self.interface is None:
                raise ValueError("decoder scorer needs weights and an interface config")
            use_audio = audio if self.kind == "decoder_am" else None
            if self.kind == "decoder_am" and audio is None:
                raise ValueError("decoder_am scorer needs audio")
            return DecoderLabelScorer(
                self.decoder_weights, self.interface, vocab, use_audio, self.name
            )
        raise ValueError(f"unknown scorer kind {self.kind!r}")


@dataclass
class DecodeStats:
    """Counters for one decode run; the memory proxy is the candidate set.

    ``ctc_exact_pairs`` counts the (hypothesis, label) pairs, EOS excluded,
    whose CTC prefix probability the label-synchronous beam folded exactly;
    every other pair it only bounded.
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


@dataclass
class _Hyp:
    labels: tuple[int, ...]
    components: dict[str, float]
    combined: float
    states: dict[str, Any]
    finished: bool = False


def labelsync_beam(
    scorers: Sequence[LabelScorer],
    weights: ScorerWeights,
    beam: int,
    vocab: Vocabulary,
    max_len: int,
    stats: DecodeStats | None = None,
) -> NBestList:
    """Label-synchronous beam search with log-linear score fusion.

    Each live hypothesis is expanded over every candidate label (the CTC
    support when a CTC scorer is present, otherwise the full non-special
    vocabulary) plus EOS.  Every (hypothesis, candidate) pair is bounded,
    and exact scores are asked for only where the bounds leave the pair a
    chance at the beam; the result equals scoring every pair exactly.
    Finished hypotheses compete for beam slots; the search stops once the
    beam-best hypothesis is finished or hypotheses reach ``max_len`` labels.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if not scorers:
        raise ValueError("at least one scorer is required")
    names = [s.name for s in scorers]
    if len(set(names)) != len(names):
        raise ValueError("scorer names must be unique")
    for name in weights.weights:
        if name not in names:
            raise ValueError(f"weight given for unknown scorer {name!r}")
    active = [s for s in scorers if weights.weights.get(s.name, 0.0) != 0.0]
    if not active:
        raise ValueError("all scorers have zero weight")

    ctc_scorers = [s for s in active if isinstance(s, CtcPrefixLabelScorer)]
    if ctc_scorers:
        candidates = ctc_scorers[0].candidates
    else:
        plain = [i for i in range(vocab.size) if not vocab.is_special(i)]
        candidates = np.array(plain + [vocab.eos_id])

    t0 = time.perf_counter()
    start = _Hyp(
        labels=(),
        components={s.name: 0.0 for s in active},
        combined=0.0,
        states={s.name: s.start() for s in active},
    )
    beam_hyps: list[_Hyp] = [start]
    finished_pool: dict[tuple[int, ...], _Hyp] = {}

    scales = [weights.weights[s.name] for s in active]
    num_cands = candidates.size
    for _ in range(max_len):
        live = [h for h in beam_hyps if not h.finished]
        if not live:
            break
        if stats:
            stats.steps += 1
            stats.peak_live_hypotheses = max(stats.peak_live_hypotheses, len(beam_hyps))
            stats.peak_candidate_set = max(stats.peak_candidate_set, num_cands)
            stats.scorer_evaluations += len(live) * len(active) * num_cands
        # bound: one step call per scorer covers every live hypothesis, as
        # all have one length.  The float operations of ScorerWeights.combine,
        # in its order, are monotone in each component, so combining the
        # lower (upper) bounds bounds the combined score; a negative weight
        # swaps them.
        parents = []
        artifacts = []
        lower = upper = 0.0
        possible = True
        for s, scale in zip(active, scales):
            lo_matrix, hi_matrix, art = s.step([h.states[s.name] for h in live])
            parent = np.array([h.components[s.name] for h in live])
            lo = parent[:, None] + lo_matrix[:, candidates]
            hi = lo if hi_matrix is lo_matrix else parent[:, None] + hi_matrix[:, candidates]
            # a pair that any scorer gives probability zero is impossible,
            # whatever the sign of its weight
            possible = possible & (hi != NEG_INF)
            if scale < 0:
                lo, hi = hi, lo
            lower = lower + scale * lo
            upper = upper + scale * hi
            parents.append(parent)
            artifacts.append(art)
        # length normalization divides by a positive count: order is kept
        norm = len(live[0].labels) + 1 if weights.length_norm else 1
        # the bounds are -inf together with the exact score, so every
        # possible pair has finite bounds
        flat = np.flatnonzero(possible)
        if flat.size > beam:
            # cut: at least beam pairs have an exact key at or above the
            # beam-th best lower key, so no pair whose upper key falls below
            # it can make the beam
            lo_keys = (lower / norm).ravel()[flat]
            cut = np.partition(lo_keys, flat.size - beam)[flat.size - beam]
            flat = flat[(upper / norm).ravel()[flat] >= cut]
        # refine: exact components for that superset only
        rows, cols = np.divmod(flat, num_cands)
        labels = candidates[cols]
        comps = [
            parent[rows] + s.exact(art, rows, labels)
            for s, parent, art in zip(active, parents, artifacts)
        ]
        combined = 0.0
        for comp, scale in zip(comps, scales):
            combined = combined + scale * comp
        keys = combined / norm
        if stats:
            folds = int(np.count_nonzero(labels != vocab.eos_id))
            stats.ctc_exact_pairs += len(ctc_scorers) * folds
        if keys.size > beam:
            # shortlist: only candidates tied with or above the beam-th best
            # key can make the beam; the exact sort below settles ties
            kth = np.partition(keys, keys.size - beam)[keys.size - beam]
            keep = np.flatnonzero(keys >= kth)
            rows, labels, combined = rows[keep], labels[keep], combined[keep]
            comps = [comp[keep] for comp in comps]
        pool: list[tuple[_Hyp, int | None]] = [(h, None) for h in beam_hyps if h.finished]
        for i, (row, c) in enumerate(zip(rows.tolist(), labels.tolist())):
            child = _Hyp(
                live[row].labels + (c,),
                {s.name: float(comp[i]) for s, comp in zip(active, comps)},
                float(combined[i]),
                {},
                finished=c == vocab.eos_id,
            )
            pool.append((child, row))
        if not pool:
            break
        pool.sort(key=lambda item: _prune_key(item[0], weights))
        survivors = pool[:beam]
        # scorer states are materialized for beam survivors only
        growing = [(h, row) for h, row in survivors if row is not None and not h.finished]
        if growing:
            rows = [row for _, row in growing]
            labels = [h.labels[-1] for h, _ in growing]
            for s, art in zip(active, artifacts):
                for (h, _), state in zip(growing, s.advance(art, rows, labels)):
                    h.states[s.name] = state
        beam_hyps = [h for h, _ in survivors]
        for h in beam_hyps:
            if h.finished:
                finished_pool.setdefault(h.labels, h)
        if beam_hyps[0].finished:
            break

    results = {h.labels: h for h in beam_hyps}
    for labels, h in finished_pool.items():
        results.setdefault(labels, h)
    entries = [
        NBestEntry(h.labels, dict(h.components), h.combined, h.finished)
        for h in results.values()
        if math.isfinite(h.combined)
    ]
    if stats:
        stats.wall_time_s += time.perf_counter() - t0
    return NBestList(entries)


def _prune_key(h: _Hyp, weights: ScorerWeights):
    score = h.combined / len(h.labels) if weights.length_norm and h.labels else h.combined
    return (-score, len(h.labels), h.labels)


@dataclass
class _TimeSyncHyp:
    log_blank: float
    log_nonblank: float
    lm_score: float
    lm_ctx: Any


class _NoLM:
    """The frame LM of a search without one: zero deltas, a fixed context."""

    def __init__(self, vocab: Vocabulary):
        self.size = vocab.size

    def rows(self, prefixes, hyps):
        return np.zeros((len(hyps), self.size))

    def advance(self, prefix, label, hyp):
        return hyp.lm_ctx

    def final(self, prefix, hyp):
        return 0.0


class _LabelLM:
    """Label-wise fusion: each appended label's LM log-prob lands at once,
    the EOS term at finalization."""

    def __init__(self, lm: NGramModel | TableLM, vocab: Vocabulary):
        self.lm = lm
        self.eos_id = vocab.eos_id

    def rows(self, prefixes, hyps):
        return np.stack([self.lm.conditionals(h.lm_ctx) for h in hyps])

    def advance(self, prefix, label, hyp):
        return hyp.lm_ctx + (label,)

    def final(self, prefix, hyp):
        return float(self.lm.conditionals(hyp.lm_ctx)[self.eos_id])


class _WordLM:
    """Delayed fusion on the LM's own vocabulary: the pending word's LM
    score lands when a label that begins the next word is appended, and
    the pending word plus EOS land at finalization."""

    def __init__(self, lm: NGramModel | TableLM, vocab: Vocabulary):
        self.lm = lm
        self.vocab = vocab
        self.begins = np.array(vocab.begins_word)

    def _pending(self, prefix, hyp) -> tuple[float, tuple[int, ...]]:
        # the word completed by any word-begin label is the pending segment,
        # independent of which label starts the next word
        _, pending = self.vocab.word_segments(prefix)
        delta, ctx = 0.0, hyp.lm_ctx
        if pending:
            for tok in retokenize(self.lm.vocab, [self.vocab.word_text(pending)]):
                delta += float(self.lm.conditionals(ctx)[tok])
                ctx = ctx + (tok,)
        return delta, ctx

    def rows(self, prefixes, hyps):
        out = np.zeros((len(hyps), self.vocab.size))
        for row, prefix, hyp in zip(out, prefixes, hyps):
            row[self.begins] = self._pending(prefix, hyp)[0]
        return out

    def advance(self, prefix, label, hyp):
        if not self.vocab.begins_word[label]:
            return hyp.lm_ctx
        return self._pending(prefix, hyp)[1]

    def final(self, prefix, hyp):
        delta, ctx = self._pending(prefix, hyp)
        return delta + float(self.lm.conditionals(ctx)[self.lm.vocab.eos_id])


def _timesync_search(
    pg: Posteriorgram,
    vocab: Vocabulary,
    beam: int,
    frame_lm: _NoLM | _LabelLM | _WordLM,
    lm_weight: float,
    stats: DecodeStats | None,
) -> NBestList:
    """Frame-synchronous prefix beam search with path merging.

    ``frame_lm.rows(prefixes, hyps)`` returns the (B, V) LM deltas for
    appending each label to each of the B live prefixes,
    ``frame_lm.advance(prefix, label, hyp)`` the LM context after
    appending one label, and ``frame_lm.final(prefix, hyp)`` the residual
    that lands at finalization; the fused score is CTC plus ``lm_weight``
    times LM.  Each frame runs one set of array operations over all live
    prefixes: the stay paths (blank or repeated label) as B-vectors, the
    extensions as one (B, C) block over the frame's C candidate labels.
    Paths collapsing to one prefix merge by log-sum-exp.  Distinct parents
    never produce the same extension, so an extension merges only when it
    lands on a live prefix q, whose parent is q[:-1]: the collisions are
    found from the live prefixes alone.  The LM state of a prefix follows
    from the prefix alone, so a merged entry keeps the live prefix's own.
    Hypothesis objects and LM contexts are built for the beam survivors
    only.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    t0 = time.perf_counter()
    blank = vocab.blank_id
    plain = np.ones(vocab.size, dtype=bool)
    plain[[blank, vocab.bos_id, vocab.eos_id]] = False
    prefixes: list[tuple[int, ...]] = [()]
    hyps = [_TimeSyncHyp(0.0, NEG_INF, 0.0, (vocab.bos_id,))]

    for frame in pg.log_probs:
        cands = np.flatnonzero((frame > NEG_INF) & plain)
        if stats:
            stats.steps += 1
            stats.peak_live_hypotheses = max(stats.peak_live_hypotheses, len(hyps))
            stats.peak_candidate_set = max(stats.peak_candidate_set, cands.size + 1)
            stats.scorer_evaluations += len(hyps) * cands.size
        log_b = np.array([h.log_blank for h in hyps])
        log_nb = np.array([h.log_nonblank for h in hyps])
        lm = np.array([h.lm_score for h in hyps])
        last = np.array([p[-1] if p else -1 for p in prefixes])
        am = np.logaddexp(log_b, log_nb)

        # stay paths (blank, or the last label repeated).  Each merged
        # entry log-adds its arrivals from -inf, which turns -0.0 into +0.0
        # and leaves -inf as it is.
        stay_b = np.logaddexp(NEG_INF, am + frame[blank])
        repeat = np.where(last >= 0, frame[last], NEG_INF)
        stay_nb = np.logaddexp(NEG_INF, log_nb + repeat)

        # extensions: a repeated label continues from the blank-ending paths
        ext_am = np.where(cands == last[:, None], log_b[:, None], am[:, None]) + frame[cands]
        ext_lm = lm[:, None] + frame_lm.rows(prefixes, hyps)[:, cands]

        # an extension landing on a live prefix merges into its stay entry
        collide = np.zeros(ext_am.shape, dtype=bool)
        column = np.full(vocab.size, -1)
        column[cands] = np.arange(cands.size)
        index = {p: j for j, p in enumerate(prefixes)}
        for j, q in enumerate(prefixes):
            i = index.get(q[:-1]) if q else None
            if i is not None and column[q[-1]] >= 0:
                ci = column[q[-1]]
                collide[i, ci] = True
                stay_nb[j] = np.logaddexp(stay_nb[j], ext_am[i, ci])
        merged_am = np.logaddexp(stay_b, stay_nb)
        ranked = np.flatnonzero(merged_am > NEG_INF)

        # new prefixes, in (parent, candidate) order, without those the LM
        # gives probability zero; shortlist anything that could still make
        # the beam
        rows, cols = np.nonzero((ext_am > NEG_INF) & (ext_lm > NEG_INF) & ~collide)
        pool_am = ext_am[rows, cols]
        pool_lm = ext_lm[rows, cols]
        pool_scores = pool_am + lm_weight * pool_lm
        want = beam + ranked.size
        kth = np.partition(pool_scores, -want)[-want] if pool_scores.size > want else -np.inf
        short = np.flatnonzero(pool_scores >= kth)
        rows, labels = rows[short], cands[cols[short]]
        pool_am, pool_lm = pool_am[short], pool_lm[short]

        keys = np.concatenate([
            -(merged_am[ranked] + lm_weight * lm[ranked]),
            -(np.logaddexp(NEG_INF, pool_am) + lm_weight * pool_lm),
        ]).tolist()
        names = [prefixes[j] for j in ranked.tolist()]
        names += [prefixes[i] + (c,) for i, c in zip(rows.tolist(), labels.tolist())]
        order = sorted(range(len(keys)), key=lambda k: (keys[k], len(names[k]), names[k]))

        survivors = []
        for k in order[:beam]:
            if k < ranked.size:
                j = ranked[k]
                h = hyps[j]
                hyp = _TimeSyncHyp(float(stay_b[j]), float(stay_nb[j]), h.lm_score, h.lm_ctx)
            else:
                k -= ranked.size
                i = rows[k]
                ctx = frame_lm.advance(prefixes[i], int(labels[k]), hyps[i])
                hyp = _TimeSyncHyp(NEG_INF, float(pool_am[k]), float(pool_lm[k]), ctx)
            survivors.append(hyp)
        prefixes = [names[k] for k in order[:beam]]
        hyps = survivors

    entries = []
    for prefix, hyp in zip(prefixes, hyps):
        am = float(np.logaddexp(hyp.log_blank, hyp.log_nonblank))
        if am == NEG_INF:
            continue
        lm_total = hyp.lm_score + frame_lm.final(prefix, hyp)
        if lm_weight != 0.0 and lm_total == NEG_INF:
            continue
        comps = {"ctc": am}
        if lm_weight != 0.0:
            comps["lm"] = lm_total
        entries.append(NBestEntry(prefix, comps, float(am + lm_weight * lm_total), finished=True))
    if stats:
        stats.wall_time_s += time.perf_counter() - t0
        stats.audio_seconds += pg.duration_seconds
    return NBestList(entries)


def timesync_ctc_beam(
    pg: Posteriorgram,
    vocab: Vocabulary,
    beam: int,
    lm: NGramModel | TableLM | None = None,
    lm_weight: float = 0.0,
    stats: DecodeStats | None = None,
) -> NBestList:
    """Time-synchronous CTC beam search with optional same-vocabulary fusion.

    The LM score for each newly appended label lands immediately; the EOS
    term lands once at finalization.  CTC itself has no EOS.  Without an
    LM, or at LM weight 0, the search runs with zero LM deltas.
    """
    if lm is None or lm_weight == 0.0:
        return _timesync_search(pg, vocab, beam, _NoLM(vocab), 0.0, stats)
    if lm.vocab.tokens != vocab.tokens:
        raise ValueError(
            "LM vocabulary differs from the acoustic vocabulary; "
            "use delayed_fusion_beam instead"
        )
    return _timesync_search(pg, vocab, beam, _LabelLM(lm, vocab), lm_weight, stats)


def delayed_fusion_beam(
    pg: Posteriorgram,
    vocab: Vocabulary,
    lm: NGramModel | TableLM,
    lm_weight: float,
    beam: int,
    stats: DecodeStats | None = None,
) -> NBestList:
    """Time-synchronous search with LM deltas added at word boundaries.

    The LM lives on its own vocabulary.  Whenever an appended label starts a
    new word, the completed word is retokenized into LM units and scored;
    the residual (pending word plus EOS) lands at finalization, making the
    final combined score equal to independent rescoring with the same LM.
    """
    if lm.vocab.tokens == vocab.tokens:
        raise ValueError("vocabularies match; use timesync_ctc_beam for plain fusion")
    return _timesync_search(pg, vocab, beam, _WordLM(lm, vocab), lm_weight, stats)


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
            _, _, art = s.step([states[s.name]])
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
            succ = {s.name: s.advance(artifacts[s.name], [0], [c])[0] for s in active}
            visit(labels + (c,), comps, succ, depth + 1)

    start_states = {s.name: s.start() for s in active}
    visit((), {s.name: 0.0 for s in active}, start_states, 0)
    if stats:
        stats.wall_time_s += time.perf_counter() - t0
    return NBestList(entries)
