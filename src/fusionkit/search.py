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
    and returns a B x V matrix of incremental log-scores for appending each
    vocab label (EOS column included) plus opaque artifacts.  ``advance``
    takes those artifacts and the beam survivors, given as parent rows and
    appended labels, and returns one successor state per survivor; no state
    is built for a candidate that did not survive.
    """

    name: str

    def start(self) -> Any: ...

    def step(self, states: Sequence[Any]) -> tuple[np.ndarray, Any]: ...

    def advance(self, artifacts: Any, rows: Sequence[int], labels: Sequence[int]) -> list[Any]: ...


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
        scores, step = self._scorer.step(states, self.candidates)
        out = np.full((len(states), self.vocab.size), NEG_INF)
        parent = np.array([s.log_prefix_prob for s in states])
        out[:, self.candidates] = scores - parent[:, None]
        return out, step

    def advance(self, artifacts, rows, labels):
        return self._scorer.advance(artifacts, rows, self._column[labels])


class ContextLMScorer:
    """N-gram or table LM as a label-synchronous scorer."""

    def __init__(self, model: NGramModel | TableLM, name: str = "lm"):
        self.name = name
        self.model = model

    def start(self):
        return (self.model.vocab.bos_id,)

    def step(self, ctxs):
        return np.stack([self.model.conditionals(ctx) for ctx in ctxs]), ctxs

    def advance(self, ctxs, rows, labels):
        return [ctxs[r] + (label,) for r, label in zip(rows, labels)]


class DecoderLabelScorer:
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
        return self.advance([state], [0], [self.vocab.bos_id])[0]

    def step(self, states):
        return np.stack([row for row, _ in states]) + self._mask, [inc for _, inc in states]

    def advance(self, incs, rows, labels):
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
    """Counters for one decode run; the memory proxy is the candidate set."""

    scorer_evaluations: int = 0
    peak_live_hypotheses: int = 0
    peak_candidate_set: int = 0
    steps: int = 0
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
    vocabulary) plus EOS.  Finished hypotheses compete for beam slots; the
    search stops once the beam-best hypothesis is finished or hypotheses
    reach ``max_len`` labels.
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

    candidates = None
    for s in active:
        if isinstance(s, CtcPrefixLabelScorer):
            candidates = s.candidates
            break
    if candidates is None:
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
    cand_labels = candidates.tolist()
    num_cands = len(cand_labels)
    for _ in range(max_len):
        live = [h for h in beam_hyps if not h.finished]
        if not live:
            break
        if stats:
            stats.steps += 1
            stats.peak_live_hypotheses = max(stats.peak_live_hypotheses, len(beam_hyps))
            stats.peak_candidate_set = max(stats.peak_candidate_set, num_cands)
            stats.scorer_evaluations += len(live) * len(active) * num_cands
        # one call per scorer covers every live hypothesis: all have one length
        comps: list[np.ndarray] = []  # per scorer, live x candidates
        artifacts = []
        combined = 0.0
        for s, scale in zip(active, scales):
            matrix, art = s.step([h.states[s.name] for h in live])
            parent = np.array([h.components[s.name] for h in live])
            comp = parent[:, None] + matrix[:, candidates]
            comps.append(comp)
            artifacts.append(art)
            # the same float operations, in the same order, as ScorerWeights.combine
            combined = combined + scale * comp
        key = combined / (len(live[0].labels) + 1) if weights.length_norm else combined
        flat = np.flatnonzero((combined != NEG_INF) & ~np.isnan(combined))
        keys = key.ravel()[flat]
        if keys.size > beam:
            # shortlist: only candidates tied with or above the beam-th best
            # key can make the beam; the exact sort below settles ties
            kth = np.partition(keys, keys.size - beam)[keys.size - beam]
            flat = flat[keys >= kth]
        pool: list[tuple[_Hyp, int | None]] = [(h, None) for h in beam_hyps if h.finished]
        for i in flat.tolist():
            row, col = divmod(i, num_cands)
            c = cand_labels[col]
            child = _Hyp(
                live[row].labels + (c,),
                {s.name: float(comp[row, col]) for s, comp in zip(active, comps)},
                float(combined[row, col]),
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

    @property
    def am(self) -> float:
        return float(np.logaddexp(self.log_blank, self.log_nonblank))


def _timesync_search(
    pg: Posteriorgram,
    vocab: Vocabulary,
    beam: int,
    lm_vector,
    lm_advance,
    lm_final,
    lm_weight: float,
    lm_name: str,
    stats: DecodeStats | None,
) -> NBestList:
    """Frame-synchronous prefix beam search with path merging.

    ``lm_vector(prefix, hyp)`` returns per-label LM deltas for extending a
    hypothesis, ``lm_advance(prefix, label, hyp)`` the LM context after
    committing one label, and ``lm_final(prefix, hyp)`` the finalization
    residual.  Paths collapsing to the same prefix merge by log-sum-exp;
    distinct parents never produce the same extension, so only stay paths
    (blank or repeated label) can merge with an extension.  Extension
    scoring is vectorized per parent and survivors are materialized after
    pruning.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    t0 = time.perf_counter()
    lp = pg.log_probs
    beams: dict[tuple[int, ...], _TimeSyncHyp] = {
        (): _TimeSyncHyp(0.0, NEG_INF, 0.0, (vocab.bos_id,))
    }
    specials = {vocab.blank_id, vocab.bos_id, vocab.eos_id}

    for t in range(pg.num_frames):
        frame = lp[t]
        cands = np.array(
            [c for c in np.flatnonzero(frame > NEG_INF).tolist() if c not in specials],
            dtype=np.int64,
        )
        if stats:
            stats.steps += 1
            stats.peak_live_hypotheses = max(stats.peak_live_hypotheses, len(beams))
            stats.peak_candidate_set = max(stats.peak_candidate_set, len(cands) + 1)

        parents = list(beams.items())
        alive = set(beams)
        lm_vecs = [lm_vector(prefix, hyp) for prefix, hyp in parents]
        # merged arrivals: stay paths plus extensions landing on a live prefix
        merged: dict[tuple[int, ...], _TimeSyncHyp] = {}
        am_blocks: list[np.ndarray] = []
        lm_blocks: list[np.ndarray] = []
        meta: list[tuple[int, np.ndarray]] = []

        for idx, (prefix, hyp) in enumerate(parents):
            total = hyp.am
            stay = merged.get(prefix)
            if stay is None:
                stay = _TimeSyncHyp(NEG_INF, NEG_INF, hyp.lm_score, hyp.lm_ctx)
                merged[prefix] = stay
            if frame[vocab.blank_id] > NEG_INF:
                stay.log_blank = np.logaddexp(stay.log_blank, total + frame[vocab.blank_id])
            if prefix and frame[prefix[-1]] > NEG_INF:
                stay.log_nonblank = np.logaddexp(
                    stay.log_nonblank, hyp.log_nonblank + frame[prefix[-1]]
                )
            if cands.size == 0:
                continue
            base = np.full(cands.size, total)
            if prefix:
                base[cands == prefix[-1]] = hyp.log_blank
            ext_am = base + frame[cands]
            lm_deltas = lm_vecs[idx][cands]
            if stats:
                stats.scorer_evaluations += cands.size
            collide = np.array(
                [prefix + (int(c),) in alive for c in cands], dtype=bool
            )
            for ci in np.flatnonzero(collide):
                c = int(cands[ci])
                if ext_am[ci] == NEG_INF:
                    continue
                target = prefix + (c,)
                arrival = merged.get(target)
                if arrival is None:
                    arrival = _TimeSyncHyp(
                        NEG_INF,
                        NEG_INF,
                        hyp.lm_score + float(lm_deltas[ci]),
                        lm_advance(prefix, c, hyp),
                    )
                    merged[target] = arrival
                arrival.log_nonblank = np.logaddexp(arrival.log_nonblank, ext_am[ci])
            keep = ~collide & (ext_am > NEG_INF)
            if np.any(keep):
                am_blocks.append(ext_am[keep])
                lm_blocks.append(hyp.lm_score + lm_deltas[keep])
                meta.append((idx, cands[keep]))

        if am_blocks:
            pool_am = np.concatenate(am_blocks)
            pool_lm = np.concatenate(lm_blocks)
            pool_scores = pool_am + lm_weight * pool_lm
            pool_parent = np.concatenate([np.full(len(c), i) for i, c in meta])
            pool_cand = np.concatenate([c for _, c in meta])
        else:
            pool_scores = np.empty(0)

        ranked: list[tuple[tuple[int, ...], _TimeSyncHyp]] = [
            (p, h) for p, h in merged.items() if h.am > NEG_INF
        ]
        # shortlist the pool: anything that could still make the beam
        if pool_scores.size:
            want = beam + len(ranked)
            if pool_scores.size > want:
                kth = np.partition(pool_scores, -want)[-want]
            else:
                kth = -np.inf
            for j in np.flatnonzero(pool_scores >= kth):
                idx = int(pool_parent[j])
                prefix, hyp = parents[idx]
                c = int(pool_cand[j])
                child = _TimeSyncHyp(
                    NEG_INF,
                    float(pool_am[j]),
                    float(pool_lm[j]),
                    lm_advance(prefix, c, hyp),
                )
                ranked.append((prefix + (c,), child))
        ranked.sort(
            key=lambda kv: (
                -(kv[1].am + lm_weight * kv[1].lm_score),
                len(kv[0]),
                kv[0],
            )
        )
        beams = dict(ranked[:beam])

    entries = []
    for prefix, hyp in beams.items():
        if hyp.am == NEG_INF:
            continue
        lm_total = hyp.lm_score + lm_final(prefix, hyp)
        combined = hyp.am + lm_weight * lm_total
        comps = {"ctc": hyp.am}
        if lm_weight != 0.0:
            comps[lm_name] = lm_total
        entries.append(NBestEntry(prefix, comps, float(combined), finished=True))
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
    term lands once at finalization.  CTC itself has no EOS.
    """
    if lm is not None and lm_weight != 0.0:
        if lm.vocab.tokens != vocab.tokens:
            raise ValueError(
                "LM vocabulary differs from the acoustic vocabulary; "
                "use delayed_fusion_beam instead"
            )

        def lm_vector(prefix, hyp):
            return lm.conditionals(hyp.lm_ctx)

        def lm_advance(prefix, label, hyp):
            return hyp.lm_ctx + (label,)

        def lm_final(prefix, hyp):
            return float(lm.conditionals(hyp.lm_ctx)[vocab.eos_id])

        return _timesync_search(
            pg, vocab, beam, lm_vector, lm_advance, lm_final, lm_weight, "lm", stats
        )

    zeros = np.zeros(vocab.size)

    def no_vector(prefix, hyp):
        return zeros

    def no_advance(prefix, label, hyp):
        return hyp.lm_ctx

    def no_final(prefix, hyp):
        return 0.0

    return _timesync_search(
        pg, vocab, beam, no_vector, no_advance, no_final, 0.0, "lm", stats
    )


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

    def score_word(word: str, ctx: tuple[int, ...]) -> tuple[float, tuple[int, ...]]:
        delta = 0.0
        for tok in retokenize(lm.vocab, [word]):
            delta += float(lm.conditionals(ctx)[tok])
            ctx = ctx + (tok,)
        return delta, ctx

    begins = np.array(vocab.begins_word)

    def pending_word_delta(prefix, hyp):
        # the word completed by any word-begin label is the pending segment,
        # independent of which label starts the next word
        _, pending = vocab.word_segments(prefix)
        if not pending:
            return 0.0, hyp.lm_ctx
        return score_word(vocab.word_text(pending), hyp.lm_ctx)

    def lm_vector(prefix, hyp):
        vec = np.zeros(vocab.size)
        if prefix:
            delta, _ = pending_word_delta(prefix, hyp)
            vec[begins] = delta
        return vec

    def lm_advance(prefix, label, hyp):
        if not vocab.begins_word[label] or not prefix:
            return hyp.lm_ctx
        return pending_word_delta(prefix, hyp)[1]

    def lm_final(prefix, hyp):
        delta, ctx = (0.0, hyp.lm_ctx)
        if prefix:
            delta, ctx = pending_word_delta(prefix, hyp)
        return delta + float(lm.conditionals(ctx)[lm.vocab.eos_id])

    return _timesync_search(
        pg, vocab, beam, lm_vector, lm_advance, lm_final, lm_weight, "lm", stats
    )


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
    """Score every label sequence up to ``max_len``; the beam-search oracle."""
    plain = [i for i in range(vocab.size) if not vocab.is_special(i)]
    if len(plain) ** max_len > 10**6:
        raise ValueError("exhaustive enumeration budget exceeded")
    active = [s for s in scorers if weights.weights.get(s.name, 0.0) != 0.0]
    if not active:
        raise ValueError("all scorers have zero weight")
    t0 = time.perf_counter()
    entries: list[NBestEntry] = []

    def visit(labels, components, states, depth):
        vectors = {}
        artifacts = {}
        for s in active:
            matrix, art = s.step([states[s.name]])
            vectors[s.name] = matrix[0]
            artifacts[s.name] = art
            if stats:
                stats.scorer_evaluations += len(plain) + 1
        eos_comps = {
            n: components[n] + float(vectors[n][vocab.eos_id]) for n in vectors
        }
        combined = weights.combine(eos_comps)
        if math.isfinite(combined):
            entries.append(
                NBestEntry(labels + (vocab.eos_id,), eos_comps, combined, finished=True)
            )
        if depth == max_len:
            return
        for c in plain:
            comps = {n: components[n] + float(vectors[n][c]) for n in vectors}
            if weights.combine(comps) == NEG_INF:
                continue
            succ = {s.name: s.advance(artifacts[s.name], [0], [c])[0] for s in active}
            visit(labels + (c,), comps, succ, depth + 1)

    start_states = {s.name: s.start() for s in active}
    visit((), {s.name: 0.0 for s in active}, start_states, 0)
    if stats:
        stats.wall_time_s += time.perf_counter() - t0
    return NBestList(entries)
