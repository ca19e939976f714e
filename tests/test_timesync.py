"""The frame-synchronous beam against its per-parent reference.

``reference_timesync_ctc_beam`` and ``reference_delayed_beam`` run
the search as it was before it was batched over live prefixes: one Python
loop per parent per frame, LM access through three closures, one utterance
at a time.  The batched search, alone or in lockstep over a corpus, must
reproduce them bit for bit: labels, order, every float of the n-best lists
and the four counters of each utterance.
"""

import math
import tempfile
import time
from dataclasses import dataclass
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit.core import NEG_INF, Posteriorgram, ValidationError, Vocabulary
from fusionkit.ctc import topk_prune
from fusionkit.lm import NGramModel, TableLM, load_ngram, retokenize, save_ngram, train_ngram
from fusionkit.search import (
    DecodeStats,
    NBestEntry,
    NBestList,
    frame_lm,
    rescore_nbest,
    timesync_ctc_beam,
    _WordLM,
)


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


def reference_timesync_ctc_beam(
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
                "use delayed fusion instead"
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


def reference_delayed_beam(
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


# the per-parent search above is the reference; the tests follow

ABC = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "a", "b", "c"])
WIDE = Vocabulary.from_tokens(["<blank>", "<s>", "</s>"] + list("defghij"))
COUNTERS = ("steps", "peak_live_hypotheses", "peak_candidate_set", "scorer_evaluations")


def cross_vocab():
    """AM vocabulary over marked characters, LM vocabulary over words + chars."""
    am_tokens = ["<blank>", "<s>", "</s>"]
    for ch in "abc":
        am_tokens += ["▁" + ch, ch]
    lm_tokens = ["<blank>", "<s>", "</s>", "▁ab", "▁ca"] + am_tokens[3:]
    return Vocabulary.from_tokens(am_tokens), Vocabulary.from_tokens(lm_tokens)


def random_pg(rng, frames, vocab, kind):
    """Posteriorgram over blank + plain labels.  ``peaked`` draws sparse
    Dirichlet rows, some of whose entries underflow to -inf; ``holes`` sets
    a random subset of each frame's labels, blank included, to -inf;
    ``uniform`` frames make many hypotheses tie."""
    cols = [i for i in range(vocab.size) if i not in (vocab.bos_id, vocab.eos_id)]
    lp = np.full((frames, vocab.size), NEG_INF)
    for t in range(frames):
        kept = cols
        if kind in ("holes", "uniform"):
            kept = [c for c in cols if rng.random() < 0.6] or [int(rng.choice(cols))]
        if kind == "uniform":
            lp[t, kept] = -math.log(len(kept))
            continue
        alpha = 0.05 if kind == "peaked" else 1.0
        with np.errstate(divide="ignore"):
            row = np.log(rng.dirichlet(np.full(len(kept), alpha)))
        lp[t, kept] = row - np.logaddexp.reduce(row)
    return Posteriorgram(lp)


def nbest_bits(nbest):
    """Labels, every float as its repr, and status of each entry, in order."""
    return [
        (e.labels, repr(sorted(e.components.items())), repr(e.combined), e.finished)
        for e in nbest
    ]


def assert_same_search(run, reference, beams=(1, 2, 8, 10**4)):
    for beam in beams:
        got_stats, want_stats = DecodeStats(), DecodeStats()
        got = run(beam, got_stats)
        want = reference(beam, want_stats)
        assert nbest_bits(got) == nbest_bits(want)
        for name in COUNTERS:
            assert getattr(got_stats, name) == getattr(want_stats, name), name


class TestBatchedFrameStep:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        wide=st.booleans(),
        kind=st.sampled_from(["dirichlet", "peaked", "holes", "uniform"]),
        keep=st.none() | st.integers(1, 4),
        lm_weight=st.sampled_from([0.0, 0.3, 1.0, -0.4]),
        with_lm=st.booleans(),
    )
    def test_timesync_equals_reference(self, seed, wide, kind, keep, lm_weight, with_lm):
        rng = np.random.default_rng(seed)
        vocab = WIDE if wide else ABC
        # a saturated beam keeps every prefix: at most 7^4 or 3^7 of them
        pg = random_pg(rng, int(rng.integers(1, 5 if wide else 8)), vocab, kind)
        if keep is not None:
            pg = topk_prune(pg, keep, vocab.blank_id)
        plain = [i for i in range(vocab.size) if not vocab.is_special(i)]
        corpus = [rng.choice(plain, size=rng.integers(1, 5)).tolist() for _ in range(6)]
        lm = train_ngram(vocab, corpus, order=2) if with_lm else None
        fusion = frame_lm(vocab, lm, lm_weight, False)
        assert_same_search(
            lambda beam, stats: timesync_ctc_beam([pg], vocab, beam, fusion, [stats])[0],
            lambda beam, stats: reference_timesync_ctc_beam(
                pg, vocab, beam, lm, lm_weight, stats
            ),
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["dirichlet", "peaked", "holes", "uniform"]),
        keep=st.none() | st.integers(1, 5),
        lm_weight=st.sampled_from([0.0, 0.8, -0.4]),
    )
    def test_delayed_equals_reference(self, seed, kind, keep, lm_weight):
        rng = np.random.default_rng(seed)
        am_vocab, lm_vocab = cross_vocab()
        pg = random_pg(rng, int(rng.integers(1, 5)), am_vocab, kind)
        if keep is not None:
            pg = topk_prune(pg, keep, am_vocab.blank_id)
        words = ["ab ca", "ab ab c", "b", "ca c ab"]
        corpus = [retokenize(lm_vocab, rng.choice(words).split()) for _ in range(3)]
        lm = train_ngram(lm_vocab, corpus, order=2)
        fusion = frame_lm(am_vocab, lm, lm_weight, True)
        assert_same_search(
            lambda beam, stats: timesync_ctc_beam([pg], am_vocab, beam, fusion, [stats])[0],
            lambda beam, stats: reference_delayed_beam(
                pg, am_vocab, lm, lm_weight, beam, stats
            ),
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("search", ["timesync", "delayed"])
    def test_negative_weight_drops_zero_probability_labels(self, search):
        # the LM gives c probability zero; at a negative weight its -inf
        # delta must drop the prefix, not score it +inf
        am_vocab, lm_vocab = (ABC, ABC) if search == "timesync" else cross_vocab()
        support = [i for i, tok in enumerate(lm_vocab.tokens)
                   if i not in (lm_vocab.blank_id, lm_vocab.bos_id) and tok != "c"]
        dist = np.full(lm_vocab.size, NEG_INF)
        dist[support] = -math.log(len(support))
        lm = TableLM(lm_vocab, (), dist)
        # each frame favours one label of "a c b", so that c-ending
        # prefixes reach the beam
        labels = [i for i in range(am_vocab.size) if i not in (am_vocab.bos_id, am_vocab.eos_id)]
        marker = "" if search == "timesync" else "▁"
        lp = np.full((3, am_vocab.size), NEG_INF)
        for t, tok in enumerate([marker + "a", "c", marker + "b"]):
            lp[t, labels] = np.log(0.3 / (len(labels) - 1))
            lp[t, am_vocab.id_of(tok)] = np.log(0.7)
        pg = Posteriorgram(lp)
        fusion = frame_lm(am_vocab, lm, -0.5, search == "delayed")
        nbest = timesync_ctc_beam([pg], am_vocab, 4, fusion)[0]
        assert len(nbest) > 0
        for e in nbest:
            assert all(math.isfinite(v) for v in e.components.values())
            if search == "timesync":
                assert ABC.id_of("c") not in e.labels

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stay_and_extension_merge(self):
        # "a" then "a a": the stay path of the live prefix (a,) and the
        # extension of () by a land on one prefix at every frame, and with
        # a repeated a the blank-ending paths extend to (a, a)
        lp = np.full((4, ABC.size), NEG_INF)
        lp[:, [ABC.blank_id, 3]] = np.log([0.4, 0.6])
        lp[2, [ABC.blank_id, 3, 4]] = np.log([0.5, 0.3, 0.2])
        pg = Posteriorgram(lp)
        lm = train_ngram(ABC, [[3], [3, 3], [4]], order=2)
        for lm_weight in (0.0, 0.5, -0.4):
            fusion = frame_lm(ABC, lm, lm_weight, False)
            assert_same_search(
                lambda beam, stats: timesync_ctc_beam([pg], ABC, beam, fusion, [stats])[0],
                lambda beam, stats: reference_timesync_ctc_beam(
                    pg, ABC, beam, lm, lm_weight, stats
                ),
                beams=(1, 2, 3, 8),
            )
        # with every prefix kept, merged paths lose no mass: the collapsed
        # outputs' probabilities sum to one
        nbest = timesync_ctc_beam([pg], ABC, 10**4, frame_lm(ABC, None, 0.0, False))[0]
        assert math.fsum(math.exp(e.combined) for e in nbest) == pytest.approx(1.0, abs=1e-12)


def mixed_corpus(rng, vocab, kind, keep, count, max_frames):
    """``count`` posteriorgrams of 1 to ``max_frames`` frames, a third of
    them one frame long; ``keep`` top-k prunes them."""
    pgs = []
    for _ in range(count):
        frames = 1 if rng.random() < 1 / 3 else int(rng.integers(1, max_frames + 1))
        pg = random_pg(rng, frames, vocab, kind)
        pgs.append(pg if keep is None else topk_prune(pg, keep, vocab.blank_id))
    return pgs


def assert_lockstep_matches(pgs, vocab, search, reference, beams):
    """One lockstep call over ``pgs`` against one reference call per
    utterance: n-best bits and the four counters of each utterance."""
    for beam in beams:
        got_stats = [DecodeStats() for _ in pgs]
        got = search(pgs, beam, got_stats)
        assert len(got) == len(pgs)
        for pg, nbest, stats in zip(pgs, got, got_stats):
            want_stats = DecodeStats()
            assert nbest_bits(nbest) == nbest_bits(reference(pg, beam, want_stats))
            for name in COUNTERS:
                assert getattr(stats, name) == getattr(want_stats, name), name


def uniform_wide_corpus():
    """Posteriorgrams of 1 to 9 frames, each frame uniform over blank and
    every plain label of ``WIDE``."""
    lp = np.full((1, WIDE.size), NEG_INF)
    plain = [i for i in range(WIDE.size) if i not in (WIDE.bos_id, WIDE.eos_id)]
    lp[0, plain] = -math.log(len(plain))
    return [Posteriorgram(np.repeat(lp, frames, axis=0)) for frames in (1, 5, 3, 9, 2)]


class TestLockstep:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["dirichlet", "peaked", "holes", "uniform"]),
        keep=st.none() | st.integers(1, 4),
        lm_weight=st.sampled_from([0.0, 0.3, -0.4]),
        with_lm=st.booleans(),
    )
    def test_timesync_corpus_equals_per_utterance_reference(
        self, seed, kind, keep, lm_weight, with_lm
    ):
        rng = np.random.default_rng(seed)
        pgs = mixed_corpus(rng, ABC, kind, keep, int(rng.integers(1, 7)), 60)
        plain = [i for i in range(ABC.size) if not ABC.is_special(i)]
        corpus = [rng.choice(plain, size=rng.integers(1, 5)).tolist() for _ in range(6)]
        lm = train_ngram(ABC, corpus, order=2) if with_lm else None
        fusion = frame_lm(ABC, lm, lm_weight, False)
        assert_lockstep_matches(
            pgs,
            ABC,
            lambda pgs, beam, stats: timesync_ctc_beam(pgs, ABC, beam, fusion, stats),
            lambda pg, beam, stats: reference_timesync_ctc_beam(pg, ABC, beam, lm, lm_weight, stats),
            beams=(1, 3, 8),
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["dirichlet", "peaked", "holes", "uniform"]),
        keep=st.none() | st.integers(1, 5),
        lm_weight=st.sampled_from([0.0, 0.8, -0.4]),
    )
    def test_delayed_corpus_equals_per_utterance_reference(self, seed, kind, keep, lm_weight):
        rng = np.random.default_rng(seed)
        am_vocab, lm_vocab = cross_vocab()
        pgs = mixed_corpus(rng, am_vocab, kind, keep, int(rng.integers(1, 6)), 40)
        words = ["ab ca", "ab ab c", "b", "ca c ab"]
        corpus = [retokenize(lm_vocab, rng.choice(words).split()) for _ in range(3)]
        lm = train_ngram(lm_vocab, corpus, order=2)
        fusion = frame_lm(am_vocab, lm, lm_weight, True)
        assert_lockstep_matches(
            pgs,
            am_vocab,
            lambda pgs, beam, stats: timesync_ctc_beam(pgs, am_vocab, beam, fusion, stats),
            lambda pg, beam, stats: reference_delayed_beam(
                pg, am_vocab, lm, lm_weight, beam, stats
            ),
            beams=(1, 4),
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", range(6))
    def test_saturated_beam_corpus(self, seed):
        # a beam that keeps every prefix: merging alone shapes the search
        rng = np.random.default_rng(seed)
        kind = ["dirichlet", "holes", "uniform"][seed % 3]
        pgs = mixed_corpus(rng, ABC, kind, None, 5, 6)
        lm = train_ngram(ABC, [[3, 4], [5], [4, 4, 3]], order=2)
        fusion = frame_lm(ABC, lm, 0.5, False)
        assert_lockstep_matches(
            pgs,
            ABC,
            lambda pgs, beam, stats: timesync_ctc_beam(pgs, ABC, beam, fusion, stats),
            lambda pg, beam, stats: reference_timesync_ctc_beam(pg, ABC, beam, lm, 0.5, stats),
            beams=(10**4,),
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_label_tie_break_at_the_cut(self):
        # uniform frames over blank and every label: the extensions of a
        # prefix tie in score and length, so the beam cut falls inside a
        # tie that only the labels settle
        pgs = uniform_wide_corpus()
        no_lm = frame_lm(WIDE, None, 0.0, False)
        for beam in (2, 3, 5):
            nbest = timesync_ctc_beam(pgs, WIDE, beam, no_lm)[0]
            # one frame: the empty prefix, then the smallest labels
            assert [e.labels for e in nbest] == [()] + [(i,) for i in range(3, 2 + beam)]
        assert_lockstep_matches(
            pgs,
            WIDE,
            lambda pgs, beam, stats: timesync_ctc_beam(pgs, WIDE, beam, no_lm, stats),
            lambda pg, beam, stats: reference_timesync_ctc_beam(pg, WIDE, beam, stats=stats),
            beams=(1, 2, 3, 5, 8),
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lm_weight", [0.5, -0.4])
    def test_label_tie_break_at_the_cut_with_lm(self, lm_weight):
        # uniform frames and an LM whose deltas are all equal: a prefix's
        # extensions tie in key and length, so an utterance's beam-th and
        # (beam+1)-th extensions tie at the shortlist cut
        pgs = uniform_wide_corpus()
        support = [i for i in range(WIDE.size) if i not in (WIDE.blank_id, WIDE.bos_id)]
        dist = np.full(WIDE.size, NEG_INF)
        dist[support] = -math.log(len(support))
        lm = TableLM(WIDE, (), dist)
        fusion = frame_lm(WIDE, lm, lm_weight, False)
        assert_lockstep_matches(
            pgs,
            WIDE,
            lambda pgs, beam, stats: timesync_ctc_beam(pgs, WIDE, beam, fusion, stats),
            lambda pg, beam, stats: reference_timesync_ctc_beam(pg, WIDE, beam, lm, lm_weight, stats),
            beams=(1, 2, 3, 5, 8),
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_utterance_losing_every_prefix(self):
        # frames with mass on EOS only extend and keep nothing: those
        # utterances run out of live prefixes while the others go on
        rng = np.random.default_rng(1)
        eos_only = np.full((5, ABC.size), NEG_INF)
        eos_only[:, ABC.eos_id] = 0.0
        late = eos_only.copy()
        late[:2] = NEG_INF
        late[:2, [ABC.blank_id, 3, 4, 5]] = math.log(0.25)
        pgs = [random_pg(rng, 6, ABC, "dirichlet"), Posteriorgram(eos_only[:4]),
               Posteriorgram(late), random_pg(rng, 3, ABC, "holes")]
        no_lm = frame_lm(ABC, None, 0.0, False)
        assert_lockstep_matches(
            pgs,
            ABC,
            lambda pgs, beam, stats: timesync_ctc_beam(pgs, ABC, beam, no_lm, stats),
            lambda pg, beam, stats: reference_timesync_ctc_beam(pg, ABC, beam, stats=stats),
            beams=(1, 3),
        )
        assert [len(n) for n in timesync_ctc_beam(pgs, ABC, 3, no_lm)] == [3, 0, 0, 3]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", range(4))
    def test_trie_cut_back_mid_search(self, seed, monkeypatch):
        # the trie is cut back to the live prefixes and their ancestors
        # whenever it doubles: prefixes that drop out and come back get
        # new nodes, and merging must still find every collision
        from fusionkit import search

        monkeypatch.setattr(search, "_TRIE_SLACK", 0)
        rng = np.random.default_rng(seed)
        kind = ["uniform", "holes", "dirichlet", "peaked"][seed]
        pgs = [random_pg(rng, int(n), ABC, kind) for n in rng.integers(30, 61, size=4)]
        lm = train_ngram(ABC, [[3, 4], [5], [4, 4, 3]], order=2)
        for lm_weight in (0.0, 0.5):
            fusion = frame_lm(ABC, lm, lm_weight, False)
            assert_lockstep_matches(
                pgs,
                ABC,
                lambda pgs, beam, stats: timesync_ctc_beam(pgs, ABC, beam, fusion, stats),
                lambda pg, beam, stats: reference_timesync_ctc_beam(
                    pg, ABC, beam, lm, lm_weight, stats
                ),
                beams=(2, 6),
            )

    def test_wall_time_split_by_frames(self):
        # the run's session splits a lockstep's wall time by frames
        from fusionkit.cli import DecodeConfig, Session

        rng = np.random.default_rng(3)
        pgs = [random_pg(rng, frames, ABC, "dirichlet") for frames in (7, 1, 30, 12)]
        stats = [DecodeStats() for _ in pgs]
        Session.from_config(DecodeConfig(strategy="timesync", beam=4), ABC).search(pgs, stats)
        per_frame = [s.wall_time_s / pg.num_frames for s, pg in zip(stats, pgs)]
        assert per_frame[0] > 0
        assert per_frame == pytest.approx([per_frame[0]] * len(pgs), rel=1e-9)
        rtfs = [s.rtf for s in stats]
        assert rtfs == pytest.approx([rtfs[0]] * len(pgs), rel=1e-9)

    def test_empty_corpus_and_bad_width(self):
        no_lm = frame_lm(ABC, None, 0.0, False)
        assert timesync_ctc_beam([], ABC, 4, no_lm) == []
        wide = Posteriorgram(np.log(np.full((2, ABC.size + 1), 1 / (ABC.size + 1))))
        with pytest.raises(ValidationError, match="labels"):
            timesync_ctc_beam([wide], ABC, 4, no_lm)
        with pytest.raises(ValidationError, match="finite"):
            frame_lm(ABC, train_ngram(ABC, [[3]], order=2), math.nan, False)


class TestDelayedAtWeightZero:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_probability_word_does_not_fail(self):
        # the LM gives c probability zero: at weight 0 the final score is
        # the CTC score, not am + 0 * -inf
        am_vocab, lm_vocab = cross_vocab()
        support = [i for i, tok in enumerate(lm_vocab.tokens)
                   if i not in (lm_vocab.blank_id, lm_vocab.bos_id) and tok != "c"]
        dist = np.full(lm_vocab.size, NEG_INF)
        dist[support] = -math.log(len(support))
        lm = TableLM(lm_vocab, (), dist)
        labels = [i for i in range(am_vocab.size) if i not in (am_vocab.bos_id, am_vocab.eos_id)]
        lp = np.full((3, am_vocab.size), NEG_INF)
        for t, tok in enumerate(["▁a", "c", "▁b"]):
            lp[t, labels] = np.log(0.3 / (len(labels) - 1))
            lp[t, am_vocab.id_of(tok)] = np.log(0.7)
        fusion = frame_lm(am_vocab, lm, 0.0, True)
        nbest = timesync_ctc_beam([Posteriorgram(lp)], am_vocab, 4, fusion)[0]
        assert len(nbest) == 4
        for e in nbest:
            assert list(e.components) == ["ctc"]
            assert e.combined == e.components["ctc"]
            assert math.isfinite(e.combined)


class TestWordLMChild:
    """A prefix's pending-word delta is the per-token loop's sum."""

    @settings(max_examples=100, deadline=None)
    @given(
        labels=st.lists(st.integers(3, 8), min_size=1, max_size=12),
        order=st.integers(1, 4),
    )
    def test_delta_equals_per_token_loop(self, labels, order):
        am_vocab, lm_vocab = cross_vocab()
        text = ["ab ca", "abc a", "cab b ca", "a b c"]
        lm = train_ngram(lm_vocab, [retokenize(lm_vocab, t.split()) for t in text], order=order)
        word_lm = _WordLM(lm, am_vocab, 1.0)
        state = word_lm.root()
        for label in labels:
            state = word_lm.child(state, label)
            ctx, pending, delta, after = state
            want, want_after = 0.0, ctx
            for tok in retokenize(lm_vocab, [am_vocab.word_text(pending)]):
                want += float(lm.conditionals(want_after)[tok])
                want_after = want_after + (tok,)
            assert (delta, after) == (want, want_after)


class TestDelayedFusionEqualsRescoring:
    """Acceptance criterion 5 as a property: each hypothesis that delayed
    fusion finishes scores its CTC score plus the weighted log probability
    of its words under a cross-vocabulary LM, as n-best rescoring of that
    CTC score computes it."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["dirichlet", "peaked", "holes", "uniform"]),
        frames=st.integers(1, 7),
        order=st.integers(1, 3),
        backoff=st.sampled_from([0.4, 1.0, 2.5]),
        lm_weight=st.sampled_from([0.0, 0.3, 0.8, 2.0, -0.4]),
        beam=st.sampled_from([1, 3, 8]),
    )
    def test_finished_scores_equal_rescored(self, seed, kind, frames, order, backoff, lm_weight, beam):
        rng = np.random.default_rng(seed)
        am_vocab, lm_vocab = cross_vocab()
        pg = random_pg(rng, frames, am_vocab, kind)
        words = ["ab", "ca", "a", "b", "c", "bc", "cab"]
        sentences = [rng.choice(words, size=rng.integers(1, 5)).tolist() for _ in range(5)]
        lm = train_ngram(lm_vocab, [retokenize(lm_vocab, s) for s in sentences], order, backoff)
        with tempfile.TemporaryDirectory() as tmp:  # the LM a decode reads from its file
            save_ngram(lm, f"{tmp}/lm.fklm")
            lm = load_ngram(f"{tmp}/lm.fklm")
        nbest = timesync_ctc_beam([pg], am_vocab, beam, frame_lm(am_vocab, lm, lm_weight, True))[0]
        am_only = NBestList(NBestEntry(e.labels, {"ctc": e.components["ctc"]}, e.components["ctc"], e.finished)
                            for e in nbest)
        rescored = {e.labels: e.combined for e in rescore_nbest(am_only, am_vocab, lm, lm_weight)}
        assert len(nbest) > 0 and len(rescored) == len(nbest)
        for e in nbest:
            assert e.finished
            assert abs(e.combined - rescored[e.labels]) <= 1e-9 * max(1.0, abs(e.combined))
