import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit.core import NEG_INF, Posteriorgram, ScorerWeights, Vocabulary, logsumexp
from fusionkit.ctc import collapse, topk_prune
from fusionkit.decoder import Hyperparams, InterfaceConfig, seeded_weights
from fusionkit.lm import TableLM, lm_logprob, retokenize, train_ngram
from fusionkit.search import (
    ContextLMScorer,
    CtcPrefixLabelScorer,
    DecodeStats,
    DecoderLabelScorer,
    NBestEntry,
    NBestList,
    frame_lm,
    labelsync_beam,
    rescore_nbest,
    timesync_ctc_beam,
    write_nbest,
)

from fixtures import uniform_table_lm
from oracle import ctc_forward_logprob, exhaustive_decode

# vocab: blank, bos, eos, then plain labels a b c
VOCAB = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "a", "b", "c"])
A, B, C = 3, 4, 5
EOS = VOCAB.eos_id
WIDE = Vocabulary.from_tokens(["<blank>", "<s>", "</s>"] + list("defghij"))


class RefineEveryPair(CtcPrefixLabelScorer):
    """The CTC scorer with its upper bound raised to a huge finite value
    wherever it is finite: the beam then folds every finite pair exactly."""

    def step(self, states):
        lower, upper, step = super().step(states)
        return lower, np.where(upper > NEG_INF, 1e300, upper), step


def nbest_bits(nbest):
    """Labels, components, combined score and status of each entry, in
    order, with every float as its repr, so equal means bit-equal."""
    return [
        (e.labels, repr(sorted(e.components.items())), repr(e.combined), e.finished)
        for e in nbest
    ]


def random_am_pg(rng, t, vocab=VOCAB):
    """Posteriorgram over blank + plain labels; bos/eos get zero probability."""
    cols = [i for i in range(vocab.size) if i not in (vocab.bos_id, vocab.eos_id)]
    rows = rng.dirichlet(np.ones(len(cols)), size=t)
    lp = np.full((t, vocab.size), NEG_INF)
    lp[:, cols] = np.log(rows)
    lp[:, cols] -= np.array([logsumexp(r) for r in lp[:, cols]])[:, None]
    return Posteriorgram(lp)


def brute_force_timesync(pg, vocab, lm=None, lm_weight=0.0):
    """Enumerate all frame paths, group by collapsed sequence, add LM at the end."""
    labels = [i for i in range(vocab.size) if i not in (vocab.bos_id, vocab.eos_id)]
    masses = {}
    t = pg.num_frames
    for path in itertools.product(labels, repeat=t):
        lp = sum(pg.log_probs[i, lab] for i, lab in enumerate(path))
        if lp == NEG_INF:
            continue
        seq = tuple(collapse(path, vocab.blank_id))
        masses[seq] = np.logaddexp(masses.get(seq, NEG_INF), lp)
    scored = {}
    for seq, am in masses.items():
        total = am
        if lm is not None and lm_weight != 0.0:
            total = am + lm_weight * lm_logprob(lm, list(seq))
        scored[seq] = float(total)
    return scored


def table_lm_from_probs(vocab, default_probs, entries=()):
    def dist(probs):
        d = np.full(vocab.size, NEG_INF)
        for tok, p in probs.items():
            d[tok] = math.log(p)
        return d

    return TableLM(vocab, tuple((ctx, dist(p)) for ctx, p in entries), dist(default_probs))


class TestTimesyncBeam:
    def test_saturated_beam_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(8):
            pg = random_am_pg(rng, 3)
            lm = train_ngram(VOCAB, [[A, B], [B, C, A]], order=2)
            lm_weight = 0.0 if trial % 2 == 0 else 0.7
            oracle = brute_force_timesync(pg, VOCAB, lm, lm_weight)
            nbest = timesync_ctc_beam([pg], VOCAB, 10**4, frame_lm(VOCAB, lm, lm_weight, False))[0]
            got = {e.labels: e.combined for e in nbest}
            assert set(got) == set(oracle)
            for seq, want in oracle.items():
                assert got[seq] == pytest.approx(want, abs=1e-9)

    def test_lm_weight_zero_is_pure_ctc(self):
        rng = np.random.default_rng(1)
        pg = random_am_pg(rng, 4)
        lm = train_ngram(VOCAB, [[A]], order=2)
        plain = timesync_ctc_beam([pg], VOCAB, 8, frame_lm(VOCAB, None, 0.0, False))[0]
        fused = timesync_ctc_beam([pg], VOCAB, 8, frame_lm(VOCAB, lm, 0.0, False))[0]
        assert [e.labels for e in plain] == [e.labels for e in fused]
        for a, b in zip(plain, fused):
            assert a.combined == pytest.approx(b.combined, abs=0)

    def test_beam_below_one_rejected(self):
        pg = random_am_pg(np.random.default_rng(2), 3)
        with pytest.raises(ValueError, match="beam"):
            timesync_ctc_beam([pg], VOCAB, 0, frame_lm(VOCAB, None, 0.0, False))

    def test_uniform_pg_tie_breaks_to_lowest_ids(self):
        cols = [0, 3, 4, 5]
        lp = np.full((2, VOCAB.size), NEG_INF)
        lp[:, cols] = -math.log(4)
        pg = Posteriorgram(lp)
        nbest = timesync_ctc_beam([pg], VOCAB, 2, frame_lm(VOCAB, None, 0.0, False))[0]
        # each single label collects 3/16 path mass; the a/b/c tie breaks
        # toward the lowest id
        assert nbest.best.labels == (A,)
        assert nbest.best.combined == pytest.approx(math.log(3 / 16), abs=1e-12)

    def test_vocab_mismatch_directs_to_delayed_fusion(self):
        other = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "x"])
        lm = train_ngram(other, [[3]], order=1)
        with pytest.raises(ValueError, match="unlike delayed"):
            frame_lm(VOCAB, lm, 0.5, False)

    def test_beam_monotonic_best_score(self):
        rng = np.random.default_rng(3)
        lm = train_ngram(VOCAB, [[A, B, C]], order=2)
        for _ in range(5):
            pg = random_am_pg(rng, 5)
            best = -math.inf
            for beam in (1, 2, 4, 8, 16):
                nb = timesync_ctc_beam([pg], VOCAB, beam, frame_lm(VOCAB, lm, 0.5, False))[0]
                assert nb.best.combined >= best - 1e-12
                best = max(best, nb.best.combined)


class TestLabelsyncBeam:
    def make_table_lm(self):
        return table_lm_from_probs(
            VOCAB,
            {A: 0.5, B: 0.2, C: 0.2, EOS: 0.1},
            entries=[((A,), {A: 0.1, B: 0.6, C: 0.1, EOS: 0.2})],
        )

    def test_beam_one_is_greedy_argmax(self):
        lm = self.make_table_lm()
        scorer = ContextLMScorer(lm, "lm")
        weights = ScorerWeights({"lm": 1.0})
        nbest = labelsync_beam([scorer], weights, beam=1, vocab=VOCAB, max_lens=[6])[0]
        # greedy rollout: A (0.5), then B (0.6), then default argmax A...
        labels = nbest.best.labels
        assert labels[0] == A and labels[1] == B

    def test_saturated_beam_matches_exhaustive(self):
        lm = self.make_table_lm()
        weights = ScorerWeights({"lm": 1.0})
        oracle = exhaustive_decode([ContextLMScorer(lm, "lm")], weights, VOCAB, max_len=3)
        nbest = labelsync_beam(
            [ContextLMScorer(lm, "lm")], weights, beam=10**4, vocab=VOCAB, max_lens=[3]
        )[0]
        finished = [e for e in nbest if e.finished]
        assert finished[0].labels == oracle.best.labels
        assert finished[0].combined == pytest.approx(oracle.best.combined, abs=1e-9)
        oracle_scores = {e.labels: e.combined for e in oracle}
        for e in finished:
            assert e.combined == pytest.approx(oracle_scores[e.labels], abs=1e-9)

    def test_joint_ctc_with_zero_decoder_weight_is_pure_ctc(self):
        rng = np.random.default_rng(4)
        pg = random_am_pg(rng, 4)
        hp = Hyperparams(layers=1, dim=16, heads=2, vocab_size=VOCAB.size, ffn_dim=32)
        dec = DecoderLabelScorer(
            seeded_weights(hp, 0), InterfaceConfig("prefix"), VOCAB, None, "dec"
        )
        ctc = CtcPrefixLabelScorer(pg, VOCAB)
        with_dec = labelsync_beam(
            [ctc, dec],
            ScorerWeights({"ctc": 1.0, "dec": 0.0}),
            beam=4,
            vocab=VOCAB,
            max_lens=[4],
        )[0]
        pure = labelsync_beam(
            [CtcPrefixLabelScorer(pg, VOCAB)],
            ScorerWeights({"ctc": 1.0}),
            beam=4,
            vocab=VOCAB,
            max_lens=[4],
        )[0]
        assert with_dec.best.labels == pure.best.labels
        assert with_dec.best.combined == pytest.approx(pure.best.combined, abs=1e-12)

    def test_ctc_prefix_scorer_accumulates_full_sequence_prob(self):
        rng = np.random.default_rng(5)
        pg = random_am_pg(rng, 4)
        nbest = labelsync_beam(
            [CtcPrefixLabelScorer(pg, VOCAB)],
            ScorerWeights({"ctc": 1.0}),
            beam=64,
            vocab=VOCAB,
            max_lens=[4],
        )[0]
        for e in nbest:
            if e.finished:
                want = ctc_forward_logprob(pg, e.output_labels(EOS), VOCAB.blank_id)
                assert e.components["ctc"] == pytest.approx(want, abs=1e-9)

    def test_labelsync_saturated_matches_exhaustive_with_ctc(self):
        rng = np.random.default_rng(6)
        pg = random_am_pg(rng, 3)
        weights = ScorerWeights({"ctc": 1.0})
        oracle = exhaustive_decode(
            [CtcPrefixLabelScorer(pg, VOCAB)], weights, VOCAB, max_len=3
        )
        nbest = labelsync_beam(
            [CtcPrefixLabelScorer(pg, VOCAB)], weights, beam=10**4, vocab=VOCAB, max_lens=[3]
        )[0]
        best_finished = next(e for e in nbest if e.finished)
        assert best_finished.labels == oracle.best.labels
        assert best_finished.combined == pytest.approx(oracle.best.combined, abs=1e-9)

    def test_beam_one_invariant_to_length_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            pg = random_am_pg(rng, 4)
            lm = self.make_table_lm()
            scorers = lambda: [CtcPrefixLabelScorer(pg, VOCAB), ContextLMScorer(lm, "lm")]
            w_plain = ScorerWeights({"ctc": 1.0, "lm": 0.4}, length_norm=False)
            w_norm = ScorerWeights({"ctc": 1.0, "lm": 0.4}, length_norm=True)
            a = labelsync_beam(scorers(), w_plain, beam=1, vocab=VOCAB, max_lens=[4])[0]
            b = labelsync_beam(scorers(), w_norm, beam=1, vocab=VOCAB, max_lens=[4])[0]
            assert a.best.labels == b.best.labels

    def test_beam_monotonic_best_score(self):
        rng = np.random.default_rng(8)
        lm = self.make_table_lm()
        for _ in range(5):
            pg = random_am_pg(rng, 4)
            weights = ScorerWeights({"ctc": 1.0, "lm": 0.5})
            best = -math.inf
            for beam in (1, 2, 4, 8, 16):
                nb = labelsync_beam(
                    [CtcPrefixLabelScorer(pg, VOCAB), ContextLMScorer(lm, "lm")],
                    weights,
                    beam=beam,
                    vocab=VOCAB,
                    max_lens=[4],
                )[0]
                assert nb.best.combined >= best - 1e-12
                best = max(best, nb.best.combined)

    @pytest.mark.parametrize("length_norm", [False, True])
    def test_saturated_beam_equals_exhaustive_on_random_mixes(self, length_norm):
        # every finished hypothesis of a saturated beam is one the oracle
        # enumerates, with bit-identical components and combined score, and
        # the beam finds every oracle sequence no longer than its last step
        rng = np.random.default_rng(41)
        hp = Hyperparams(layers=1, dim=16, heads=2, vocab_size=VOCAB.size, ffn_dim=32)
        dec_w = seeded_weights(hp, 3)
        mixes = [
            {"ctc": 1.0, "lm": 0.5, "dec": 0.3},
            {"ctc": 0.7, "lm": 1.2, "dec": 0.0},
            {"ctc": 1.0, "dec": 0.8},
            {"lm": 0.4, "dec": 1.0},
        ]
        for case in range(8):
            pg = random_am_pg(rng, int(rng.integers(2, 5)))
            corpus = [rng.choice([A, B, C], size=rng.integers(1, 4)).tolist() for _ in range(4)]
            lm = train_ngram(VOCAB, corpus, order=2)
            weights = ScorerWeights(mixes[case % len(mixes)], length_norm=length_norm)

            def scorers():
                return [
                    CtcPrefixLabelScorer(pg, VOCAB),
                    ContextLMScorer(lm, "lm"),
                    DecoderLabelScorer(dec_w, InterfaceConfig("prefix"), VOCAB, None, "dec"),
                ]

            oracle = exhaustive_decode(scorers(), weights, VOCAB, max_len=3)
            by_labels = {e.labels: e for e in oracle}
            nbest = labelsync_beam(scorers(), weights, beam=10**6, vocab=VOCAB, max_lens=[3])[0]
            reached = max(len(e.labels) for e in nbest)
            finished = [e for e in nbest if e.finished]
            assert {e.labels for e in finished} == {
                labels for labels in by_labels if len(labels) <= reached
            }
            for e in finished:
                assert e.components == by_labels[e.labels].components
                assert e.combined == by_labels[e.labels].combined
            if not length_norm:
                assert finished[0] == oracle.best

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        frames=st.integers(2, 4),
        mix=st.dictionaries(
            st.sampled_from(["ctc", "lm", "table", "dec"]),
            st.sampled_from([0.0, 0.3, 1.0, -0.4]),
            min_size=1,
        ).filter(lambda mix: any(mix.values())),
        length_norm=st.booleans(),
    )
    def test_saturated_beam_equals_exhaustive_property(self, seed, frames, mix, length_norm):
        # any mix of CTC, n-gram, table LM and decoder, zero and negative
        # weights too: a saturated beam keeps every oracle sequence up to
        # its last step, with bit-identical components and combined score
        rng = np.random.default_rng(seed)
        pg = random_am_pg(rng, frames)
        corpus = [rng.choice([A, B, C], size=rng.integers(1, 4)).tolist() for _ in range(4)]
        lm = train_ngram(VOCAB, corpus, order=2)
        table = table_lm_from_probs(
            VOCAB, {A: 0.4, B: 0.3, C: 0.2, EOS: 0.1}, [((A,), {B: 0.5, C: 0.3, EOS: 0.2})]
        )
        hp = Hyperparams(layers=1, dim=16, heads=2, vocab_size=VOCAB.size, ffn_dim=32)
        dec_w = seeded_weights(hp, seed % 5)
        weights = ScorerWeights(mix, length_norm=length_norm)

        def scorers():
            every = {
                "ctc": CtcPrefixLabelScorer(pg, VOCAB),
                "lm": ContextLMScorer(lm, "lm"),
                "table": ContextLMScorer(table, "table"),
                "dec": DecoderLabelScorer(dec_w, InterfaceConfig("prefix"), VOCAB, None, "dec"),
            }
            return [every[name] for name in mix]

        with warnings.catch_warnings():  # every warning of the searches fails
            warnings.simplefilter("error")
            oracle = exhaustive_decode(scorers(), weights, VOCAB, max_len=3)
            nbest = labelsync_beam(scorers(), weights, beam=10**6, vocab=VOCAB, max_lens=[3])[0]
        by_labels = {e.labels: e for e in oracle}
        reached = max((len(e.labels) for e in nbest), default=0)
        finished = [e for e in nbest if e.finished]
        assert {e.labels for e in finished} == {
            labels for labels in by_labels if len(labels) <= reached
        }
        for e in finished:
            assert e.components == by_labels[e.labels].components
            assert e.combined == by_labels[e.labels].combined
        if not length_norm and min(mix.values()) >= 0:
            # every score only falls as a hypothesis grows: the search
            # finds the best when its 3-label cap (EOS included) reaches
            # it, and otherwise ends on an unfinished prefix of it
            if len(oracle.best.labels) <= 3:
                assert finished[0] == oracle.best
            else:
                assert not nbest.best.finished

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        w_ctc=st.sampled_from([1.0, 0.6, -0.3]),
        w_lm=st.sampled_from([0.0, 0.5, 1.2, -0.2]),
        w_dec=st.sampled_from([0.0, 0.02, 0.8, -0.5]),
        length_norm=st.booleans(),
        keep=st.none() | st.integers(2, 7),
    )
    def test_bounded_refine_equals_refining_every_pair(
        self, seed, w_ctc, w_lm, w_dec, length_norm, keep
    ):
        # the cut only skips folds: components, combined scores and n-best
        # order are bit-equal to a run that folds every finite pair, for
        # beams from 1 to saturated
        rng = np.random.default_rng(seed)
        pg = random_am_pg(rng, int(rng.integers(2, 10)), WIDE)
        if keep is not None:
            pg = topk_prune(pg, keep, WIDE.blank_id)
        plain = [i for i in range(WIDE.size) if not WIDE.is_special(i)]
        corpus = [rng.choice(plain, size=rng.integers(1, 5)).tolist() for _ in range(6)]
        lm = train_ngram(WIDE, corpus, order=2)
        hp = Hyperparams(layers=1, dim=16, heads=2, vocab_size=WIDE.size, ffn_dim=32)
        dec_w = seeded_weights(hp, seed % 7)
        weights = ScorerWeights({"ctc": w_ctc, "lm": w_lm, "dec": w_dec}, length_norm)

        def decode(ctc_kind, beam):
            stats = DecodeStats()
            scorers = [
                ctc_kind(pg, WIDE),
                ContextLMScorer(lm, "lm"),
                DecoderLabelScorer(dec_w, InterfaceConfig("prefix"), WIDE, None, "dec"),
            ]
            return labelsync_beam(scorers, weights, beam, WIDE, [4], [stats])[0], stats

        for beam in (1, 2, 3, 5, 8, 10**4):
            got, got_stats = decode(CtcPrefixLabelScorer, beam)
            want, want_stats = decode(RefineEveryPair, beam)
            assert nbest_bits(got) == nbest_bits(want)
            assert got_stats.steps == want_stats.steps
            assert got_stats.ctc_exact_pairs <= want_stats.ctc_exact_pairs

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_negative_weight_drops_impossible_pairs(self):
        # with 2-6 frames some prefixes of up to 4 labels have CTC
        # probability zero; a negative CTC weight must not turn that -inf
        # into a winning +inf
        rng = np.random.default_rng(43)
        hp = Hyperparams(layers=1, dim=16, heads=2, vocab_size=VOCAB.size, ffn_dim=32)
        dec_w = seeded_weights(hp, 5)
        weights = ScorerWeights({"ctc": -0.3, "lm": 0.5, "dec": 0.8})
        for frames in range(2, 7):
            pg = random_am_pg(rng, frames)
            corpus = [rng.choice([A, B, C], size=rng.integers(1, 4)).tolist() for _ in range(4)]
            lm = train_ngram(VOCAB, corpus, order=2)

            def scorers():
                return [
                    CtcPrefixLabelScorer(pg, VOCAB),
                    ContextLMScorer(lm, "lm"),
                    DecoderLabelScorer(dec_w, InterfaceConfig("prefix"), VOCAB, None, "dec"),
                ]

            runs = [labelsync_beam(scorers(), weights, b, VOCAB, [4])[0] for b in (1, 3, 10**4)]
            runs.append(exhaustive_decode(scorers(), weights, VOCAB, max_len=4))
            for nbest in runs:
                assert len(nbest) > 0
                for e in nbest:
                    assert all(v != NEG_INF for v in e.components.values()), e

    def test_unknown_weight_rejected(self):
        lm = self.make_table_lm()
        with pytest.raises(ValueError, match="unknown scorer"):
            labelsync_beam(
                [ContextLMScorer(lm, "lm")],
                ScorerWeights({"lm": 1.0, "ghost": 0.5}),
                beam=2,
                vocab=VOCAB,
                max_lens=[3],
            )

    def test_no_scorers_rejected(self):
        with pytest.raises(ValueError):
            labelsync_beam([], ScorerWeights({"x": 1.0}), beam=2, vocab=VOCAB, max_lens=[3])

    def test_bad_arguments_rejected(self):
        lm = self.make_table_lm()
        weights = ScorerWeights({"lm": 1.0})
        one = [ContextLMScorer(lm, "lm")]
        for scorers, beam, max_lens, message in [
            (one, 0, [3], "beam"),
            (one, 2, [3, 0], "max_len"),
            (one + [ContextLMScorer(lm, "lm")], 2, [3], "unique"),
        ]:
            with pytest.raises(ValueError, match=message):
                labelsync_beam(scorers, weights, beam, VOCAB, max_lens)
        # ScorerWeights checks its weights when built, so they cannot change after
        with pytest.raises(TypeError):
            weights.weights["lm"] = 0.0

    def test_max_len_cap_terminates(self):
        # an LM that never wants to stop
        lm = table_lm_from_probs(VOCAB, {A: 0.98, B: 0.01, C: 0.005, EOS: 0.005})
        nbest = labelsync_beam(
            [ContextLMScorer(lm, "lm")],
            ScorerWeights({"lm": 1.0}),
            beam=2,
            vocab=VOCAB,
            max_lens=[5],
        )[0]
        assert len(nbest.best.labels) <= 5
        assert not nbest.best.finished


def build_cross_vocab():
    """AM vocabulary over marked characters, LM vocabulary over words + chars."""
    am_tokens = ["<blank>", "<s>", "</s>"]
    for ch in "abc":
        am_tokens += ["▁" + ch, ch]
    am_vocab = Vocabulary.from_tokens(am_tokens)
    lm_tokens = ["<blank>", "<s>", "</s>", "▁ab", "▁ca"]
    for ch in "abc":
        lm_tokens += ["▁" + ch, ch]
    lm_vocab = Vocabulary.from_tokens(lm_tokens)
    return am_vocab, lm_vocab


class TestDelayedFusion:
    def am_pg(self, rng, am_vocab, t=5):
        return random_am_pg(rng, t, am_vocab)

    def test_final_scores_equal_rescoring_oracle(self):
        rng = np.random.default_rng(9)
        am_vocab, lm_vocab = build_cross_vocab()
        corpus = [retokenize(lm_vocab, "ab ca"), retokenize(lm_vocab, "ab ab c")]
        lm = train_ngram(lm_vocab, corpus, order=2)
        for _ in range(10):
            pg = self.am_pg(rng, am_vocab)
            nbest = timesync_ctc_beam([pg], am_vocab, 6, frame_lm(am_vocab, lm, 0.8, True))[0]
            for e in nbest:
                words = am_vocab.text(e.labels).split()
                toks = retokenize(lm_vocab, words)
                want = e.components["ctc"] + 0.8 * lm_logprob(lm, toks)
                assert e.combined == pytest.approx(want, abs=1e-9)

    def test_weight_zero_matches_plain_ranking(self):
        rng = np.random.default_rng(10)
        am_vocab, lm_vocab = build_cross_vocab()
        lm = train_ngram(lm_vocab, [retokenize(lm_vocab, "ab")], order=2)
        pg = self.am_pg(rng, am_vocab)
        plain = timesync_ctc_beam([pg], am_vocab, 5, frame_lm(am_vocab, None, 0.0, False))[0]
        delayed = timesync_ctc_beam([pg], am_vocab, 5, frame_lm(am_vocab, lm, 0.0, True))[0]
        assert [e.labels for e in delayed] == [e.labels for e in plain]

    def test_single_word_residual_at_finalization(self):
        am_vocab, lm_vocab = build_cross_vocab()
        lm = train_ngram(lm_vocab, [retokenize(lm_vocab, "ab")], order=2)
        # force the path "▁a b": peaked posteriorgram
        probs = np.full((3, am_vocab.size), 1e-9)
        probs[0, am_vocab.id_of("▁a")] = 1.0
        probs[1, am_vocab.blank_id] = 1.0
        probs[2, am_vocab.id_of("b")] = 1.0
        lp = np.log(probs)
        lp -= np.array([logsumexp(r) for r in lp])[:, None]
        pg = Posteriorgram(lp)
        nbest = timesync_ctc_beam([pg], am_vocab, 2, frame_lm(am_vocab, lm, 1.0, True))[0]
        best = nbest.best
        assert am_vocab.text(best.labels) == "ab"
        want = best.components["ctc"] + lm_logprob(lm, retokenize(lm_vocab, "ab"))
        assert best.combined == pytest.approx(want, abs=1e-9)

    def test_same_vocab_rejected(self):
        am_vocab, _ = build_cross_vocab()
        lm = train_ngram(am_vocab, [[3]], order=1)
        with pytest.raises(ValueError, match="timesync"):
            frame_lm(am_vocab, lm, 0.5, True)


class TestRescoreNBest:
    def entries(self):
        return NBestList(
            [
                NBestEntry((A, EOS), {"am": -1.0}, -1.0, True),
                NBestEntry((B, EOS), {"am": -1.5}, -1.5, True),
            ]
        )

    def test_identity_when_weights_zero(self):
        lm = uniform_table_lm(VOCAB)
        out = rescore_nbest(self.entries(), VOCAB, lm, lm_weight=0.0)
        assert [e.labels for e in out] == [(A, EOS), (B, EOS)]
        assert [e.combined for e in out] == [-1.0, -1.5]

    def test_predictable_swap(self):
        lm = table_lm_from_probs(
            VOCAB,
            {A: 0.05, B: 0.85, C: 0.05, EOS: 0.05},
        )
        out = rescore_nbest(self.entries(), VOCAB, lm, lm_weight=1.0)
        assert out.best.labels == (B, EOS)

    def test_length_reward_favors_longer(self):
        lm = uniform_table_lm(VOCAB)
        base = NBestList(
            [
                NBestEntry((A, EOS), {"am": -1.0}, -1.0, True),
                NBestEntry((A, B, EOS), {"am": -1.2}, -1.2, True),
            ]
        )
        plain = rescore_nbest(base, VOCAB, lm, lm_weight=0.0, length_reward=0.0)
        assert plain.best.labels == (A, EOS)
        rewarded = rescore_nbest(base, VOCAB, lm, lm_weight=0.0, length_reward=0.5)
        assert rewarded.best.labels == (A, B, EOS)
        # reward counts output labels, EOS excluded
        assert rewarded.best.combined == pytest.approx(-1.2 + 0.5 * 2, abs=1e-12)

    def test_matches_exhaustive_single_pass(self):
        lm = table_lm_from_probs(
            VOCAB, {A: 0.4, B: 0.3, C: 0.2, EOS: 0.1}
        )
        weights = ScorerWeights({"lm": 1.0})
        oracle = exhaustive_decode([ContextLMScorer(lm, "lm")], weights, VOCAB, max_len=2)
        base = NBestList(
            [
                NBestEntry(e.labels, {"am": 0.0}, 0.0, True)
                for e in oracle
            ]
        )
        rescored = rescore_nbest(base, VOCAB, lm, lm_weight=1.0)
        assert rescored.best.labels == oracle.best.labels
        assert rescored.best.combined == pytest.approx(oracle.best.combined, abs=1e-9)

    def test_cross_vocabulary_retokenized_word_by_word(self):
        # an LM on a vocabulary of its own scores each hypothesis's words in
        # its own units: "ab ca" is the two word tokens there
        am_vocab, lm_vocab = build_cross_vocab()
        corpus = [retokenize(lm_vocab, "ab ca"), retokenize(lm_vocab, "c ab")]
        lm = train_ngram(lm_vocab, corpus, order=2)
        eos = am_vocab.eos_id
        labels = [am_vocab.id_of(t) for t in ("▁a", "b", "▁c", "a")]
        base = NBestList(
            [
                NBestEntry((*labels, eos), {"am": -2.0}, -2.0, True),
                NBestEntry((am_vocab.id_of("▁c"), eos), {"am": -1.0}, -1.0, True),
            ]
        )
        want = {
            "ab ca": lm_logprob(lm, [lm_vocab.id_of("▁ab"), lm_vocab.id_of("▁ca")]),
            "c": lm_logprob(lm, [lm_vocab.id_of("▁c")]),
        }
        out = rescore_nbest(base, am_vocab, lm, lm_weight=0.5)
        assert len(out) == 2
        for e in out:
            llp = want[am_vocab.text(e.output_labels(eos))]
            assert e.components == {"am": e.components["am"], "rescore_lm": llp}
            assert e.combined == e.components["am"] + 0.5 * llp


class TestExhaustiveDecode:
    def test_singleton_vocab(self):
        vocab = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "x"])
        lm = uniform_table_lm(vocab)
        nbest = exhaustive_decode(
            [ContextLMScorer(lm, "lm")], ScorerWeights({"lm": 1.0}), vocab, max_len=2
        )
        assert {e.labels for e in nbest} == {(vocab.eos_id,), (3, vocab.eos_id), (3, 3, vocab.eos_id)}

    def test_budget_exceeded(self):
        vocab = Vocabulary.from_tokens(
            ["<blank>", "<s>", "</s>"] + [f"t{i}" for i in range(30)]
        )
        lm = uniform_table_lm(vocab)
        with pytest.raises(ValueError, match="budget"):
            exhaustive_decode(
                [ContextLMScorer(lm, "lm")], ScorerWeights({"lm": 1.0}), vocab, max_len=5
            )


class TestDecodeStats:
    def test_beam_one_peak_live(self):
        lm = uniform_table_lm(VOCAB)
        stats = DecodeStats()
        labelsync_beam(
            [ContextLMScorer(lm, "lm")],
            ScorerWeights({"lm": 1.0}),
            beam=1,
            vocab=VOCAB,
            max_lens=[3],
            stats=[stats],
        )
        assert stats.peak_live_hypotheses == 1
        assert stats.steps >= 1

    def test_topk_pruning_reduces_candidate_counter(self):
        rng = np.random.default_rng(12)
        big_vocab = Vocabulary.from_tokens(
            ["<blank>", "<s>", "</s>"] + [f"t{i}" for i in range(12)]
        )
        pg = random_am_pg(rng, 5, big_vocab)
        pruned = topk_prune(pg, 4, big_vocab.blank_id)
        s_full = DecodeStats()
        s_pruned = DecodeStats()
        w = ScorerWeights({"ctc": 1.0})
        labelsync_beam(
            [CtcPrefixLabelScorer(pg, big_vocab)], w, 4, big_vocab, [5], stats=[s_full]
        )
        labelsync_beam(
            [CtcPrefixLabelScorer(pruned, big_vocab)], w, 4, big_vocab, [5], stats=[s_pruned]
        )
        assert s_pruned.peak_candidate_set < s_full.peak_candidate_set
        assert s_pruned.scorer_evaluations < s_full.scorer_evaluations

    def test_counters_pinned_for_fixed_decode(self):
        rng = np.random.default_rng(17)
        pg = random_am_pg(rng, 6)
        lm = train_ngram(VOCAB, [[A, B], [B, C, A], [C]], order=2)
        stats = DecodeStats()
        labelsync_beam(
            [CtcPrefixLabelScorer(pg, VOCAB), ContextLMScorer(lm, "lm")],
            ScorerWeights({"ctc": 1.0, "lm": 0.5}),
            beam=3,
            vocab=VOCAB,
            max_lens=[6],
            stats=[stats],
        )
        # 4 steps; 3 plain labels plus EOS; 1 + 3 + 3 + 3 live hypotheses
        # times 2 scorers times 4 candidates
        assert stats.steps == 4
        assert stats.peak_candidate_set == 4
        assert stats.peak_live_hypotheses == 3
        assert stats.scorer_evaluations == 80
        # of the (1 + 3 + 3 + 3) x 3 = 30 bounded label pairs, 10 reach the
        # cut: the log-sum-exp bounds are tight, repeated labels included,
        # so few pairs besides the beams' own need an exact fold
        assert stats.ctc_exact_pairs == 10

    def test_timesync_counters_pinned(self):
        rng = np.random.default_rng(17)
        pg = random_am_pg(rng, 6)
        lm = train_ngram(VOCAB, [[A, B], [B, C, A], [C]], order=2)
        stats = DecodeStats()
        timesync_ctc_beam([pg], VOCAB, 3, frame_lm(VOCAB, lm, 0.5, False), [stats])
        # 6 frames, 3 plain labels each; 1 + 5 x 3 live prefixes times
        # 3 candidates
        assert stats.steps == 6
        assert stats.peak_candidate_set == 4
        assert stats.peak_live_hypotheses == 3
        assert stats.scorer_evaluations == 48

    def test_timesync_collects_audio_seconds(self):
        # the run's session, not the search, books audio and wall time
        from fusionkit.cli import DecodeConfig, Session

        rng = np.random.default_rng(13)
        pg = random_am_pg(rng, 4)
        stats = DecodeStats()
        session = Session.from_config(DecodeConfig(strategy="timesync", beam=2), VOCAB)
        session.search([pg], [stats])
        assert stats.audio_seconds == pytest.approx(pg.duration_seconds)
        assert stats.wall_time_s > 0

    def test_rtf_definition(self):
        stats = DecodeStats(wall_time_s=0.5, audio_seconds=1.0)
        assert stats.rtf == pytest.approx(0.5)
        assert DecodeStats().rtf is None


class TestNBestOutput:
    def test_write_format(self, tmp_path):
        nbest = NBestList(
            [
                NBestEntry((A, B, EOS), {"ctc": -1.0, "lm": -2.0}, -1.5, True),
                NBestEntry((A, EOS), {"ctc": -2.0, "lm": -1.0}, -2.25, True),
            ]
        )
        path = tmp_path / "nbest.txt"
        write_nbest(nbest, VOCAB, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("1\t-1.5\t")
        assert lines[0].endswith("\ta b")
        assert "ctc=-1.0" in lines[0] and "lm=-2.0" in lines[0]

    def test_scores_must_be_finite(self):
        with pytest.raises(ValueError):
            NBestList([NBestEntry((A,), {}, NEG_INF, False)])
