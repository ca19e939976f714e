import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit.core import NEG_INF, ScorerWeights, ValidationError, logsumexp
from fusionkit.ctc import greedy_decode
from fusionkit.lm import retokenize
from fusionkit.metrics import align
from fusionkit.search import ContextLMScorer, CtcPrefixLabelScorer, labelsync_beam
from fusionkit.synth import (
    AMBIG_TRUE,
    AMBIG_WRONG,
    BLANK_LEAK,
    FLOOR_LEAK,
    WORD_LIST,
    SynthConfig,
    _utterance_rows,
    build_am_vocab,
    gen_corpus,
    gen_utterance,
    sample_sentences,
)

from fixtures import build_lm_vocab, gen_oscillation_scenario

AM_VOCAB = build_am_vocab()


class TestVocabBuilders:
    def test_am_vocab_shape(self):
        assert AM_VOCAB.size == 3 + 2 * (26 + 50 + 12)
        assert AM_VOCAB.tokens[AM_VOCAB.blank_id] == "<blank>"
        marked = sum(AM_VOCAB.begins_word)
        assert marked == 26 + 50 + 12

    def test_lm_vocab_differs_and_covers(self):
        lm_vocab = build_lm_vocab()
        assert lm_vocab.tokens != AM_VOCAB.tokens
        ids = retokenize(lm_vocab, "the quick zebra", allow_unk=False)
        assert lm_vocab.text(ids) == "the quick zebra"


def reference_emission_row(vocab, label, eps, rng):
    """Slow reference: one frame's distribution, built and drawn alone."""
    support = [i for i in range(vocab.size) if i not in (vocab.bos_id, vocab.eos_id)]
    row = np.full(vocab.size, NEG_INF)
    if eps == 0.0:
        row[label] = 0.0
        return row
    masses = np.full(vocab.size, FLOOR_LEAK * eps / len(support))
    masses[vocab.bos_id] = 0.0
    masses[vocab.eos_id] = 0.0
    masses[vocab.blank_id] += BLANK_LEAK * eps
    peak = 1.0 - (BLANK_LEAK + FLOOR_LEAK) * eps
    if rng.random() < eps:
        others = [i for i in support if i != label]
        wrong = int(others[rng.integers(0, len(others))])
        masses[wrong] += peak * AMBIG_WRONG
        masses[label] += peak * AMBIG_TRUE
    else:
        masses[label] += peak
    row[support] = np.log(masses[support])
    return row


def reference_utterance_rows(cfg, tokens, rng):
    """Slow reference: the posteriorgram stacked frame by frame."""
    rows = []
    prev = None
    for tok in tokens:
        gap = int(rng.integers(cfg.blank_gap[0], cfg.blank_gap[1] + 1))
        if prev == tok:
            gap = max(gap, 1)
        for _ in range(gap):
            rows.append(reference_emission_row(cfg.vocab, cfg.vocab.blank_id, cfg.noise, rng))
        dur = int(rng.integers(cfg.frames_per_label[0], cfg.frames_per_label[1] + 1))
        for _ in range(dur):
            rows.append(reference_emission_row(cfg.vocab, tok, cfg.noise, rng))
        prev = tok
    return np.array(rows)


def draw_tokens(cfg, index):
    """The draws :func:`gen_utterance` makes before the frames: the
    generator, the transcript and its tokens."""
    rng = np.random.default_rng([cfg.seed, index])
    n_words = int(rng.integers(cfg.words_per_utt[0], cfg.words_per_utt[1] + 1))
    words = [cfg.word_list[int(rng.integers(0, len(cfg.word_list)))] for _ in range(n_words)]
    transcript = " ".join(words)
    return rng, transcript, retokenize(cfg.vocab, transcript, allow_unk=False)


def ranges(lo, hi):
    return st.tuples(st.integers(lo, hi), st.integers(0, 2)).map(lambda r: (r[0], r[0] + r[1]))


class TestUtteranceRows:
    """The per-utterance builder equals the per-frame reference bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        index=st.integers(0, 10**7),
        noise=st.sampled_from([0.0, 5e-324, 0.1, 0.3, 0.6, 0.95, 1.0 - 2**-52]) | st.floats(0.0, 0.999),
        words=ranges(1, 6) | st.just((20, 24)),
        frames=ranges(1, 3),
        gap=ranges(0, 2),
        # one- and two-letter words repeat tokens back to back
        word_list=st.sampled_from([("aaa", "a", "tt", "the"), WORD_LIST]),
    )
    def test_equals_per_frame_reference(self, seed, index, noise, words, frames, gap, word_list):
        options = dict(
            seed=seed, noise=noise, words_per_utt=words, frames_per_label=frames,
            blank_gap=gap, word_list=word_list,
        )
        # the floor is spread over all labels but BOS and EOS
        if noise and FLOOR_LEAK * noise / (build_am_vocab().size - 2) == 0.0:
            with pytest.raises(ValidationError, match="underflows to 0"):
                SynthConfig(**options)
            return
        cfg = SynthConfig(**options)
        want_rng, want_text, tokens = draw_tokens(cfg, index)
        want = reference_utterance_rows(cfg, tokens, want_rng)
        rng, _, _ = draw_tokens(cfg, index)
        got = _utterance_rows(cfg, tokens, rng)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert rng.random() == want_rng.random()  # the generator is left where it was
        pg, transcript = gen_utterance(cfg, index)
        assert transcript == want_text
        assert pg.log_probs.tobytes() == want.tobytes()


class TestGenCorpus:
    def test_clean_corpus_greedy_decodes_exactly(self):
        cfg = SynthConfig(seed=3, noise=0.0)
        for pg, transcript in gen_corpus(cfg, 10):
            got = greedy_decode(pg, cfg.vocab.blank_id)
            want = retokenize(cfg.vocab, transcript)
            assert got == want
            assert cfg.vocab.text(got) == transcript

    def test_same_seed_bit_identical(self):
        a = gen_corpus(SynthConfig(seed=9, noise=0.25), 4)
        b = gen_corpus(SynthConfig(seed=9, noise=0.25), 4)
        for (pg1, t1), (pg2, t2) in zip(a, b):
            assert t1 == t2
            np.testing.assert_array_equal(pg1.log_probs, pg2.log_probs)

    def test_different_seed_differs(self):
        a, _ = gen_utterance(SynthConfig(seed=1, noise=0.2), 0)
        b, _ = gen_utterance(SynthConfig(seed=2, noise=0.2), 0)
        assert a.log_probs.shape != b.log_probs.shape or not np.array_equal(
            a.log_probs, b.log_probs
        )

    def test_rows_normalized_under_noise(self):
        pg, _ = gen_utterance(SynthConfig(seed=5, noise=0.3), 1)
        for row in pg.log_probs:
            assert abs(logsumexp(row)) < 1e-9

    def test_noisy_corpus_perturbs_some_frames(self):
        cfg = SynthConfig(seed=7, noise=0.3)
        mismatches = 0
        for pg, transcript in gen_corpus(cfg, 10):
            got = greedy_decode(pg, cfg.vocab.blank_id)
            if got != retokenize(cfg.vocab, transcript):
                mismatches += 1
        assert mismatches >= 5

    def test_repeated_tokens_separated_by_blank(self):
        cfg = SynthConfig(seed=0, noise=0.0, word_list=("aaa",), words_per_utt=(1, 1))
        pg, transcript = gen_utterance(cfg, 0)
        assert transcript == "aaa"
        assert greedy_decode(pg, cfg.vocab.blank_id) == retokenize(cfg.vocab, "aaa")

    def test_text_sampler_disjoint_stream(self):
        cfg = SynthConfig(seed=11)
        sentences = sample_sentences(cfg, 5)
        assert len(sentences) == 5
        assert all(isinstance(s, str) and s for s in sentences)


def run_standalone(scn, vocab, max_len):
    return labelsync_beam(
        [ContextLMScorer(scn.table_lm, "table")],
        ScorerWeights({"table": 1.0}),
        beam=4,
        vocab=vocab,
        max_lens=[max_len],
    )[0]


def run_joint(scn, vocab, max_len):
    return labelsync_beam(
        [CtcPrefixLabelScorer(scn.pg, vocab), ContextLMScorer(scn.table_lm, "table")],
        ScorerWeights({"ctc": 1.0, "table": 0.5}),
        beam=4,
        vocab=vocab,
        max_lens=[max_len],
    )[0]


def insertions_vs_reference(scn, vocab, labels):
    hyp = vocab.text([l for l in labels if l != vocab.eos_id]).split()
    return align(scn.transcript.split(), hyp).insertions


class TestOscillationScenario:
    def test_standalone_oscillates_and_joint_recovers(self):
        cfg = SynthConfig(seed=1)
        vocab = cfg.vocab
        scn = gen_oscillation_scenario(cfg)
        max_len = scn.pg.num_frames
        standalone = run_standalone(scn, vocab, max_len)
        joint = run_joint(scn, vocab, max_len)
        ins_standalone = insertions_vs_reference(scn, vocab, standalone.best.labels)
        ins_joint = insertions_vs_reference(scn, vocab, joint.best.labels)
        assert ins_standalone >= 5
        assert ins_joint < ins_standalone
        assert vocab.text(joint.best.output_labels(vocab.eos_id)) == scn.transcript

    def test_ctc_only_clean(self):
        cfg = SynthConfig(seed=2)
        scn = gen_oscillation_scenario(cfg)
        got = greedy_decode(scn.pg, cfg.vocab.blank_id)
        assert cfg.vocab.text(got) == scn.transcript

    def test_cap_terminates_standalone(self):
        cfg = SynthConfig(seed=3)
        scn = gen_oscillation_scenario(cfg)
        max_len = scn.pg.num_frames
        nbest = run_standalone(scn, cfg.vocab, max_len)
        assert len(nbest.best.labels) <= max_len
        assert not nbest.best.finished

    def test_deterministic(self):
        a = gen_oscillation_scenario(SynthConfig(seed=4))
        b = gen_oscillation_scenario(SynthConfig(seed=4))
        assert a.transcript == b.transcript
        np.testing.assert_array_equal(a.pg.log_probs, b.pg.log_probs)
        assert a.loop_tokens == b.loop_tokens

    def test_loop_tokens_absent_from_reference(self):
        scn = gen_oscillation_scenario(SynthConfig(seed=5))
        assert set(scn.loop_tokens).isdisjoint(scn.reference_tokens)


class TestConfigValidation:
    def test_noise_range(self):
        with pytest.raises(ValueError):
            SynthConfig(noise=1.0)

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            SynthConfig(words_per_utt=(3, 2))
        with pytest.raises(ValueError):
            SynthConfig(frames_per_label=(0, 2))
