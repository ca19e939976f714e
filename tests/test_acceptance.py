"""End-to-end acceptance suite.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all).
The synthetic-trend experiments use the fixed noise-0.3 corpus: 20 seeds of
25 utterances each, with a per-seed trigram trained on disjoint text sampled
from the same word distribution.  Search settings per strategy are fixed
here: time-synchronous fusion at beam 8 / weight 0.3, joint label-sync at
beam 16 / LM weight 0.5 plus a weight-0.02 toy decoder in LM mode.
"""

import itertools
import math
import time

import numpy as np
import pytest

from fusionkit.cli import main as cli_main
from fusionkit.core import (
    NEG_INF,
    Posteriorgram,
    ScorerWeights,
    Vocabulary,
    logsumexp,
    write_posteriorgram,
    write_vocabulary,
)
from fusionkit.ctc import (
    CtcPrefixScorer,
    collapse,
    greedy_decode,
    topk_prune,
)
from fusionkit.decoder import (
    Hyperparams,
    InterfaceConfig,
    decoder_forward,
    decoder_init,
    decoder_step,
    seeded_weights,
)
from fusionkit.lm import (
    lm_logprob,
    perplexities,
    retokenize,
    save_ngram,
    train_ngram,
)
from fusionkit.metrics import AlignmentCounts, align, corpus_wer, words
from fusionkit.search import (
    ContextLMScorer,
    CtcPrefixLabelScorer,
    DecodeStats,
    DecoderLabelScorer,
    frame_lm,
    labelsync_beam,
    timesync_ctc_beam,
)
from fusionkit.synth import (
    SynthConfig,
    build_am_vocab,
    gen_corpus,
    sample_sentences,
)

from fixtures import build_lm_vocab, gen_oscillation_scenario, uniform_table_lm
from oracle import ctc_forward_logprob, exhaustive_decode

SEEDS = list(range(20))
UTTS_PER_SEED = 25
TSYNC_BEAM, TSYNC_LM_WEIGHT = 8, 0.3
JOINT_BEAM, JOINT_LM_WEIGHT, JOINT_DEC_WEIGHT = 16, 0.5, 0.02
TOPK_SMALL = 32

AM_VOCAB = build_am_vocab()
TOY_HP = Hyperparams(layers=2, dim=32, heads=2, vocab_size=AM_VOCAB.size, ffn_dim=64)


def report(criterion: int, detail: str) -> None:
    print(f"[acceptance] criterion {criterion:2d}: PASS ({detail})")


@pytest.fixture(scope="module")
def trend_data():
    corpora = {}
    lms = {}
    for s in SEEDS:
        cfg = SynthConfig(seed=s, noise=0.3)
        corpora[s] = gen_corpus(cfg, UTTS_PER_SEED)
        lms[s] = train_ngram(
            AM_VOCAB,
            [retokenize(AM_VOCAB, t) for t in sample_sentences(cfg, 300)],
            order=3,
        )
    return corpora, lms


def random_small_pg(rng, t, v):
    """Posteriorgram over v labels (label 0 is blank), dense support."""
    rows = rng.dirichlet(np.ones(v), size=t)
    lp = np.log(rows)
    lp -= np.array([logsumexp(r) for r in lp])[:, None]
    return Posteriorgram(lp)


def small_vocab(v):
    return Vocabulary.from_tokens(
        ["<blank>"] + [chr(ord("a") + i) for i in range(v - 1)] + ["<s>", "</s>"]
    )


def brute_force_forward(pg, target, blank_id=0):
    total = NEG_INF
    t, v = pg.log_probs.shape
    target = list(target)
    for path in itertools.product(range(v), repeat=t):
        if collapse(path, blank_id) == target:
            total = np.logaddexp(
                total, sum(pg.log_probs[i, lab] for i, lab in enumerate(path))
            )
    return float(total)


class TestCriterion1CtcBruteForce:
    def test_forward_matches_enumeration(self):
        rng = np.random.default_rng(100)
        start = time.perf_counter()
        for _ in range(200):
            t = int(rng.integers(1, 7))
            v = int(rng.integers(2, 5))
            pg = random_small_pg(rng, t, v)
            s = int(rng.integers(0, t + 2))
            target = rng.integers(1, v, size=s).tolist()
            got = ctc_forward_logprob(pg, target, 0)
            want = brute_force_forward(pg, target)
            if want == NEG_INF:
                assert got == NEG_INF
            else:
                assert abs(math.exp(got) - math.exp(want)) < 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        report(1, f"200 instances, max |diff| < 1e-10, {elapsed:.1f}s")


class TestCriterion2PrefixScoreConsistency:
    def test_eos_equals_forward_and_monotone(self):
        rng = np.random.default_rng(101)
        eos = 99
        for _ in range(200):
            t = int(rng.integers(1, 7))
            v = int(rng.integers(2, 5))
            pg = random_small_pg(rng, t, v)
            scorer = CtcPrefixScorer(pg, blank_id=0, eos_id=eos)
            state = scorer.initial_state()
            prefix = []
            prev_prob = 0.0
            for _ in range(int(rng.integers(1, t + 2))):
                cands = list(range(1, v))
                _, _, step = scorer.step(state, cands)
                scores = scorer.exact(step, [0] * len(cands), range(len(cands)))
                assert np.all(scores <= prev_prob + 1e-9)
                _, _, eos_step = scorer.step(state, [eos])
                eos_score = scorer.exact(eos_step, [0], [0])
                want = ctc_forward_logprob(pg, prefix, 0)
                if want == NEG_INF:
                    assert eos_score[0] == NEG_INF
                else:
                    assert abs(eos_score[0] - want) < 1e-9
                pick = int(np.argmax(scores))
                if scores[pick] == NEG_INF:
                    break
                prev_prob = float(scores[pick])
                prefix.append(cands[pick])
                state = scorer.advance(step, [0], [pick])
        report(2, "prefix-EOS == forward (1e-9), extensions monotone on 200 instances")


class TestCriterion3SaturatedBeamEqualsExhaustive:
    def test_labelsync_and_timesync_match_oracle(self):
        rng = np.random.default_rng(102)
        checked = 0
        for _ in range(12):
            v = int(rng.integers(2, 5))  # plain labels, vocab also has specials
            t = int(rng.integers(2, 5))
            vocab = small_vocab(v)
            cols = [i for i in range(vocab.size) if i not in (vocab.bos_id, vocab.eos_id)]
            rows = rng.dirichlet(np.ones(len(cols)), size=t)
            lp = np.full((t, vocab.size), NEG_INF)
            lp[:, cols] = np.log(rows)
            lp[:, cols] -= np.array([logsumexp(r) for r in lp[:, cols]])[:, None]
            pg = Posteriorgram(lp)
            plains = [i for i in range(vocab.size) if not vocab.is_special(i)]
            corpus = [
                rng.choice(plains, size=rng.integers(1, 4)).tolist() for _ in range(4)
            ]
            lm = train_ngram(vocab, corpus, order=2)
            lam = float(rng.choice([0.0, 0.6]))
            weights = ScorerWeights({"ctc": 1.0, "lm": lam} if lam else {"ctc": 1.0})
            scorer_fn = lambda: (
                [CtcPrefixLabelScorer(pg, vocab)]
                + ([ContextLMScorer(lm, "lm")] if lam else [])
            )
            max_len = min(t, 4)
            oracle = exhaustive_decode(scorer_fn(), weights, vocab, max_len)
            oracle_scores = {
                e.output_labels(vocab.eos_id): e.combined for e in oracle
            }
            # label-synchronous search
            nbest = labelsync_beam(
                scorer_fn(), weights, beam=10**4, vocab=vocab, max_lens=[max_len]
            )[0]
            assert nbest.best_finished.output_labels(vocab.eos_id) == oracle.best.output_labels(vocab.eos_id)
            assert abs(nbest.best_finished.combined - oracle.best.combined) < 1e-9
            for e in nbest.finished:
                assert abs(e.combined - oracle_scores[e.output_labels(vocab.eos_id)]) < 1e-9
            # time-synchronous search (max_len = t covers every feasible output)
            ts = timesync_ctc_beam(
                [pg], vocab, 10**4, frame_lm(vocab, lm if lam else None, lam, False)
            )[0]
            ts_scores = {e.labels: e.combined for e in ts}
            assert set(ts_scores) == set(oracle_scores)
            for labels, score in oracle_scores.items():
                assert abs(ts_scores[labels] - score) < 1e-9
            assert ts.best.labels == oracle.best.output_labels(vocab.eos_id)
            checked += 1
        report(3, f"{checked} instances, label-sync and time-sync == oracle (1e-9)")


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory, trend_data):
    corpora, lms = trend_data
    root = tmp_path_factory.mktemp("acceptance_corpus")
    write_vocabulary(AM_VOCAB, root / "vocab.txt")
    lines = []
    for i, (pg, ref) in enumerate(corpora[0][:8]):
        utt = f"utt{i:04d}"
        write_posteriorgram(pg, root / f"{utt}.fkpg")
        lines.append(f"{utt}\t{ref}")
    (root / "refs.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    lm_path = root / "lm.fklm"
    save_ngram(lms[0], lm_path)
    return root, lm_path


class TestCriterion4PruningIdentitiesAndSavings:
    def joint_config(self, lm_path, **extra):
        cfg = {
            "strategy": "joint",
            "beam": JOINT_BEAM,
            "scorers": [
                {"name": "ctc", "kind": "ctc_prefix", "weight": 1.0},
                {"name": "lm", "kind": "ngram", "path": str(lm_path), "weight": JOINT_LM_WEIGHT},
            ],
        }
        cfg.update(extra)
        return cfg

    def test_noop_identities_byte_exact(self, cli_corpus, tmp_path):
        import json

        root, lm_path = cli_corpus
        outs = {}
        for name, extra in (
            ("plain", {}),
            ("topk_v", {"top_k": AM_VOCAB.size}),
            ("tau_off", {"compress_threshold": 1.5}),
        ):
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(self.joint_config(lm_path, **extra)))
            out = tmp_path / name
            assert cli_main(["decode", str(root), str(out), "--config", str(cfg_path)]) == 0
            outs[name] = out
        for fname in ["hyps.txt"] + [f"utt{i:04d}.nbest" for i in range(8)]:
            base = (outs["plain"] / fname).read_bytes()
            assert (outs["topk_v"] / fname).read_bytes() == base
            assert (outs["tau_off"] / fname).read_bytes() == base
        report(4, "k=V and tau>1 decode outputs byte-identical (part 1/2)")

    def test_small_k_candidate_savings_with_stable_wer(self, trend_data):
        corpora, lms = trend_data

        def joint(pg, lm, prune):
            stats = DecodeStats()
            p = topk_prune(pg, TOPK_SMALL, AM_VOCAB.blank_id) if prune else pg
            scorers = [CtcPrefixLabelScorer(p, AM_VOCAB), ContextLMScorer(lm, "lm")]
            nb = labelsync_beam(
                scorers,
                ScorerWeights({"ctc": 1.0, "lm": JOINT_LM_WEIGHT}),
                beam=JOINT_BEAM,
                vocab=AM_VOCAB,
                max_lens=[pg.num_frames],
                stats=[stats],
            )[0]
            best = nb.best_finished or nb.best
            return best, stats

        pairs_full, pairs_pruned = [], []
        peak_full = peak_pruned = 0
        for s in SEEDS[:4]:
            lm = lms[s]
            for pg, ref in corpora[s]:
                refw = words(ref)
                b, st = joint(pg, lm, prune=False)
                pairs_full.append((refw, words(AM_VOCAB.text(b.output_labels(AM_VOCAB.eos_id)))))
                peak_full = max(peak_full, st.peak_candidate_set)
                b, st = joint(pg, lm, prune=True)
                pairs_pruned.append((refw, words(AM_VOCAB.text(b.output_labels(AM_VOCAB.eos_id)))))
                peak_pruned = max(peak_pruned, st.peak_candidate_set)
        wer_full = corpus_wer(pairs_full).wer
        wer_pruned = corpus_wer(pairs_pruned).wer
        ratio = peak_full / peak_pruned
        assert ratio >= 5.0
        assert abs(wer_full - wer_pruned) * 100.0 <= 0.1
        report(
            4,
            f"k={TOPK_SMALL}: candidates {peak_full}->{peak_pruned} ({ratio:.1f}x), "
            f"|dWER| = {abs(wer_full - wer_pruned) * 100:.3f} points (part 2/2)",
        )


class TestCriterion5DelayedFusionEqualsRescoring:
    def test_fifty_cross_vocab_instances(self):
        rng = np.random.default_rng(105)
        lm_vocab = build_lm_vocab()
        corpus_text = ["the and for", "you can see", "one two day", "now how man"]
        lm = train_ngram(lm_vocab, [retokenize(lm_vocab, t) for t in corpus_text], order=2)
        lam = 0.7
        checked = 0
        for _ in range(50):
            t = int(rng.integers(3, 8))
            cols = [
                i for i in range(AM_VOCAB.size)
                if i not in (AM_VOCAB.bos_id, AM_VOCAB.eos_id)
            ]
            rows = rng.dirichlet(np.ones(len(cols)), size=t)
            lp = np.full((t, AM_VOCAB.size), NEG_INF)
            lp[:, cols] = np.log(rows)
            lp[:, cols] -= np.array([logsumexp(r) for r in lp[:, cols]])[:, None]
            pg = Posteriorgram(lp)
            nbest = timesync_ctc_beam([pg], AM_VOCAB, 6, frame_lm(AM_VOCAB, lm, lam, True))[0]
            for e in nbest:
                toks = retokenize(lm_vocab, AM_VOCAB.text(e.labels).split())
                want = e.components["ctc"] + lam * lm_logprob(lm, toks)
                assert abs(e.combined - want) < 1e-9
                checked += 1
        report(5, f"{checked} finished hypotheses == AM + w*LM rescoring (1e-9)")


class TestCriterion6FusionImprovesWer:
    def test_median_wer_ordering(self, trend_data):
        corpora, lms = trend_data
        start = time.perf_counter()
        greedy_w, tsync_w, joint_w = [], [], []
        for s in SEEDS:
            lm = lms[s]
            dec_w = seeded_weights(TOY_HP, s)
            pg_g, pg_t, pg_j = [], [], []
            for pg, ref in corpora[s]:
                refw = words(ref)
                pg_g.append((refw, words(AM_VOCAB.text(greedy_decode(pg, AM_VOCAB.blank_id)))))
                nb = timesync_ctc_beam(
                    [pg], AM_VOCAB, TSYNC_BEAM, frame_lm(AM_VOCAB, lm, TSYNC_LM_WEIGHT, False)
                )[0]
                pg_t.append((refw, words(AM_VOCAB.text(nb.best.output_labels(AM_VOCAB.eos_id)))))
                scorers = [
                    CtcPrefixLabelScorer(pg, AM_VOCAB),
                    ContextLMScorer(lm, "lm"),
                    DecoderLabelScorer(dec_w, InterfaceConfig("prefix"), AM_VOCAB, None, "dec"),
                ]
                w = ScorerWeights(
                    {"ctc": 1.0, "lm": JOINT_LM_WEIGHT, "dec": JOINT_DEC_WEIGHT}
                )
                nbj = labelsync_beam(
                    scorers, w, beam=JOINT_BEAM, vocab=AM_VOCAB, max_lens=[pg.num_frames]
                )[0]
                best = nbj.best_finished or nbj.best
                pg_j.append((refw, words(AM_VOCAB.text(best.output_labels(AM_VOCAB.eos_id)))))
            greedy_w.append(corpus_wer(pg_g).wer)
            tsync_w.append(corpus_wer(pg_t).wer)
            joint_w.append(corpus_wer(pg_j).wer)
        elapsed = time.perf_counter() - start
        med_g = float(np.median(greedy_w))
        med_t = float(np.median(tsync_w))
        med_j = float(np.median(joint_w))
        assert med_g > med_t
        assert med_t >= med_j
        assert elapsed < 300.0
        report(
            6,
            f"median WER greedy {med_g:.3f} > time-sync {med_t:.3f} >= joint {med_j:.3f}, "
            f"{len(SEEDS) * UTTS_PER_SEED} utts in {elapsed:.0f}s",
        )


class TestCriterion7OscillationMitigation:
    def test_insertions_ordering_every_seed(self):
        worst = (0, 0, 0)
        for s in SEEDS:
            cfg = SynthConfig(seed=s, noise=0.3)
            scn = gen_oscillation_scenario(cfg)
            max_len = scn.pg.num_frames
            refw = scn.transcript.split()

            def insertions(nb):
                hyp = AM_VOCAB.text(nb.best.output_labels(AM_VOCAB.eos_id)).split()
                return align(refw, hyp).insertions

            standalone = labelsync_beam(
                [ContextLMScorer(scn.table_lm, "table")],
                ScorerWeights({"table": 1.0}),
                beam=4,
                vocab=AM_VOCAB,
                max_lens=[max_len],
            )[0]
            joint = labelsync_beam(
                [CtcPrefixLabelScorer(scn.pg, AM_VOCAB), ContextLMScorer(scn.table_lm, "table")],
                ScorerWeights({"ctc": 1.0, "table": 0.5}),
                beam=4,
                vocab=AM_VOCAB,
                max_lens=[max_len],
            )[0]
            ctc_only = labelsync_beam(
                [CtcPrefixLabelScorer(scn.pg, AM_VOCAB)],
                ScorerWeights({"ctc": 1.0}),
                beam=4,
                vocab=AM_VOCAB,
                max_lens=[max_len],
            )[0]
            i_sa, i_jt, i_co = insertions(standalone), insertions(joint), insertions(ctc_only)
            assert i_sa >= 5
            assert i_sa > i_jt
            assert i_jt <= i_co + 1
            worst = max(worst, (i_jt, i_sa, i_co))
        report(7, f"20 seeds: standalone > joint insertions, joint <= ctc-only + 1")


class TestCriterion8BeamSizeBehavior:
    def test_score_monotonic_and_wer_plateau(self, trend_data):
        corpora, lms = trend_data
        b8_w, b64_w = [], []
        for s in SEEDS[:5]:
            lm = lms[s]
            pairs8, pairs64 = [], []
            for pg, ref in corpora[s]:
                prev = -math.inf
                for beam in (1, 2, 4, 8, 16):
                    nb = timesync_ctc_beam(
                        [pg], AM_VOCAB, beam, frame_lm(AM_VOCAB, lm, TSYNC_LM_WEIGHT, False)
                    )[0]
                    # tolerance covers log-sum-exp association noise between runs
                    assert nb.best.combined >= prev - 1e-4
                    prev = max(prev, nb.best.combined)
                    if beam == 8:
                        best8 = nb.best
                nb64 = timesync_ctc_beam(
                    [pg], AM_VOCAB, 64, frame_lm(AM_VOCAB, lm, TSYNC_LM_WEIGHT, False)
                )[0]
                refw = words(ref)
                pairs8.append((refw, words(AM_VOCAB.text(best8.output_labels(AM_VOCAB.eos_id)))))
                pairs64.append((refw, words(AM_VOCAB.text(nb64.best.output_labels(AM_VOCAB.eos_id)))))
            b8_w.append(corpus_wer(pairs8).wer)
            b64_w.append(corpus_wer(pairs64).wer)
        delta = abs(float(np.median(b8_w)) - float(np.median(b64_w))) * 100.0
        assert delta <= 0.1
        report(
            8,
            f"best score nondecreasing over beams 1..16 on 125 utts; "
            f"median WER beam8 vs beam64 delta {delta:.3f} points",
        )


class TestCriterion9LengthNormBeamOneInvariance:
    def test_hundred_random_mixes(self):
        rng = np.random.default_rng(109)
        vocab = small_vocab(4)
        plains = [i for i in range(vocab.size) if not vocab.is_special(i)]
        for trial in range(100):
            t = int(rng.integers(2, 6))
            cols = [i for i in range(vocab.size) if i not in (vocab.bos_id, vocab.eos_id)]
            rows = rng.dirichlet(np.ones(len(cols)), size=t)
            lp = np.full((t, vocab.size), NEG_INF)
            lp[:, cols] = np.log(rows)
            lp[:, cols] -= np.array([logsumexp(r) for r in lp[:, cols]])[:, None]
            pg = Posteriorgram(lp)
            corpus = [rng.choice(plains, size=rng.integers(1, 4)).tolist() for _ in range(3)]
            lm = train_ngram(vocab, corpus, order=2)
            w_ctc = float(rng.uniform(0.2, 1.0))
            w_lm = float(rng.uniform(0.0, 1.0))
            weights = {"ctc": w_ctc}
            if w_lm > 0:
                weights["lm"] = w_lm

            def decode(length_norm):
                scorers = [CtcPrefixLabelScorer(pg, vocab)]
                if w_lm > 0:
                    scorers.append(ContextLMScorer(lm, "lm"))
                nb = labelsync_beam(
                    scorers,
                    ScorerWeights(dict(weights), length_norm=length_norm),
                    beam=1,
                    vocab=vocab,
                    max_lens=[t],
                )[0]
                return nb.best.labels

            assert decode(False) == decode(True)
        report(9, "beam-1 output identical with/without length norm, 100 mixes")


class TestCriterion10InterfacesAndIncremental:
    def test_collapse_and_step_equivalence(self):
        hp = Hyperparams(layers=2, dim=16, heads=2, vocab_size=10, ffn_dim=32)
        bos = 8
        rng = np.random.default_rng(110)
        for seed in range(100):
            w = seeded_weights(hp, seed)
            labels = [bos] + rng.integers(0, 8, size=4).tolist()
            empty = np.zeros((0, hp.dim))
            outs = [
                decoder_forward(w, InterfaceConfig("prefix"), None, labels),
                decoder_forward(w, InterfaceConfig("merged"), None, labels),
                decoder_forward(w, InterfaceConfig("aed"), empty, labels),
            ]
            np.testing.assert_allclose(outs[0], outs[1], atol=1e-9)
            np.testing.assert_allclose(outs[0], outs[2], atol=1e-9)
            kind = ("prefix", "merged", "aed")[seed % 3]
            audio = rng.normal(size=(3, hp.dim))
            cfg = InterfaceConfig(kind, prompt=(1,))
            full = decoder_forward(w, cfg, audio, labels)
            state = decoder_init(w, cfg, audio)
            for pos, lab in enumerate(labels):
                (row,), state = decoder_step(w, state, [lab])
                np.testing.assert_allclose(row, full[pos], atol=1e-6)
        report(10, "empty-prefix collapse (1e-9) and step == full (1e-6), 100 seeds")


class TestCriterion11Perplexity:
    def test_uniform_and_hand_count(self):
        vocab = Vocabulary.from_tokens(
            ["<blank>", "<s>", "</s>"] + [f"t{i}" for i in range(9)]
        )
        uniform = uniform_table_lm(vocab)
        ppl, _ = perplexities(uniform, [[3, 4, 5], [6], [7, 8]], 0)
        assert abs(ppl - 10.0) < 1e-9

        # hand-count oracle for a bigram on a three-sentence corpus over {a, b}
        lm_vocab = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "a", "b"])
        a, b = 3, 4
        corpus = [[a, a, b], [b, a], [a]]
        model = train_ngram(lm_vocab, corpus, order=2, backoff_factor=0.4)

        def oracle_cond(prev, tok):
            # independent hand-rolled stupid-backoff with add-one unigram
            bigrams = {}
            uni = {}
            for seq in corpus:
                events = list(zip([lm_vocab.bos_id] + seq, seq + [lm_vocab.eos_id]))
                for p, w in events:
                    bigrams.setdefault(p, {})
                    bigrams[p][w] = bigrams[p].get(w, 0) + 1
                for w in seq:
                    uni[w] = uni.get(w, 0) + 1
            support = [a, b, lm_vocab.eos_id]
            n = sum(uni.values())

            def raw(p, w):
                if p in bigrams and w in bigrams[p]:
                    return bigrams[p][w] / sum(bigrams[p].values())
                return 0.4 * (uni.get(w, 0) + 1) / (n + len(support))

            z = sum(raw(prev, w) for w in support)
            return raw(prev, tok) / z

        total = 0.0
        count = 0
        for seq in corpus:
            prev = lm_vocab.bos_id
            for tok in seq + [lm_vocab.eos_id]:
                total += math.log(oracle_cond(prev, tok))
                prev = tok
                count += 1
        want = math.exp(-total / count)
        got, _ = perplexities(model, corpus, 0)
        assert abs(got - want) < 1e-9
        report(11, f"uniform PPL == 10, bigram PPL == hand oracle ({got:.6f})")


class TestCriterion12WerOracle:
    def test_exhaustive_three_symbol_alphabet(self):
        def oracle(ref, hyp):
            # independent tuple-DP minimizing (cost, insertions, deletions)
            m, n = len(ref), len(hyp)
            row = [(j, j, 0) for j in range(n + 1)]
            for i in range(1, m + 1):
                prev = row
                row = [(i, 0, i)]
                for j in range(1, n + 1):
                    c, ins, dels = prev[j - 1]
                    best = (c + (ref[i - 1] != hyp[j - 1]), ins, dels)
                    c, ins, dels = prev[j]
                    cand = (c + 1, ins, dels + 1)
                    if cand < best:
                        best = cand
                    c, ins, dels = row[j - 1]
                    cand = (c + 1, ins + 1, dels)
                    if cand < best:
                        best = cand
                    row.append(best)
            cost, ins, dels = row[n]
            return AlignmentCounts(cost - ins - dels, dels, ins, m)

        seqs = []
        for n in range(7):
            seqs.extend(itertools.product("abc", repeat=n))
        checked = 0
        for ref in seqs:
            for hyp in seqs:
                assert align(ref, hyp) == oracle(ref, hyp)
                checked += 1
        report(12, f"align == reference DP on all {checked} pairs")
