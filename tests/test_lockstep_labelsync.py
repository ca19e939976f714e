"""The joint lockstep against the per-utterance label-synchronous beam.

``reference_labelsync_beam`` is the search as it ran one utterance at a time,
a Python object per hypothesis and a keyed sort per step.  It drives the same
scorers, built for its one utterance, through the batched scorer protocol.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit.core import (
    NEG_INF, Posteriorgram, ScorerWeights, ValidationError, Vocabulary, logsumexp,
)
from fusionkit.ctc import CtcPrefixScorer, topk_prune
from fusionkit.decoder import Hyperparams, InterfaceConfig, seeded_weights
from fusionkit.lm import TableLM, train_ngram
from fusionkit.search import (
    ContextLMScorer,
    CtcPrefixLabelScorer,
    DecodeStats,
    DecoderLabelScorer,
    NBestEntry,
    NBestList,
    labelsync_beam,
)

WIDE = Vocabulary.from_tokens(["<blank>", "<s>", "</s>"] + list("defghij"))
PLAIN = [i for i in range(WIDE.size) if not WIDE.is_special(i)]


@dataclass
class _Hyp:
    labels: tuple[int, ...]
    components: dict[str, float]
    combined: float
    row: int | None  # the hypothesis's row in the scorers' states
    finished: bool = False


def _prune_key(h, weights):
    score = h.combined / len(h.labels) if weights.length_norm and h.labels else h.combined
    return (-score, len(h.labels), h.labels)


def reference_labelsync_beam(scorers, weights, beam, vocab, max_len, stats=None):
    """The per-utterance label-synchronous beam: every live hypothesis an
    object, its scorer states a row of each scorer's state, the pool sorted
    by (score, length, labels) with Python's sort."""
    active = [s for s in scorers if weights.weights.get(s.name, 0.0) != 0.0]
    ctc_scorers = [s for s in active if isinstance(s, CtcPrefixLabelScorer)]
    if ctc_scorers:
        candidates = ctc_scorers[0].candidates
    else:
        plain = [i for i in range(vocab.size) if not vocab.is_special(i)]
        candidates = np.array(plain + [vocab.eos_id])
    states = [s.start(1) for s in active]
    beam_hyps = [_Hyp((), {s.name: 0.0 for s in active}, 0.0, 0)]
    finished_pool = {}
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
        # the live hypotheses hold rows 0..B-1 of the states, in order
        assert [h.row for h in live] == list(range(len(live)))
        parents, artifacts = [], []
        lower = upper = 0.0
        possible = True
        for s, scale, state in zip(active, scales, states):
            lo_matrix, hi_matrix, art = s.step(state)
            parent = np.array([h.components[s.name] for h in live])
            lo = parent[:, None] + lo_matrix[:, candidates]
            hi = lo if hi_matrix is lo_matrix else parent[:, None] + hi_matrix[:, candidates]
            possible = possible & (hi != NEG_INF)
            if scale < 0:
                lo, hi = hi, lo
            lower = lower + scale * lo
            upper = upper + scale * hi
            parents.append(parent)
            artifacts.append(art)
        norm = len(live[0].labels) + 1 if weights.length_norm else 1
        flat = np.flatnonzero(possible)
        if flat.size > beam:
            lo_keys = (lower / norm).ravel()[flat]
            cut = np.partition(lo_keys, flat.size - beam)[flat.size - beam]
            flat = flat[(upper / norm).ravel()[flat] >= cut]
        rows, cols = np.divmod(flat, num_cands)
        labels = candidates[cols]
        comps = [
            parent[rows] + s.exact(art, rows, labels)
            for s, parent, art in zip(active, parents, artifacts)
        ]
        combined = 0.0
        for comp, scale in zip(comps, scales):
            combined = combined + scale * comp
        if stats:
            folds = int(np.count_nonzero(labels != vocab.eos_id))
            stats.ctc_exact_pairs += len(ctc_scorers) * folds
        pool = [(h, None) for h in beam_hyps if h.finished]
        for i, (row, c) in enumerate(zip(rows.tolist(), labels.tolist())):
            child = _Hyp(
                live[row].labels + (c,),
                {s.name: float(comp[i]) for s, comp in zip(active, comps)},
                float(combined[i]),
                None,
                finished=c == vocab.eos_id,
            )
            pool.append((child, row))
        if not pool:
            break
        pool.sort(key=lambda item: _prune_key(item[0], weights))
        survivors = pool[:beam]
        growing = [(h, row) for h, row in survivors if row is not None and not h.finished]
        if growing:
            rows = [row for _, row in growing]
            labels = [h.labels[-1] for h, _ in growing]
            states = [s.advance(art, rows, labels) for s, art in zip(active, artifacts)]
            for i, (h, _) in enumerate(growing):
                h.row = i
        beam_hyps = [h for h, _ in survivors]
        for h in beam_hyps:
            if h.finished:
                finished_pool.setdefault(h.labels, h)
        if beam_hyps[0].finished:
            break
    results = {h.labels: h for h in beam_hyps}
    for labels, h in finished_pool.items():
        results.setdefault(labels, h)
    return NBestList(
        NBestEntry(h.labels, dict(h.components), h.combined, h.finished)
        for h in results.values()
        if math.isfinite(h.combined)
    )


def nbest_bits(nbest):
    """Every entry with each float as its repr: equal means bit-equal."""
    return [
        (e.labels, repr(sorted(e.components.items())), repr(e.combined), e.finished)
        for e in nbest
    ]


def counters(stats):
    return (
        stats.steps, stats.peak_live_hypotheses, stats.peak_candidate_set,
        stats.scorer_evaluations, stats.ctc_exact_pairs,
    )


def random_pg(rng, frames, vocab=WIDE, keep=None):
    """Dirichlet frames over blank and the plain labels; BOS/EOS never."""
    cols = [i for i in range(vocab.size) if i not in (vocab.bos_id, vocab.eos_id)]
    lp = np.full((frames, vocab.size), NEG_INF)
    with np.errstate(divide="ignore"):
        lp[:, cols] = np.log(rng.dirichlet(np.full(len(cols), 0.5), size=frames))
    lp[:, cols] -= np.array([logsumexp(r) for r in lp[:, cols]])[:, None]
    pg = Posteriorgram(lp)
    if keep is not None:  # a pruned utterance has a support of its own
        pg = topk_prune(pg, keep, vocab.blank_id)
    return pg


def scorers_for(rng, kinds, seed):
    """A function of posteriorgrams that builds the scorers ``kinds`` names,
    in that order, the CTC scorer over the posteriorgrams."""
    corpus = [rng.choice(PLAIN, size=rng.integers(1, 5)).tolist() for _ in range(6)]
    hp = Hyperparams(layers=1, dim=16, heads=2, vocab_size=WIDE.size, ffn_dim=32)
    lm = train_ngram(WIDE, corpus, order=3)
    dist = np.full(WIDE.size, NEG_INF)
    dist[PLAIN + [WIDE.eos_id]] = -math.log(len(PLAIN) + 1)
    skewed = dist.copy()
    skewed[PLAIN[0]] = NEG_INF  # a label this context forbids
    skewed[PLAIN[1:] + [WIDE.eos_id]] = -math.log(len(PLAIN))
    entries = (((PLAIN[2],), skewed), ((WIDE.bos_id, PLAIN[3]), skewed))
    table = TableLM(WIDE, entries, dist)
    dec_w = seeded_weights(hp, seed)
    interface = InterfaceConfig("prefix", prompt=(PLAIN[0],))

    def build(pgs):
        every = {
            "ctc": CtcPrefixLabelScorer(pgs, WIDE, "ctc"),
            "lm": ContextLMScorer(lm, "lm"),
            "table": ContextLMScorer(table, "table"),
            "dec": DecoderLabelScorer(dec_w, interface, WIDE, name="dec"),
        }
        return [every[name] for name in kinds]

    return build


def check_against_reference(pgs, build, weights, beam, factor):
    stats = [DecodeStats() for _ in pgs]
    max_lens = [max(1, round(factor * pg.num_frames)) for pg in pgs]
    got = labelsync_beam(build(pgs), weights, beam, WIDE, max_lens, stats)
    for pg, max_len, nbest, got_stats in zip(pgs, max_lens, got, stats):
        want_stats = DecodeStats()
        want = reference_labelsync_beam(build([pg]), weights, beam, WIDE, max_len, want_stats)
        assert nbest_bits(nbest) == nbest_bits(want)
        assert counters(got_stats) == counters(want_stats)


class TestLockstepEqualsReference:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("beam", [1, 2, 5, 16])
    @pytest.mark.parametrize("length_norm", [False, True])
    def test_mixed_chunk(self, beam, length_norm):
        # a 1-frame utterance, pruned supports, negative weights, and a
        # label cap above the frame count, so prefixes reach S >= T_u
        rng = np.random.default_rng(beam * 2 + length_norm)
        frames = [1, 7, 3, 9, 2, 5]
        keeps = [None, 3, None, 4, None, 2]
        pgs = [random_pg(rng, t, keep=k) for t, k in zip(frames, keeps)]
        mixes = [
            {"ctc": 1.0, "lm": 0.5, "dec": 0.3},
            {"ctc": 0.8, "table": 0.4, "dec": -0.2},
            {"ctc": -0.3, "lm": 0.7, "dec": 0.9},
            {"lm": 0.6, "dec": 1.0},
            {"table": 1.0},  # mostly uniform: labels settle ties at the cut
        ]
        for case, mix in enumerate(mixes):
            kinds = ["ctc", "lm", "table", "dec"]
            weights = ScorerWeights(mix, length_norm=length_norm)
            check_against_reference(pgs, scorers_for(rng, kinds, case), weights, beam, 1.6)

    @pytest.mark.parametrize("length_norm", [False, True])
    def test_saturated_beam(self, length_norm):
        rng = np.random.default_rng(7 + length_norm)
        pgs = [random_pg(rng, t) for t in (3, 1, 2, 3)]
        weights = ScorerWeights({"ctc": 1.0, "lm": 0.5, "dec": 0.2}, length_norm=length_norm)
        check_against_reference(
            pgs, scorers_for(rng, ["ctc", "lm", "dec"], 1), weights, 10**4, 1.4
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        frames=st.lists(st.integers(1, 8), min_size=1, max_size=5),
        beam=st.sampled_from([1, 2, 5, 16]),
        w_ctc=st.sampled_from([1.0, 0.0, -0.4]),
        w_lm=st.sampled_from([0.0, 0.5, -0.3]),
        w_dec=st.sampled_from([0.0, 0.05, 0.8]),
        length_norm=st.booleans(),
        factor=st.sampled_from([0.5, 1.0, 1.7]),
        keep=st.none() | st.integers(2, 6),
    )
    def test_random_chunks(self, seed, frames, beam, w_ctc, w_lm, w_dec, length_norm, factor, keep):
        if w_ctc == 0.0 and w_lm == 0.0 and w_dec == 0.0:
            w_dec = 1.0
        if w_ctc == 0.0:
            frames = [min(t, 4) for t in frames]  # no CTC bound on the depth
        rng = np.random.default_rng(seed)
        pgs = [random_pg(rng, t, keep=keep if i % 2 else None) for i, t in enumerate(frames)]
        weights = ScorerWeights({"ctc": w_ctc, "lm": w_lm, "dec": w_dec}, length_norm=length_norm)
        build = scorers_for(rng, ["ctc", "lm", "dec"], seed % 5)
        check_against_reference(pgs, build, weights, beam, factor)

    def test_one_utterance_call_equals_a_lockstep_of_one(self):
        # an utterance decoded alone is its row of a lockstep with another
        rng = np.random.default_rng(3)
        pg, other = random_pg(rng, 6), random_pg(rng, 9)
        build = scorers_for(rng, ["ctc", "lm", "dec"], 2)
        weights = ScorerWeights({"ctc": 1.0, "lm": 0.4, "dec": 0.1})
        alone = [DecodeStats()]
        (want,) = labelsync_beam(build([pg]), weights, 4, WIDE, [6], alone)
        stats = [DecodeStats(), DecodeStats()]
        _, got = labelsync_beam(build([other, pg]), weights, 4, WIDE, [9, 6], stats)
        assert nbest_bits(got) == nbest_bits(want)
        assert counters(stats[1]) == counters(alone[0])
        assert labelsync_beam([], weights, 4, WIDE, []) == []

    def test_decoder_am_is_one_utterance_per_call(self):
        # a decoder scorer with audio holds one utterance's encoder output
        hp = Hyperparams(layers=1, dim=16, heads=2, vocab_size=WIDE.size, ffn_dim=32)
        rng = np.random.default_rng(4)
        audio = rng.standard_normal((3, hp.dim))
        dec = DecoderLabelScorer(seeded_weights(hp, 0), InterfaceConfig("prefix"), WIDE, audio, "dec")
        weights = ScorerWeights({"dec": 1.0})
        with pytest.raises(ValueError, match="audio"):
            labelsync_beam([dec], weights, 2, WIDE, [3, 2])
        (alone,) = labelsync_beam([dec], weights, 2, WIDE, [3])
        assert len(alone) > 0

    @pytest.mark.parametrize("extra", [-3, 3])
    def test_posteriorgram_width_must_match_vocabulary(self, extra):
        # a CTC scorer reads column i as label i: a posteriorgram narrower
        # or wider than the vocabulary is rejected, not decoded
        rng = np.random.default_rng(6)
        other = Vocabulary.from_tokens(["<blank>", "<s>", "</s>"] + list("defghijklm")[: 7 + extra])
        bad = random_pg(rng, 4, other)
        weights = ScorerWeights({"ctc": 1.0})
        with pytest.raises(ValidationError, match="labels"):
            CtcPrefixLabelScorer([random_pg(rng, 3), bad], WIDE)
        with pytest.raises(ValidationError, match="labels"):
            labelsync_beam([CtcPrefixLabelScorer(bad, WIDE)], weights, 2, WIDE, max_lens=[4])


class TestChunkPrefixScorer:
    def test_rows_equal_single_posteriorgram_scorers(self):
        # every row of a chunk scorer, bounds, folds and successors, is bit
        # for bit that of a scorer over its own posteriorgram alone
        rng = np.random.default_rng(11)
        pgs = [random_pg(rng, t, keep=k) for t, k in [(5, None), (1, None), (3, 3), (6, None)]]
        # a certain frame stored as -0.0, which a fold turns into 0.0
        certain = np.full((1, WIDE.size), NEG_INF)
        certain[0, PLAIN[0]] = -0.0
        pgs.append(Posteriorgram(certain))
        eos = WIDE.eos_id
        cands = PLAIN + [eos]
        chunk = CtcPrefixScorer(pgs, WIDE.blank_id, eos)
        alone = [CtcPrefixScorer(pg, WIDE.blank_id, eos) for pg in pgs]
        states = chunk.initial_state()
        rows_alone = [(sc, sc.initial_state()) for sc in alone]  # row b's own scorer
        for _ in range(7):
            lower, upper, step = chunk.step(states, cands)
            rows, cols = np.divmod(np.arange(lower.size), len(cands))
            exact = chunk.exact(step, rows, cols).reshape(lower.shape)
            steps_alone = []
            for b, (sc, state) in enumerate(rows_alone):
                lo1, hi1, step1 = sc.step(state, cands)
                assert lower[b].tobytes() == lo1[0].tobytes()
                assert upper[b].tobytes() == hi1[0].tobytes()
                exact1 = sc.exact(step1, [0] * len(cands), range(len(cands)))
                assert exact[b].tobytes() == exact1.tobytes()
                steps_alone.append(step1)
            # one plain survivor per row that has one: its best
            plain = exact[:, :-1]
            best = plain.argmax(axis=1)
            alive = np.flatnonzero(plain.max(axis=1) > NEG_INF)
            if not alive.size:
                break
            states = chunk.advance(step, alive, best[alive])
            rows_alone = [
                (rows_alone[b][0], rows_alone[b][0].advance(steps_alone[b], [0], [best[b]]))
                for b in alive.tolist()
            ]
            for b, (_, one) in enumerate(rows_alone):
                frames = one.log_nonblank.shape[0]
                assert np.array_equal(states.log_nonblank[:frames, b], one.log_nonblank[:, 0])
                assert np.array_equal(states.log_blank[:frames, b], one.log_blank[:, 0])
                assert np.all(states.log_nonblank[frames:, b] == NEG_INF)
                assert np.all(states.log_blank[frames:, b] == NEG_INF)
                assert states.log_prefix_prob[b] == one.log_prefix_prob[0]
        assert states.length >= 3
