import math
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import lm
from fusionkit.core import NEG_INF, WORD_MARKER, FormatError, ValidationError, Vocabulary, logsumexp
from fusionkit.lm import (
    LN10,
    MAX_ORDER,
    NGramLevel,
    NGramModel,
    TableLM,
    lm_logprob,
    load_ngram,
    load_table_lm,
    perplexities,
    retokenize,
    save_ngram,
    save_table_lm,
    support_ids,
    train_ngram,
)

from fixtures import (
    FKLM_VOCAB_AT,
    fklm_header_edited,
    fklm_level_offsets,
    fklm_vocab_edited,
    fuzzed,
    uniform_table_lm,
)

VOCAB = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "a", "b"])
A, B = 3, 4
EOS = VOCAB.eos_id


def aab_corpus():
    return [[A, A, B]]


def _fklm_bytes(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.fklm"
        save_ngram(model, path)
        return path.read_bytes()


FUZZ_BASE = _fklm_bytes(train_ngram(VOCAB, [[A, A, B], [B, A], [A]], order=3))


def levels_from_tables(tables):
    """NGramModel levels from ``tables[k]``, which maps a length-k context
    to {token: log10 prob}: contexts and tokens sorted."""
    levels = []
    for k, table in enumerate(tables):
        ctxs = sorted(table)
        entries = [(tok, table[ctx][tok]) for ctx in ctxs for tok in sorted(table[ctx])]
        levels.append(NGramLevel(
            np.array(ctxs, np.int32).reshape(len(ctxs), k),
            np.array([len(table[ctx]) for ctx in ctxs], np.int32),
            np.array([tok for tok, _ in entries], np.int32),
            np.array([val for _, val in entries], float),
        ))
    return tuple(levels)


def tables_of(model):
    """``model``'s levels as ``tables[k]``: length-k context -> {token: log10 prob}."""
    tables = []
    for contexts, counts, tokens, values in model.levels:
        ends = np.cumsum(counts).tolist()
        spans = zip([0] + ends[:-1], ends)
        tables.append({tuple(ctx): dict(zip(tokens[a:b].tolist(), values[a:b].tolist()))
                       for ctx, (a, b) in zip(contexts.tolist(), spans)})
    return tables


def assert_same_levels(got, want):
    assert len(got.levels) == len(want.levels)
    for a, b in zip(got.levels, want.levels):
        for x, y in zip(a, b):
            assert x.shape == y.shape and x.tobytes() == y.astype(x.dtype).tobytes()


class TestTrainUnigram:
    def test_add_one_hand_counts(self):
        # support = {a, b, eos}; 3 corpus tokens
        model = train_ngram(VOCAB, aab_corpus(), order=1)
        cond = np.exp(model.conditionals([]))
        assert cond[A] == pytest.approx((2 + 1) / (3 + 3), abs=1e-12)
        assert cond[B] == pytest.approx((1 + 1) / (3 + 3), abs=1e-12)
        assert cond[EOS] == pytest.approx((0 + 1) / (3 + 3), abs=1e-12)

    def test_uniform_single_counts(self):
        vocab = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "a", "b", "c"])
        model = train_ngram(vocab, [[3], [4], [5]], order=1)
        cond = np.exp(model.conditionals([]))
        # 3 tokens seen once; support size 4 (three tokens + EOS)
        for tok in (3, 4, 5):
            assert cond[tok] == pytest.approx(2 / (3 + 4), abs=1e-12)

    def test_conditionals_normalized(self):
        rng = np.random.default_rng(0)
        corpus = [rng.choice([A, B], size=rng.integers(1, 6)).tolist() for _ in range(8)]
        for order in (1, 2, 3):
            model = train_ngram(VOCAB, corpus, order=order)
            for ctx in ([], [A], [B, A], [A, A, B]):
                assert logsumexp(model.conditionals(ctx)) == pytest.approx(0.0, abs=1e-9)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            train_ngram(VOCAB, [], order=2)

    def test_special_tokens_rejected_in_corpus(self):
        with pytest.raises(ValidationError):
            train_ngram(VOCAB, [[A, EOS]], order=1)


def reference_train_ngram(vocab, corpus, order, backoff_factor=0.4):
    """Slow reference: counts kept level by level, event by event."""
    corpus = [list(seq) for seq in corpus]
    support = support_ids(vocab)
    uni_counts = {}
    ctx_counts = [{} for _ in range(order + 1)]
    n_tokens = 0
    for seq in corpus:
        for tok in seq:
            uni_counts[tok] = uni_counts.get(tok, 0) + 1
            n_tokens += 1
        for k in range(2, order + 1):
            padded = [vocab.bos_id] * (k - 1) + seq + [vocab.eos_id]
            for pos in range(k - 1, len(padded)):
                bucket = ctx_counts[k - 1].setdefault(tuple(padded[pos - k + 1 : pos]), {})
                bucket[padded[pos]] = bucket.get(padded[pos], 0) + 1
    tables = [{} for _ in range(order)]
    denom = n_tokens + len(support)
    tables[0][()] = {tok: math.log10((uni_counts.get(tok, 0) + 1) / denom) for tok in support}
    for k in range(2, order + 1):
        for ctx, bucket in ctx_counts[k - 1].items():
            total = sum(bucket.values())
            tables[k - 1][ctx] = {tok: math.log10(cnt / total) for tok, cnt in bucket.items()}
    return NGramModel(vocab, order, backoff_factor, levels_from_tables(tables))


class TestTrainEqualsReference:
    VOCAB20 = Vocabulary.from_tokens(["<blank>", "<s>", "</s>"] + [f"t{i}" for i in range(17)])

    @settings(max_examples=150, deadline=None)
    @given(
        order=st.integers(1, 5),
        corpus=st.lists(st.lists(st.integers(3, 19), max_size=10), min_size=1, max_size=12),
        backoff=st.sampled_from([0.4, 0.3, 1.0, 2.5]),
    )
    def test_save_bytes_equal(self, order, corpus, backoff):
        got = train_ngram(self.VOCAB20, corpus, order=order, backoff_factor=backoff)
        want = reference_train_ngram(self.VOCAB20, corpus, order, backoff)
        assert (got.vocab, got.order, got.backoff_factor) == (want.vocab, want.order, want.backoff_factor)
        assert_same_levels(got, want)
        assert _fklm_bytes(got) == _fklm_bytes(want)

    @pytest.mark.parametrize("order", [0, -1, MAX_ORDER + 1, 400])
    def test_order_rejected(self, order):
        with pytest.raises(ValidationError, match=f"order must be >= 1 and at most {MAX_ORDER}"):
            train_ngram(VOCAB, aab_corpus(), order=order)

    def test_max_order_trains(self):
        assert train_ngram(VOCAB, aab_corpus(), order=MAX_ORDER).order == MAX_ORDER

    @pytest.mark.parametrize("backoff", [0.0, -1.0, math.inf, math.nan])
    def test_backoff_rejected(self, backoff):
        with pytest.raises(ValidationError, match="backoff factor must be finite and > 0"):
            train_ngram(VOCAB, aab_corpus(), order=2, backoff_factor=backoff)


def bigram_aab_oracle():
    """Hand-computed stupid-backoff bigram from corpus 'a a b' (factor 0.4).

    Unigram add-one floor: a 1/2, b 1/3, eos 1/6.
    """
    p_a_bos = 1.0 / (1.0 + 0.4 / 3 + 0.4 / 6)
    z_a = 0.5 + 0.5 + 0.4 / 6
    p_a_a = 0.5 / z_a
    p_b_a = 0.5 / z_a
    z_b = 1.0 + 0.4 / 2 + 0.4 / 3
    p_eos_b = 1.0 / z_b
    return p_a_bos, p_a_a, p_b_a, p_eos_b


class TestLogprobAndPerplexity:
    def test_uniform_table_lm_logprob(self):
        vocab = Vocabulary.from_tokens(
            ["<blank>", "<s>", "</s>"] + [f"t{i}" for i in range(9)]
        )
        model = uniform_table_lm(vocab)
        assert len(support_ids(vocab)) == 10
        seq = [3, 4, 5]  # 3 tokens + EOS = 4 scored events
        assert lm_logprob(model, seq) == pytest.approx(4 * math.log(1 / 10), abs=1e-12)

    def test_empty_sequence_scores_eos_given_bos(self):
        model = train_ngram(VOCAB, aab_corpus(), order=2)
        assert lm_logprob(model, []) == pytest.approx(
            model.conditionals([VOCAB.bos_id])[EOS], abs=1e-12
        )

    def test_bigram_hand_oracle(self):
        model = train_ngram(VOCAB, aab_corpus(), order=2)
        p_a_bos, _, p_b_a, p_eos_b = bigram_aab_oracle()
        got = lm_logprob(model, [A, B])
        assert got == pytest.approx(math.log(p_a_bos * p_b_a * p_eos_b), abs=1e-12)

    def test_uniform_ppl_equals_outcomes(self):
        vocab = Vocabulary.from_tokens(
            ["<blank>", "<s>", "</s>"] + [f"t{i}" for i in range(9)]
        )
        model = uniform_table_lm(vocab)
        corpus = [[3, 4], [5], [6, 7, 8]]
        assert perplexities(model, corpus, 0) == (pytest.approx(10.0, abs=1e-12), None)

    def test_deterministic_model_ppl_one(self):
        # a table LM that puts probability ~1 on the observed continuation
        dist_a = np.full(VOCAB.size, NEG_INF)
        dist_a[A] = 0.0
        dist_eos = np.full(VOCAB.size, NEG_INF)
        dist_eos[EOS] = 0.0
        model = TableLM(VOCAB, (((A,), dist_eos),), dist_a)
        assert perplexities(model, [[A]], 1)[0] == pytest.approx(1.0, abs=1e-12)

    def test_bigram_ppl_hand_oracle(self):
        model = train_ngram(VOCAB, aab_corpus(), order=2)
        p_a_bos, p_a_a, p_b_a, p_eos_b = bigram_aab_oracle()
        expected = math.exp(-math.log(p_a_bos * p_a_a * p_b_a * p_eos_b) / 4)
        assert perplexities(model, aab_corpus(), 2)[0] == pytest.approx(expected, abs=1e-9)

    def test_word_perplexity(self):
        model = train_ngram(VOCAB, aab_corpus(), order=2)
        total = lm_logprob(model, [A, A, B])
        assert perplexities(model, aab_corpus(), num_words=2)[1] == pytest.approx(
            math.exp(-total / 2), abs=1e-12
        )

    def test_perplexity_of_no_text_fails(self):
        model = train_ngram(VOCAB, aab_corpus(), order=2)
        with pytest.raises(ValidationError, match="empty corpus"):
            perplexities(model, [], 0)
        with pytest.raises(ValueError, match="word count"):
            perplexities(model, aab_corpus(), -1)

    def test_unseen_token_never_neg_inf(self):
        vocab = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "a", "b", "c"])
        model = train_ngram(vocab, [[3, 3]], order=2)
        assert math.isfinite(lm_logprob(model, [5, 4, 3]))


def reference_lm_logprob(model, seq):
    """Slow reference: one conditional row per token, summed in order."""
    total = 0.0
    history = [model.vocab.bos_id]
    for tok in list(seq) + [model.vocab.eos_id]:
        total += float(model.conditionals(history)[tok])
        history.append(tok)
    return total


class TestLogprobEqualsPerTokenLoop:
    VOCAB6 = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "a", "b", "c", "d"])

    @settings(max_examples=100, deadline=None)
    @given(
        order=st.integers(1, 4),
        corpus=st.lists(st.lists(st.integers(3, 6), max_size=6), min_size=1, max_size=6),
        seqs=st.lists(st.lists(st.integers(3, 6), max_size=12), min_size=1, max_size=4),
        chunk=st.sampled_from([1, 2, 5, 1024]),
        table=st.booleans(),
    )
    def test_bit_identical(self, order, corpus, seqs, chunk, table):
        model = train_ngram(self.VOCAB6, corpus, order=order, backoff_factor=0.3)
        if table:
            # a table LM built from the n-gram's rows: keys of every length up to order - 1
            keys = {tuple(seq[:i])[-k:] for seq in corpus for i in range(len(seq) + 1)
                    for k in range(1, order)}
            entries = tuple((key, model.conditionals(key)) for key in sorted(keys) if key)
            model = TableLM(self.VOCAB6, entries, model.conditionals(()))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lm, "LOGPROB_ROWS", chunk)
            for seq in seqs:
                assert lm_logprob(model, seq) == reference_lm_logprob(model, seq)


def raw_log10(tables, backoff_factor, context, token):
    """Slow reference: one token's stupid-backoff walk, longest context first."""
    discount = 0.0
    for k in range(len(context), 0, -1):
        dist = tables[k].get(context[-k:]) if k < len(tables) else None
        if dist is not None and token in dist:
            return discount + dist[token]
        discount += math.log10(backoff_factor)
    return discount + tables[0][()][token]


def reference_conditionals(model, context):
    ctx = tuple(context)[max(0, len(context) - (model.order - 1)) :]
    ids = support_ids(model.vocab)
    tables = tables_of(model)
    raw = np.array([raw_log10(tables, model.backoff_factor, ctx, i) * LN10 for i in ids])
    out = np.full(model.vocab.size, NEG_INF)
    out[ids] = raw - logsumexp(raw)
    return out


class TestDenseConditionals:
    """The dense backoff row equals the per-token walk bit for bit."""

    VOCAB5 = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "a", "b", "c", "d", "e"])

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_equals_per_token_reference(self, order):
        rng = np.random.default_rng(order)
        corpus = [rng.choice([3, 4, 5, 6], size=rng.integers(1, 7)).tolist() for _ in range(12)]
        model = train_ngram(self.VOCAB5, corpus, order=order, backoff_factor=0.3)
        bos = self.VOCAB5.bos_id
        seen = [tuple(seq[:i]) for seq in corpus for i in range(len(seq) + 1)]
        unseen = [(7,), (7, 7), (3, 7), (7, 3), (6, 6, 6, 6)]
        padded = [(bos,), (bos, bos), (bos, 3), (bos, bos, 4), (bos, 7)]
        for ctx in seen + unseen + padded:
            got = model.conditionals(ctx)
            assert np.array_equal(got, reference_conditionals(model, ctx)), ctx

    # wide enough that a row's log-sum-exp sums in numpy's unrolled blocks,
    # which round by memory layout
    VOCAB20 = Vocabulary.from_tokens(["<blank>", "<s>", "</s>"] + [f"t{i}" for i in range(17)])

    @settings(max_examples=150, deadline=None)
    @given(
        order=st.integers(1, 4),
        corpus=st.lists(st.lists(st.integers(3, 18), min_size=1, max_size=8), min_size=1, max_size=12),
        # BOS padding, the unseen token 19, lengths 0-6 (beyond every order)
        contexts=st.lists(
            st.lists(st.sampled_from([1, 3, 4, 5, 6, 19]) | st.integers(3, 19), max_size=6), max_size=12
        ),
        warm=st.integers(0, 12),
    )
    def test_rows_equal_stacked_reference(self, order, corpus, contexts, warm):
        model = train_ngram(self.VOCAB20, corpus, order=order, backoff_factor=0.3)
        batch = contexts + contexts[:2]  # duplicates, within the batch and of cached rows
        model.rows(contexts[:warm])
        got = model.rows(batch)
        want = np.array([reference_conditionals(model, c) for c in batch]).reshape(-1, self.VOCAB20.size)
        assert got.shape == want.shape == (len(batch), self.VOCAB20.size)
        assert got.tobytes() == want.tobytes()

    def test_row_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(lm, "ROW_CACHE_ROWS", 4)
        corpus = [[3, 4, 5], [4, 4, 6, 3], [5, 3]]
        model = train_ngram(self.VOCAB5, corpus, order=3, backoff_factor=0.3)
        contexts = [(a, b) for a in (1, 3, 4, 5) for b in (3, 4, 5, 6)]
        batches = [contexts[:3], contexts[3:6], contexts[6:7], contexts[7:], contexts[::-1]]
        for batch in batches:
            got = model.rows(batch)
            assert len(model._row_of) <= 4 and len(model._store) <= 4
            want = np.array([reference_conditionals(model, c) for c in batch])
            assert got.tobytes() == want.tobytes()


# blank and BOS split the support into two runs
VOCAB_SPLIT = Vocabulary.from_tokens(["a", "b", "<blank>", "c", "</s>", "d", "<s>", "e"])


@st.composite
def direct_models(draw):
    """An n-gram model straight from level tables: levels that need not nest
    (a context whose suffix is held by no lower level), entries on blank or
    BOS, which no row reads, empty distributions, and an order that may lie
    above the deepest level."""
    vocab = draw(st.sampled_from([TestDenseConditionals.VOCAB5, VOCAB_SPLIT]))
    support = support_ids(vocab)
    value = st.floats(-6.0, 0.5)
    unigram = {(): {tok: draw(value) for tok in support}}
    deepest = draw(st.integers(0, 3))
    tokens = st.integers(0, vocab.size - 1)
    levels = [
        draw(st.dictionaries(
            st.lists(tokens, min_size=k, max_size=k).map(tuple),
            st.dictionaries(tokens, value, max_size=4),
            max_size=6,
        ))
        for k in range(1, deepest + 1)
    ]
    order = draw(st.integers(1, deepest + 3))
    return NGramModel(vocab, order, draw(st.sampled_from([0.3, 1.0, 2.5])), levels_from_tables([unigram] + levels))


class TestRowStore:
    """Every ``rows`` call, in any sequence and whatever the store held
    before, equals the per-token reference bit for bit, and the store never
    holds more than ``ROW_CACHE_ROWS`` contexts or rows."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(
        model=direct_models(),
        pool=st.lists(st.lists(st.integers(0, 7), max_size=8), min_size=1, max_size=10),
        calls=st.lists(st.lists(st.tuples(st.integers(0, 9), st.booleans()), max_size=12), max_size=8),
        cap=st.integers(1, 8),
    )
    def test_call_sequences_equal_reference(self, model, pool, calls, cap):
        pool = [[t % model.vocab.size for t in ctx] for ctx in pool]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lm, "ROW_CACHE_ROWS", cap)
            for call in calls:
                # repeated contexts, as lists and as tuples
                batch = [pool[i % len(pool)] for i, _ in call]
                batch = [tuple(ctx) if as_tuple else ctx for ctx, (_, as_tuple) in zip(batch, call)]
                got = model.rows(batch)
                want = np.array([reference_conditionals(model, c) for c in batch]).reshape(-1, model.vocab.size)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert len(model._row_of) <= cap and len(model._row_of_state) <= cap
                assert len(model._store) <= cap


def scan_conditionals(model, context):
    """The table LM's lookup as a scan over every entry: the longest key
    that is a suffix of the history, the first of equal ones, else the
    default."""
    ctx = tuple(context)
    best, best_len = None, -1
    for key, dist in model.entries:
        if len(key) > best_len and len(key) <= len(ctx) and ctx[len(ctx) - len(key) :] == key:
            best, best_len = dist, len(key)
    return best if best is not None else model.default


class TestTableLM:
    def test_suffix_matching_prefers_longest(self):
        d_default = uniform_table_lm(VOCAB).default
        d1 = np.full(VOCAB.size, NEG_INF)
        d1[A] = 0.0
        d2 = np.full(VOCAB.size, NEG_INF)
        d2[B] = 0.0
        model = TableLM(VOCAB, (((B,), d1), ((A, B), d2)), d_default)
        np.testing.assert_array_equal(model.conditionals([A, B]), d2)
        np.testing.assert_array_equal(model.conditionals([B, B]), d1)
        np.testing.assert_array_equal(model.conditionals([A]), d_default)

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(st.lists(st.integers(0, 4), max_size=4).map(tuple), max_size=8),
        contexts=st.lists(st.lists(st.integers(0, 4), max_size=5), min_size=1, max_size=6),
    )
    def test_index_equals_scan(self, keys, contexts):
        # duplicate keys (the first wins), the empty key and keys longer
        # than the history, against the scan over every entry
        dists = []
        for i in range(len(keys)):
            d = np.full(VOCAB.size, NEG_INF)
            d[[A, B, EOS][i % 3]] = 0.0
            dists.append(d)
        model = TableLM(VOCAB, tuple(zip(keys, dists)), uniform_table_lm(VOCAB).default)
        for ctx in contexts:
            assert model.conditionals(ctx) is scan_conditionals(model, ctx)
        want = np.array([scan_conditionals(model, ctx) for ctx in contexts])
        assert model.rows(contexts).tobytes() == want.tobytes()
        assert model.rows([]).shape == (0, VOCAB.size)

    def test_unnormalized_rejected(self):
        bad = np.full(VOCAB.size, math.log(0.3))
        with pytest.raises(ValidationError):
            TableLM(VOCAB, (), bad)

    def test_roundtrip_byte_identical(self, tmp_path):
        d1 = np.full(VOCAB.size, NEG_INF)
        d1[A] = math.log(0.25)
        d1[B] = math.log(0.75)
        model = TableLM(VOCAB, (((A,), d1),), uniform_table_lm(VOCAB).default)
        path = tmp_path / "table.json"
        save_table_lm(model, path)
        first = path.read_bytes()
        model2 = load_table_lm(path)
        save_table_lm(model2, path)
        assert path.read_bytes() == first
        np.testing.assert_array_equal(model.default, model2.default)


class TestNGramSerialization:
    def test_roundtrip_byte_identical(self, tmp_path):
        model = train_ngram(VOCAB, aab_corpus(), order=3)
        path = tmp_path / "model.fklm"
        save_ngram(model, path)
        first = path.read_bytes()
        model2 = load_ngram(path)
        save_ngram(model2, path)
        assert path.read_bytes() == first
        for ctx in ([], [A], [A, B], [B, B]):
            np.testing.assert_allclose(
                model.conditionals(ctx), model2.conditionals(ctx), atol=0
            )

    def test_scores_preserved(self, tmp_path):
        model = train_ngram(VOCAB, aab_corpus(), order=2)
        path = tmp_path / "model.fklm"
        save_ngram(model, path)
        model2 = load_ngram(path)
        assert lm_logprob(model2, [A, B]) == lm_logprob(model, [A, B])

    def test_corrupt_entry_rejected(self, tmp_path):
        path = tmp_path / "model.fklm"
        save_ngram(train_ngram(VOCAB, aab_corpus(), order=2), path)
        data = bytearray(path.read_bytes())
        level = fklm_level_offsets(data)[1]
        struct.pack_into("<i", data, level["tokens"] + 4 * (level["m"] - 1), VOCAB.size)
        path.write_bytes(data)
        with pytest.raises(FormatError, match="level 1 holds a token id out of range") as info:
            load_ngram(path)
        assert str(path) in str(info.value)

    def test_order_above_its_entries(self, tmp_path):
        # levels with no entries match nothing and are not built, however
        # many the header names
        path = tmp_path / "model.fklm"
        save_ngram(train_ngram(VOCAB, aab_corpus(), order=2), path)
        saved = path.read_bytes()
        for order in (9, 100_000):
            path.write_bytes(fklm_header_edited(saved, "order", order))
            model = load_ngram(path)
            assert model.order == order
            assert len(model.levels) == 2
            contexts = [(), (A,), (VOCAB.bos_id, A), (B, A, A, B, A, A, B, A, B, A)]
            want = np.array([reference_conditionals(model, c) for c in contexts])
            assert model.rows(contexts).tobytes() == want.tobytes()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "model.fklm"
        save_ngram(train_ngram(VOCAB, aab_corpus(), order=2), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, fklm_level_offsets(data)[1]["values"], float(value))
        path.write_bytes(data)
        with pytest.raises(FormatError, match="level 1 holds a log10 probability that is not finite"):
            load_ngram(path)

    @settings(max_examples=300, deadline=None)
    @given(
        edit=st.sampled_from(["truncate", "flip", "insert"]),
        where=st.floats(0, 1),
        flip=st.integers(1, 255),
        insert=st.sampled_from([b"\0", b"\t", b"\n", b"\xff" * 4, struct.pack("<d", math.nan),
                                struct.pack("<ii", -1, 1), b"FKLM"]),
    )
    def test_fuzzed_file_raises_only_format_errors(self, edit, where, flip, insert):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzzed.fklm"
            path.write_bytes(fuzzed(FUZZ_BASE, edit, where, flip, insert))
            try:
                model = load_ngram(path)
            except (FormatError, ValidationError):
                return
            model.rows([(), (model.vocab.bos_id,), (3, 4)])

    # byte edits of the bigram model of aab_corpus(), whose level 1 holds
    # the contexts (<s>,), (a,), (b,) with tokens [a], [a, b], [</s>]
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d, lv: b"FKLX" + d[4:], "bad magic"),
            (lambda d, lv: d[:20], "truncated header"),
            (lambda d, lv: fklm_header_edited(d, "version", 3), "unsupported FKLM version 3"),
            (lambda d, lv: fklm_header_edited(d, "order", 0), "order must be >= 1"),
            (lambda d, lv: fklm_header_edited(d, "backoff", 0.0), "backoff positive"),
            (lambda d, lv: fklm_header_edited(d, "backoff", math.inf), "backoff positive"),
            (lambda d, lv: fklm_header_edited(d, "levels", 3), "3 levels for an order-2 model"),
            (lambda d, lv: fklm_header_edited(d, "levels", 0), "0 levels for an order-2 model"),
            (lambda d, lv: fklm_header_edited(d, "vocab_bytes", len(d)), "truncated vocabulary"),
            (lambda d, lv: _put(d, FKLM_VOCAB_AT, "<B", 0xFF), "vocabulary is not UTF-8"),
            (lambda d, lv: fklm_vocab_edited(d, lambda t: t.replace("\t", " ", 1)), "line 1: missing tab"),
            (lambda d, lv: d[: lv[1]["record"] + 4], "level 1 truncated"),
            (lambda d, lv: d[: lv[1]["values"]], "level 1 holds 3 contexts and 4 entries, more than"),
            (lambda d, lv: d + b"\0", "1 trailing bytes"),
            (lambda d, lv: _put(d, lv[1]["contexts"], "<i", -1), "level 1 holds a token id out of range"),
            (lambda d, lv: _put(d, lv[1]["counts"], "<i", 2), "level 1 entry counts do not sum to its 4"),
            (lambda d, lv: _put(d, lv[1]["counts"], "<ii", 0, 3), "level 1 tokens are not strictly"),
            (lambda d, lv: _put(d, lv[1]["contexts"], "<i", B), "level 1 contexts are not strictly"),
            (lambda d, lv: _put(d, lv[1]["tokens"] + 8, "<i", A), "level 1 tokens are not strictly"),
            (lambda d, lv: _put(d, lv[1]["values"], "<d", 0.25), "not in \\[-324, 0\\]"),
            (lambda d, lv: _put(d, lv[1]["values"], "<d", -1e300), "not in \\[-324, 0\\]"),
        ],
        ids=["magic", "header", "version", "order", "backoff-zero", "backoff-inf", "levels-above-order",
             "no-levels", "vocabulary-length", "vocabulary-not-utf8", "vocabulary-line-without-tab",
             "level-record", "level-arrays",
             "trailing-bytes", "context-id", "count-sum", "count-split", "contexts-order", "tokens-order",
             "positive-log10", "huge-log10"],
    )
    def test_malformed_fklm_rejected(self, tmp_path, edit, message):
        path = tmp_path / "model.fklm"
        save_ngram(train_ngram(VOCAB, aab_corpus(), order=2), path)
        data = path.read_bytes()
        path.write_bytes(edit(data, fklm_level_offsets(data)))
        with pytest.raises(FormatError, match=message) as info:
            load_ngram(path)
        assert str(path) in str(info.value)

    def test_counts_checked_before_arrays_are_read(self, tmp_path):
        # a count that claims 2^32 - 1 contexts allocates nothing
        path = tmp_path / "model.fklm"
        save_ngram(train_ngram(VOCAB, aab_corpus(), order=2), path)
        data = path.read_bytes()
        path.write_bytes(_put(data, fklm_level_offsets(data)[1]["record"], "<II", 2**32 - 1, 2**32 - 1))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="more than its"):
                load_ngram(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    # the text that FKLM v1 held for the bigram of aab_corpus()
    V1_TEXT = (
        "FKLM v1\norder\t2\nbackoff\t0.4\n[vocab]\n<blank>\tblank\n<s>\tbos\n</s>\teos\na\t\nb\t\n"
        "[ngrams]\n1\t\t</s>\t-0.7781512503836436\n1\t\ta\t-0.3010299956639812\n"
        "1\t\tb\t-0.4771212547196625\n2\t<s>\ta\t0.0\n2\ta\ta\t-0.3010299956639812\n"
        "2\ta\tb\t-0.3010299956639812\n2\tb\t</s>\t0.0\n"
    )

    def test_text_file_asks_for_lm_train(self, tmp_path):
        path = tmp_path / "old.fklm"
        path.write_text(self.V1_TEXT)
        with pytest.raises(FormatError, match=r"FKLM v1 \(text\) file, no longer read; re-run lm-train") as info:
            load_ngram(path)
        assert str(path) in str(info.value)

    # the header and entry edits that the FKLM v1 text reader rejected, each
    # with its message: no reader parses v1 text any more, so each such file
    # fails with the one v1 message instead (the FKLM v2 counterparts are
    # the cases of test_malformed_fklm_rejected)
    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("order\t2\n", "order 2\n", "header line 'order 2'"),
            ("order\t2\n", "order\ttwo\n", "bad order value"),
            ("order\t2\n", "order\t0\n", "order must be >= 1"),
            ("order\t2\n", "", "missing order or backoff header"),
            ("backoff\t0.4\n", "backoff\t0.0\n", "backoff positive"),
            ("\n1\t\ta\t", "\n0\t\ta\t", "bad n-gram entry"),
            ("\n1\t\ta\t", "\n2\t\ta\t", "bad n-gram entry"),
            ("\n1\t\ta\t", "\n1\tb\ta\t", "bad n-gram entry"),
        ],
    )
    def test_malformed_header_or_entry_rejected(self, tmp_path, old, new, message):
        path = tmp_path / "model.fklm"
        assert old in self.V1_TEXT
        path.write_text(self.V1_TEXT.replace(old, new, 1))
        with pytest.raises(FormatError, match="re-run lm-train") as info:
            load_ngram(path)
        assert str(path) in str(info.value) and message not in str(info.value)

    def test_unigram_gap_rejected(self, tmp_path):
        model = train_ngram(VOCAB, aab_corpus(), order=2)
        contexts, _, tokens, values = model.levels[0]
        gap = NGramLevel(contexts, np.array([2], np.int32), tokens[tokens != B], values[tokens != B])
        path = tmp_path / "model.fklm"
        save_ngram(NGramModel(VOCAB, 2, 0.4, (gap,) + model.levels[1:]), path)
        with pytest.raises(FormatError, match="no unigram entry"):
            load_ngram(path)

    def test_save_load_save_identical_with_any_tokens(self, tmp_path):
        # contexts are stored as ids, so tokens may hold spaces
        vocab = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "a b", " ", "\u00e4"])
        model = train_ngram(vocab, [[3, 4, 5], [5, 3]], order=3)
        path = tmp_path / "model.fklm"
        save_ngram(model, path)
        first = path.read_bytes()
        loaded = load_ngram(path)
        save_ngram(loaded, path)
        assert path.read_bytes() == first
        assert loaded.vocab == vocab
        assert_same_levels(loaded, model)

    @pytest.mark.parametrize("doc", ["{\"format\": \"fusionkit", "[1, 2]", "\xff"])
    def test_table_lm_not_json_rejected(self, tmp_path, doc):
        path = tmp_path / "t.json"
        path.write_bytes(doc.encode("latin-1"))
        with pytest.raises(FormatError, match="t.json"):
            load_table_lm(path)

    @pytest.mark.parametrize("key", ["vocab", "default", "entries"])
    def test_table_lm_missing_key_rejected(self, tmp_path, key):
        import json

        path = tmp_path / "t.json"
        save_table_lm(uniform_table_lm(VOCAB), path)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"missing keys.*{key}"):
            load_table_lm(path)

    @pytest.mark.parametrize(
        "entry",
        [{"dist": [0.0] * VOCAB.size}, ["context", "dist"], {"context": [], "dist": ["x"] * VOCAB.size}],
    )
    def test_table_lm_malformed_entry_rejected(self, tmp_path, entry):
        import json

        path = tmp_path / "t.json"
        save_table_lm(uniform_table_lm(VOCAB), path)
        doc = json.loads(path.read_text())
        doc["entries"] = [entry]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="malformed table LM") as info:
            load_table_lm(path)
        assert str(path) in str(info.value)


def _put(data, offset, fmt, *values):
    """``data`` with ``values`` packed at ``offset``."""
    out = bytearray(data)
    struct.pack_into(fmt, out, offset, *values)
    return bytes(out)


class TestVocabularyFlags:
    @pytest.mark.parametrize("flag", ["blank", "bos", "eos"])
    def test_ngram_missing_flag_is_format_error(self, tmp_path, flag):
        path = tmp_path / "m.fklm"
        save_ngram(train_ngram(VOCAB, aab_corpus(), order=2), path)
        path.write_bytes(fklm_vocab_edited(path.read_bytes(), lambda t: t.replace(f"\t{flag}\n", "\t\n", 1)))
        with pytest.raises(FormatError, match=f"missing: {flag}") as info:
            load_ngram(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("flag", ["blank", "bos", "eos"])
    def test_table_lm_missing_flag_is_format_error(self, tmp_path, flag):
        import json

        path = tmp_path / "t.json"
        save_table_lm(uniform_table_lm(VOCAB), path)
        doc = json.loads(path.read_text())
        for entry in doc["vocab"]:
            entry[1] = [f for f in entry[1] if f != flag]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"missing: {flag}"):
            load_table_lm(path)

    def test_unknown_flag_is_format_error(self, tmp_path):
        path = tmp_path / "m.fklm"
        save_ngram(train_ngram(VOCAB, aab_corpus(), order=2), path)
        path.write_bytes(fklm_vocab_edited(path.read_bytes(), lambda t: t.replace("\tblank\n", "\tblank,bogus\n", 1)))
        with pytest.raises(FormatError, match="bogus"):
            load_ngram(path)


class TestRetokenize:
    def test_longest_match(self):
        vocab = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "ab", "a", "b"])
        assert retokenize(vocab, "ab") == [3]

    def test_fallback_segmentation(self):
        vocab = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "ab", "a", "b"])
        assert retokenize(vocab, "ba") == [5, 4]

    def test_concatenation_faithful(self):
        vocab = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "ab", "a", "b"])
        for text in ("ab", "ba", "aabb", "abab"):
            ids = retokenize(vocab, text)
            assert "".join(vocab.tokens[i] for i in ids) == text

    def test_marker_vocab_word_initial(self):
        vocab = Vocabulary.from_tokens(
            ["<blank>", "<s>", "</s>", "▁ab", "▁a", "a", "b"]
        )
        ids = retokenize(vocab, "ab ab")
        assert ids == [3, 3]
        assert vocab.text(ids) == "ab ab"
        # non-initial position picks the plain token
        assert retokenize(vocab, "aa") == [4, 5]

    def test_unsegmentable_without_unk(self):
        vocab = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "a"])
        with pytest.raises(ValueError):
            retokenize(vocab, "ax")

    def test_unk_mapping(self):
        vocab = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "a", "<unk>"])
        ids = retokenize(vocab, "axa")
        assert ids == [3, 4, 3]

    def test_deterministic(self):
        vocab = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "ab", "a", "b", "ba"])
        assert retokenize(vocab, "bab") == retokenize(vocab, "bab")


def scan_retokenize(vocab, text, allow_unk=True):
    """The segmentation as a scan over every token, longest first (lowest id
    first among equal lengths), at every position of every word."""
    words = text.split() if isinstance(text, str) else [w for w in text if w]
    uses_marker = any(t.startswith(WORD_MARKER) for t in vocab.tokens)
    by_length = sorted(range(vocab.size), key=lambda i: -len(vocab.tokens[i]))
    unk = vocab.id_of("<unk>") if allow_unk and "<unk>" in vocab.tokens else None
    out = []
    for word in words:
        target = WORD_MARKER + word if uses_marker else word
        pos = 0
        while pos < len(target):
            for tid in by_length:
                tok = vocab.tokens[tid]
                if tok and target.startswith(tok, pos) and not vocab.is_special(tid):
                    out.append(tid)
                    pos += len(tok)
                    break
            else:
                if unk is None:
                    raise ValueError(f"cannot segment {word!r} at position {pos} and no UNK token")
                out.append(unk)
                pos += 1
    return out


class TestRetokenizeIndex:
    """The per-vocabulary token index segments exactly as the scan does."""

    @settings(max_examples=300, deadline=None)
    @given(
        pieces=st.lists(st.text("abc", min_size=0, max_size=3), min_size=3, max_size=10, unique=True),
        marked=st.lists(st.booleans(), min_size=10, max_size=10),
        specials=st.permutations(range(3)),
        with_unk=st.booleans(),
        allow_unk=st.booleans(),
        words=st.lists(st.text("abcx", min_size=1, max_size=6), max_size=4),
    )
    def test_equals_scan(self, pieces, marked, specials, with_unk, allow_unk, words):
        # marker and plain vocabularies, overlapping lengths, the empty token,
        # and special tokens that would otherwise match
        tokens = [WORD_MARKER + p if m and p else p for p, m in zip(pieces, marked)]
        tokens = list(dict.fromkeys(tokens + (["<unk>"] if with_unk else [])))
        vocab = Vocabulary(
            tuple(tokens), *specials, tuple(t.startswith(WORD_MARKER) for t in tokens)
        )
        text = " ".join(words)
        try:
            want = scan_retokenize(vocab, text, allow_unk)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                retokenize(vocab, text, allow_unk)
        else:
            assert retokenize(vocab, text, allow_unk) == want
            assert retokenize(vocab, words, allow_unk) == want

