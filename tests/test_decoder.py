import hashlib
import math
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit.core import EncoderOutput, FormatError, logsumexp
from fusionkit.decoder import (
    _gelu,
    _layer_norm,
    _rope,
    Hyperparams,
    InterfaceConfig,
    build_attention_mask,
    decoder_forward,
    decoder_init,
    decoder_step,
    export_attention,
    load_weights,
    read_tensor_container,
    save_weights,
    seeded_weights,
    write_tensor_container,
)
from oracle import decoder_forward_reference, gelu_reference, rope_reference

HP = Hyperparams(layers=2, dim=32, heads=2, vocab_size=8, ffn_dim=64)
BOS, EOS = 6, 7


def toy_weights(seed=0):
    return seeded_weights(HP, seed)


def toy_audio(rng, t=3):
    return EncoderOutput(rng.normal(size=(t, HP.dim)))


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])


# the values that break a fast cube: zeros, subnormals, powers of two, the
# floats next to the cube roots of powers of two (where x**3 crosses a
# binade edge), and any finite float with |x| <= 1e100
GELU_SPECIALS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-2.0**-1022, 2.0**-1022),
    _signed(st.integers(-1074, 332).map(lambda k: math.ldexp(1.0, k))),
    _signed(
        st.tuples(st.integers(-3216, 996), st.integers(-2, 2)).map(  # j ulps from 2**(k/3)
            lambda p: float((np.float64(2.0 ** (p[0] / 3)).view(np.int64) + p[1]).view(np.float64))
        )
    ),
    st.floats(-1e100, 1e100),
)


@st.composite
def gelu_inputs(draw):
    """A contiguous (B, 1, ffn) or (1, n, ffn) array, as the decoder's FFN
    feeds ``_gelu`` in a step or the forward pass: normal draws at a drawn
    scale, with special values at drawn positions."""
    batch, width = draw(st.integers(1, 48)), draw(st.integers(1, 96))
    shape = draw(st.sampled_from([(batch, 1, width), (1, batch, width)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(shape) * draw(st.sampled_from([0.3, 1.0, 3.0, 30.0]))
    flat = x.reshape(-1)
    for i, value in draw(st.lists(st.tuples(st.integers(0, flat.size - 1), GELU_SPECIALS), max_size=40)):
        flat[i] = value
    return x


class TestGelu:
    @settings(max_examples=300, deadline=None)
    @given(x=gelu_inputs())
    def test_equals_reference_bit_for_bit(self, x):
        with warnings.catch_warnings():  # every warning of either side fails
            warnings.simplefilter("error")
            got, want = _gelu(x), gelu_reference(x)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestAttentionMask:
    def test_empty_prefix_is_causal_for_all_kinds(self):
        causal = np.tril(np.ones((3, 3), dtype=bool))
        for kind in ("prefix", "merged", "aed"):
            mask = build_attention_mask(InterfaceConfig(kind), 0, 3)
            np.testing.assert_array_equal(mask, causal)

    def test_prefix_causal_explicit_pattern(self):
        mask = build_attention_mask(InterfaceConfig("prefix"), 2, 2)
        expected = np.array(
            [
                [1, 0, 0, 0],
                [1, 1, 0, 0],
                [1, 1, 1, 0],
                [1, 1, 1, 1],
            ],
            dtype=bool,
        )
        np.testing.assert_array_equal(mask, expected)

    def test_bidirectional_prefix_block_full(self):
        cfg = InterfaceConfig("prefix", prefix_attention="bidirectional")
        mask = build_attention_mask(cfg, 2, 2)
        assert mask[:2, :2].all()
        assert not mask[:2, 2:].any()
        np.testing.assert_array_equal(mask[2:], [[1, 1, 1, 0], [1, 1, 1, 1]])

    def test_bidirectional_text_rows_match_causal(self):
        causal = build_attention_mask(InterfaceConfig("prefix"), 3, 4)
        bidi = build_attention_mask(
            InterfaceConfig("prefix", prefix_attention="bidirectional"), 3, 4
        )
        np.testing.assert_array_equal(causal[3:], bidi[3:])

    def test_merged_shape(self):
        mask = build_attention_mask(InterfaceConfig("merged"), 2, 3)
        assert mask.shape == (3, 5)
        assert mask[:, :2].all()
        np.testing.assert_array_equal(mask[:, 2:], np.tril(np.ones((3, 3), dtype=bool)))

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            InterfaceConfig("merged", prefix_attention="bidirectional")
        with pytest.raises(ValueError):
            build_attention_mask(InterfaceConfig("aed"), 2, 3)


class TestDecoderForward:
    def test_rows_normalized(self):
        rng = np.random.default_rng(1)
        w = toy_weights()
        rows = decoder_forward(w, InterfaceConfig("prefix"), toy_audio(rng), [BOS, 1, 2])
        assert rows.shape == (3, HP.vocab_size)
        for row in rows:
            assert logsumexp(row) == pytest.approx(0.0, abs=1e-9)

    def test_interface_collapse_with_empty_prefix(self):
        w = toy_weights()
        labels = [BOS, 1, 2, 3]
        empty = np.zeros((0, HP.dim))
        outs = [
            decoder_forward(w, InterfaceConfig("prefix"), None, labels),
            decoder_forward(w, InterfaceConfig("merged"), None, labels),
            decoder_forward(w, InterfaceConfig("aed"), empty, labels),
        ]
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-9)
        np.testing.assert_allclose(outs[0], outs[2], atol=1e-9)

    def test_aed_without_audio_rejected(self):
        w = toy_weights()
        with pytest.raises(ValueError):
            decoder_forward(w, InterfaceConfig("aed"), None, [BOS])

    def test_dim_mismatch_rejected(self):
        w = toy_weights()
        with pytest.raises(ValueError):
            decoder_forward(w, InterfaceConfig("prefix"), np.ones((2, 5)), [BOS])

    def test_causal_consistency(self):
        rng = np.random.default_rng(2)
        w = toy_weights()
        audio = toy_audio(rng)
        for kind in ("prefix", "merged", "aed"):
            cfg = InterfaceConfig(kind, prompt=(1,))
            a = decoder_forward(w, cfg, audio, [BOS, 2, 3, 4])
            b = decoder_forward(w, cfg, audio, [BOS, 2, 5, 4])
            np.testing.assert_allclose(a[:2], b[:2], atol=1e-12)
            assert not np.allclose(a[2], b[2], atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        w = toy_weights()
        audio = toy_audio(rng)
        cfg = InterfaceConfig("merged", prompt=(0,))
        a = decoder_forward(w, cfg, audio, [BOS, 1])
        b = decoder_forward(w, cfg, audio, [BOS, 1])
        np.testing.assert_array_equal(a, b)

    def test_prompt_positions_shift_text(self):
        # with a prompt, the same labels land on later positions; outputs of
        # the label rows must match a run where the prompt is part of labels
        rng = np.random.default_rng(4)
        w = toy_weights()
        audio = toy_audio(rng)
        with_prompt = decoder_forward(
            w, InterfaceConfig("prefix", prompt=(1, 2)), audio, [BOS, 3]
        )
        inline = decoder_forward(w, InterfaceConfig("prefix"), audio, [1, 2, BOS, 3])
        np.testing.assert_allclose(with_prompt, inline[2:], atol=1e-12)

    # (dim, heads, layers), none of them the pinned digests' (32, 2, 2)
    @pytest.mark.parametrize("dim,heads,layers", [(24, 2, 3), (48, 3, 1)])
    @pytest.mark.parametrize(
        "kind,attention", [("prefix", "causal"), ("prefix", "bidirectional"), ("merged", "causal"), ("aed", "causal")]
    )
    def test_equals_slow_reference(self, dim, heads, layers, kind, attention):
        """The shared layer body against an independent forward pass, on
        this machine's floats but with no pinned bits."""
        hp = Hyperparams(layers=layers, dim=dim, heads=heads, vocab_size=8, ffn_dim=2 * dim)
        w = seeded_weights(hp, dim + layers)
        frames = np.random.default_rng(dim).normal(size=(4, dim))
        cfg = InterfaceConfig(kind, attention, prompt=(1, 3))
        labels = [BOS, 2, 3, 4, 5]
        rows, maps = decoder_forward(w, cfg, EncoderOutput(frames), labels, collect_attention=True)
        want_rows, want_maps = decoder_forward_reference(w, cfg, frames, labels)
        np.testing.assert_allclose(rows, want_rows, rtol=0, atol=1e-9)
        assert list(maps) == list(want_maps)
        for name, mat in maps.items():
            np.testing.assert_allclose(mat, want_maps[name], rtol=0, atol=1e-9)


class TestIncremental:
    @pytest.mark.parametrize("kind", ["prefix", "merged", "aed"])
    def test_step_matches_forward(self, kind):
        rng = np.random.default_rng(5)
        w = toy_weights()
        audio = toy_audio(rng)
        cfg = InterfaceConfig(kind, prompt=(1,))
        labels = [BOS, 2, 3, 4, 5]
        full = decoder_forward(w, cfg, audio, labels)
        state = decoder_init(w, cfg, audio)
        for s, lab in enumerate(labels):
            (row,), state = decoder_step(w, state, [lab])
            np.testing.assert_allclose(row, full[s], atol=1e-6)

    def test_bidirectional_prefix_step_matches_forward(self):
        rng = np.random.default_rng(6)
        w = toy_weights()
        audio = toy_audio(rng)
        cfg = InterfaceConfig("prefix", prefix_attention="bidirectional")
        labels = [BOS, 2, 3]
        full = decoder_forward(w, cfg, audio, labels)
        state = decoder_init(w, cfg, audio)
        for s, lab in enumerate(labels):
            (row,), state = decoder_step(w, state, [lab])
            np.testing.assert_allclose(row, full[s], atol=1e-6)

    def test_first_step_equals_forward_row_one(self):
        rng = np.random.default_rng(7)
        w = toy_weights()
        audio = toy_audio(rng)
        cfg = InterfaceConfig("prefix")
        state = decoder_init(w, cfg, audio)
        (row,), _ = decoder_step(w, state, [BOS])
        np.testing.assert_allclose(
            row, decoder_forward(w, cfg, audio, [BOS])[0], atol=1e-9
        )

    def test_interleaved_states_isolated(self):
        rng = np.random.default_rng(8)
        w = toy_weights()
        audio = toy_audio(rng)
        cfg = InterfaceConfig("merged")
        base = decoder_init(w, cfg, audio)
        (row_a1,), st_a = decoder_step(w, base, [BOS])
        _, st_b = decoder_step(w, base, [BOS])
        _, st_b = decoder_step(w, st_b, [1])
        (row_a2,), _ = decoder_step(w, st_a, [2])
        # replay branch a from scratch; interleaving must not have changed it
        st = decoder_init(w, cfg, audio)
        (r1,), st = decoder_step(w, st, [BOS])
        (r2,), _ = decoder_step(w, st, [2])
        np.testing.assert_array_equal(row_a1, r1)
        np.testing.assert_array_equal(row_a2, r2)


    @pytest.mark.parametrize("kind", ["prefix", "aed"])
    def test_sibling_steps_leave_parent_cache_unchanged(self, kind):
        rng = np.random.default_rng(9)
        w = toy_weights()
        cfg = InterfaceConfig(kind)
        _, parent = decoder_step(w, decoder_init(w, cfg, toy_audio(rng)), [BOS])
        before = [k.copy() for k in parent.self_k] + [v.copy() for v in parent.self_v]
        position = parent.position
        _, child_a = decoder_step(w, parent, [2])
        _, child_b = decoder_step(w, parent, [3])
        after = parent.self_k + parent.self_v
        assert parent.position == position and len(after) == len(before)
        for old, new in zip(before, after):
            np.testing.assert_array_equal(old, new)
        for child in (child_a, child_b):
            assert child.position == position + 1
            assert child.self_k[0].shape[0] == parent.self_k[0].shape[0] + 1  # (L, B, d)
        assert not np.array_equal(child_a.self_k[0][-1, 0], child_b.self_k[0][-1, 0])


def stepped_alone(w, cfg, states, labels):
    """The reference for a batched step: B separate steps with B = 1."""
    singles = [decoder_step(w, s, [lab]) for s, lab in zip(states, labels)]
    return np.stack([rows[0] for rows, _ in singles]), [succ for _, succ in singles]


def assert_states_equal(got, want):
    got_arrays = got.self_k + got.self_v + got.cross_k + got.cross_v
    want_arrays = want.self_k + want.self_v + want.cross_k + want.cross_v
    assert got.position == want.position
    assert [a.shape for a in got_arrays] == [b.shape for b in want_arrays]
    for a, b in zip(got_arrays, want_arrays):
        assert np.array_equal(a, b)


BATCH_CASES = [
    ("prefix", "causal", (1,), True),
    ("prefix", "bidirectional", (1, 2), True),
    ("merged", "causal", (1,), True),
    ("aed", "causal", (1,), True),
    ("prefix", "causal", (), False),  # the decoder as a language model
]


class TestBatchedStep:
    """One decoder_step over B states is bit-identical to B steps alone."""

    @pytest.mark.parametrize("batch", [1, 2, 7, 16])
    @pytest.mark.parametrize("kind,attention,prompt,with_audio", BATCH_CASES)
    def test_batch_equals_single_steps(self, kind, attention, prompt, with_audio, batch):
        rng = np.random.default_rng(batch)
        w = toy_weights()
        cfg = InterfaceConfig(kind, attention, prompt)
        audio = toy_audio(rng, t=5) if with_audio else None
        _, frontier = decoder_step(w, decoder_init(w, cfg, audio), [BOS])
        # two batched levels, so the second gathers caches that the first built
        for _ in range(2):
            parents = rng.integers(0, len(frontier), size=batch)
            labels = rng.integers(0, HP.vocab_size, size=batch).tolist()
            alone = [frontier.take([p]) for p in parents]
            rows, frontier = decoder_step(w, frontier, labels, parents)
            want_rows, want_states = stepped_alone(w, cfg, alone, labels)
            assert rows.shape == (batch, HP.vocab_size)
            assert np.array_equal(rows, want_rows)
            for b, want in enumerate(want_states):
                assert_states_equal(frontier.take([b]), want)

    def test_mixed_positions_rejected(self):
        w = toy_weights()
        cfg = InterfaceConfig("prefix")
        start = decoder_init(w, cfg, None)
        _, one = decoder_step(w, start, [BOS])
        # a state holds one position for all its rows, so positions cannot mix
        assert one.position == start.position + 1
        with pytest.raises(ValueError, match="one label per state"):
            decoder_step(w, one, [1], [0, 0])
        with pytest.raises(ValueError, match="one label per state"):
            decoder_step(w, one, [1, 2])
        with pytest.raises(ValueError, match="one label per state"):
            decoder_step(w, one, [], [])

    @pytest.mark.parametrize("batch", [2, 7, 16])
    def test_stacked_rows_use_the_per_row_blas_call(self, batch):
        """The assumption the batched step rests on, checked on this numpy/BLAS.

        numpy multiplies a (B, 1, d) @ (d, e) stack as B separate (1, d) @ (d, e)
        products, and a (B, heads, 1, hd) @ (B, heads, hd, L) attention stack,
        with the per-head layout of a cache view, as separate per-head products.
        If an upgrade starts fusing them into one (B, d) @ (d, e) product, which
        rounds differently, this fails and batched decoding is no longer exact.
        """
        rng = np.random.default_rng(batch)
        for d, e in [(32, 32), (32, 64), (64, 32), (48, 11), (32, 8)]:
            x = rng.normal(size=(batch, 1, d))
            m = rng.normal(size=(d, e))
            assert np.array_equal(x @ m, np.stack([row @ m for row in x]))
        heads, hd, length = 2, 16, 9
        q = rng.normal(size=(batch, heads, 1, hd))
        cache = rng.normal(size=(batch, length, heads * hd))
        keys = cache.reshape(batch, length, heads, hd).transpose(0, 2, 3, 1)
        per_row = [
            q[b] @ cache[b].reshape(length, heads, hd).transpose(1, 2, 0) for b in range(batch)
        ]
        assert np.array_equal(q @ keys, np.stack(per_row))
        # the same keys held time-major, (L, B, d), as a step holds them
        time_major = np.ascontiguousarray(cache.transpose(1, 0, 2)).transpose(1, 0, 2)
        keys = time_major.reshape(batch, length, heads, hd).transpose(0, 2, 3, 1)
        assert np.array_equal(q @ keys, np.stack(per_row))

    def test_one_row_stream_uses_the_2d_blas_call(self):
        """The assumption the batch-first forward pass rests on, checked on
        this numpy/BLAS: a (1, n, d) @ (d, e) product rounds exactly as the
        (n, d) @ (d, e) one."""
        rng = np.random.default_rng(0)
        for d in (16, 24, 32, 48, 64):
            for e in (8, 11, 32, 64, 96, 179, 192):
                m = rng.normal(size=(d, e))
                x = rng.normal(size=(200, d))
                for n in range(1, 201):
                    assert np.array_equal((x[None, :n] @ m)[0], x[:n] @ m), (d, e, n)

    def test_rows_out_of_range_rejected(self):
        w = toy_weights()
        _, one = decoder_step(w, decoder_init(w, InterfaceConfig("prefix"), None), [BOS])
        for rows in ([1], [-1], [0, 3]):
            with pytest.raises(ValueError, match="rows must lie in"):
                decoder_step(w, one, [2] * len(rows), rows)

    # SHA-256 of the step rows, frozen from the one-state-per-call decoder_step
    # that came before the batched one
    ROW_DIGESTS = {
        "prefix": "bbfd3e8cf904a1c5a1cdae9b06e2eb1376e63cc8f04523b78441d86592664c03",
        "prefix-bidirectional": "3ac293fe98c19fa93e975d77fdec6c210253964bbaddd41d3f8df4b954aba0c8",
        "merged": "faf7bb30c5cdd42e5bb1a1dc5946820cf81e861cff4edb2d7b75aefe4838ba85",
        "aed": "a01bedf6441b33e52496457628fb42c680731e943b08dfb2a925c58b25d55d44",
        "lm": "630cde04ceabb63cc9eafa2dddf4c8638176dd276014b743aa99e5365c882af5",
    }

    @pytest.mark.parametrize("case", sorted(ROW_DIGESTS))
    def test_row_bits_pinned(self, case):
        w = seeded_weights(HP, 42)
        rng = np.random.default_rng(42)
        audio = EncoderOutput(rng.normal(size=(3, HP.dim)).astype(np.float32).astype(np.float64))
        cfg, audio = {
            "prefix": (InterfaceConfig("prefix", prompt=(1,)), audio),
            "prefix-bidirectional": (InterfaceConfig("prefix", "bidirectional", (1,)), audio),
            "merged": (InterfaceConfig("merged", prompt=(1,)), audio),
            "aed": (InterfaceConfig("aed", prompt=(1,)), audio),
            "lm": (InterfaceConfig("prefix"), None),
        }[case]
        state = decoder_init(w, cfg, audio)
        digest = hashlib.sha256()
        for label in [BOS, 2, 3, 4, 5, 2]:
            rows, state = decoder_step(w, state, [label])
            digest.update(np.ascontiguousarray(rows[0], dtype="<f8").tobytes())
        assert digest.hexdigest() == self.ROW_DIGESTS[case]


class TestStepPieces:
    """The layer's one [q | k | v] product and one rotation pass, bit for
    bit against the separate products and textbook rotations they replace."""

    @pytest.mark.parametrize("batch", [1, 16, 88])
    def test_fused_projection_blocks_equal_separate_products(self, batch):
        rng = np.random.default_rng(batch)
        w = toy_weights()
        for i, layer in enumerate(w.layers):
            fused = layer["self_attn.wqkv"]
            step_rows = rng.normal(size=(batch, 1, HP.dim))
            stream_rows = rng.normal(size=(batch + 2, HP.dim))
            for j, m in enumerate(("wq", "wk", "wv")):
                block = layer[f"self_attn.{m}"]
                assert block is w[f"layer{i}.self_attn.{m}"] and np.shares_memory(block, fused)
                alone = np.ascontiguousarray(block)  # the tensor as a matrix of its own
                columns = slice(j * HP.dim, (j + 1) * HP.dim)
                assert np.array_equal((step_rows @ fused)[..., columns], step_rows @ alone)
                # the forward pass's (1, n, d) product, against an (n, d) one
                assert np.array_equal((stream_rows[None] @ fused)[0, :, columns], stream_rows @ alone)

    @pytest.mark.parametrize("batch", [1, 16, 88])
    def test_layer0_rows_equal_norm_and_product(self, batch):
        rng = np.random.default_rng(batch)
        w = seeded_weights(Hyperparams(layers=2, dim=32, heads=2, vocab_size=120, ffn_dim=64), batch)
        layer = w.layers[0]
        labels = rng.integers(0, 120, batch)
        got = w.layer0_qkv[labels]
        x = w["embed"][labels][:, None, :]
        want = _layer_norm(x, layer["attn_norm.gamma"], layer["attn_norm.beta"]) @ layer["self_attn.wqkv"]
        assert w.layer0_qkv.shape == (120, 1, 3 * 32) and got.shape == (batch, 1, 3 * 32)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        alone = _layer_norm(x[:1], layer["attn_norm.gamma"], layer["attn_norm.beta"]) @ layer["self_attn.wqkv"]
        np.testing.assert_array_equal(got[:1].view(np.int64), alone.view(np.int64))

    @pytest.mark.parametrize("batch", [1, 16, 88])
    def test_rotary_tables_equal_rope(self, batch):
        rng = np.random.default_rng(batch)
        w = toy_weights()
        d = HP.dim

        def mixed(shape):  # scales 1e-3 to 1e3, with some +-0
            x = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e3], size=(*shape[:-1], 1))
            x.reshape(-1)[rng.integers(0, x.size, 16)] = rng.choice([0.0, -0.0], 16)
            return x

        # a step: one position shared by a (B, 1, 2d) batch
        qk = mixed((batch, 1, 2 * d))
        for position in range(65):
            want = rope_reference(qk, [position], HP.head_dim)
            got = _rope(qk, w.rotary([position]))
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        # the forward pass: one position per row of a (1, n, 2d) stream
        stream = mixed((1, 65, 2 * d))
        for start in (0, batch):
            positions = np.arange(start, start + 65)
            want = rope_reference(stream, positions, HP.head_dim)
            got = _rope(stream, w.rotary(positions))
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestGoldenFixture:
    """Regression pins for seed-42 weights; values frozen from the first run."""

    GOLDEN_LAST_ROW = np.array(
        [
            -2.185143225235434,
            -3.3872927598121807,
            -1.0014569144584133,
            -2.416665943066109,
            -3.0777843472713577,
            -1.2763639501426085,
            -2.902724991061825,
            -4.063364138312779,
        ]
    )

    def fixture_inputs(self):
        w = seeded_weights(HP, 42)
        rng = np.random.default_rng(42)
        audio = EncoderOutput(rng.normal(size=(3, HP.dim)).astype(np.float32).astype(np.float64))
        return w, InterfaceConfig("prefix", prompt=(1,)), audio

    def test_forward_last_row(self):
        w, cfg, audio = self.fixture_inputs()
        rows = decoder_forward(w, cfg, audio, [BOS, 2, 3])
        np.testing.assert_allclose(rows[-1], self.GOLDEN_LAST_ROW, atol=1e-12)

    # SHA-256 of the forward rows and of the attention maps (names, shapes
    # and float64 bits, in export order), frozen from the per-interface
    # layer loops that came before the shared layer function
    FORWARD_DIGESTS = {
        "prefix": (
            "fbb00827aeed57f57173924cb65a571ced530e228fb035fcb3d9d51ab1f4ee35",
            "e46f9b348cb3e93bb0016d5aada19ab727367b6dd77ea3f86d797728be3bd265",
        ),
        "prefix-bidirectional": (
            "9842005c00b54be900f35540cd77144b26409167315799c88a0c9981dcefffd1",
            "2bbb88b7ab507af1e079273dc5a655c047d4fc003165aef0f1791a2ac0b53012",
        ),
        "merged": (
            "996b8d4b86ed914adcd9ca537579f99e110842ea760e01a008dcea3a0416db8b",
            "c83f1327925a93454851a0f895af96c01e8fc61ca3b160d18c2b7572d287d2ff",
        ),
        "aed": (
            "1d2630b53f1240900edd0514e7b27a0e9f6086bea005335ba73f2ebee522f710",
            "f7dfcb63e3b299388373683c6279deb9004233038bac55a695cc7a2cd2bd3589",
        ),
    }

    @pytest.mark.parametrize("case", sorted(FORWARD_DIGESTS))
    def test_forward_and_attention_bits_pinned(self, case):
        w, _, audio = self.fixture_inputs()
        cfg = {
            "prefix": InterfaceConfig("prefix", prompt=(1,)),
            "prefix-bidirectional": InterfaceConfig("prefix", "bidirectional", (1,)),
            "merged": InterfaceConfig("merged", prompt=(1,)),
            "aed": InterfaceConfig("aed", prompt=(1,)),
        }[case]
        labels = [BOS, 2, 3, 4, 5, 2]
        rows = decoder_forward(w, cfg, audio, labels)
        maps = hashlib.sha256()
        for name, mat in export_attention(w, cfg, audio, labels).items():
            maps.update(name.encode())
            maps.update(str(mat.shape).encode())
            maps.update(np.ascontiguousarray(mat, dtype="<f8").tobytes())
        got = (hashlib.sha256(np.ascontiguousarray(rows, dtype="<f8").tobytes()).hexdigest(),
               maps.hexdigest())
        assert got == self.FORWARD_DIGESTS[case]


class TestExportAttention:
    def test_rows_sum_to_one_and_masked_zero(self, tmp_path):
        rng = np.random.default_rng(10)
        w = toy_weights()
        audio = toy_audio(rng)
        cfg = InterfaceConfig("prefix", prompt=(1,))
        attn = export_attention(w, cfg, audio, [BOS, 2, 3], tmp_path / "attn.fkwt")
        mask = build_attention_mask(cfg, 3, 4)
        assert set(attn) == {f"layer{i}.head{h}" for i in range(2) for h in range(2)}
        for mat in attn.values():
            np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(mat[~mask] == 0.0)
        loaded = read_tensor_container(tmp_path / "attn.fkwt")
        assert set(loaded) == set(attn)

    def test_empty_prefix_support_is_causal(self):
        w = toy_weights()
        attn = export_attention(w, InterfaceConfig("prefix"), None, [BOS, 1, 2])
        causal = np.tril(np.ones((3, 3), dtype=bool))
        for mat in attn.values():
            assert np.all(mat[~causal] == 0.0)

    def test_aed_exports_cross_maps(self):
        rng = np.random.default_rng(11)
        w = toy_weights()
        attn = export_attention(w, InterfaceConfig("aed"), toy_audio(rng), [BOS, 1])
        assert any(".cross.head" in name for name in attn)


class TestWeightsIO:
    def test_roundtrip_byte_identical(self, tmp_path):
        w = toy_weights(3)
        path = tmp_path / "weights.fkwt"
        save_weights(w, path)
        first = path.read_bytes()
        w2 = load_weights(path)
        save_weights(w2, path)
        assert path.read_bytes() == first
        assert w2.hp == HP
        for name in w.tensors:
            np.testing.assert_array_equal(w.tensors[name], w2.tensors[name])

    def test_seeded_file_bytes_pinned(self, tmp_path):
        # SHA-256 frozen from the writer that came before the shared
        # container writer
        path = tmp_path / "weights.fkwt"
        save_weights(seeded_weights(Hyperparams(), 42), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "b791f2b458e6635b1d2bc4721325cf0e9fab0387ef76589d68b44e5531f4e5b5"
        )

    def test_forward_identical_after_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        w = toy_weights(4)
        path = tmp_path / "weights.fkwt"
        save_weights(w, path)
        w2 = load_weights(path)
        audio = toy_audio(rng)
        a = decoder_forward(w, InterfaceConfig("prefix"), audio, [BOS, 1])
        b = decoder_forward(w2, InterfaceConfig("prefix"), audio, [BOS, 1])
        np.testing.assert_array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "weights.fkwt"
        path.write_bytes(b"JUNK" + b"\x00" * 8)
        with pytest.raises(FormatError):
            load_weights(path)

    def test_truncated_container(self, tmp_path):
        path = tmp_path / "weights.fkwt"
        save_weights(toy_weights(), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError, match="truncated"):
            load_weights(path)

    @pytest.mark.parametrize(
        "case,message",
        [
            ("name-not-utf8", "a tensor name is not UTF-8"),
            ("missing-tensor", "missing tensor 'out_proj'"),
            ("missing-meta", "missing meta.hyperparams tensor"),
            ("wrong-shape", "tensor 'embed' has shape"),
            ("non-finite", "tensor 'final_norm.beta' holds non-finite values"),
            ("bad-meta", "needs six positive integers"),
            ("too-many-layers", "layers <= tensors"),
            ("too-many-axes", "tensor 'deep' has 65 axes"),
            ("empty-oversized", "tensor 'huge' has 3 axes"),
            ("truncated-header", "truncated header"),
            ("bad-version", "unsupported version 2"),
            ("truncated-table", "truncated tensor table"),
            ("trailing-bytes", "1 trailing bytes"),
            ("dim-not-divisible", "model dim must divide evenly into heads"),
            ("head-dim-mismatch", "head dim 7 is not dim 8 // heads 2"),
            ("duplicate-tensor", "tensor 'embed' appears twice"),
        ],
    )
    def test_malformed_file_raises_format_error(self, tmp_path, case, message):
        path = tmp_path / "weights.fkwt"
        hp = Hyperparams(layers=1, dim=8, heads=2, vocab_size=4, ffn_dim=8)
        save_weights(seeded_weights(hp, 0), path)
        tensors = read_tensor_container(path)
        if case == "name-not-utf8":
            data = path.read_bytes()
            at = data.index(b"embed")
            path.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
        else:
            if case == "missing-tensor":
                del tensors["out_proj"]
            elif case == "missing-meta":
                del tensors["meta.hyperparams"]
            elif case == "wrong-shape":
                tensors["embed"] = tensors["embed"][:, :4]
            elif case == "non-finite":
                tensors["final_norm.beta"][2] = np.nan
            elif case == "bad-meta":
                tensors["meta.hyperparams"][1] = 0.5
            elif case == "too-many-layers":
                tensors["meta.hyperparams"][0] = 1e6
            elif case == "dim-not-divisible":
                tensors["meta.hyperparams"][2] = 3  # heads
            elif case == "head-dim-mismatch":
                tensors["meta.hyperparams"][3] = 7  # head dim, not 8 // 2
            write_tensor_container(tensors, path)
            edits = {  # of the file's bytes
                "truncated-header": lambda data: data[:11],
                "bad-version": lambda data: data[:4] + struct.pack("<I", 2) + data[8:],
                "truncated-table": lambda data: data[:13],
                "trailing-bytes": lambda data: data + b"\0",
            }
            if case in edits:
                path.write_bytes(edits[case](path.read_bytes()))
            appended = {  # numpy cannot build these, so append them
                "too-many-axes": struct.pack("<H4sB65If", 4, b"deep", 65, *[1] * 65, 0.0),
                # no elements, but the other axes' product overflows numpy's sizes
                "empty-oversized": struct.pack("<H4sB3I", 4, b"huge", 3, 2**31, 2**31, 0),
                # a second, all-zero embed after the first
                "duplicate-tensor": struct.pack("<H5sB2I32f", 5, b"embed", 2, 4, 8, *[0.0] * 32),
            }
            if case in appended:
                data = bytearray(path.read_bytes())
                data[8:12] = struct.pack("<I", len(tensors) + 1)
                path.write_bytes(bytes(data + appended[case]))
        with pytest.raises(FormatError, match=message) as info:
            load_weights(path)
        assert str(path) in str(info.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_fuzzed_file_raises_only_format_errors(self, data):
        # truncations and byte flips load or raise FormatError, silently
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "weights.fkwt"
            hp = Hyperparams(layers=1, dim=8, heads=2, vocab_size=4, ffn_dim=8)
            save_weights(seeded_weights(hp, 0), path)
            blob = bytearray(path.read_bytes())
            if data.draw(st.booleans()):
                blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
            else:
                for _ in range(3):
                    blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
            path.write_bytes(bytes(blob))
            try:
                load_weights(path)
            except FormatError:
                pass

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError, match="even"):
            Hyperparams(layers=1, dim=6, heads=2, vocab_size=4, ffn_dim=8)
