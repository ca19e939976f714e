import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit.cli import DecodeConfig
from fusionkit.core import (
    EncoderOutput,
    FormatError,
    Posteriorgram,
    ScorerWeights,
    ValidationError,
    Vocabulary,
    logsumexp,
    logsumexp_rows,
    read_encoder_output,
    read_posteriorgram,
    read_vocabulary,
    write_encoder_output,
    write_posteriorgram,
    write_vocabulary,
)
from fusionkit.lm import TableLM, load_table_lm, save_table_lm

from fixtures import fuzzed


def uniform_pg(t, v, frame_ms=60.0):
    return Posteriorgram(np.full((t, v), -math.log(v)), frame_ms)


class TestLogsumexp:
    def test_singleton(self):
        assert logsumexp([0.0]) == 0.0

    def test_probabilities_summing_to_one(self):
        assert abs(logsumexp([math.log(0.5), math.log(0.5)])) < 1e-15

    def test_three_values(self):
        expected = math.log(math.exp(-1.0) + math.exp(-2.0) + math.exp(-3.0))
        assert abs(logsumexp([-1.0, -2.0, -3.0]) - expected) < 1e-12
        assert abs(logsumexp([-1.0, -2.0, -3.0]) - (-0.59239)) < 1e-4

    def test_all_neg_inf(self):
        assert logsumexp([-math.inf, -math.inf]) == -math.inf

    def test_mixed_neg_inf(self):
        assert abs(logsumexp([-math.inf, 0.0]) - 0.0) < 1e-15

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            logsumexp([])

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            xs = rng.normal(size=rng.integers(1, 8)).tolist()
            val = logsumexp(xs)
            assert val >= max(xs)
            assert val <= max(xs) + math.log(len(xs)) + 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 12),
        v=st.integers(1, 1000),
        holes=st.floats(0.0, 1.0),
        empty=st.floats(0.0, 0.5),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 700.0]),
    )
    def test_rows_match_per_row_bits(self, seed, rows, v, holes, empty, scale):
        # -inf holes, and whole rows of -inf
        rng = np.random.default_rng(seed)
        m = rng.normal(0.0, scale, size=(rows, v))
        m[rng.uniform(size=m.shape) < holes] = -math.inf
        m[rng.uniform(size=rows) < empty] = -math.inf
        want = np.array([logsumexp(r) for r in m])
        assert logsumexp_rows(m).tobytes() == want.tobytes()


class TestVocabulary:
    def make(self):
        return Vocabulary.from_tokens(["<blank>", "a", "b", "<s>", "</s>"])

    def test_ids(self):
        v = self.make()
        assert v.blank_id == 0 and v.bos_id == 3 and v.eos_id == 4
        assert v.size == 5

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValidationError):
            Vocabulary(("a", "a", "b", "c"), 0, 2, 3, (False,) * 4)

    def test_special_ids_must_differ(self):
        with pytest.raises(ValidationError):
            Vocabulary(("a", "b", "c"), 0, 0, 1, (False,) * 3)

    def test_text_and_word_segments(self):
        v = Vocabulary.from_tokens(["<blank>", "▁ab", "c", "▁d", "<s>", "</s>"])
        labels = [1, 2, 3]
        assert v.text(labels) == "abc d"
        done, pending = v.word_segments(labels)
        assert [v.word_text(w) for w in done] == ["abc"]
        assert v.word_text(pending) == "d"

    def test_roundtrip(self, tmp_path):
        v = Vocabulary.from_tokens(["<blank>", "▁ab", "c", "<s>", "</s>"])
        path = tmp_path / "vocab.txt"
        write_vocabulary(v, path)
        assert read_vocabulary(path) == v

    def test_unknown_flag_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\tblank\nb\tbos\nc\teos,shiny\n")
        with pytest.raises(FormatError, match="line 3: unknown flag"):
            read_vocabulary(path)

    def test_missing_tab_names_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\tblank\nb bos\nc\teos\n")
        with pytest.raises(FormatError, match="line 2: missing tab"):
            read_vocabulary(path)


class TestPosteriorgram:
    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (3,)])
    def test_empty_or_flat_rejected(self, shape):
        with pytest.raises(ValidationError, match="T x V"):
            Posteriorgram(np.zeros(shape))

    def test_row_validation_names_row(self):
        lp = np.log(np.array([[0.5, 0.5], [0.6, 0.3], [0.9, 0.9]]))
        with pytest.raises(ValidationError, match="row 1 "):
            Posteriorgram(lp)
        lp[1] = np.nan
        with pytest.raises(ValidationError, match="row 1 .* nan"):
            Posteriorgram(lp)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(4), size=3)
        lp = np.log(probs)
        lp -= np.array([logsumexp(row) for row in lp])[:, None]
        # anchor to f32 values so the on-disk cast is lossless
        pg = Posteriorgram(lp.astype(np.float32).astype(np.float64), frame_duration_ms=60.0)
        path = tmp_path / "pg.fkpg"
        write_posteriorgram(pg, path)
        first = path.read_bytes()
        pg2 = read_posteriorgram(path)
        write_posteriorgram(pg2, path)
        assert path.read_bytes() == first
        np.testing.assert_array_equal(
            pg.log_probs.astype(np.float32), pg2.log_probs.astype(np.float32)
        )
        assert pg2.frame_duration_ms == 60.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "pg.fkpg"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_posteriorgram(path)

    def test_truncated_payload(self, tmp_path):
        pg = uniform_pg(3, 4)
        path = tmp_path / "pg.fkpg"
        write_posteriorgram(pg, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="payload"):
            read_posteriorgram(path)

    def test_non_normalized_row_on_read(self, tmp_path):
        pg = uniform_pg(2, 3)
        path = tmp_path / "pg.fkpg"
        write_posteriorgram(pg, path)
        raw = bytearray(path.read_bytes())
        # corrupt one float of row 1 (header is 20 bytes, row 0 is 12 bytes)
        raw[32:36] = np.float32(-0.1).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="row 1"):
            read_posteriorgram(path)

    def test_duration(self):
        pg = uniform_pg(10, 3)
        assert pg.duration_seconds == pytest.approx(0.6)


class TestEncoderOutput:
    def test_roundtrip(self, tmp_path):
        frames = np.arange(12, dtype=np.float32).reshape(4, 3).astype(np.float64)
        enc = EncoderOutput(frames)
        path = tmp_path / "enc.fkeo"
        write_encoder_output(enc, path)
        first = path.read_bytes()
        enc2 = read_encoder_output(path)
        write_encoder_output(enc2, path)
        assert path.read_bytes() == first
        np.testing.assert_array_equal(enc.frames, enc2.frames)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "enc.fkeo"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(FormatError):
            read_encoder_output(path)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            EncoderOutput(np.zeros((0, 3)))


SIGNALING_NAN = 0x7FA00000  # float32 bits: exponent all ones, quiet bit clear


class TestNonFinitePayload:
    """A NaN or infinity in a payload raises FormatError naming the file,
    before the float64 cast, where a signaling NaN would warn; a
    posteriorgram may hold -inf, log 0."""

    @pytest.mark.parametrize(
        "fmt, bits",
        [
            ("fkpg", SIGNALING_NAN),
            ("fkpg", 0xFFC00000),  # a negative quiet NaN
            ("fkpg", 0x7F800000),  # +inf
            ("fkeo", SIGNALING_NAN),
            ("fkeo", 0xFF800000),  # -inf
        ],
    )
    def test_rejected(self, tmp_path, fmt, bits):
        path = tmp_path / f"x.{fmt}"
        if fmt == "fkpg":
            write_posteriorgram(uniform_pg(2, 3), path)
            read, header = read_posteriorgram, 20
        else:
            write_encoder_output(EncoderOutput(np.zeros((2, 3))), path)
            read, header = read_encoder_output, 16
        raw = bytearray(path.read_bytes())
        raw[header + 16 : header + 20] = np.uint32(bits).astype("<u4").tobytes()  # row 1
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="row 1") as info:
            read(path)
        assert str(path) in str(info.value)

    def test_posteriorgram_keeps_minus_inf(self, tmp_path):
        lp = np.full((2, 3), -np.inf)
        lp[:, 1] = 0.0
        path = tmp_path / "x.fkpg"
        write_posteriorgram(Posteriorgram(lp), path)
        np.testing.assert_array_equal(read_posteriorgram(path).log_probs, lp)


def reader_file_bytes(fmt):
    """A small valid file's bytes: an FKPG (with pruned -inf entries), an
    FKEO, a vocabulary, a table LM with one context entry, or a joint
    decode config with a scorer of each kind."""
    vocab = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "▁a", "b"])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"base.{fmt}"
        if fmt == "fkpg":
            with np.errstate(divide="ignore"):  # pruned labels are log 0
                lp = np.log(np.array([[0.5, 0.25, 0.25, 0.0], [0.1, 0.0, 0.6, 0.3], [1.0, 0.0, 0.0, 0.0]]))
            write_posteriorgram(Posteriorgram(lp, 40.0), path)
        elif fmt == "fkeo":
            write_encoder_output(EncoderOutput(np.linspace(-2.0, 2.0, 12).reshape(3, 4)), path)
        elif fmt == "vocab":
            write_vocabulary(vocab, path)
        elif fmt == "table-lm":
            with np.errstate(divide="ignore"):  # blank and BOS are log 0
                uniform, peaked = np.log([[0, 0, 1 / 3, 1 / 3, 1 / 3], [0, 0, 0.25, 0.25, 0.5]])
            save_table_lm(TableLM(vocab, (((3,), peaked),), uniform), path)
        else:
            scorers = [
                {"name": "ctc", "kind": "ctc_prefix", "weight": 1.0},
                {"name": "lm", "kind": "ngram", "weight": 0.5, "path": "lm.fklm"},
                {"name": "dec", "kind": "decoder_lm", "weight": 0.02, "prompt": [1]},
            ]
            cfg = {"strategy": "joint", "beam": 4, "top_k": 3, "compress_threshold": 0.9,
                   "scorers": scorers}
            path.write_text(json.dumps(cfg, sort_keys=True, indent=1) + "\n")
        return path.read_bytes()


# the readers fuzzed here, by format (FKLM and FKWT have fuzz tests of their own)
FUZZ_READERS = {
    "fkpg": read_posteriorgram,
    "fkeo": read_encoder_output,
    "vocab": read_vocabulary,
    "table-lm": load_table_lm,
    "config": DecodeConfig.from_json,
}
FUZZ_BASES = {fmt: reader_file_bytes(fmt) for fmt in FUZZ_READERS}


class TestFuzzedMatrixFiles:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=1000, deadline=None)
    @given(
        fmt=st.sampled_from(sorted(FUZZ_READERS)),
        edit=st.sampled_from(["truncate", "flip", "insert"]),
        where=st.floats(0, 1),
        flip=st.integers(1, 255),
        insert=st.binary(min_size=1, max_size=12),
    )
    def test_raise_only_format_or_validation_errors(self, fmt, edit, where, flip, insert):
        # a truncated, flipped or grown FKPG, FKEO, vocabulary, table-LM or
        # config file reads or raises FormatError or ValidationError, with
        # no warning
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"fuzzed.{fmt}"
            path.write_bytes(fuzzed(FUZZ_BASES[fmt], edit, where, flip, insert))
            try:
                FUZZ_READERS[fmt](path)
            except (FormatError, ValidationError):
                pass


class TestHypothesisAndWeights:
    def test_weights_need_one_nonzero(self):
        with pytest.raises(ValidationError):
            ScorerWeights({"am": 0.0, "lm": 0.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_weights_must_be_finite(self, bad):
        with pytest.raises(ValidationError, match="must be finite"):
            ScorerWeights({"am": 1.0, "lm": bad})

    def test_weights_cannot_change_after_they_are_checked(self):
        given = {"ctc": 1.0}
        weights = ScorerWeights(given)
        given["ctc"] = math.nan  # the caller's dict is copied
        assert weights.weights == {"ctc": 1.0}
        with pytest.raises(TypeError):
            weights.weights["ctc"] = math.nan
        with pytest.raises(AttributeError):
            weights.weights = {"ctc": math.nan}
