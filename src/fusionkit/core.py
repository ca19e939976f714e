"""Shared domain types, log-domain arithmetic, binary file formats, and the
checked UTF-8 text and JSON readers.

Scores are natural-log probabilities throughout; matrices live on disk as
row-major little-endian float32 and are widened to float64 in memory.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

NEG_INF = float("-inf")

POSTERIORGRAM_MAGIC = b"FKPG"
ENCODER_OUTPUT_MAGIC = b"FKEO"
FORMAT_VERSION = 1

WORD_MARKER = "▁"  # leading marker on word-initial token strings

_VOCAB_FLAGS = ("blank", "bos", "eos", "word_begin")


class FormatError(ValueError):
    """A file does not conform to its declared binary or text format."""


class ValidationError(ValueError):
    """Structurally well-formed data violates a domain invariant."""


def logsumexp(values: Sequence[float] | np.ndarray) -> float:
    """Stable log(sum(exp(values))); all -inf inputs give -inf."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("logsumexp of empty sequence")
    m = np.max(arr)
    if m == NEG_INF:
        return NEG_INF
    return float(m + np.log(np.sum(np.exp(arr - m))))


def logsumexp_rows(matrix: np.ndarray) -> np.ndarray:
    """:func:`logsumexp` of each row of a 2-D array, bit for bit; an all -inf
    row gives -inf."""
    m = matrix.max(axis=1)
    shift = np.where(m == NEG_INF, 0.0, m)
    with np.errstate(divide="ignore"):
        return shift + np.log(np.exp(matrix - shift[:, None]).sum(axis=1))


@dataclass(frozen=True)
class Vocabulary:
    """Token inventory with blank/BOS/EOS ids and word-begin flags.

    Word-initial tokens carry a leading ``WORD_MARKER`` in their string (the
    sentencepiece convention); the ``begins_word`` flag is authoritative for
    word-boundary logic.
    """

    tokens: tuple[str, ...]
    blank_id: int
    bos_id: int
    eos_id: int
    begins_word: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.tokens)
        if len(set(self.tokens)) != n:
            raise ValidationError("duplicate token strings in vocabulary")
        if len(self.begins_word) != n:
            raise ValidationError("begins_word length mismatch")
        for name, idx in (("blank", self.blank_id), ("bos", self.bos_id), ("eos", self.eos_id)):
            if not 0 <= idx < n:
                raise ValidationError(f"{name}_id {idx} out of range for {n} tokens")
        if len({self.blank_id, self.bos_id, self.eos_id}) != 3:
            raise ValidationError("blank/bos/eos ids must be distinct")
        for tok in self.tokens:
            if "\t" in tok or "\n" in tok:
                raise ValidationError(f"token {tok!r} contains tab or newline")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.tokens.index(token)

    def is_special(self, label: int) -> bool:
        return label in (self.blank_id, self.bos_id, self.eos_id)

    def text(self, labels: Iterable[int]) -> str:
        """Render a label sequence as text, turning word markers into spaces."""
        raw = "".join(self.tokens[i] for i in labels)
        return raw.replace(WORD_MARKER, " ").strip()

    def word_segments(self, labels: Sequence[int]) -> tuple[list[list[int]], list[int]]:
        """Split labels into completed word label groups plus a pending tail.

        A new word starts at every ``begins_word`` token.  The final group is
        pending: later labels may still extend it.
        """
        groups: list[list[int]] = []
        for lab in labels:
            if self.begins_word[lab] or not groups:
                groups.append([lab])
            else:
                groups[-1].append(lab)
        if not groups:
            return [], []
        return groups[:-1], groups[-1]

    def word_text(self, word_labels: Sequence[int]) -> str:
        return "".join(self.tokens[i] for i in word_labels).replace(WORD_MARKER, "")

    @staticmethod
    def from_tokens(
        tokens: Sequence[str],
        blank: str = "<blank>",
        bos: str = "<s>",
        eos: str = "</s>",
    ) -> "Vocabulary":
        """Build a vocabulary from plain token strings.

        Word-begin flags follow the leading-marker convention.
        """
        toks = tuple(tokens)
        flags = tuple(t.startswith(WORD_MARKER) for t in toks)
        return Vocabulary(
            tokens=toks,
            blank_id=toks.index(blank),
            bos_id=toks.index(bos),
            eos_id=toks.index(eos),
            begins_word=flags,
        )


def vocabulary_flags(vocab: Vocabulary) -> list[list[str]]:
    """Flag names per token id, in the order every vocabulary codec writes them."""
    out = []
    for i in range(vocab.size):
        on = (i == vocab.blank_id, i == vocab.bos_id, i == vocab.eos_id, vocab.begins_word[i])
        out.append([flag for flag, set_ in zip(_VOCAB_FLAGS, on) if set_])
    return out


def vocabulary_from_flags(entries: Iterable[Sequence], source: str) -> Vocabulary:
    """Vocabulary from ``(token, flag names)`` pairs; the position is the id.

    Raises FormatError, naming ``source``, for an unknown flag and when the
    blank, bos or eos flag is missing.
    """
    tokens: list[str] = []
    begins: list[bool] = []
    flagged: dict[str, int] = {}
    for i, (tok, flags) in enumerate(entries):
        for f in flags:
            if f not in _VOCAB_FLAGS:
                raise FormatError(f"{source} line {i + 1}: unknown flag {f!r}")
            flagged[f] = i
        tokens.append(tok)
        begins.append("word_begin" in flags)
    missing = [f for f in ("blank", "bos", "eos") if f not in flagged]
    if missing:
        raise FormatError(
            f"{source} must flag blank, bos, and eos tokens; missing: {', '.join(missing)}"
        )
    return Vocabulary(
        tuple(tokens), flagged["blank"], flagged["bos"], flagged["eos"], tuple(begins)
    )


def vocabulary_lines(vocab: Vocabulary) -> list[str]:
    """One line per token: ``<token>\\t<comma-joined flags>``."""
    flags = vocabulary_flags(vocab)
    return [f"{tok}\t{','.join(f)}" for tok, f in zip(vocab.tokens, flags)]


def vocabulary_from_lines(lines: Sequence[str], source: str) -> Vocabulary:
    """Inverse of :func:`vocabulary_lines`; errors name ``source``."""
    entries = []
    for lineno, line in enumerate(lines, 1):
        if "\t" not in line:
            raise FormatError(f"{source} line {lineno}: missing tab separator")
        tok, flag_str = line.split("\t", 1)
        entries.append((tok, [f for f in flag_str.split(",") if f]))
    return vocabulary_from_flags(entries, source)


def write_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """One token per line: ``<token>\\t<flags>``; line number is the id."""
    Path(path).write_text("\n".join(vocabulary_lines(vocab)) + "\n", encoding="utf-8")


def read_vocabulary(path: str | Path) -> Vocabulary:
    return vocabulary_from_lines(read_text(path).splitlines(), f"vocabulary {path}")


def read_text(path: str | Path) -> str:
    """A UTF-8 text file's contents; other bytes raise FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc


def read_json(path: str | Path):
    """The JSON document in a UTF-8 file.  Malformed JSON, and JSON nested
    deeper than the parser's recursion limit, raise FormatError."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: not a JSON document ({exc})") from exc


def _check_rows_normalized(log_probs: np.ndarray, tol: float = 1e-6) -> None:
    lse = logsumexp_rows(log_probs)
    bad = np.flatnonzero(~(np.abs(lse) <= tol))
    if bad.size:
        t = bad[0]
        raise ValidationError(
            f"posteriorgram row {t} is not normalized: log-sum-exp = {lse[t]:.3e}"
        )


@dataclass(frozen=True)
class Posteriorgram:
    """T x V frame-wise natural-log probability matrix.

    Each row must log-sum-exp to 0 within 1e-6.  frame_duration_ms makes
    real-time factors self-describing (default 60: 10ms features, factor 6).
    """

    log_probs: np.ndarray
    frame_duration_ms: float = 60.0

    def __post_init__(self):
        lp = np.asarray(self.log_probs, dtype=np.float64)
        object.__setattr__(self, "log_probs", lp)
        if lp.ndim != 2 or lp.shape[0] < 1 or lp.shape[1] < 1:
            raise ValidationError("posteriorgram must be a T x V matrix with T, V >= 1")
        if self.frame_duration_ms <= 0:
            raise ValidationError("frame_duration_ms must be positive")
        _check_rows_normalized(lp)
        lp.setflags(write=False)

    @property
    def num_frames(self) -> int:
        return self.log_probs.shape[0]

    @property
    def num_labels(self) -> int:
        return self.log_probs.shape[1]

    @property
    def duration_seconds(self) -> float:
        return self.num_frames * self.frame_duration_ms / 1000.0


def check_width(pg: Posteriorgram, vocab: Vocabulary, what: str = "posteriorgram") -> None:
    """Raise ValidationError unless ``pg`` has a column per label of ``vocab``."""
    if pg.num_labels != vocab.size:
        raise ValidationError(f"{what} has {pg.num_labels} labels, the vocabulary {vocab.size}")


def _write_matrix(path: str | Path, magic: bytes, matrix: np.ndarray, *fields: int) -> None:
    """Inverse of :func:`_read_matrix`."""
    with open(path, "wb") as f:
        f.write(magic + struct.pack(f"<{3 + len(fields)}I", FORMAT_VERSION, *matrix.shape, *fields))
        f.write(matrix.astype("<f4").tobytes(order="C"))


def write_posteriorgram(pg: Posteriorgram, path: str | Path) -> None:
    dur_us = int(round(pg.frame_duration_ms * 1000.0))
    _write_matrix(path, POSTERIORGRAM_MAGIC, pg.log_probs, dur_us)


def _read_matrix(path: str | Path, magic: bytes, header: str, log_domain: bool):
    """The header fields past version and shape, and the float64 payload,
    of an FKPG (``log_domain``: -inf allowed) or FKEO file."""
    data = Path(path).read_bytes()
    if data[:4] != magic:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {magic!r}")
    end = 4 + struct.calcsize("<III" + header)
    if len(data) < end:
        raise FormatError(f"{path}: truncated header")
    version, rows, cols, *fields = struct.unpack("<III" + header, data[4:end])
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    if len(data) - end != rows * cols * 4:
        raise FormatError(f"{path}: payload has {len(data) - end} bytes, expected {rows * cols * 4}")
    # NaN and inf set every exponent bit; a float test would warn on a signaling NaN
    bits = np.frombuffer(data, dtype="<u4", offset=end)
    bad = ((bits & 0x7F800000) == 0x7F800000) & ~(log_domain & (bits == 0xFF800000))
    if bad.any():
        sign = "+" if log_domain else ""
        raise FormatError(f"{path}: row {int(np.argmax(bad)) // cols} holds a NaN or {sign}inf")
    return fields, np.frombuffer(data, dtype="<f4", offset=end).reshape(rows, cols).astype(np.float64)


def read_posteriorgram(path: str | Path) -> Posteriorgram:
    (dur_us,), mat = _read_matrix(path, POSTERIORGRAM_MAGIC, "I", log_domain=True)
    return Posteriorgram(log_probs=mat, frame_duration_ms=dur_us / 1000.0)


@dataclass(frozen=True)
class EncoderOutput:
    """T x D matrix of real-valued encoder frames."""

    frames: np.ndarray

    def __post_init__(self):
        fr = np.asarray(self.frames, dtype=np.float64)
        object.__setattr__(self, "frames", fr)
        if fr.ndim != 2 or fr.shape[0] < 1 or fr.shape[1] < 1:
            raise ValidationError("encoder output must be a T x D matrix with T, D >= 1")
        fr.setflags(write=False)


def write_encoder_output(enc: EncoderOutput, path: str | Path) -> None:
    _write_matrix(path, ENCODER_OUTPUT_MAGIC, enc.frames)


def read_encoder_output(path: str | Path) -> EncoderOutput:
    return EncoderOutput(frames=_read_matrix(path, ENCODER_OUTPUT_MAGIC, "", log_domain=False)[1])


@dataclass
class ScorerWeights:
    """Log-linear combination weights and length normalisation for beam search."""

    weights: dict[str, float]
    length_norm: bool = False

    def __post_init__(self):
        for name, w in self.weights.items():
            if not math.isfinite(w):
                raise ValidationError(f"weight of scorer {name!r} must be finite, not {w!r}")
        if not any(w != 0.0 for w in self.weights.values()):
            raise ValidationError("at least one scorer weight must be nonzero")

    def combine(self, components: dict[str, float]) -> float:
        # zero-weight scorers are inert even when their component is -inf
        total = 0.0
        for name, v in components.items():
            w = self.weights.get(name, 0.0)
            if w != 0.0:
                total += w * v
        return total
