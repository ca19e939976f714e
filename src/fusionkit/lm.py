"""Backoff n-gram and table-driven language models, perplexity, retokenization.

Models are immutable after training or loading; scoring is reentrant.  The
n-gram keeps its tables in log10 (as serialized) and converts to natural log
at query time so that save/load round-trips are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from fusionkit.core import (
    NEG_INF,
    WORD_MARKER,
    FormatError,
    ValidationError,
    Vocabulary,
    logsumexp,
    vocabulary_flags,
    vocabulary_from_flags,
    vocabulary_from_lines,
    vocabulary_lines,
)

LN10 = math.log(10.0)
NGRAM_MAGIC = "FKLM v1"
UNK_TOKEN = "<unk>"


def support_ids(vocab: Vocabulary) -> list[int]:
    """Tokens a language model may predict: everything except blank and BOS."""
    return [i for i in range(vocab.size) if i not in (vocab.blank_id, vocab.bos_id)]


@dataclass(frozen=True)
class NGramModel:
    """Maximum-likelihood n-gram with stupid backoff and an add-one unigram floor.

    ``tables[k]`` maps a length-k context tuple to {token: log10 ML prob}.
    The unigram table (k=0 context) is already add-one smoothed over the
    support, so no query can ever score -inf.  Conditional distributions are
    renormalized over the support after backoff mixing.
    """

    vocab: Vocabulary
    order: int
    backoff_factor: float
    tables: tuple[dict[tuple[int, ...], dict[int, float]], ...]
    _cond_cache: dict[tuple[int, ...], np.ndarray] = field(
        default_factory=dict, compare=False, repr=False
    )
    _support: np.ndarray = field(init=False, compare=False, repr=False)
    _unigram: np.ndarray = field(init=False, compare=False, repr=False)  # log10, by token id

    def __post_init__(self):
        unigram = np.full(self.vocab.size, np.nan)  # load_ngram rejects a gap in the support
        for tok, val in self.tables[0].get((), {}).items():
            unigram[tok] = val
        object.__setattr__(self, "_support", np.array(support_ids(self.vocab)))
        object.__setattr__(self, "_unigram", unigram)

    @property
    def unk_id(self) -> int | None:
        try:
            return self.vocab.id_of(UNK_TOKEN)
        except ValueError:
            return None

    def conditionals(self, context: Sequence[int]) -> np.ndarray:
        """Normalized natural-log distribution over the full vocab for a context.

        Blank and BOS always score -inf.  The context is truncated to the
        model order internally.
        """
        ctx = tuple(context)[max(0, len(context) - (self.order - 1)) :]
        cached = self._cond_cache.get(ctx)
        if cached is not None:
            return cached
        # every token's backoff walk at once: the unigram row under the full
        # discount, then each matching level, lowest first, so the longest
        # match wins.  Discounts are summed by repeated += from 0.0, as a
        # walk from the longest context down adds them.
        step = math.log10(self.backoff_factor)
        discounts = [0.0]
        for _ in ctx:
            discounts.append(discounts[-1] + step)
        log10 = discounts[-1] + self._unigram
        for k in range(1, len(ctx) + 1):
            dist = self.tables[k].get(ctx[-k:])
            if dist:
                toks = np.fromiter(dist.keys(), np.intp, len(dist))
                log10[toks] = discounts[len(ctx) - k] + np.fromiter(dist.values(), float, len(dist))
        raw = log10[self._support] * LN10
        out = np.full(self.vocab.size, NEG_INF)
        out[self._support] = raw - logsumexp(raw)
        out.setflags(write=False)
        self._cond_cache[ctx] = out
        return out

    def logprob(self, token: int, context: Sequence[int]) -> float:
        return float(self.conditionals(context)[token])


def _iter_events(seq: Sequence[int], order: int, bos: int, eos: int):
    padded = [bos] * (order - 1) + list(seq) + [eos]
    for pos in range(order - 1, len(padded)):
        yield tuple(padded[max(0, pos - order + 1) : pos]), padded[pos]


def train_ngram(
    vocab: Vocabulary,
    corpus: Iterable[Sequence[int]],
    order: int,
    backoff_factor: float = 0.4,
) -> NGramModel:
    """Count-based n-gram over token-id sequences (EOS appended per sequence).

    The unigram level counts only the corpus tokens themselves (EOS enters
    through higher-order events and the add-one floor), matching the hand
    count (c + 1) / (N + |support|).
    """
    corpus = [list(seq) for seq in corpus]
    if not corpus:
        raise ValueError("training corpus is empty")
    if order < 1:
        raise ValueError("order must be >= 1")
    support = support_ids(vocab)
    uni_counts: dict[int, int] = {}
    ctx_counts: list[dict[tuple[int, ...], dict[int, int]]] = [
        {} for _ in range(order + 1)
    ]
    n_tokens = 0
    for seq in corpus:
        for tok in seq:
            if not 0 <= tok < vocab.size or vocab.is_special(tok):
                raise ValidationError(f"corpus token id {tok} invalid for training")
            uni_counts[tok] = uni_counts.get(tok, 0) + 1
            n_tokens += 1
        for k in range(2, order + 1):
            for ctx, tok in _iter_events(seq, k, vocab.bos_id, vocab.eos_id):
                bucket = ctx_counts[k - 1].setdefault(ctx, {})
                bucket[tok] = bucket.get(tok, 0) + 1

    tables: list[dict[tuple[int, ...], dict[int, float]]] = [{} for _ in range(order)]
    denom = n_tokens + len(support)
    tables[0][()] = {
        tok: math.log10((uni_counts.get(tok, 0) + 1) / denom) for tok in support
    }
    for k in range(2, order + 1):
        for ctx, bucket in ctx_counts[k - 1].items():
            total = sum(bucket.values())
            tables[k - 1][ctx] = {
                tok: math.log10(cnt / total) for tok, cnt in bucket.items()
            }
    return NGramModel(vocab, order, backoff_factor, tuple(tables))


@dataclass(frozen=True)
class TableLM:
    """Explicit context-to-distribution map, for adversarial and exact fixtures.

    The longest stored key that is a suffix of the history wins; unseen
    histories fall back to the default distribution.  Distributions span the
    full vocab and must be normalized within 1e-9.
    """

    vocab: Vocabulary
    entries: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    default: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "default", self._checked(np.asarray(self.default)))
        object.__setattr__(
            self,
            "entries",
            tuple((tuple(ctx), self._checked(np.asarray(d))) for ctx, d in self.entries),
        )

    def _checked(self, dist: np.ndarray) -> np.ndarray:
        dist = dist.astype(np.float64)
        if dist.shape != (self.vocab.size,):
            raise ValidationError("table distribution has wrong width")
        if abs(logsumexp(dist)) > 1e-9:
            raise ValidationError("table distribution is not normalized")
        dist.setflags(write=False)
        return dist

    def conditionals(self, context: Sequence[int]) -> np.ndarray:
        ctx = tuple(context)
        best = None
        best_len = -1
        for key, dist in self.entries:
            if len(key) > best_len and len(key) <= len(ctx) and ctx[len(ctx) - len(key) :] == key:
                best, best_len = dist, len(key)
        return best if best is not None else self.default

    def logprob(self, token: int, context: Sequence[int]) -> float:
        return float(self.conditionals(context)[token])


def lm_logprob(model: NGramModel | TableLM, seq: Sequence[int]) -> float:
    """Log probability of a sequence, BOS-conditioned and EOS-terminated."""
    total = 0.0
    history: list[int] = [model.vocab.bos_id]
    for tok in list(seq) + [model.vocab.eos_id]:
        total += model.logprob(tok, history)
        history.append(tok)
    return total


def perplexity(model: NGramModel | TableLM, corpus: Iterable[Sequence[int]]) -> float:
    """exp(-mean token log prob), EOS counted once per sequence."""
    total = 0.0
    count = 0
    for seq in corpus:
        seq = list(seq)
        total += lm_logprob(model, seq)
        count += len(seq) + 1
    if count == 0:
        raise ValueError("perplexity of an empty corpus")
    return math.exp(-total / count)


def word_perplexity(
    model: NGramModel | TableLM, corpus: Iterable[Sequence[int]], num_words: int
) -> float:
    """Total corpus log prob renormalized per word instead of per token."""
    if num_words < 1:
        raise ValueError("word count must be positive")
    total = sum(lm_logprob(model, seq) for seq in corpus)
    return math.exp(-total / num_words)


def retokenize(vocab: Vocabulary, text: str | Sequence[str], allow_unk: bool = True) -> list[int]:
    """Greedy longest-match segmentation into token ids, word by word.

    Word-initial positions match marker-carrying tokens naturally; positions
    inside a word cannot (the marker only occurs word-initially).  Unmatchable
    characters map to the reserved UNK token when the vocabulary has one.
    """
    words = text.split() if isinstance(text, str) else [w for w in text if w]
    uses_marker = any(t.startswith(WORD_MARKER) for t in vocab.tokens)
    by_length = sorted(range(vocab.size), key=lambda i: -len(vocab.tokens[i]))
    unk = None
    if allow_unk and UNK_TOKEN in vocab.tokens:
        unk = vocab.id_of(UNK_TOKEN)
    out: list[int] = []
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
                    raise ValueError(
                        f"cannot segment {word!r} at position {pos} and no UNK token"
                    )
                out.append(unk)
                pos += 1
    return out


def save_ngram(model: NGramModel, path: str | Path) -> None:
    """Versioned text format: header, embedded vocab, one entry per line.

    Entries are ``<order>\\t<context tokens>\\t<token>\\t<log10 prob>`` with
    space-joined context tokens, so token strings must not contain spaces.
    """
    for tok in model.vocab.tokens:
        if " " in tok:
            raise FormatError(f"token {tok!r} contains a space; not serializable")
    lines = [NGRAM_MAGIC, f"order\t{model.order}", f"backoff\t{model.backoff_factor!r}"]
    lines.append("[vocab]")
    lines.extend(vocabulary_lines(model.vocab))
    lines.append("[ngrams]")
    toks = model.vocab.tokens
    for k, table in enumerate(model.tables):
        for ctx in sorted(table):
            for tok in sorted(table[ctx]):
                ctx_str = " ".join(toks[i] for i in ctx)
                lines.append(f"{k + 1}\t{ctx_str}\t{toks[tok]}\t{table[ctx][tok]!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_ngram(path: str | Path) -> NGramModel:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc
    if not lines or lines[0] != NGRAM_MAGIC:
        raise FormatError(f"{path}: not a {NGRAM_MAGIC} file")
    order = backoff = None
    vocab_lines: list[str] = []
    ngram_lines: list[str] = []
    section = "header"
    for line in lines[1:]:
        if line == "[vocab]":
            section = "vocab"
        elif line == "[ngrams]":
            section = "ngrams"
        elif section == "header":
            key, tab, val = line.partition("\t")
            if not tab:
                raise FormatError(f"{path}: header line {line!r} is not '<key>\\t<value>'")
            try:
                if key == "order":
                    order = int(val)
                elif key == "backoff":
                    backoff = float(val)
            except ValueError as exc:
                raise FormatError(f"{path}: bad {key} value {val!r}") from exc
        elif section == "vocab":
            vocab_lines.append(line)
        else:
            ngram_lines.append(line)
    if order is None or backoff is None:
        raise FormatError(f"{path}: missing order or backoff header")
    if order < 1 or not 0.0 < backoff < math.inf:
        raise FormatError(f"{path}: order must be >= 1 and backoff positive, got {order}, {backoff}")
    vocab = vocabulary_from_lines(vocab_lines, f"{path} [vocab]")
    tok_id = {t: i for i, t in enumerate(vocab.tokens)}
    tables: list[dict[tuple[int, ...], dict[int, float]]] = [{} for _ in range(order)]
    for lineno, line in enumerate(ngram_lines):
        try:
            k_str, ctx_str, tok, val = line.split("\t")
            ctx = tuple(tok_id[t] for t in ctx_str.split(" ") if t)
            if not 1 <= int(k_str) <= order or len(ctx) != int(k_str) - 1:
                raise ValueError(f"order {k_str} entry with a {len(ctx)}-token context")
            tables[len(ctx)].setdefault(ctx, {})[tok_id[tok]] = float(val)
        except (ValueError, KeyError) as exc:
            raise FormatError(f"{path}: bad n-gram entry on line {lineno}: {exc}") from exc
    unigram = tables[0].get((), {})
    missing = [vocab.tokens[i] for i in support_ids(vocab) if i not in unigram]
    if missing:
        raise FormatError(f"{path}: no unigram entry for {len(missing)} token(s): {missing[:5]}")
    return NGramModel(vocab, order, backoff, tuple(tables))


def save_table_lm(model: TableLM, path: str | Path) -> None:
    doc = {
        "format": "fusionkit-table-lm",
        "version": 1,
        "vocab": [list(e) for e in zip(model.vocab.tokens, vocabulary_flags(model.vocab))],
        "default": model.default.tolist(),
        "entries": [
            {"context": list(ctx), "dist": dist.tolist()} for ctx, dist in model.entries
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def load_table_lm(path: str | Path) -> TableLM:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise FormatError(f"{path}: not a JSON document ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != "fusionkit-table-lm" or doc.get("version") != 1:
        raise FormatError(f"{path}: not a fusionkit table LM file")
    missing = [key for key in ("vocab", "default", "entries") if key not in doc]
    if missing:
        raise FormatError(f"{path}: missing keys {missing}")
    try:
        vocab = vocabulary_from_flags(doc["vocab"], f"{path} vocab")
        entries = tuple(
            (tuple(e["context"]), np.array(e["dist"])) for e in doc["entries"]
        )
        return TableLM(vocab, entries, np.array(doc["default"]))
    except (FormatError, ValidationError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed table LM ({exc!r})") from exc


def uniform_table_lm(vocab: Vocabulary) -> TableLM:
    """Uniform distribution over the support; handy PPL and search fixture."""
    ids = support_ids(vocab)
    dist = np.full(vocab.size, NEG_INF)
    dist[ids] = -math.log(len(ids))
    return TableLM(vocab, (), dist)
