"""Backoff n-gram and table-driven language models, perplexity, retokenization.

Models are immutable after training or loading; scoring is reentrant.  The
n-gram keeps its tables in log10 (as serialized) and converts to natural log
at query time so that save/load round-trips are byte-identical.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter
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
    logsumexp_rows,
    vocabulary_flags,
    vocabulary_from_flags,
    vocabulary_from_lines,
    vocabulary_lines,
)

LN10 = math.log(10.0)
NGRAM_MAGIC = "FKLM v1"
UNK_TOKEN = "<unk>"
ROW_CACHE_ROWS = 1 << 14  # bound of an n-gram model's row cache
LOGPROB_ROWS = 1 << 10  # rows a sequence's log probability asks for at once


def support_ids(vocab: Vocabulary) -> list[int]:
    """Tokens a language model may predict: everything except blank and BOS."""
    return [i for i in range(vocab.size) if i not in (vocab.blank_id, vocab.bos_id)]


@dataclass(frozen=True)
class NGramModel:
    """Maximum-likelihood n-gram with stupid backoff and an add-one unigram floor.

    ``tables[k]`` maps a length-k context tuple to {token: log10 ML prob};
    levels above the deepest that holds an entry are dropped, so ``order``
    may exceed ``len(tables)``.
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
    # per context length k >= 1: context -> (start, stop) into flat token and log10 arrays
    _levels: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        unigram = np.full(self.vocab.size, np.nan)  # load_ngram rejects a gap in the support
        for tok, val in self.tables[0].get((), {}).items():
            unigram[tok] = val
        # levels above the deepest that holds an entry are absent, as if empty
        deepest = max((k for k, table in enumerate(self.tables) if table), default=0)
        object.__setattr__(self, "tables", tuple(self.tables[: deepest + 1]))
        levels = []
        for table in self.tables[1:]:
            index, toks, vals = {}, [], []
            for ctx, dist in table.items():
                index[ctx] = (len(toks), len(toks) + len(dist))
                toks.extend(dist)
                vals.extend(dist.values())
            levels.append((index, np.array(toks, dtype=np.intp), np.array(vals, dtype=float)))
        object.__setattr__(self, "_support", np.array(support_ids(self.vocab)))
        object.__setattr__(self, "_unigram", unigram)
        object.__setattr__(self, "_levels", tuple(levels))

    def conditionals(self, context: Sequence[int]) -> np.ndarray:
        """Normalized natural-log distribution over the full vocab for a context.

        Blank and BOS always score -inf.  The context is truncated to the
        model order internally.
        """
        return self.rows([context])[0]

    def rows(self, contexts: Iterable[Sequence[int]]) -> np.ndarray:
        """:meth:`conditionals` of each context as an (R, V) array.  Missing
        rows are built together; the row cache holds at most
        ``ROW_CACHE_ROWS``, and a batch that would overflow it clears it."""
        keep = self.order - 1
        ctxs = [tuple(c)[max(0, len(c) - keep) :] for c in contexts]
        cache = self._cond_cache
        rows = {ctx: cache.get(ctx) for ctx in ctxs}
        new = [ctx for ctx, row in rows.items() if row is None]
        if new:
            rows.update(zip(new, self._block(new)))
            if len(cache) + len(new) > ROW_CACHE_ROWS:
                cache.clear()
            cache.update((ctx, rows[ctx]) for ctx in new[:ROW_CACHE_ROWS])
        return np.array([rows[c] for c in ctxs]).reshape(len(ctxs), self.vocab.size)

    def _block(self, ctxs: list[tuple[int, ...]]) -> np.ndarray:
        """Read-only rows of distinct truncated contexts: the unigram row
        under each context's full discount, then each matching level, lowest
        first, so the longest match wins.  Discounts are summed by repeated
        += from 0.0, as a walk from the longest context down adds them."""
        lens = np.array([len(ctx) for ctx in ctxs])
        step = math.log10(self.backoff_factor)
        discounts = np.array(list(itertools.accumulate([0.0] + [step] * lens.max())))
        block = discounts[lens][:, None] + self._unigram
        for k, (index, toks, vals) in enumerate(self._levels[: lens.max()], 1):
            hits = [(i, span) for i, ctx in enumerate(ctxs) if len(ctx) >= k and (span := index.get(ctx[-k:]))]
            if hits:
                rows, spans = zip(*hits)
                rows = np.repeat(rows, [b - a for a, b in spans])
                cols = np.concatenate([toks[a:b] for a, b in spans])
                block[rows, cols] = discounts[lens[rows] - k] + np.concatenate([vals[a:b] for a, b in spans])
        # a C-ordered copy: the row sums of the F-ordered gather round
        # differently from the 1-D logsumexp
        raw = np.ascontiguousarray(block[:, self._support]) * LN10
        out = np.full_like(block, NEG_INF)
        out[:, self._support] = raw - logsumexp_rows(raw)[:, None]
        out.setflags(write=False)
        return out

    @property
    def context_size(self) -> int:
        """How many of a history's last tokens its conditionals depend on."""
        return self.order - 1


def train_ngram(
    vocab: Vocabulary,
    corpus: Iterable[Sequence[int]],
    order: int,
    backoff_factor: float = 0.4,
) -> NGramModel:
    """Count-based n-gram over token-id sequences (EOS appended per sequence).

    The unigram level counts only the corpus tokens themselves (EOS enters
    through higher-order events and the add-one floor), matching the hand
    count (c + 1) / (N + |support|).  An event of order k >= 2 is a token
    and the k - 1 before it, BOS-padded.
    """
    corpus = [list(seq) for seq in corpus]
    if not corpus:
        raise ValidationError("training corpus is empty")
    if order < 1:
        raise ValidationError(f"order must be >= 1, not {order}")
    if not 0.0 < backoff_factor < math.inf:
        raise ValidationError(f"backoff factor must be finite and > 0, not {backoff_factor!r}")
    support = support_ids(vocab)
    plain = {i for i in range(vocab.size) if not vocab.is_special(i)}
    unigrams: Counter[int] = Counter()
    events: Counter[tuple[int, ...]] = Counter()  # n-grams of orders 2..order
    pad = [vocab.bos_id] * (order - 1)
    for seq in corpus:
        if not plain.issuperset(seq):
            tok = next(t for t in seq if t not in plain)
            raise ValidationError(f"corpus token id {tok} invalid for training")
        unigrams.update(seq)
        padded = pad + seq + [vocab.eos_id]
        for k in range(2, order + 1):
            events.update(zip(*(padded[order - k + j :] for j in range(k))))

    tables: list[dict[tuple[int, ...], dict[int, float]]] = [{} for _ in range(order)]
    denom = sum(map(len, corpus)) + len(support)
    tables[0][()] = {tok: math.log10((unigrams[tok] + 1) / denom) for tok in support}
    for gram, cnt in events.items():  # counts first, then log10 ML probabilities
        tables[len(gram) - 1].setdefault(gram[:-1], {})[gram[-1]] = cnt
    for table in tables[1:]:
        for ctx, bucket in table.items():
            total = sum(bucket.values())
            table[ctx] = {tok: math.log10(cnt / total) for tok, cnt in bucket.items()}
    return NGramModel(vocab, order, backoff_factor, tuple(tables))


@dataclass(frozen=True)
class TableLM:
    """Explicit context-to-distribution map, for adversarial and exact fixtures.

    The longest stored key that is a suffix of the history wins; unseen
    histories fall back to the default distribution.  Of two entries with
    one key, the first wins.  Distributions span the full vocab and must be
    normalized within 1e-9.
    """

    vocab: Vocabulary
    entries: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    default: np.ndarray
    _index: dict[tuple[int, ...], np.ndarray] = field(init=False, compare=False, repr=False)
    context_size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "default", self._checked(np.asarray(self.default)))
        object.__setattr__(
            self,
            "entries",
            tuple((tuple(ctx), self._checked(np.asarray(d))) for ctx, d in self.entries),
        )
        index: dict[tuple[int, ...], np.ndarray] = {}
        for key, dist in self.entries:
            index.setdefault(key, dist)
        object.__setattr__(self, "_index", index)
        # how many of a history's last tokens its conditionals depend on
        object.__setattr__(self, "context_size", max(map(len, index), default=0))

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
        for k in range(min(len(ctx), self.context_size), -1, -1):
            dist = self._index.get(ctx[len(ctx) - k :])
            if dist is not None:
                return dist
        return self.default

    def rows(self, contexts: Iterable[Sequence[int]]) -> np.ndarray:
        """:meth:`conditionals` of each context, stacked into an (R, V) array."""
        return np.array([self.conditionals(c) for c in contexts]).reshape(-1, self.vocab.size)


def lm_logprob(model: NGramModel | TableLM, seq: Sequence[int]) -> float:
    """Log probability of a sequence, BOS-conditioned and EOS-terminated."""
    tokens = list(seq) + [model.vocab.eos_id]
    history = [model.vocab.bos_id] + tokens
    keep = model.context_size
    total = 0.0
    for start in range(0, len(tokens), LOGPROB_ROWS):
        part = range(start, min(start + LOGPROB_ROWS, len(tokens)))
        rows = model.rows(history[max(0, i + 1 - keep) : i + 1] for i in part)
        for row, i in zip(rows, part):
            total += float(row[tokens[i]])  # summed in sequence order
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
        raise ValidationError("perplexity of an empty corpus")
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
    uses_marker, ids, lengths, unk = _token_index(vocab)
    if not allow_unk:
        unk = None
    out: list[int] = []
    for word in words:
        target = WORD_MARKER + word if uses_marker else word
        pos = 0
        while pos < len(target):
            # a slice cut short by the word's end matches only the longest match
            for n in lengths:
                tid = ids.get(target[pos : pos + n])
                if tid is not None:
                    out.append(tid)
                    pos += n
                    break
            else:
                if unk is None:
                    raise ValueError(
                        f"cannot segment {word!r} at position {pos} and no UNK token"
                    )
                out.append(unk)
                pos += 1
    return out


@functools.lru_cache(maxsize=16)
def _token_index(vocab: Vocabulary) -> tuple[bool, dict[str, int], list[int], int | None]:
    """Whether ``vocab`` marks word starts, {token: lowest id} of its plain
    non-empty tokens, their lengths, longest first, and its UNK id."""
    ids: dict[str, int] = {}
    for tid, tok in enumerate(vocab.tokens):
        if tok and not vocab.is_special(tid):
            ids.setdefault(tok, tid)
    uses_marker = any(t.startswith(WORD_MARKER) for t in vocab.tokens)
    unk = vocab.id_of(UNK_TOKEN) if UNK_TOKEN in vocab.tokens else None
    return uses_marker, ids, sorted({len(t) for t in ids}, reverse=True), unk


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
    vocab_at, ngrams_at = (lines.index(s) if s in lines else len(lines) for s in ("[vocab]", "[ngrams]"))
    order = backoff = None
    for line in lines[1:vocab_at]:
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
    if order is None or backoff is None:
        raise FormatError(f"{path}: missing order or backoff header")
    if order < 1 or not 0.0 < backoff < math.inf:
        raise FormatError(f"{path}: order must be >= 1 and backoff positive, got {order}, {backoff}")
    vocab = vocabulary_from_lines(lines[vocab_at + 1 : ngrams_at], f"{path} [vocab]")
    tok_id = {t: i for i, t in enumerate(vocab.tokens)}
    # levels up to the deepest that holds an entry: the order header alone
    # allocates nothing
    tables: list[dict[tuple[int, ...], dict[int, float]]] = [{}]
    # save_ngram writes the entries sorted by (order, context): a group's
    # context is parsed once, at its first line
    group = None
    for lineno, line in enumerate(lines[ngrams_at + 1 :], ngrams_at + 2):
        try:
            k_str, ctx_str, tok, val = line.split("\t")
            if (k_str, ctx_str) != group:
                ctx = tuple(tok_id[t] for t in ctx_str.split(" ") if t)
                if not 1 <= int(k_str) <= order or len(ctx) != int(k_str) - 1:
                    raise ValueError(f"order {k_str} entry with a {len(ctx)}-token context")
                tables += [{} for _ in range(len(tables), len(ctx) + 1)]
                dist = tables[len(ctx)].setdefault(ctx, {})
                group = (k_str, ctx_str)
            value = float(val)
            if not math.isfinite(value):
                raise ValueError(f"log10 value {val!r} is not finite")
            dist[tok_id[tok]] = value
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
