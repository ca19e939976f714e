"""Backoff n-gram and table-driven language models, perplexity, retokenization.

Models are immutable after training or loading, but an n-gram model fills
its row store as it is queried, so one model must not be queried from two
threads at once.  The n-gram keeps its entries in log10, in the arrays that
FKLM stores, and converts to natural log at query time so that save/load
round-trips are byte-identical.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from fusionkit.core import (
    NEG_INF,
    WORD_MARKER,
    FormatError,
    ValidationError,
    Vocabulary,
    logsumexp,
    logsumexp_rows,
    read_json,
    vocabulary_flags,
    vocabulary_from_flags,
    vocabulary_from_lines,
    vocabulary_lines,
)

LN10 = math.log(10.0)
NGRAM_MAGIC = b"FKLM"
NGRAM_VERSION = 2
# past the magic: version, order, levels, backoff, vocabulary bytes; per level: n, m
_NGRAM_HEADER = struct.Struct("<IIIdI")
_LEVEL_HEADER = struct.Struct("<II")
UNK_TOKEN = "<unk>"
ROW_CACHE_ROWS = 1 << 14  # bound of the contexts an n-gram model's row store holds
LOGPROB_ROWS = 1 << 10  # rows a sequence's log probability asks for at once
MAX_ORDER = 16  # train_ngram's cap: its time and the FKLM size grow with order^2


def support_ids(vocab: Vocabulary) -> list[int]:
    """Tokens a language model may predict: everything except blank and BOS."""
    return [i for i in range(vocab.size) if i not in (vocab.blank_id, vocab.bos_id)]


class NGramLevel(NamedTuple):
    """The length-k contexts' entries as FKLM stores them: (n, k) contexts, rising,
    their entry counts, the tokens, rising within a context, and log10 probs."""

    contexts: np.ndarray
    counts: np.ndarray
    tokens: np.ndarray
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class NGramModel:
    """Maximum-likelihood n-gram with stupid backoff and an add-one unigram floor.

    ``levels[k]`` holds the entries of the length-k contexts; levels above
    the deepest that holds an entry are absent, so ``order`` may exceed
    ``len(levels)``.
    The unigram level (k=0 context) is already add-one smoothed over the
    support, so no query can ever score -inf.  Conditional distributions are
    renormalized over the support after backoff mixing.
    """

    vocab: Vocabulary
    order: int
    backoff_factor: float
    levels: tuple[NGramLevel, ...]
    _support: np.ndarray = field(init=False, repr=False)
    _unigram: np.ndarray = field(init=False, repr=False)  # log10, by support column
    # per context length k >= 1: context -> (start, stop) into flat support
    # columns and log10 values, as arrays; entries off the support are
    # never read
    _levels: tuple = field(init=False, repr=False)
    _discounts: list = field(init=False, repr=False)  # of j backoff steps, by j
    # the row store: one row per backoff state held, and the store row of
    # each held truncated context and backoff state (see _state)
    _store: np.ndarray = field(init=False, repr=False)
    _row_of: dict = field(init=False, repr=False)
    _row_of_state: dict = field(init=False, repr=False)

    def __post_init__(self):
        support = np.array(support_ids(self.vocab))
        column = np.full(self.vocab.size, -1)
        column[support] = np.arange(len(support))
        levels = []
        for contexts, counts, tokens, values in self.levels:
            cols = column[tokens]
            on = cols >= 0
            # a context's entries, before and after those off the support are dropped
            ends = np.concatenate([[0], np.cumsum(counts)])
            bounds = np.concatenate([[0], on.cumsum()])[ends].tolist()
            index = dict(zip(map(tuple, contexts.tolist()), zip(bounds, bounds[1:])))
            levels.append((index, cols[on], values[on]))
        _, unigram_cols, unigram_vals = levels.pop(0)
        unigram = np.full(len(support), np.nan)  # load_ngram rejects a gap in the support
        unigram[unigram_cols] = unigram_vals
        object.__setattr__(self, "_support", support)
        object.__setattr__(self, "_unigram", unigram)
        object.__setattr__(self, "_levels", tuple(levels))
        object.__setattr__(self, "_discounts", [0.0])
        self._clear()

    def _clear(self) -> None:
        object.__setattr__(self, "_store", np.empty((0, self.vocab.size)))
        object.__setattr__(self, "_row_of", {})
        object.__setattr__(self, "_row_of_state", {})

    def conditionals(self, context: Sequence[int]) -> np.ndarray:
        """Normalized natural-log distribution over the full vocab for a context.

        Blank and BOS always score -inf.  The context is truncated to the
        model order internally.
        """
        return self.rows([context])[0]

    def rows(self, contexts: Iterable[Sequence[int]]) -> np.ndarray:
        """:meth:`conditionals` of each context as an (R, V) array, gathered
        from the row store at once; see :meth:`_fill` for a batch with
        contexts it does not hold."""
        keep = self.order - 1
        ctxs = [tuple(c)[-keep:] for c in contexts] if keep else [() for _ in contexts]
        row_of = self._row_of
        try:
            return self._store.take([row_of[c] for c in ctxs], axis=0)
        except KeyError:
            return self._fill(ctxs)

    def _fill(self, ctxs: list[tuple[int, ...]]) -> np.ndarray:
        """:meth:`rows` of truncated contexts, some not held.  A new context
        gets the store row of its backoff state; the rows of states not held
        are built onto the store, which grows to fit them exactly.  At most
        ``ROW_CACHE_ROWS`` contexts are held: a batch that would overflow
        them clears the store first, and one larger than that is not kept."""
        new = [c for c in dict.fromkeys(ctxs) if c not in self._row_of]
        if len(self._row_of) + len(new) > ROW_CACHE_ROWS:
            self._clear()
            new = list(dict.fromkeys(ctxs))
        row_of, row_of_state = self._row_of, self._row_of_state
        states = [self._state(c) for c in new]
        fresh = [s for s in dict.fromkeys(states) if s not in row_of_state]
        if fresh:
            held = len(self._store)
            # grown in place, never held twice; refcheck may be skipped as
            # no view of the store outlives a call.  New rows are -inf off
            # the support
            self._store.resize((held + len(fresh), self.vocab.size), refcheck=False)
            self._store[held:] = NEG_INF
            self._store[held:, self._support] = self._block(fresh)
            row_of_state.update(zip(fresh, range(held, len(self._store))))
        row_of.update(zip(new, map(row_of_state.__getitem__, states)))
        out = self._store.take([row_of[c] for c in ctxs], axis=0)
        if len(row_of) > ROW_CACHE_ROWS:
            self._clear()
        return out

    def _state(self, ctx: tuple[int, ...]) -> tuple:
        """A truncated context's backoff state, all that its row depends on:
        its length and, lowest first, each level whose suffix of the context
        it holds with that suffix's entry span.  The levels need not nest, so
        a shorter suffix may be missing where a longer one is held."""
        n = len(ctx)
        spans = []
        for k, (index, _, _) in enumerate(self._levels[:n], 1):
            span = index.get(ctx[n - k :])
            if span is not None:
                spans.append((k, *span))
        return n, tuple(spans)

    def _block(self, states: list[tuple]) -> np.ndarray:
        """Support columns of the rows of distinct backoff states: the
        unigram under the state's full discount, then each matching level's
        span, lowest first, so the longest match wins, then a row-wise
        log-sum-exp.  Discounts are summed by repeated += from 0.0, as a
        walk from the longest context down adds them."""
        discounts = self._discounts
        top = max(n for n, _ in states)
        while len(discounts) <= top:
            discounts.append(discounts[-1] + math.log10(self.backoff_factor))
        block = np.array([discounts[n] for n, _ in states])[:, None] + self._unigram
        for row, (n, spans) in zip(block, states):
            for k, start, stop in spans:
                _, cols, vals = self._levels[k - 1]
                row[cols[start:stop]] = vals[start:stop] + discounts[n - k]
        # C-ordered: the row sums of another layout round differently from
        # the 1-D logsumexp
        block *= LN10
        block -= logsumexp_rows(block)[:, None]
        return block

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
    if not 1 <= order <= MAX_ORDER:
        raise ValidationError(f"order must be >= 1 and at most {MAX_ORDER}, not {order}")
    if not 0.0 < backoff_factor < math.inf:
        raise ValidationError(f"backoff factor must be finite and > 0, not {backoff_factor!r}")
    plain = {i for i in range(vocab.size) if not vocab.is_special(i)}
    events = [Counter() for _ in range(order)]  # by context length k: n-grams of order k + 1
    pad = [vocab.bos_id] * (order - 1)
    for seq in corpus:
        if not plain.issuperset(seq):
            tok = next(t for t in seq if t not in plain)
            raise ValidationError(f"corpus token id {tok} invalid for training")
        events[0].update(zip(seq))
        padded = pad + seq + [vocab.eos_id]
        for k in range(1, order):
            events[k].update(zip(*(padded[order - 1 - k + j :] for j in range(k + 1))))
    # the add-one floor: the counts sum to N + |support|
    events[0] = Counter({(tok,): events[0][tok,] + 1 for tok in support_ids(vocab)})
    levels = []
    for k, counter in enumerate(events):
        grams, counts = zip(*sorted(counter.items()))  # by context, then token
        grams = np.array(grams, np.int32)
        starts = np.flatnonzero(np.concatenate([[True], np.any(grams[1:, :k] != grams[:-1, :k], axis=1)]))
        sizes = np.diff(starts, append=len(grams))
        totals = np.repeat(np.add.reduceat(counts, starts), sizes).tolist()
        values = [math.log10(cnt / total) for cnt, total in zip(counts, totals)]
        levels.append(NGramLevel(grams[starts, :k], sizes.astype(np.int32), grams[:, k], np.array(values)))
    return NGramModel(vocab, order, backoff_factor, tuple(levels))


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


def perplexities(
    model: NGramModel | TableLM, corpus: Iterable[Sequence[int]], num_words: int
) -> tuple[float, float | None]:
    """Token and word perplexity from one pass over ``corpus``: exp(-total
    log prob / count), the token count taking EOS once per sequence and the
    word count ``num_words``.  The word figure is None when it is 0."""
    if num_words < 0:
        raise ValueError("word count must not be negative")
    total = 0.0
    count = 0
    for seq in corpus:
        seq = list(seq)
        total += lm_logprob(model, seq)
        count += len(seq) + 1
    if count == 0:
        raise ValidationError("perplexity of an empty corpus")
    return math.exp(-total / count), math.exp(-total / num_words) if num_words else None


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
                    raise ValidationError(f"cannot segment {word!r} at position {pos} and no UNK token")
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
    """FKLM v2: the header, the vocabulary lines and each level's arrays,
    little-endian (README "File formats")."""
    vocab = "\n".join(vocabulary_lines(model.vocab)).encode("utf-8")
    parts = [NGRAM_MAGIC, _NGRAM_HEADER.pack(NGRAM_VERSION, model.order, len(model.levels),
                                             model.backoff_factor, len(vocab)), vocab]
    for contexts, counts, tokens, values in model.levels:
        ids = np.concatenate([contexts.ravel(), counts, tokens]).astype("<i4")
        parts += [_LEVEL_HEADER.pack(len(counts), len(tokens)), ids.tobytes(), values.astype("<f8").tobytes()]
    Path(path).write_bytes(b"".join(parts))


def load_ngram(path: str | Path) -> NGramModel:
    """Inverse of :func:`save_ngram`.  FormatError names the file; each
    count is checked against the bytes left before its arrays are read."""
    data = Path(path).read_bytes()
    if data.startswith(NGRAM_MAGIC + b" v1"):
        raise FormatError(f"{path}: an FKLM v1 (text) file, no longer read; re-run lm-train to write FKLM v2")
    if data[:4] != NGRAM_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {NGRAM_MAGIC!r}")
    pos = 4 + _NGRAM_HEADER.size
    if len(data) < pos:
        raise FormatError(f"{path}: truncated header")
    version, order, depth, backoff, size = _NGRAM_HEADER.unpack_from(data, 4)
    if version != NGRAM_VERSION:
        raise FormatError(f"{path}: unsupported FKLM version {version}")
    if order < 1 or not 0.0 < backoff < math.inf:
        raise FormatError(f"{path}: order must be >= 1 and backoff positive, got {order}, {backoff}")
    if not 1 <= depth <= order:
        raise FormatError(f"{path}: {depth} levels for an order-{order} model")
    if len(data) < pos + size:
        raise FormatError(f"{path}: truncated vocabulary")
    try:
        lines = data[pos : pos + size].decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: vocabulary is not UTF-8 ({exc})") from exc
    vocab = vocabulary_from_lines(lines, f"{path} vocabulary")
    pos += size
    levels = []
    for k in range(depth):
        if len(data) < pos + _LEVEL_HEADER.size:
            raise FormatError(f"{path}: level {k} truncated")
        n, m = _LEVEL_HEADER.unpack_from(data, pos)
        pos += _LEVEL_HEADER.size
        if 4 * n * (k + 1) + 12 * m > len(data) - pos:
            raise FormatError(f"{path}: level {k} holds {n} contexts and {m} entries, "
                              f"more than its {len(data) - pos} bytes hold")
        ids = np.frombuffer(data, "<i4", n * (k + 1) + m, pos)
        values = np.frombuffer(data, "<f8", m, pos + ids.nbytes)
        pos += ids.nbytes + values.nbytes
        level = NGramLevel(ids[: n * k].reshape(n, k), ids[n * k : n * (k + 1)], ids[n * (k + 1) :], values)
        _check_level(level, vocab.size, f"{path}: level {k}")
        levels.append(level)
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} trailing bytes")
    have = np.zeros(vocab.size, bool)
    have[levels[0].tokens] = True
    missing = [vocab.tokens[i] for i in support_ids(vocab) if not have[i]]
    if missing:
        raise FormatError(f"{path}: no unigram entry for {len(missing)} token(s): {missing[:5]}")
    return NGramModel(vocab, order, backoff, tuple(levels))


def _check_level(level: NGramLevel, size: int, where: str) -> None:
    """Raise FormatError, prefixed ``where``, unless ``level`` is an FKLM level over ``size`` tokens."""
    contexts, counts, tokens, values = level
    if not (((contexts >= 0) & (contexts < size)).all() and ((tokens >= 0) & (tokens < size)).all()):
        raise FormatError(f"{where} holds a token id out of range")
    # the log10 of a probability a float64 holds, so that no sum of them overflows
    if not ((values >= -324.0) & (values <= 0.0)).all():
        raise FormatError(f"{where} holds a log10 probability that is not finite or not in [-324, 0]")
    if (counts < 0).any() or counts.sum() != len(tokens):
        raise FormatError(f"{where} entry counts do not sum to its {len(tokens)} entries")
    # each context's first step from the one before must be up
    steps = np.diff(contexts, axis=0)
    first = np.cumsum(steps != 0, axis=1) == 1
    if not (np.where(first, steps, 0).sum(axis=1) > 0).all():
        raise FormatError(f"{where} contexts are not strictly increasing")
    # (context index, token) keys rise where the tokens rise within a context
    if not (np.diff(np.repeat(np.arange(len(counts)) * size, counts) + tokens) > 0).all():
        raise FormatError(f"{where} tokens are not strictly increasing within a context")


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
    doc = read_json(path)
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
