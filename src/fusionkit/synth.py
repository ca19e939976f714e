"""Synthetic posteriorgram corpora and adversarial oscillation scenarios.

The generator emits a few peaked frames per token with blank-dominant gaps.
Noise epsilon plays two roles per frame: clean frames put 1 - epsilon on the
emitted label and spread epsilon uniformly over the rest; with probability
epsilon a frame is instead ambiguous, splitting the peak mass between a
random wrong label (slightly ahead) and the true one.  Greedy decoding errs
on every ambiguous frame while score fusion can still recover the truth,
which is what makes the fusion trends measurable.  At epsilon 0 every
strategy recovers the reference exactly.

Everything is deterministic per seed; utterances use per-index derived seeds
so generation could run in parallel.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from fusionkit.core import NEG_INF, WORD_MARKER, Posteriorgram, ValidationError, Vocabulary
from fusionkit.lm import TableLM, retokenize

WORD_LIST = (
    "the", "and", "for", "are", "but", "not", "you", "all", "can", "her",
    "was", "one", "our", "out", "day", "get", "has", "him", "how", "man",
    "new", "now", "old", "see", "two", "way", "who", "boy", "did", "its",
    "let", "put", "say", "she", "too", "use", "that", "with", "have", "this",
    "will", "your", "from", "they", "know", "want", "been", "good", "much",
    "some", "time", "very", "when", "come", "here", "just", "like", "long",
    "make", "many", "more", "only", "over", "such", "take", "than", "them",
    "well", "were", "what", "word",
)

DIGRAPHS = (
    "th", "he", "in", "er", "an", "re", "on", "at", "en", "nd",
    "ti", "es", "or", "te", "of", "ed", "is", "it", "al", "ar",
    "st", "to", "nt", "ng", "se", "le", "de", "ou", "ma", "li",
    "ho", "me", "wa", "ve", "be", "ha", "ne", "lo", "ro", "ri",
    "ta", "co", "ca", "la", "ce", "di", "si", "ra", "no", "pe",
)

TRIGRAPHS = ("the", "and", "ing", "ent", "ion", "her", "for", "tha", "nth", "int", "ere", "tio")

# peak-mass split inside an ambiguous frame: the wrong label barely wins
AMBIG_WRONG = 0.52
AMBIG_TRUE = 0.48


def build_am_vocab() -> Vocabulary:
    """Characters plus common digraphs/trigraphs, each in word-initial and
    continuation form.  Large enough that top-k pruning has labels to drop."""
    tokens = ["<blank>", "<s>", "</s>"]
    units = [chr(c) for c in range(ord("a"), ord("z") + 1)] + list(DIGRAPHS) + list(TRIGRAPHS)
    for u in units:
        tokens.append(WORD_MARKER + u)
    for u in units:
        tokens.append(u)
    return Vocabulary.from_tokens(tokens)


def build_lm_vocab(word_list: Sequence[str] = WORD_LIST) -> Vocabulary:
    """Word-level units with single-character fallback; a different token
    inventory than the acoustic vocabulary, for delayed fusion."""
    tokens = ["<blank>", "<s>", "</s>"]
    tokens += [WORD_MARKER + w for w in word_list]
    tokens += [WORD_MARKER + chr(c) for c in range(ord("a"), ord("z") + 1)]
    tokens += [chr(c) for c in range(ord("a"), ord("z") + 1)]
    return Vocabulary.from_tokens(tokens)


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    vocab: Vocabulary = field(default_factory=build_am_vocab)
    words_per_utt: tuple[int, int] = (2, 4)
    frames_per_label: tuple[int, int] = (2, 3)
    blank_gap: tuple[int, int] = (1, 1)
    noise: float = 0.0
    word_list: tuple[str, ...] = WORD_LIST

    def __post_init__(self):
        if not 0.0 <= self.noise < 1.0:
            raise ValidationError(f"noise must lie in [0, 1), not {self.noise!r}")
        if self.noise and FLOOR_LEAK * self.noise / (self.vocab.size - 2) == 0.0:  # all but BOS, EOS
            raise ValidationError(f"noise {self.noise!r} is so small that its floor mass underflows to 0")
        for lo, hi in (self.words_per_utt, self.frames_per_label, self.blank_gap):
            if lo > hi or lo < 0:
                raise ValidationError(f"ranges must be nonempty and nonnegative, not ({lo}, {hi})")
        if self.words_per_utt[0] < 1 or self.frames_per_label[0] < 1:
            raise ValidationError("at least one word and one frame per label")


BLANK_LEAK = 0.15  # share of eps resting on blank per frame
FLOOR_LEAK = 0.01  # share of eps spread uniformly so the support stays full


def _utterance_rows(cfg: SynthConfig, tokens: Sequence[int], rng) -> np.ndarray:
    """The (T, V) posteriorgram of a token sequence, peaked like a trained
    CTC output: per token a blank gap (at least one frame before a repeated
    token), then the token's own frames.

    At noise eps every frame leaks a little mass to blank and a tiny uniform
    floor over the support (all but BOS and EOS), so spurious labels exist
    but stay acoustically expensive, as in real CTC posteriors.  With
    probability eps a frame is ambiguous: its peak splits between a random
    wrong label (slightly ahead) and the true one.  Greedy decoding errs on
    every ambiguous frame; fusion with a language model recovers.

    Only the draws run frame by frame: per token the gap and the duration,
    per frame (if eps > 0) a uniform and, for an ambiguous frame, the wrong
    label's index in the support less the true label.  The masses of all
    frames are then built at once.
    """
    vocab, eps = cfg.vocab, cfg.noise
    support = [i for i in range(vocab.size) if i not in (vocab.bos_id, vocab.eos_id)]
    column = {label: j for j, label in enumerate(support)}
    labels: list[int] = []
    ambiguous: list[int] = []  # the ambiguous frames and their wrong labels' columns
    wrong: list[int] = []

    def emit(label: int, frames: int) -> None:
        for _ in range(frames):
            if eps > 0.0 and rng.random() < eps:
                k = int(rng.integers(0, len(support) - 1))
                ambiguous.append(len(labels))
                wrong.append(k if support[k] < label else k + 1)
            labels.append(label)

    prev = None
    for tok in tokens:
        gap = int(rng.integers(cfg.blank_gap[0], cfg.blank_gap[1] + 1))
        if prev == tok:
            gap = max(gap, 1)  # repeated labels need a separating blank
        emit(vocab.blank_id, gap)
        emit(tok, int(rng.integers(cfg.frames_per_label[0], cfg.frames_per_label[1] + 1)))
        prev = tok

    frames = np.arange(len(labels))
    rows = np.full((len(labels), vocab.size), NEG_INF)
    if eps == 0.0:
        rows[frames, labels] = 0.0
        return rows
    base = np.full(len(support), FLOOR_LEAK * eps / len(support))
    base[column[vocab.blank_id]] += BLANK_LEAK * eps
    masses = np.tile(base, (len(labels), 1))
    peak = 1.0 - (BLANK_LEAK + FLOOR_LEAK) * eps
    gain = np.full(len(labels), peak)
    gain[ambiguous] = peak * AMBIG_TRUE
    masses[frames, [column[label] for label in labels]] += gain
    masses[ambiguous, wrong] += peak * AMBIG_WRONG
    rows[:, support] = np.log(masses)
    return rows


def _transcript(cfg: SynthConfig, rng) -> str:
    n_words = int(rng.integers(cfg.words_per_utt[0], cfg.words_per_utt[1] + 1))
    return " ".join(cfg.word_list[int(rng.integers(0, len(cfg.word_list)))] for _ in range(n_words))


def gen_utterance(cfg: SynthConfig, index: int) -> tuple[Posteriorgram, str]:
    """One utterance; determined entirely by (config seed, index)."""
    rng = np.random.default_rng([cfg.seed, index])
    transcript = _transcript(cfg, rng)
    rows = _utterance_rows(cfg, retokenize(cfg.vocab, transcript, allow_unk=False), rng)
    return Posteriorgram(rows), transcript


def gen_corpus(cfg: SynthConfig, n_utts: int) -> list[tuple[Posteriorgram, str]]:
    if n_utts < 1:
        raise ValidationError(f"need at least one utterance, not {n_utts}")
    return [gen_utterance(cfg, i) for i in range(n_utts)]


def sample_sentences(cfg: SynthConfig, n: int, stream: int = 10**6) -> list[str]:
    """Extra text drawn from the same word distribution, for LM training.

    Uses a disjoint index stream so the text never equals test utterances.
    """
    return [_transcript(cfg, np.random.default_rng([cfg.seed, stream + i])) for i in range(n)]


@dataclass(frozen=True)
class OscillationScenario:
    pg: Posteriorgram
    table_lm: TableLM
    transcript: str
    reference_tokens: tuple[int, ...]
    loop_tokens: tuple[int, int]


def gen_oscillation_scenario(cfg: SynthConfig, index: int = 0) -> OscillationScenario:
    """A benign posteriorgram paired with a language model that oscillates.

    The table LM follows the reference, then after the final reference token
    it pushes a repeating two-word loop with a tiny EOS probability.  The
    loop words never occur in the reference, so any positive joint CTC
    weight kills the loop while a standalone decode inserts words until the
    length cap.
    """
    rng = np.random.default_rng([cfg.seed, 7_000_000 + index])
    vocab = cfg.vocab
    # at least three words so the frame-derived length cap leaves room for
    # five or more inserted loop words
    n_words = int(rng.integers(3, 5))
    words = [cfg.word_list[int(rng.integers(0, len(cfg.word_list)))] for _ in range(n_words)]
    transcript = " ".join(words)
    tokens = tuple(retokenize(vocab, transcript, allow_unk=False))

    rows = _utterance_rows(dataclasses.replace(cfg, noise=0.0), tokens, rng)
    pg = Posteriorgram(rows)

    # two word-initial loop labels that do not occur in the reference
    loop_pool = [
        i
        for i in range(vocab.size)
        if vocab.begins_word[i] and i not in tokens and not vocab.is_special(i)
    ]
    l1, l2 = (int(loop_pool[k]) for k in rng.choice(len(loop_pool), size=2, replace=False))

    support = [i for i in range(vocab.size) if i not in (vocab.blank_id, vocab.bos_id)]
    rest = math.log(0.05 / (len(support) - 1))

    def dist(strong: int, strong_p: float = 0.93, eos_p: float = 0.02) -> np.ndarray:
        d = np.full(vocab.size, rest)
        d[vocab.blank_id] = NEG_INF
        d[vocab.bos_id] = NEG_INF
        d[vocab.eos_id] = math.log(eos_p)
        d[strong] = math.log(strong_p)
        norm = np.log(np.sum(np.exp(d[support])))
        d[support] -= norm
        return d

    entries: list[tuple[tuple[int, ...], np.ndarray]] = []
    used: set[tuple[int, ...]] = set()

    def add_context(upto: int, d: np.ndarray) -> None:
        # shortest unique suffix of the reference prefix, BOS-anchored if needed
        for k in range(3, upto + 1):
            key = tokens[upto - k : upto]
            if key not in used:
                break
        else:
            key = (vocab.bos_id,) + tokens[:upto]
        used.add(key)
        entries.append((key, d))

    entries.append(((vocab.bos_id,), dist(tokens[0])))
    used.add((vocab.bos_id,))
    for s in range(1, len(tokens)):
        add_context(s, dist(tokens[s]))
    # after the full reference: enter the loop; inside the loop: alternate
    add_context(len(tokens), dist(l1))
    entries.append(((l1,), dist(l2)))
    entries.append(((l2,), dist(l1)))
    table = TableLM(vocab, tuple(entries), dist(tokens[0]))
    return OscillationScenario(pg, table, transcript, tokens, (l1, l2))
