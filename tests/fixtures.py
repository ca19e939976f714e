"""Test fixtures built from the library: a word-level LM vocabulary for
delayed fusion, a uniform table LM, the adversarial oscillation scenario
(a benign posteriorgram paired with a table LM that loops), which exercises
joint decoding's length cap and its CTC weight, and the byte edits of the
fuzz tests.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fusionkit.core import NEG_INF, WORD_MARKER, Posteriorgram, Vocabulary
from fusionkit.lm import TableLM, retokenize, support_ids
from fusionkit.synth import WORD_LIST, SynthConfig, _utterance_rows


def fuzzed(data: bytes, edit: str, where: float, flip: int, insert: bytes) -> bytes:
    """``data`` truncated at, its byte xor-ed with ``flip`` at, or ``insert``
    put in at the fraction ``where`` of its length; ``edit`` is "truncate",
    "flip" or "insert"."""
    out = bytearray(data)
    at = int(where * (len(out) - 1))
    if edit == "truncate":
        return bytes(out[:at])
    if edit == "flip":
        out[at] ^= flip
    else:
        out[at:at] = insert
    return bytes(out)


def build_lm_vocab(word_list: Sequence[str] = WORD_LIST) -> Vocabulary:
    """Word-level units with single-character fallback; a different token
    inventory than the acoustic vocabulary, for delayed fusion."""
    tokens = ["<blank>", "<s>", "</s>"]
    tokens += [WORD_MARKER + w for w in word_list]
    tokens += [WORD_MARKER + chr(c) for c in range(ord("a"), ord("z") + 1)]
    tokens += [chr(c) for c in range(ord("a"), ord("z") + 1)]
    return Vocabulary.from_tokens(tokens)


def uniform_table_lm(vocab: Vocabulary) -> TableLM:
    """Uniform distribution over the support; handy PPL and search fixture."""
    ids = support_ids(vocab)
    dist = np.full(vocab.size, NEG_INF)
    dist[ids] = -math.log(len(ids))
    return TableLM(vocab, (), dist)


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
