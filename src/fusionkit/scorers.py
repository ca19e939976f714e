"""Label-synchronous scorers: the batched scorer protocol, its CTC prefix,
n-gram/table and toy-decoder kinds, and the declarative handle that builds
them for a decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, Sequence

import numpy as np

from fusionkit.core import NEG_INF, Posteriorgram, Vocabulary
from fusionkit.ctc import CtcPrefixScorer, kept_labels
from fusionkit.decoder import DecoderWeights, InterfaceConfig, decoder_init, decoder_step
from fusionkit.lm import NGramModel, TableLM


class LabelScorer(Protocol):
    """Incremental scorer over label prefixes, batched over hypotheses.

    A state holds B live hypotheses, all of one length, a row each.
    ``start(count)`` gives the empty prefix of ``count`` utterances, a row
    each.  ``step`` takes a state and returns lower and upper B x V bounds
    on the incremental log-scores for appending each vocab label (EOS
    column included), plus opaque artifacts.  A scorer whose step scores are
    exact returns one matrix twice.  ``exact`` takes those artifacts and
    (parent row, label) pairs and returns the pairs' exact scores, which lie
    within the bounds and are -inf exactly where the bounds are.
    ``advance`` takes the artifacts and the beam survivors, given as parent
    rows and appended labels, and returns their state, a row per survivor;
    nothing is built for a candidate that did not survive.
    """

    name: str

    def start(self, count: int) -> Any: ...

    def step(self, states: Any) -> tuple[np.ndarray, np.ndarray, Any]: ...

    def exact(self, artifacts: Any, rows: Sequence[int], labels: Sequence[int]) -> np.ndarray: ...

    def advance(self, artifacts: Any, rows: Sequence[int], labels: Sequence[int]) -> Any: ...


class _ExactScorer:
    """Base of scorers whose step scores are exact: both bounds are one
    matrix, which the artifacts carry beside what ``advance`` needs."""

    def step(self, states):
        matrix, inner = self._scores(states)
        return matrix, matrix, (matrix, inner)

    def exact(self, artifacts, rows, labels):
        return artifacts[0][rows, labels]


class CtcPrefixLabelScorer:
    """Joint-decoding CTC scorer: prefix-probability deltas per candidate.

    Given the posteriorgrams of a lockstep, it scores each utterance's rows
    against its own.  The candidates are every plain label that some
    posteriorgram can emit, plus EOS; a label an utterance's posteriorgram
    never emits scores -inf there, and ``counts`` holds each utterance's
    own number of candidates.
    """

    def __init__(self, pg: Posteriorgram | Sequence[Posteriorgram], vocab: Vocabulary, name: str = "ctc"):
        pgs = [pg] if isinstance(pg, Posteriorgram) else list(pg)
        self.name = name
        self.vocab = vocab
        self._scorer = CtcPrefixScorer(pgs, vocab.blank_id, vocab.eos_id)
        support = np.zeros((len(pgs), vocab.size), dtype=bool)
        for u, one in enumerate(pgs):
            support[u, kept_labels(one)] = True
        support[:, [vocab.blank_id, vocab.bos_id, vocab.eos_id]] = False
        self.candidates = np.append(np.flatnonzero(support.any(axis=0)), vocab.eos_id)
        self.counts = np.count_nonzero(support, axis=1) + 1
        self._column = np.full(vocab.size, -1)
        self._column[self.candidates] = np.arange(self.candidates.size)

    def start(self, count):
        states = self._scorer.initial_state()
        if len(states) != count:
            raise ValueError(f"the CTC scorer holds {len(states)} posteriorgrams, not {count}")
        return states

    def step(self, states):
        bounds = list(self._scorer.step(states, self.candidates))
        parent = states.log_prefix_prob[:, None]
        for i in range(2):
            bounds[i] -= parent
            out = np.full((len(states), self.vocab.size), NEG_INF)
            out[:, self.candidates] = bounds[i]
            bounds[i] = out
        return bounds[0], bounds[1], bounds[2]

    def exact(self, artifacts, rows, labels):
        # a label outside the CTC support has prefix probability zero
        rows = np.asarray(rows, dtype=np.int64)
        cols = self._column[labels]
        known = cols >= 0
        parent = artifacts.states.log_prefix_prob[rows[known]]
        out = np.full(rows.size, NEG_INF)
        out[known] = self._scorer.exact(artifacts, rows[known], cols[known]) - parent
        return out

    def advance(self, artifacts, rows, labels):
        return self._scorer.advance(artifacts, rows, self._column[labels])


class ContextLMScorer(_ExactScorer):
    """N-gram or table LM as a label-synchronous scorer.

    A state is the (B, w) array of each row's last w labels, BOS first,
    with w at most the model's ``context_size``: all its conditionals
    depend on.
    """

    def __init__(self, model: NGramModel | TableLM, name: str = "lm"):
        self.name = name
        self.model = model

    def start(self, count):
        width = min(1, self.model.context_size)
        return np.full((count, width), self.model.vocab.bos_id)

    def _scores(self, ctxs):
        # the model caches its rows by context: one lookup per live row
        return np.stack([self.model.conditionals(ctx) for ctx in map(tuple, ctxs.tolist())]), ctxs

    def advance(self, artifacts, rows, labels):
        ctxs = np.concatenate([artifacts[1][rows], np.asarray(labels)[:, None]], axis=1)
        return ctxs[:, max(0, ctxs.shape[1] - self.model.context_size) :]


class DecoderLabelScorer(_ExactScorer):
    """Toy attention decoder as a scorer; audio absent means pure LM mode.

    Blank and BOS entries are masked to -inf without renormalizing, so step
    scores equal the decoder's own log-softmax outputs.  A state is the
    (B, V) matrix of masked next-label log-distributions and the decoder's
    incremental state, whose (B, L, d) keys/values ``advance`` gathers by
    survivor row inside one ``decoder_step``.  Every tensor keeps a
    singleton row axis, so each survivor's row is bit-identical to stepping
    that survivor alone.
    """

    def __init__(
        self,
        weights: DecoderWeights,
        config: InterfaceConfig,
        vocab: Vocabulary,
        audio=None,
        name: str = "decoder",
    ):
        if weights.hp.vocab_size != vocab.size:
            raise ValueError("decoder vocab size does not match search vocabulary")
        self.name = name
        self.weights = weights
        self.config = config
        self.vocab = vocab
        self.audio = audio
        self._mask = np.zeros(vocab.size)
        self._mask[[vocab.blank_id, vocab.bos_id]] = NEG_INF

    def start(self, count):
        state = decoder_init(self.weights, self.config, self.audio)
        rows, state = decoder_step(self.weights, self.config, state, [self.vocab.bos_id])
        root = np.zeros(count, dtype=np.int64)
        return rows[root] + self._mask, state.take(root)

    def _scores(self, states):
        return states

    def advance(self, artifacts, rows, labels):
        out, state = decoder_step(self.weights, self.config, artifacts[1], labels, rows)
        out += self._mask
        return out, state


@dataclass
class ScorerHandle:
    """Declarative scorer description; ``build`` makes the runtime scorer.

    Kinds: ``ctc_prefix`` (needs the decode's posteriorgram), ``ngram`` and
    ``table`` (need a model), ``decoder_am``/``decoder_lm`` (need weights and
    an interface config; the lm variant runs the same decoder without audio).
    """

    name: str
    kind: str
    model: NGramModel | TableLM | None = None
    decoder_weights: DecoderWeights | None = None
    interface: InterfaceConfig | None = None

    def build(
        self, vocab: Vocabulary, pg: Posteriorgram | Sequence[Posteriorgram] | None, audio=None
    ) -> LabelScorer:
        """The runtime scorer; ``pg`` may be the posteriorgrams of a
        lockstep, which a ``ctc_prefix`` scorer then holds together."""
        if self.kind == "ctc_prefix":
            if pg is None:
                raise ValueError("ctc_prefix scorer needs a posteriorgram")
            return CtcPrefixLabelScorer(pg, vocab, self.name)
        if self.kind in ("ngram", "table"):
            if self.model is None:
                raise ValueError(f"{self.kind} scorer needs a model")
            return ContextLMScorer(self.model, self.name)
        if self.kind in ("decoder_am", "decoder_lm"):
            if self.decoder_weights is None or self.interface is None:
                raise ValueError("decoder scorer needs weights and an interface config")
            use_audio = audio if self.kind == "decoder_am" else None
            if self.kind == "decoder_am" and audio is None:
                raise ValueError("decoder_am scorer needs audio")
            return DecoderLabelScorer(
                self.decoder_weights, self.interface, vocab, use_audio, self.name
            )
        raise ValueError(f"unknown scorer kind {self.kind!r}")
