"""Label-synchronous scorers: the batched scorer protocol and its
n-gram/table and toy-decoder kinds; the CTC prefix kind is
``ctc.CtcPrefixScorer``.
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence

import numpy as np

from fusionkit.core import NEG_INF, Vocabulary
from fusionkit.ctc import CtcPrefixScorer
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


# ctc.CtcPrefixScorer under the name the benchmark's trace target, labelsync_beam and imports use
CtcPrefixLabelScorer = CtcPrefixScorer


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
        return self.model.rows(ctxs.tolist()), ctxs

    def advance(self, artifacts, rows, labels):
        ctxs = np.concatenate([artifacts[1][rows], np.asarray(labels)[:, None]], axis=1)
        return ctxs[:, max(0, ctxs.shape[1] - self.model.context_size) :]


class DecoderLabelScorer(_ExactScorer):
    """Toy attention decoder as a scorer; audio absent means pure LM mode.

    Blank and BOS entries are masked to -inf without renormalizing, so step
    scores equal the decoder's own log-softmax outputs.  A state is the
    (B, V) matrix of masked next-label log-distributions and the decoder's
    incremental state, whose time-major (L, B, d) keys/values ``advance``
    gathers by survivor column inside one ``decoder_step``.  Every tensor
    keeps a singleton row axis, so each survivor's row is bit-identical to
    stepping that survivor alone.  The BOS row and state are built once per
    scorer; each ``start`` gets arrays of its own from them.
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
        self._root = None

    def start(self, count):
        if self._root is None:  # one BOS step per scorer, whatever the locksteps
            state = decoder_init(self.weights, self.config, self.audio)
            self._root = decoder_step(self.weights, state, [self.vocab.bos_id])
        rows, state = self._root
        root = np.zeros(count, dtype=np.int64)
        return rows[root] + self._mask, state.take(root)

    def _scores(self, states):
        return states

    def advance(self, artifacts, rows, labels):
        out, state = decoder_step(self.weights, artifacts[1], labels, rows)
        out += self._mask
        return out, state
