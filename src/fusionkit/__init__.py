"""Decoding-time score fusion engine for CTC and attention-based ASR models.

Everything operates on natural-log probabilities over a shared token
vocabulary.  Synthetic posteriorgrams stand in for a real encoder, so every
decoding strategy in here is testable end to end without any trained model.
"""

from fusionkit.core import (
    EncoderOutput,
    FormatError,
    Posteriorgram,
    ScorerWeights,
    ValidationError,
    Vocabulary,
    logsumexp,
)

__all__ = [
    "EncoderOutput",
    "FormatError",
    "Posteriorgram",
    "ScorerWeights",
    "ValidationError",
    "Vocabulary",
    "logsumexp",
]
