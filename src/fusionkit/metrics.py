"""Word error rate with error-type breakdown plus text normalization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from fusionkit.core import ValidationError


@dataclass(frozen=True)
class AlignmentCounts:
    substitutions: int
    deletions: int
    insertions: int
    ref_length: int

    @property
    def total_errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        if self.ref_length < 1:
            raise ValueError("WER undefined for empty reference")
        return self.total_errors / self.ref_length

    def __add__(self, other: "AlignmentCounts") -> "AlignmentCounts":
        return AlignmentCounts(
            self.substitutions + other.substitutions,
            self.deletions + other.deletions,
            self.insertions + other.insertions,
            self.ref_length + other.ref_length,
        )


def align(ref: Sequence[str], hyp: Sequence[str]) -> AlignmentCounts:
    """Minimum-edit alignment counts with unit costs.

    Among minimal-cost alignments the one with fewer insertions (hence also
    fewer deletions, since D - I is fixed by the length difference) wins.
    The DP minimizes the packed key cost * scale + insertions.
    """
    ref = list(ref)
    hyp = list(hyp)
    m, n = len(ref), len(hyp)
    scale = n + 2  # insertions never exceed n
    row = [j * scale + j for j in range(n + 1)]
    for i in range(1, m + 1):
        prev = row
        row = [i * scale]
        r = ref[i - 1]
        for j in range(1, n + 1):
            best = prev[j - 1] + (0 if r == hyp[j - 1] else scale)
            cand = prev[j] + scale  # deletion
            if cand < best:
                best = cand
            cand = row[j - 1] + scale + 1  # insertion
            if cand < best:
                best = cand
            row.append(best)
    key = row[n]
    cost, ins = divmod(key, scale)
    dels = ins + m - n
    subs = cost - ins - dels
    return AlignmentCounts(subs, dels, ins, m)


def corpus_wer(pairs: Iterable[tuple[Sequence[str], Sequence[str]]]) -> AlignmentCounts:
    """Pooled alignment counts over (reference, hypothesis) pairs."""
    total = AlignmentCounts(0, 0, 0, 0)
    for ref, hyp in pairs:
        total = total + align(ref, hyp)
    if total.ref_length < 1:
        raise ValidationError("corpus WER needs at least one reference word")
    return total


def normalize_text(s: str, mode: str = "lowercase") -> str:
    """``lowercase``: casefold and collapse whitespace; ``none``: identity."""
    if mode == "none":
        return s
    if mode == "lowercase":
        return " ".join(s.casefold().split())
    raise ValidationError(f"unknown normalization mode {mode!r}; expected lowercase or none")


def words(s: str, mode: str = "lowercase") -> list[str]:
    """Normalize, then split on whitespace for WER computation."""
    return normalize_text(s, mode).split()
