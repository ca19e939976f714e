"""Slow references that the tests compare the fast paths against: the CTC
forward probability summed over every alignment, posteriorgram compression
grouped frame by frame, the toy decoder's GELU as one numpy expression, its
rotary embedding as the textbook pair rotation, its forward pass with
per-head loops and explicit masks, and the label-synchronous beam's oracle,
exhaustive search over the scorer protocol of ``fusionkit.scorers``.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

from fusionkit.core import NEG_INF, Posteriorgram, ScorerWeights, Vocabulary, logsumexp
from fusionkit.decoder import ROPE_BASE, DecoderWeights, InterfaceConfig, build_attention_mask
from fusionkit.search import DecodeStats, LabelScorer, NBestEntry, NBestList


def ctc_forward_logprob(pg: Posteriorgram, target: Sequence[int], blank_id: int) -> float:
    """Log probability that the collapsed frame labels equal ``target``.

    Sums over every alignment path; infeasible targets give -inf.
    """
    target = list(target)
    if blank_id in target:
        raise ValueError("target must not contain the blank label")
    lp = pg.log_probs
    T = lp.shape[0]
    S = len(target)
    if S == 0:
        return float(np.sum(lp[:, blank_id]))

    # interleave blanks: extended target of length 2S+1
    ext = np.empty(2 * S + 1, dtype=np.int64)
    ext[0::2] = blank_id
    ext[1::2] = target
    n = ext.size

    alpha = np.full(n, NEG_INF)
    alpha[0] = lp[0, ext[0]]
    alpha[1] = lp[0, ext[1]]
    for t in range(1, T):
        prev = alpha
        stay = prev
        from_prev = np.concatenate(([NEG_INF], prev[:-1]))
        # skip transition is allowed into a non-blank that differs from the
        # non-blank two positions back
        from_skip = np.full(n, NEG_INF)
        can_skip = np.zeros(n, dtype=bool)
        can_skip[3::2] = ext[3::2] != ext[1:-2:2]
        from_skip[can_skip] = prev[:-2][can_skip[2:]]
        alpha = np.logaddexp(np.logaddexp(stay, from_prev), from_skip) + lp[t, ext]
    return float(np.logaddexp(alpha[-1], alpha[-2]))


def compressed_log_probs(pg: Posteriorgram, threshold: float) -> np.ndarray:
    """The rows of ``ctc.compress_posteriors(pg, threshold)``, one frame at a
    time: a frame joins the group before it when both have the same argmax
    (the lowest id on ties) with a probability of at least ``threshold``;
    each group's rows are max-pooled, then renormalized.  With every group
    one frame, the rows are ``pg``'s as they are."""
    groups: list[np.ndarray] = []
    before = None
    for row in pg.log_probs:
        best = int(np.argmax(row))
        now = (best, bool(np.exp(row[best]) >= threshold))
        if now[1] and now == before:
            groups[-1] = np.maximum(groups[-1], row)
        else:
            groups.append(row.copy())
        before = now
    if len(groups) == pg.num_frames:
        return pg.log_probs
    return np.array([g - logsumexp(g) for g in groups])


def gelu_reference(x: np.ndarray) -> np.ndarray:
    """The tanh-approximated GELU as one expression, numpy's x**3 over every
    element; ``decoder._gelu`` must equal it bit for bit."""
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def rope_reference(x: np.ndarray, positions: Sequence[int], head_dim: int) -> np.ndarray:
    """The textbook rotary embedding: in each ``head_dim`` group of the last
    axis, pair (even, odd) turns to (even cos - odd sin, even sin + odd cos)
    by position x frequency.  The second-to-last axis holds one row per
    position, or one row that every position shares."""
    freqs = ROPE_BASE ** (-np.arange(head_dim // 2) * 2.0 / head_dim)
    angles = np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]
    cos, sin = np.cos(angles)[:, None, :], np.sin(angles)[:, None, :]
    xh = x.reshape(*x.shape[:-1], x.shape[-1] // head_dim, head_dim)
    even, odd = xh[..., 0::2], xh[..., 1::2]
    rot = np.empty_like(xh)
    rot[..., 0::2] = even * cos - odd * sin
    rot[..., 1::2] = even * sin + odd * cos
    return rot.reshape(x.shape)


def decoder_forward_reference(
    weights: DecoderWeights, config: InterfaceConfig, frames: np.ndarray, labels: Sequence[int]
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """``decoder.decoder_forward(..., collect_attention=True)`` written out:
    separate q/k/v products, ``rope_reference``, one loop over heads under
    ``build_attention_mask``'s masks, and each interface's audio path on its
    own.  ``frames`` is the (A, d) audio, A > 0."""
    hp, w = weights.hp, weights.tensors
    hd, a = hp.head_dim, len(frames)
    text = w["embed"][list(config.prompt) + list(labels)]

    def norm(x, name):
        mean, var = x.mean(-1, keepdims=True), x.var(-1, keepdims=True)
        return (x - mean) / np.sqrt(var + 1e-5) * w[f"{name}.gamma"] + w[f"{name}.beta"]

    def attend(q, k, v, mask, name):
        out = np.empty_like(q)
        for h in range(hp.heads):
            cols = slice(h * hd, (h + 1) * hd)
            scores = np.where(mask, q[:, cols] @ k[:, cols].T / math.sqrt(hd), -np.inf)
            probs = np.exp(scores - scores.max(-1, keepdims=True))
            probs /= probs.sum(-1, keepdims=True)
            out[:, cols] = probs @ v[:, cols]
            maps[f"{name}.head{h}"] = probs
        return out

    maps: dict[str, np.ndarray] = {}
    if config.kind == "prefix":  # one stream, audio then text
        x, positions = np.vstack([frames, text]), np.arange(a + len(text))
        mask = build_attention_mask(config, a, len(text))
    elif config.kind == "merged":  # text queries; audio keys/values at positions 0..a-1
        x, positions = text, np.arange(a, a + len(text))
        mask = build_attention_mask(config, a, len(text))
    else:  # aed: a text stream from position 0, audio by cross-attention
        x, positions = text, np.arange(len(text))
        mask = build_attention_mask(config, 0, len(text))
    for i in range(hp.layers):
        p = f"layer{i}."
        h = norm(x, p + "attn_norm")
        q = rope_reference(h @ w[p + "self_attn.wq"], positions, hd)
        k = rope_reference(h @ w[p + "self_attn.wk"], positions, hd)
        v = h @ w[p + "self_attn.wv"]
        if config.kind == "merged":
            audio = norm(frames, p + "attn_norm")
            k = np.vstack([rope_reference(audio @ w[p + "self_attn.wk"], np.arange(a), hd), k])
            v = np.vstack([audio @ w[p + "self_attn.wv"], v])
        x = x + attend(q, k, v, mask, f"layer{i}") @ w[p + "self_attn.wo"]
        if config.kind == "aed":
            q = norm(x, p + "cross_norm") @ w[p + "cross_attn.wq"]
            k, v = frames @ w[p + "cross_attn.wk"], frames @ w[p + "cross_attn.wv"]
            everywhere = np.ones((len(x), a), dtype=bool)
            x = x + attend(q, k, v, everywhere, f"layer{i}.cross") @ w[p + "cross_attn.wo"]
        h = norm(x, p + "ffn_norm")
        x = x + gelu_reference(h @ w[p + "ffn.w1"] + w[p + "ffn.b1"]) @ w[p + "ffn.w2"] + w[p + "ffn.b2"]
    logits = norm(x[-len(labels) :], "final_norm") @ w["out_proj"]
    top = logits.max(-1, keepdims=True)
    return logits - top - np.log(np.exp(logits - top).sum(-1, keepdims=True)), maps


def exhaustive_decode(
    scorers: Sequence[LabelScorer],
    weights: ScorerWeights,
    vocab: Vocabulary,
    max_len: int,
    stats: DecodeStats | None = None,
) -> NBestList:
    """Score every label sequence up to ``max_len``; the beam-search oracle.

    Every label's score is requested exactly, never bounded.
    """
    plain = [i for i in range(vocab.size) if not vocab.is_special(i)]
    if len(plain) ** max_len > 10**6:
        raise ValueError("exhaustive enumeration budget exceeded")
    active = [s for s in scorers if weights.weights.get(s.name, 0.0) != 0.0]
    if not active:
        raise ValueError("all scorers have zero weight")
    t0 = time.perf_counter()
    entries: list[NBestEntry] = []

    every = np.array(plain + [vocab.eos_id])
    rows = np.zeros(every.size, dtype=np.int64)

    def visit(labels, components, states, depth):
        vectors = {}
        artifacts = {}
        for s in active:
            _, _, art = s.step(states[s.name])
            vectors[s.name] = s.exact(art, rows, every)
            artifacts[s.name] = art
            if stats:
                stats.scorer_evaluations += len(plain) + 1
        # an entry that any scorer gives probability zero is impossible,
        # whatever the sign of its weight
        eos_comps = {
            n: components[n] + float(vectors[n][-1]) for n in vectors
        }
        if NEG_INF not in eos_comps.values():
            combined = 0.0  # the weighted sum in scorer order, as the beam's
            for n, v in eos_comps.items():
                combined += weights.weights[n] * v
            entries.append(
                NBestEntry(labels + (vocab.eos_id,), eos_comps, combined, finished=True)
            )
        if depth == max_len:
            return
        for i, c in enumerate(plain):
            comps = {n: components[n] + float(vectors[n][i]) for n in vectors}
            if NEG_INF in comps.values():
                continue
            succ = {s.name: s.advance(artifacts[s.name], [0], [c]) for s in active}
            visit(labels + (c,), comps, succ, depth + 1)

    start_states = {s.name: s.start(1) for s in active}
    visit((), {s.name: 0.0 for s in active}, start_states, 0)
    if stats:
        stats.wall_time_s += time.perf_counter() - t0
    return NBestList(entries)
