"""Toy transformer decoder with the three audio attention interfaces.

Interfaces: ``aed`` (dedicated cross-attention to audio), ``prefix`` (audio
frames prepended to the self-attention stream, causal or bidirectional within
the audio block), and ``merged`` (queries from text only, keys/values over
audio plus text).  With a zero-length audio prefix all three collapse to the
same causal decoder.

A single rotary position stream runs across audio, prompt, and text.
Weights are float32-valued (stored widened to float64) so file round-trips
are exact.  There is no training here; weights are seeded or loaded.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from fusionkit.core import NEG_INF, EncoderOutput, FormatError, Posteriorgram
from fusionkit.ctc import compress_encoder, merge_indices

WEIGHTS_MAGIC = b"FKWT"
WEIGHTS_VERSION = 1
META_TENSOR = "meta.hyperparams"
LN_EPS = 1e-5
ROPE_BASE = 10000.0

KINDS = ("aed", "prefix", "merged")


@dataclass(frozen=True)
class Hyperparams:
    layers: int = 2
    dim: int = 32
    heads: int = 2
    vocab_size: int = 8
    ffn_dim: int = 64

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    def __post_init__(self):
        if self.dim % self.heads != 0:
            raise ValueError("model dim must divide evenly into heads")
        if self.head_dim % 2 != 0:
            raise ValueError("head dim must be even for rotary position pairs")


@dataclass(frozen=True)
class InterfaceConfig:
    kind: str
    prefix_attention: str = "causal"
    prompt: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown interface kind {self.kind!r}")
        if self.prefix_attention not in ("causal", "bidirectional"):
            raise ValueError(f"unknown prefix attention {self.prefix_attention!r}")
        if self.prefix_attention == "bidirectional" and self.kind != "prefix":
            raise ValueError("bidirectional prefix attention requires the prefix kind")
        object.__setattr__(self, "prompt", tuple(self.prompt))


@dataclass(frozen=True)
class AdapterConfig:
    """Audio downsampling before the decoder: fixed concat or CTC-driven."""

    mode: str = "concat"
    factor: int = 1
    threshold: float = 0.9
    projection: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("concat", "ctc_compress"):
            raise ValueError(f"unknown adapter mode {self.mode!r}")
        if self.mode == "concat" and (self.factor < 1 or self.factor != int(self.factor)):
            raise ValueError("concat factor must be a positive integer")
        if self.mode == "ctc_compress" and self.threshold <= 0:
            # thresholds above 1 are unreachable and give the identity map
            raise ValueError("compression threshold must be positive")


@dataclass(frozen=True)
class _Layer:
    """One layer's tensors, looked up once per ``DecoderWeights``."""

    attn_norm: tuple[np.ndarray, np.ndarray]
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    cross_norm: tuple[np.ndarray, np.ndarray]
    cross_wq: np.ndarray
    cross_wk: np.ndarray
    cross_wv: np.ndarray
    cross_wo: np.ndarray
    ffn_norm: tuple[np.ndarray, np.ndarray]
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


class DecoderWeights:
    """Named parameter tensors plus hyperparameters.

    ``layers``, ``final_norm`` and ``rope_freqs`` are resolved once here so
    the per-step code never formats a tensor name.
    """

    def __init__(self, hp: Hyperparams, tensors: dict[str, np.ndarray]):
        self.hp = hp
        self.tensors = {k: np.asarray(v, dtype=np.float64) for k, v in tensors.items()}
        for name in _tensor_names(hp):
            if name not in self.tensors:
                raise ValueError(f"missing tensor {name!r}")
            if self.tensors[name].shape != _tensor_shape(hp, name):
                raise ValueError(
                    f"tensor {name!r} has shape {self.tensors[name].shape}, "
                    f"expected {_tensor_shape(hp, name)}"
                )
        t = self.tensors
        self.layers = [
            _Layer(
                attn_norm=(t[f"layer{i}.attn_norm.gamma"], t[f"layer{i}.attn_norm.beta"]),
                **{m: t[f"layer{i}.self_attn.{m}"] for m in ("wq", "wk", "wv", "wo")},
                cross_norm=(t[f"layer{i}.cross_norm.gamma"], t[f"layer{i}.cross_norm.beta"]),
                **{f"cross_{m}": t[f"layer{i}.cross_attn.{m}"] for m in ("wq", "wk", "wv", "wo")},
                ffn_norm=(t[f"layer{i}.ffn_norm.gamma"], t[f"layer{i}.ffn_norm.beta"]),
                **{m: t[f"layer{i}.ffn.{m}"] for m in ("w1", "b1", "w2", "b2")},
            )
            for i in range(hp.layers)
        ]
        self.final_norm = (t["final_norm.gamma"], t["final_norm.beta"])
        self.rope_freqs = ROPE_BASE ** (-np.arange(hp.head_dim // 2) * 2.0 / hp.head_dim)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]


def _tensor_names(hp: Hyperparams) -> list[str]:
    names = ["embed", "final_norm.gamma", "final_norm.beta", "out_proj"]
    for i in range(hp.layers):
        p = f"layer{i}"
        names += [f"{p}.attn_norm.gamma", f"{p}.attn_norm.beta"]
        names += [f"{p}.self_attn.{m}" for m in ("wq", "wk", "wv", "wo")]
        names += [f"{p}.cross_norm.gamma", f"{p}.cross_norm.beta"]
        names += [f"{p}.cross_attn.{m}" for m in ("wq", "wk", "wv", "wo")]
        names += [f"{p}.ffn_norm.gamma", f"{p}.ffn_norm.beta"]
        names += [f"{p}.ffn.w1", f"{p}.ffn.b1", f"{p}.ffn.w2", f"{p}.ffn.b2"]
    return names


def _tensor_shape(hp: Hyperparams, name: str) -> tuple[int, ...]:
    d, f, v = hp.dim, hp.ffn_dim, hp.vocab_size
    if name == "embed":
        return (v, d)
    if name == "out_proj":
        return (d, v)
    if name.endswith((".gamma", ".beta")):
        return (d,)
    if ".ffn.w1" in name:
        return (d, f)
    if ".ffn.b1" in name:
        return (f,)
    if ".ffn.w2" in name:
        return (f, d)
    if ".ffn.b2" in name:
        return (d,)
    return (d, d)


def seeded_weights(hp: Hyperparams, seed: int) -> DecoderWeights:
    """Random float32-valued weights; scale 1/sqrt(dim) keeps outputs tame."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name in _tensor_names(hp):
        shape = _tensor_shape(hp, name)
        if name.endswith(".gamma"):
            t = np.ones(shape)
        elif name.endswith(".beta") or ".ffn.b" in name:
            t = np.zeros(shape)
        else:
            t = rng.normal(0.0, 1.0 / math.sqrt(hp.dim), size=shape)
        tensors[name] = t.astype(np.float32).astype(np.float64)
    return DecoderWeights(hp, tensors)


def save_weights(weights: DecoderWeights, path: str | Path) -> None:
    hp = weights.hp
    meta = np.array(
        [hp.layers, hp.dim, hp.heads, hp.head_dim, hp.vocab_size, hp.ffn_dim],
        dtype=np.float32,
    )
    items = [(META_TENSOR, meta)] + [
        (name, weights.tensors[name]) for name in _tensor_names(hp)
    ]
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC)
        f.write(struct.pack("<II", WEIGHTS_VERSION, len(items)))
        for name, tensor in items:
            _write_tensor(f, name, tensor)


def _write_tensor(f, name: str, tensor: np.ndarray) -> None:
    raw = name.encode("utf-8")
    f.write(struct.pack("<H", len(raw)))
    f.write(raw)
    f.write(struct.pack("<B", tensor.ndim))
    f.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
    f.write(tensor.astype("<f4").tobytes(order="C"))


def read_tensor_container(path: str | Path) -> dict[str, np.ndarray]:
    data = Path(path).read_bytes()
    if data[:4] != WEIGHTS_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {WEIGHTS_MAGIC!r}")
    if len(data) < 12:
        raise FormatError(f"{path}: truncated header")
    version, count = struct.unpack("<II", data[4:12])
    if version != WEIGHTS_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    pos = 12
    out: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", data, pos)
            pos += 2
            name = data[pos : pos + nlen].decode("utf-8")
            pos += nlen
            (rank,) = struct.unpack_from("<B", data, pos)
            pos += 1
            dims = struct.unpack_from(f"<{rank}I", data, pos)
            pos += 4 * rank
            size = int(np.prod(dims)) if rank else 1
            if pos + 4 * size > len(data):
                raise FormatError(f"{path}: tensor {name!r} payload truncated")
            arr = np.frombuffer(data, dtype="<f4", count=size, offset=pos).reshape(dims)
            pos += 4 * size
            out[name] = arr.astype(np.float64)
    except struct.error as exc:
        raise FormatError(f"{path}: truncated tensor table ({exc})") from exc
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} trailing bytes")
    return out


def write_tensor_container(tensors: dict[str, np.ndarray], path: str | Path) -> None:
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC)
        f.write(struct.pack("<II", WEIGHTS_VERSION, len(tensors)))
        for name, tensor in tensors.items():
            _write_tensor(f, name, np.asarray(tensor))


def load_weights(path: str | Path) -> DecoderWeights:
    tensors = read_tensor_container(path)
    if META_TENSOR not in tensors:
        raise FormatError(f"{path}: missing {META_TENSOR} tensor")
    layers, dim, heads, _, vocab, ffn = (int(x) for x in tensors.pop(META_TENSOR))
    hp = Hyperparams(layers=layers, dim=dim, heads=heads, vocab_size=vocab, ffn_dim=ffn)
    return DecoderWeights(hp, tensors)


def build_attention_mask(config: InterfaceConfig, prefix_len: int, text_len: int) -> np.ndarray:
    """Boolean attention mask; True marks an allowed key position.

    prefix kind: square over prefix+text, text rows causal with a full view
    of the prefix, prefix rows causal or all-true within the prefix block.
    merged kind: text query rows only, keys over prefix+text.
    aed kind: causal text self-mask (audio is reached via cross-attention).
    """
    if prefix_len < 0 or text_len < 0:
        raise ValueError("lengths must be nonnegative")
    p, s = prefix_len, text_len
    if config.kind == "prefix":
        n = p + s
        mask = np.tril(np.ones((n, n), dtype=bool))
        if config.prefix_attention == "bidirectional":
            mask[:p, :p] = True
        mask[p:, :p] = True
        return mask
    if config.kind == "merged":
        cols = np.arange(p + s)
        rows = np.arange(s)[:, None]
        return cols[None, :] <= rows + p
    if p != 0:
        raise ValueError("aed masks cover the text stream only; audio uses cross-attention")
    return np.tril(np.ones((s, s), dtype=bool))


def adapter_apply(
    enc: EncoderOutput, cfg: AdapterConfig, pg: Posteriorgram | None = None
) -> EncoderOutput:
    """Downsample encoder frames, then optionally project to the decoder dim."""
    if cfg.mode == "concat":
        if cfg.factor == 1:
            out = enc
        else:
            t, d = enc.frames.shape
            groups = math.ceil(t / cfg.factor)
            padded = np.zeros((groups * cfg.factor, d))
            padded[:t] = enc.frames
            out = EncoderOutput(padded.reshape(groups, cfg.factor * d))
    else:
        if pg is None:
            raise ValueError("ctc_compress downsampling needs a posteriorgram")
        if pg.num_frames != enc.num_frames:
            raise ValueError("posteriorgram and encoder output disagree on frame count")
        out = compress_encoder(enc, merge_indices(pg, cfg.threshold))
    if cfg.projection is not None:
        if out.frames.shape[1] != cfg.projection.shape[0]:
            raise ValueError(
                f"projection expects dim {cfg.projection.shape[0]}, got {out.frames.shape[1]}"
            )
        out = EncoderOutput(out.frames @ cfg.projection)
    return out


def _layer_norm(x: np.ndarray, norm: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    # the ufunc sequence of np.mean and np.var, without their Python wrappers
    gamma, beta = norm
    n = x.shape[-1]
    centered = x - np.add.reduce(x, -1, keepdims=True) / n
    var = np.add.reduce(np.square(centered), -1, keepdims=True) / n
    return centered / np.sqrt(var + LN_EPS) * gamma + beta


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def _rotary(weights: DecoderWeights, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin tables of shape (n, 1, head_dim / 2) for n stream positions."""
    angles = positions[:, None] * weights.rope_freqs[None, :]
    return np.cos(angles)[:, None, :], np.sin(angles)[:, None, :]


def _rope(x: np.ndarray, rotary: tuple[np.ndarray, np.ndarray], heads: int) -> np.ndarray:
    """Rotary position embedding over the head dimension, shared by q and k.

    ``x`` is (n, d) with one table row per position, or (B, 1, d) with one
    table row shared by the batch.
    """
    cos, sin = rotary
    xh = x.reshape(*x.shape[:-1], heads, x.shape[-1] // heads)
    even = xh[..., 0::2]
    odd = xh[..., 1::2]
    rot = np.empty_like(xh)
    rot[..., 0::2] = even * cos - odd * sin
    rot[..., 1::2] = even * sin + odd * cos
    return rot.reshape(x.shape)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., n, d) -> (..., heads, n, d / heads), a view."""
    return x.reshape(*x.shape[:-1], heads, x.shape[-1] // heads).swapaxes(-2, -3)


def _attend(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: np.ndarray | None, heads: int
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head scaled dot-product attention; returns output and weights.

    Leading batch axes pass through.  Each per-head (n, hd) @ (hd, L) slice
    has the same strides with or without them, so it meets the same BLAS
    routine and rounds the same.
    """
    hd = q.shape[-1] // heads
    qh = _split_heads(q, heads)
    kh = _split_heads(k, heads)
    vh = _split_heads(v, heads)
    scores = qh @ kh.swapaxes(-1, -2) / math.sqrt(hd)
    if mask is not None:
        scores = np.where(mask, scores, NEG_INF)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    out = weights @ vh
    return out.swapaxes(-2, -3).reshape(q.shape), weights


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _audio_frames(weights: DecoderWeights, config: InterfaceConfig, audio) -> np.ndarray:
    if audio is None:
        if config.kind == "aed":
            raise ValueError("aed decoding requires audio; pass a zero-length prefix "
                             "to run the decoder as a language model")
        return np.zeros((0, weights.hp.dim))
    frames = audio.frames if isinstance(audio, EncoderOutput) else np.asarray(audio, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("audio must be a T x D matrix")
    if frames.shape[0] > 0 and frames.shape[1] != weights.hp.dim:
        raise ValueError(
            f"audio dim {frames.shape[1]} does not match decoder dim {weights.hp.dim}"
        )
    return frames.reshape(frames.shape[0], weights.hp.dim) if frames.size else frames.reshape(0, weights.hp.dim)


def decoder_forward(
    weights: DecoderWeights,
    config: InterfaceConfig,
    audio: EncoderOutput | np.ndarray | None,
    labels: Sequence[int],
    collect_attention: bool = False,
) -> np.ndarray | tuple[np.ndarray, dict[str, np.ndarray]]:
    """Full-sequence forward pass; one log-distribution row per label position.

    ``labels`` must start with BOS.  The prompt from the config sits between
    the audio prefix and the labels; its output rows are dropped.
    """
    hp = weights.hp
    labels = list(labels)
    if not labels:
        raise ValueError("labels must contain at least BOS")
    frames = _audio_frames(weights, config, audio)
    a = frames.shape[0]
    text_ids = list(config.prompt) + labels
    s = len(text_ids)
    text = weights["embed"][text_ids]
    attn: dict[str, np.ndarray] = {}

    if config.kind == "prefix":
        x = np.vstack([frames, text])
        rotary = _rotary(weights, np.arange(a + s, dtype=np.float64))
        mask = build_attention_mask(config, a, s)
        for i, layer in enumerate(weights.layers):
            x = x + _self_attention_block(layer, i, x, rotary, mask, attn, hp.heads)
            x = x + _ffn_block(layer, x)
        x = x[a:]
    elif config.kind == "merged":
        x = text
        rotary = _rotary(weights, np.arange(a, a + s, dtype=np.float64))
        audio_rotary = _rotary(weights, np.arange(a, dtype=np.float64))
        mask = build_attention_mask(config, a, s)
        for i, layer in enumerate(weights.layers):
            normed = _layer_norm(x, layer.attn_norm)
            normed_audio = _layer_norm(frames, layer.attn_norm)
            q = _rope(normed @ layer.wq, rotary, hp.heads)
            k_text = _rope(normed @ layer.wk, rotary, hp.heads)
            k_audio = _rope(normed_audio @ layer.wk, audio_rotary, hp.heads)
            v = np.vstack([normed_audio @ layer.wv, normed @ layer.wv])
            out, w = _attend(q, np.vstack([k_audio, k_text]), v, mask, hp.heads)
            _store_attention(attn, f"layer{i}", w)
            x = x + out @ layer.wo
            x = x + _ffn_block(layer, x)
    else:  # aed
        x = text
        rotary = _rotary(weights, np.arange(s, dtype=np.float64))
        mask = build_attention_mask(config, 0, s)
        for i, layer in enumerate(weights.layers):
            x = x + _self_attention_block(layer, i, x, rotary, mask, attn, hp.heads)
            if a > 0:
                x = x + _cross_attention_block(layer, i, x, frames, attn, hp.heads)
            x = x + _ffn_block(layer, x)

    x = x[len(config.prompt) :]
    rows = _log_softmax(_layer_norm(x, weights.final_norm) @ weights["out_proj"])
    if collect_attention:
        return rows, attn
    return rows


def _self_attention_block(layer, i, x, rotary, mask, attn, heads):
    normed = _layer_norm(x, layer.attn_norm)
    q = _rope(normed @ layer.wq, rotary, heads)
    k = _rope(normed @ layer.wk, rotary, heads)
    out, w = _attend(q, k, normed @ layer.wv, mask, heads)
    _store_attention(attn, f"layer{i}", w)
    return out @ layer.wo


def _cross_attention_block(layer, i, x, frames, attn, heads):
    q = _layer_norm(x, layer.cross_norm) @ layer.cross_wq
    out, w = _attend(q, frames @ layer.cross_wk, frames @ layer.cross_wv, None, heads)
    _store_attention(attn, f"layer{i}.cross", w)
    return out @ layer.cross_wo


def _ffn_block(layer, x):
    hidden = _gelu(_layer_norm(x, layer.ffn_norm) @ layer.w1 + layer.b1)
    return hidden @ layer.w2 + layer.b2


def _store_attention(attn: dict, prefix: str, w: np.ndarray) -> None:
    for h in range(w.shape[0]):
        attn[f"{prefix}.head{h}"] = w[h]


@dataclass
class IncrementalState:
    """Per-layer key/value history plus the next stream position.

    A step builds new arrays instead of writing into the old ones, so
    sibling hypotheses share their parent's arrays and never interact.
    """

    position: int
    self_k: list[np.ndarray]
    self_v: list[np.ndarray]
    cross_k: list[np.ndarray] = field(default_factory=list)
    cross_v: list[np.ndarray] = field(default_factory=list)
    audio_len: int = 0

    @property
    def cached_len(self) -> int:
        return self.self_k[0].shape[0] if self.self_k else 0


def decoder_init(
    weights: DecoderWeights,
    config: InterfaceConfig,
    audio: EncoderOutput | np.ndarray | None,
) -> IncrementalState:
    """Prime an incremental state with the audio prefix and the prompt."""
    hp = weights.hp
    frames = _audio_frames(weights, config, audio)
    a = frames.shape[0]
    state = IncrementalState(
        position=0,
        self_k=[np.zeros((0, hp.dim)) for _ in range(hp.layers)],
        self_v=[np.zeros((0, hp.dim)) for _ in range(hp.layers)],
        audio_len=a,
    )

    if config.kind == "prefix" and a > 0:
        # run the audio block jointly so bidirectional prefix attention sees
        # the whole block, then cache its per-layer keys/values
        rotary = _rotary(weights, np.arange(a, dtype=np.float64))
        block_mask = build_attention_mask(config, a, 0)
        x = frames
        for i, layer in enumerate(weights.layers):
            normed = _layer_norm(x, layer.attn_norm)
            k = _rope(normed @ layer.wk, rotary, hp.heads)
            v = normed @ layer.wv
            state.self_k[i] = k
            state.self_v[i] = v
            q = _rope(normed @ layer.wq, rotary, hp.heads)
            out, _ = _attend(q, k, v, block_mask, hp.heads)
            x = x + out @ layer.wo
            x = x + _ffn_block(layer, x)
        state.position = a
    elif config.kind == "merged" and a > 0:
        rotary = _rotary(weights, np.arange(a, dtype=np.float64))
        for i, layer in enumerate(weights.layers):
            normed = _layer_norm(frames, layer.attn_norm)
            state.self_k[i] = _rope(normed @ layer.wk, rotary, hp.heads)
            state.self_v[i] = normed @ layer.wv
        state.position = a
    elif config.kind == "aed" and a > 0:
        for layer in weights.layers:
            state.cross_k.append(frames @ layer.cross_wk)
            state.cross_v.append(frames @ layer.cross_wv)

    for tok in config.prompt:
        _, (state,) = decoder_step(weights, config, [state], [tok])
    return state


def _append_row(caches: Sequence[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """Stack B (n, d) caches into one (B, n + 1, d) array ending in ``rows``."""
    n = caches[0].shape[0]
    out = np.empty((len(caches), n + 1, rows.shape[-1]))
    np.stack(caches, out=out[:, :n])
    out[:, n:] = rows
    return out


def decoder_step(
    weights: DecoderWeights,
    config: InterfaceConfig,
    states: Sequence[IncrementalState],
    labels: Sequence[int],
) -> tuple[np.ndarray, list[IncrementalState]]:
    """Feed one label to each of B states; returns a B x V matrix of
    next-label log-distributions and the B successor states.

    The states must share one position and cache length, as the hypotheses
    of one label-synchronous step do.  Every row-wise tensor keeps a
    singleton axis, (B, 1, d), and reductions run over the last axis only:
    numpy then runs each (1, d) @ (d, e) product of the stack as its own
    BLAS call, the one a single state gets, so row b is bit-identical to
    stepping state b alone.  A 2-D (B, d) @ (d, e) product would round
    differently.
    """
    hp = weights.hp
    states = list(states)
    if not states or len(states) != len(labels):
        raise ValueError("decoder_step needs one label per state, and at least one state")
    first = states[0]
    for s in states:
        if (s.position, s.cached_len, s.audio_len) != (
            first.position, first.cached_len, first.audio_len
        ):
            raise ValueError("batched states must share one position and cache length")
    if first.self_k and first.self_k[0].shape[1] != hp.dim:
        raise ValueError("incremental state does not match these weights")
    rotary = _rotary(weights, np.array([float(first.position)]))
    x = weights["embed"][np.asarray(labels)][:, None, :]
    self_k: list[np.ndarray] = []
    self_v: list[np.ndarray] = []
    for i, layer in enumerate(weights.layers):
        normed = _layer_norm(x, layer.attn_norm)
        q = _rope(normed @ layer.wq, rotary, hp.heads)
        k = _rope(normed @ layer.wk, rotary, hp.heads)
        self_k.append(_append_row([s.self_k[i] for s in states], k))
        self_v.append(_append_row([s.self_v[i] for s in states], normed @ layer.wv))
        out, _ = _attend(q, self_k[i], self_v[i], None, hp.heads)
        x = x + out @ layer.wo
        if config.kind == "aed" and first.cross_k:
            qc = _layer_norm(x, layer.cross_norm) @ layer.cross_wq
            keys = np.stack([s.cross_k[i] for s in states])
            values = np.stack([s.cross_v[i] for s in states])
            out_c, _ = _attend(qc, keys, values, None, hp.heads)
            x = x + out_c @ layer.cross_wo
        x = x + _ffn_block(layer, x)
    rows = _log_softmax(_layer_norm(x, weights.final_norm) @ weights["out_proj"])[:, 0]
    successors = [
        IncrementalState(
            first.position + 1,
            [k[b] for k in self_k],
            [v[b] for v in self_v],
            s.cross_k,
            s.cross_v,
            s.audio_len,
        )
        for b, s in enumerate(states)
    ]
    return rows, successors


def seq_cross_entropy(
    weights: DecoderWeights,
    config: InterfaceConfig,
    audio: EncoderOutput | np.ndarray | None,
    labels: Sequence[int],
    bos_id: int,
    eos_id: int,
) -> float:
    """Negative log-likelihood of a label sequence that must end in EOS."""
    labels = list(labels)
    if not labels or labels[-1] != eos_id:
        raise ValueError("labels must end with EOS")
    rows = decoder_forward(weights, config, audio, [bos_id] + labels[:-1])
    return float(-sum(rows[s, lab] for s, lab in enumerate(labels)))


def export_attention(
    weights: DecoderWeights,
    config: InterfaceConfig,
    audio: EncoderOutput | np.ndarray | None,
    labels: Sequence[int],
    path: str | Path | None = None,
) -> dict[str, np.ndarray]:
    """Per-layer per-head attention weights, optionally written to a container."""
    _, attn = decoder_forward(weights, config, audio, labels, collect_attention=True)
    if path is not None:
        write_tensor_container(attn, path)
    return attn
