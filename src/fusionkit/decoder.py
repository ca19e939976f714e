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
from dataclasses import dataclass, field, replace
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


class DecoderWeights:
    """Named parameter tensors plus hyperparameters."""

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


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS) * gamma + beta


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def _rope(x: np.ndarray, positions: np.ndarray, heads: int) -> np.ndarray:
    """Rotary position embedding over the head dimension, shared by q and k."""
    n, d = x.shape
    hd = d // heads
    half = hd // 2
    freqs = ROPE_BASE ** (-np.arange(half) * 2.0 / hd)
    angles = positions[:, None] * freqs[None, :]
    cos = np.cos(angles)[:, None, :]
    sin = np.sin(angles)[:, None, :]
    xh = x.reshape(n, heads, hd)
    even = xh[..., 0::2]
    odd = xh[..., 1::2]
    rot = np.empty_like(xh)
    rot[..., 0::2] = even * cos - odd * sin
    rot[..., 1::2] = even * sin + odd * cos
    return rot.reshape(n, d)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, heads, d // heads).transpose(1, 0, 2)


def _attend(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: np.ndarray | None, heads: int
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head scaled dot-product attention; returns output and weights."""
    hd = q.shape[1] // heads
    qh = _split_heads(q, heads)
    kh = _split_heads(k, heads)
    vh = _split_heads(v, heads)
    scores = qh @ kh.transpose(0, 2, 1) / math.sqrt(hd)
    if mask is not None:
        scores = np.where(mask[None, :, :], scores, NEG_INF)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    out = weights @ vh
    return out.transpose(1, 0, 2).reshape(q.shape[0], -1), weights


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
        positions = np.arange(a + s, dtype=np.float64)
        mask = build_attention_mask(config, a, s)
        for i in range(hp.layers):
            x = x + _self_attention_block(weights, i, x, positions, mask, attn, hp.heads)
            x = x + _ffn_block(weights, i, x)
        x = x[a:]
    elif config.kind == "merged":
        x = text
        positions = np.arange(a, a + s, dtype=np.float64)
        audio_positions = np.arange(a, dtype=np.float64)
        mask = build_attention_mask(config, a, s)
        for i in range(hp.layers):
            p = f"layer{i}"
            normed = _layer_norm(x, weights[f"{p}.attn_norm.gamma"], weights[f"{p}.attn_norm.beta"])
            normed_audio = _layer_norm(
                frames, weights[f"{p}.attn_norm.gamma"], weights[f"{p}.attn_norm.beta"]
            )
            q = _rope(normed @ weights[f"{p}.self_attn.wq"], positions, hp.heads)
            k_text = _rope(normed @ weights[f"{p}.self_attn.wk"], positions, hp.heads)
            k_audio = _rope(normed_audio @ weights[f"{p}.self_attn.wk"], audio_positions, hp.heads)
            v = np.vstack([normed_audio @ weights[f"{p}.self_attn.wv"],
                           normed @ weights[f"{p}.self_attn.wv"]])
            out, w = _attend(q, np.vstack([k_audio, k_text]), v, mask, hp.heads)
            _store_attention(attn, f"layer{i}", w)
            x = x + out @ weights[f"{p}.self_attn.wo"]
            x = x + _ffn_block(weights, i, x)
    else:  # aed
        x = text
        positions = np.arange(s, dtype=np.float64)
        mask = build_attention_mask(config, 0, s)
        for i in range(hp.layers):
            x = x + _self_attention_block(weights, i, x, positions, mask, attn, hp.heads)
            if a > 0:
                x = x + _cross_attention_block(weights, i, x, frames, attn, hp.heads)
            x = x + _ffn_block(weights, i, x)

    x = x[len(config.prompt) :]
    logits = _layer_norm(x, weights["final_norm.gamma"], weights["final_norm.beta"]) @ weights["out_proj"]
    rows = _log_softmax(logits)
    if collect_attention:
        return rows, attn
    return rows


def _self_attention_block(weights, i, x, positions, mask, attn, heads):
    p = f"layer{i}"
    normed = _layer_norm(x, weights[f"{p}.attn_norm.gamma"], weights[f"{p}.attn_norm.beta"])
    q = _rope(normed @ weights[f"{p}.self_attn.wq"], positions, heads)
    k = _rope(normed @ weights[f"{p}.self_attn.wk"], positions, heads)
    v = normed @ weights[f"{p}.self_attn.wv"]
    out, w = _attend(q, k, v, mask, heads)
    _store_attention(attn, f"layer{i}", w)
    return out @ weights[f"{p}.self_attn.wo"]


def _cross_attention_block(weights, i, x, frames, attn, heads):
    p = f"layer{i}"
    normed = _layer_norm(x, weights[f"{p}.cross_norm.gamma"], weights[f"{p}.cross_norm.beta"])
    q = normed @ weights[f"{p}.cross_attn.wq"]
    k = frames @ weights[f"{p}.cross_attn.wk"]
    v = frames @ weights[f"{p}.cross_attn.wv"]
    out, w = _attend(q, k, v, None, heads)
    _store_attention(attn, f"layer{i}.cross", w)
    return out @ weights[f"{p}.cross_attn.wo"]


def _ffn_block(weights, i, x):
    p = f"layer{i}"
    normed = _layer_norm(x, weights[f"{p}.ffn_norm.gamma"], weights[f"{p}.ffn_norm.beta"])
    hidden = _gelu(normed @ weights[f"{p}.ffn.w1"] + weights[f"{p}.ffn.b1"])
    return hidden @ weights[f"{p}.ffn.w2"] + weights[f"{p}.ffn.b2"]


def _store_attention(attn: dict, prefix: str, w: np.ndarray) -> None:
    for h in range(w.shape[0]):
        attn[f"{prefix}.head{h}"] = w[h]


@dataclass
class IncrementalState:
    """Per-layer key/value history plus the next stream position.

    A step replaces each layer's arrays instead of writing into them, so
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
        positions = np.arange(a, dtype=np.float64)
        block_mask = build_attention_mask(config, a, 0)
        x = frames
        for i in range(hp.layers):
            p = f"layer{i}"
            normed = _layer_norm(x, weights[f"{p}.attn_norm.gamma"], weights[f"{p}.attn_norm.beta"])
            k = _rope(normed @ weights[f"{p}.self_attn.wk"], positions, hp.heads)
            v = normed @ weights[f"{p}.self_attn.wv"]
            state.self_k[i] = k
            state.self_v[i] = v
            q = _rope(normed @ weights[f"{p}.self_attn.wq"], positions, hp.heads)
            out, _ = _attend(q, k, v, block_mask, hp.heads)
            x = x + out @ weights[f"{p}.self_attn.wo"]
            x = x + _ffn_block(weights, i, x)
        state.position = a
    elif config.kind == "merged" and a > 0:
        positions = np.arange(a, dtype=np.float64)
        for i in range(hp.layers):
            p = f"layer{i}"
            normed = _layer_norm(
                frames, weights[f"{p}.attn_norm.gamma"], weights[f"{p}.attn_norm.beta"]
            )
            state.self_k[i] = _rope(normed @ weights[f"{p}.self_attn.wk"], positions, hp.heads)
            state.self_v[i] = normed @ weights[f"{p}.self_attn.wv"]
        state.position = a
    elif config.kind == "aed" and a > 0:
        for i in range(hp.layers):
            p = f"layer{i}"
            state.cross_k.append(frames @ weights[f"{p}.cross_attn.wk"])
            state.cross_v.append(frames @ weights[f"{p}.cross_attn.wv"])

    for tok in config.prompt:
        _, state = decoder_step(weights, config, state, tok)
    return state


def decoder_step(
    weights: DecoderWeights,
    config: InterfaceConfig,
    state: IncrementalState,
    label: int,
) -> tuple[np.ndarray, IncrementalState]:
    """Feed one label; returns the next-label log-distribution and a new state."""
    hp = weights.hp
    if state.self_k and state.self_k[0].shape[1] != hp.dim:
        raise ValueError("incremental state does not match these weights")
    new = replace(state, self_k=list(state.self_k), self_v=list(state.self_v))
    pos = np.array([float(new.position)])
    x = weights["embed"][[label]]
    for i in range(hp.layers):
        p = f"layer{i}"
        normed = _layer_norm(x, weights[f"{p}.attn_norm.gamma"], weights[f"{p}.attn_norm.beta"])
        q = _rope(normed @ weights[f"{p}.self_attn.wq"], pos, hp.heads)
        k = _rope(normed @ weights[f"{p}.self_attn.wk"], pos, hp.heads)
        v = normed @ weights[f"{p}.self_attn.wv"]
        new.self_k[i] = np.vstack([new.self_k[i], k])
        new.self_v[i] = np.vstack([new.self_v[i], v])
        out, _ = _attend(q, new.self_k[i], new.self_v[i], None, hp.heads)
        x = x + out @ weights[f"{p}.self_attn.wo"]
        if config.kind == "aed" and new.cross_k:
            normed_c = _layer_norm(
                x, weights[f"{p}.cross_norm.gamma"], weights[f"{p}.cross_norm.beta"]
            )
            qc = normed_c @ weights[f"{p}.cross_attn.wq"]
            out_c, _ = _attend(qc, new.cross_k[i], new.cross_v[i], None, hp.heads)
            x = x + out_c @ weights[f"{p}.cross_attn.wo"]
        x = x + _ffn_block(weights, i, x)
    new.position += 1
    logits = _layer_norm(x, weights["final_norm.gamma"], weights["final_norm.beta"]) @ weights["out_proj"]
    return _log_softmax(logits)[0], new


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
