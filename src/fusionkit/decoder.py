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

from fusionkit.core import NEG_INF, EncoderOutput, FormatError, ValidationError

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
            raise ValidationError(f"unknown interface kind {self.kind!r}")
        if self.prefix_attention not in ("causal", "bidirectional"):
            raise ValidationError(f"unknown prefix attention {self.prefix_attention!r}")
        if self.prefix_attention == "bidirectional" and self.kind != "prefix":
            raise ValidationError("bidirectional prefix attention requires the prefix kind")
        object.__setattr__(self, "prompt", tuple(self.prompt))


# Each layer's tensors in file and seeding order: name suffix, and shape in
# ``Hyperparams`` fields.
_LAYER_TENSORS = (
    ("attn_norm.gamma", ("dim",)),
    ("attn_norm.beta", ("dim",)),
    *((f"self_attn.{m}", ("dim", "dim")) for m in ("wq", "wk", "wv", "wo")),
    ("cross_norm.gamma", ("dim",)),
    ("cross_norm.beta", ("dim",)),
    *((f"cross_attn.{m}", ("dim", "dim")) for m in ("wq", "wk", "wv", "wo")),
    ("ffn_norm.gamma", ("dim",)),
    ("ffn_norm.beta", ("dim",)),
    ("ffn.w1", ("dim", "ffn_dim")),
    ("ffn.b1", ("ffn_dim",)),
    ("ffn.w2", ("ffn_dim", "dim")),
    ("ffn.b2", ("dim",)),
)


def _layout(hp: Hyperparams) -> dict[str, tuple[int, ...]]:
    """Every tensor's name and shape, in file and seeding order."""
    table = [
        ("embed", ("vocab_size", "dim")),
        ("final_norm.gamma", ("dim",)),
        ("final_norm.beta", ("dim",)),
        ("out_proj", ("dim", "vocab_size")),
    ]
    table += [(f"layer{i}.{s}", axes) for i in range(hp.layers) for s, axes in _LAYER_TENSORS]
    return {name: tuple(getattr(hp, a) for a in axes) for name, axes in table}


class DecoderWeights:
    """Named parameter tensors plus hyperparameters.

    ``layers[i]`` maps each of layer i's name suffixes to its tensor, so
    the per-step code never formats a tensor name.
    """

    def __init__(self, hp: Hyperparams, tensors: dict[str, np.ndarray]):
        self.hp = hp
        self.tensors = {k: np.asarray(v, dtype=np.float64) for k, v in tensors.items()}
        for name, shape in _layout(hp).items():
            if name not in self.tensors:
                raise ValueError(f"missing tensor {name!r}")
            if self.tensors[name].shape != shape:
                raise ValueError(f"tensor {name!r} has shape {self.tensors[name].shape}, expected {shape}")
        self.layers = [
            {s: self.tensors[f"layer{i}.{s}"] for s, _ in _LAYER_TENSORS} for i in range(hp.layers)
        ]
        self.rope_freqs = ROPE_BASE ** (-np.arange(hp.head_dim // 2) * 2.0 / hp.head_dim)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]


def seeded_weights(hp: Hyperparams, seed: int) -> DecoderWeights:
    """Random float32-valued weights; scale 1/sqrt(dim) keeps outputs tame."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in _layout(hp).items():
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
    tensors = {META_TENSOR: meta}
    tensors.update((name, weights.tensors[name]) for name in _layout(hp))
    write_tensor_container(tensors, path)


def read_tensor_container(path: str | Path) -> dict[str, np.ndarray]:
    """An FKWT container's tensors; FormatError names a malformed file and tensor."""
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
            if name in out:
                raise FormatError(f"{path}: tensor {name!r} appears twice")
            (rank,) = struct.unpack_from("<B", data, pos)
            pos += 1
            dims = struct.unpack_from(f"<{rank}I", data, pos)
            pos += 4 * rank
            size = math.prod(dims)
            if pos + 4 * size > len(data):
                raise FormatError(f"{path}: tensor {name!r} payload truncated")
            arr = np.frombuffer(data, dtype="<f4", count=size, offset=pos)
            if not np.all(np.isfinite(arr)):  # before the cast, which a signalling NaN trips
                raise FormatError(f"{path}: tensor {name!r} holds non-finite values")
            # numpy holds 32 axes, whose nonzero sizes stay under 2**63 float64 bytes even if empty
            if rank > 32 or math.prod(filter(None, dims)) >= 2**60:
                raise FormatError(f"{path}: tensor {name!r} has {rank} axes, sizes {dims}")
            pos += 4 * size
            out[name] = arr.reshape(dims).astype(np.float64)
    except struct.error as exc:
        raise FormatError(f"{path}: truncated tensor table ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: a tensor name is not UTF-8 ({exc})") from exc
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} trailing bytes")
    return out


def write_tensor_container(tensors: dict[str, np.ndarray], path: str | Path) -> None:
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC)
        f.write(struct.pack("<II", WEIGHTS_VERSION, len(tensors)))
        for name, tensor in tensors.items():
            tensor = np.asarray(tensor)
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<B", tensor.ndim))
            f.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            f.write(tensor.astype("<f4").tobytes(order="C"))


def load_weights(path: str | Path) -> DecoderWeights:
    """Decoder weights from an FKWT file; FormatError names a malformed file."""
    tensors = read_tensor_container(path)
    meta = tensors.pop(META_TENSOR, None)
    if meta is None:
        raise FormatError(f"{path}: missing {META_TENSOR} tensor")
    ok = meta.shape == (6,) and np.all((meta >= 1) & (meta == np.round(meta)))
    if not ok or meta[0] > len(tensors):  # every layer has tensors of its own
        raise FormatError(f"{path}: {META_TENSOR} needs six positive integers, layers <= tensors")
    layers, dim, heads, _, vocab, ffn = (int(x) for x in meta)
    try:
        hp = Hyperparams(layers=layers, dim=dim, heads=heads, vocab_size=vocab, ffn_dim=ffn)
        return DecoderWeights(hp, tensors)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


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


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    # the ufunc sequence of np.mean and np.var, without their Python wrappers
    n = x.shape[-1]
    centered = x - np.add.reduce(x, -1, keepdims=True) / n
    var = np.add.reduce(np.square(centered), -1, keepdims=True) / n
    return centered / np.sqrt(var + LN_EPS) * gamma + beta


# Where x >= 0 the fast cube copysign(|x|**3, x) is numpy's x**3 itself.
# Where x < 0, numpy's x**3 runs a slow per-lane path and differs from the
# fast cube by at most 1 ulp: over 10^7 negative inputs from each of a
# normal, a log-uniform (1e-100 to 1e100) and a uniform [-8, 0) draw, 0 ulp
# 94.7% of the time and 1 ulp otherwise (numpy 2.4.6, AVX-512).  So a
# negative finite cube is stepped one ulp each way by its int64 bit pattern,
# which grows with the magnitude of a negative float.  -0.0 and -inf stay
# unstepped: each has a NaN among its neighbours by bits.


def _gelu(x: np.ndarray) -> np.ndarray:
    """0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x**3))), bit for bit, with
    numpy's slow negative-base x**3 run only where its rounding matters.

    The tanh argument is built from the fast cube and, where the cube is
    negative and finite, from its neighbours one ulp below and above.  Its
    multiply and add round monotonically, so where the two neighbours agree
    they equal the argument built from x**3; elsewhere it is rebuilt from
    x**3.  (A subnormal cube moves no argument: there 0.044715 x**3 is
    below half an ulp of x.)
    """
    arg = np.abs(x)  # in place below: no more arrays live at once than in the expression
    np.power(arg, 3, out=arg)
    np.copysign(arg, x, out=arg)
    flat, cube = x.reshape(-1), arg.reshape(-1)
    at = ((cube < 0.0) & (cube > NEG_INF)).nonzero()[0]
    bits, xs = cube[at].view(np.int64), flat[at]
    lo, hi = (bits + 1).view(np.float64), (bits - 1).view(np.float64)
    for end, base in ((lo, xs), (hi, xs), (arg, x)):
        end *= 0.044715
        end += base
    at = at[lo != hi]
    xs = flat[at]
    cube[at] = xs + 0.044715 * xs**3
    arg *= math.sqrt(2.0 / math.pi)
    np.tanh(arg, out=arg)
    arg += 1.0
    out = np.multiply(x, 0.5)
    out *= arg
    return out


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
            raise ValidationError("aed decoding requires audio; pass a zero-length prefix "
                                  "to run the decoder as a language model")
        return np.zeros((0, weights.hp.dim))
    frames = audio.frames if isinstance(audio, EncoderOutput) else np.asarray(audio, dtype=np.float64)
    if frames.ndim != 2:
        raise ValidationError("audio must be a T x D matrix")
    if frames.shape[0] > 0 and frames.shape[1] != weights.hp.dim:
        raise ValidationError(f"audio dim {frames.shape[1]} does not match decoder dim {weights.hp.dim}")
    return frames if frames.size else frames.reshape(0, weights.hp.dim)


def _layer(layer: dict[str, np.ndarray], x, rotary, heads, mask, memory, cross, take=None):
    """One pre-norm layer over the query rows ``x``.

    Self-attention sees the (keys, values) already in the stream,
    ``memory``, followed by the rows' own; ``cross``, the audio's aed
    (keys, values), adds cross-attention when given.  Returns the new rows,
    the joined (keys, values) and the (self, cross) attention weights.

    The forward pass gives (n, d) rows and (m, d) memory.  A step gives
    (B, 1, d) rows and (B', m, d) memory, of which row ``take[b]`` (row b
    without ``take``) is row b's history; it is gathered straight into the
    joined (B, m + 1, d) arrays.
    """
    normed = _layer_norm(x, layer["attn_norm.gamma"], layer["attn_norm.beta"])
    q = _rope(normed @ layer["self_attn.wq"], rotary, heads)
    joined = []
    keys = _rope(normed @ layer["self_attn.wk"], rotary, heads)
    for cache, rows in zip(memory, (keys, normed @ layer["self_attn.wv"])):
        if x.ndim == 2:
            joined.append(np.concatenate([cache, rows]))
        else:
            m = cache.shape[1]
            stacked = np.empty((rows.shape[0], m + 1, rows.shape[-1]))
            stacked[:, :m] = cache if take is None else cache[take]
            stacked[:, m:] = rows
            joined.append(stacked)
    out, w_self = _attend(q, *joined, mask, heads)
    x = x + out @ layer["self_attn.wo"]
    w_cross = None
    if cross is not None:
        q = _layer_norm(x, layer["cross_norm.gamma"], layer["cross_norm.beta"])
        out, w_cross = _attend(q @ layer["cross_attn.wq"], *cross, None, heads)
        x = x + out @ layer["cross_attn.wo"]
    normed = _layer_norm(x, layer["ffn_norm.gamma"], layer["ffn_norm.beta"])
    hidden = _gelu(normed @ layer["ffn.w1"] + layer["ffn.b1"])
    return x + (hidden @ layer["ffn.w2"] + layer["ffn.b2"]), tuple(joined), (w_self, w_cross)


@dataclass
class IncrementalState:
    """Per-layer key/value histories of B hypotheses at one stream position.

    ``self_k[i]`` and ``self_v[i]`` are (B, L, d) stacks, one row per
    hypothesis; ``cross_k[i]``/``cross_v[i]`` hold the aed audio keys/values
    as (B, A, d).  A step builds new arrays instead of writing into the old
    ones, so a state stays valid after it was stepped from.
    """

    position: int
    self_k: list[np.ndarray]
    self_v: list[np.ndarray]
    cross_k: list[np.ndarray] = field(default_factory=list)
    cross_v: list[np.ndarray] = field(default_factory=list)

    def __len__(self) -> int:
        return self.self_k[0].shape[0]

    def take(self, rows) -> "IncrementalState":
        """The states of ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        return self.map(lambda a: a[rows])

    def map(self, fn) -> "IncrementalState":
        """This state with ``fn`` applied to each key/value array."""
        k, v, ck, cv = (
            [fn(a) for a in arrays] for arrays in (self.self_k, self.self_v, self.cross_k, self.cross_v)
        )
        return IncrementalState(self.position, k, v, ck, cv)


def _audio_memory(
    weights: DecoderWeights, config: InterfaceConfig, frames: np.ndarray
) -> IncrementalState:
    """The state after the audio frames, before the prompt, with (m, d)
    arrays and no batch axis.

    ``prefix`` runs the audio block through the layers under the block
    mask, so that bidirectional prefix attention sees the whole block, and
    keeps each layer's keys/values.  ``merged`` keeps each layer's key/value
    projections of the frames themselves.  ``aed`` keeps each layer's cross
    keys/values and leaves the self-attention stream empty.
    """
    hp = weights.hp
    a = frames.shape[0]
    empty = np.zeros((0, hp.dim))
    state = IncrementalState(0, [empty] * hp.layers, [empty] * hp.layers)
    if a == 0:
        return state
    if config.kind == "aed":
        state.cross_k = [frames @ layer["cross_attn.wk"] for layer in weights.layers]
        state.cross_v = [frames @ layer["cross_attn.wv"] for layer in weights.layers]
        return state
    rotary = _rotary(weights, np.arange(a, dtype=np.float64))
    state.position = a
    if config.kind == "merged":
        for i, layer in enumerate(weights.layers):
            normed = _layer_norm(frames, layer["attn_norm.gamma"], layer["attn_norm.beta"])
            state.self_k[i] = _rope(normed @ layer["self_attn.wk"], rotary, hp.heads)
            state.self_v[i] = normed @ layer["self_attn.wv"]
        return state
    mask = build_attention_mask(config, a, 0)
    x = frames
    for i, layer in enumerate(weights.layers):
        x, (state.self_k[i], state.self_v[i]), _ = _layer(
            layer, x, rotary, hp.heads, mask, (empty, empty), None
        )
    return state


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
    labels = list(labels)
    if not labels:
        raise ValueError("labels must contain at least BOS")
    frames = _audio_frames(weights, config, audio)
    a = frames.shape[0]
    text_ids = list(config.prompt) + labels
    x = weights["embed"][text_ids]
    if config.kind == "prefix":
        # audio and text run as one stream under one square mask, which the
        # attention maps keep
        x, frames = np.vstack([frames, x]), frames[:0]
    memory = _audio_memory(weights, config, frames)
    start = memory.position
    rotary = _rotary(weights, np.arange(start, start + len(x), dtype=np.float64))
    mask = build_attention_mask(config, 0 if config.kind == "aed" else a, len(text_ids))
    attn: dict[str, np.ndarray] = {}
    for i, layer in enumerate(weights.layers):
        cross = (memory.cross_k[i], memory.cross_v[i]) if memory.cross_k else None
        x, _, maps = _layer(
            layer, x, rotary, weights.hp.heads, mask, (memory.self_k[i], memory.self_v[i]), cross
        )
        for name, w in zip((f"layer{i}", f"layer{i}.cross"), maps):
            if w is not None:
                attn.update((f"{name}.head{h}", w[h]) for h in range(w.shape[0]))

    x = x[-len(labels) :]
    x = _layer_norm(x, weights["final_norm.gamma"], weights["final_norm.beta"])
    rows = _log_softmax(x @ weights["out_proj"])
    if collect_attention:
        return rows, attn
    return rows


def decoder_init(
    weights: DecoderWeights,
    config: InterfaceConfig,
    audio: EncoderOutput | np.ndarray | None,
) -> IncrementalState:
    """Prime a one-row incremental state with the audio prefix and the prompt."""
    state = _audio_memory(weights, config, _audio_frames(weights, config, audio))
    state = state.map(lambda a: a[None])
    for tok in config.prompt:
        _, state = decoder_step(weights, state, [tok])
    return state


def decoder_step(
    weights: DecoderWeights,
    state: IncrementalState,
    labels: Sequence[int],
    rows: Sequence[int] | None = None,
) -> tuple[np.ndarray, IncrementalState]:
    """Feed ``labels[b]`` to row ``rows[b]`` of ``state`` (to row b without
    ``rows``); returns the B x V matrix of next-label log-distributions and
    the B-row successor state.

    Every row-wise tensor keeps a singleton axis, (B, 1, d), and reductions
    run over the last axis only: numpy then runs each (1, d) @ (d, e)
    product of the stack as its own BLAS call, the one a single row gets,
    so row b is bit-identical to stepping its state alone.  A 2-D
    (B, d) @ (d, e) product would round differently.
    """
    hp = weights.hp
    count = len(state) if rows is None else len(rows)
    if not count or count != len(labels):
        raise ValueError("decoder_step needs one label per state, and at least one state")
    if state.self_k[0].shape[2] != hp.dim:
        raise ValueError("incremental state does not match these weights")
    take = None if rows is None else np.asarray(rows, dtype=np.int64)
    rotary = _rotary(weights, np.array([float(state.position)]))
    x = weights["embed"][np.asarray(labels)][:, None, :]
    self_k: list[np.ndarray] = []
    self_v: list[np.ndarray] = []
    cross_k, cross_v = state.cross_k, state.cross_v
    if cross_k and take is not None:
        cross_k, cross_v = [k[take] for k in cross_k], [v[take] for v in cross_v]
    for i, layer in enumerate(weights.layers):
        cross = (cross_k[i], cross_v[i]) if cross_k else None
        memory = (state.self_k[i], state.self_v[i])
        x, (k, v), _ = _layer(layer, x, rotary, hp.heads, None, memory, cross, take)
        self_k.append(k)
        self_v.append(v)
    x = _layer_norm(x, weights["final_norm.gamma"], weights["final_norm.beta"])
    out = _log_softmax(x @ weights["out_proj"])[:, 0]
    return out, IncrementalState(state.position + 1, self_k, self_v, cross_k, cross_v)


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
