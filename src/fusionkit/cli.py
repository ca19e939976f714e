"""Command-line surface: decode, wer, ppl, lm-train, synth, bench, export-attn.

Every command is deterministic given its config and seed; primary outputs
are byte-stable across reruns.  Timing lives in a separate stats file so
golden-file comparisons stay meaningful.

``decode`` and ``bench`` read a flat JSON object whose one schema is
:class:`DecodeConfig`, a field per key with its type, default and range
(scorer entries: ``_SCORER_KEYS``); a ``decode`` flag overrides the key of
its name.  All of it is checked, and each model it names loaded
(:class:`Session`), before any posteriorgram is read or output written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from fusionkit.core import (
    FormatError,
    Posteriorgram,
    ScorerWeights,
    ValidationError,
    Vocabulary,
    check_width,
    read_encoder_output,
    read_json,
    read_posteriorgram,
    read_text,
    read_vocabulary,
    write_posteriorgram,
    write_vocabulary,
)
from fusionkit.ctc import compress_posteriors, greedy_decode, topk_prune
from fusionkit.decoder import (
    DecoderWeights,
    Hyperparams,
    InterfaceConfig,
    export_attention,
    load_weights,
    seeded_weights,
)
from fusionkit.lm import (
    NGRAM_MAGIC,
    NGramModel,
    TableLM,
    load_ngram,
    load_table_lm,
    perplexities,
    retokenize,
    save_ngram,
    train_ngram,
)
from fusionkit.metrics import corpus_wer, words
from fusionkit.search import (
    ContextLMScorer,
    CtcPrefixLabelScorer,
    DecodeStats,
    DecoderLabelScorer,
    LabelScorer,
    NBestEntry,
    NBestList,
    frame_lm,
    labelsync_beam,
    timesync_ctc_beam,
    write_nbest,
)
from fusionkit.synth import SynthConfig, gen_corpus

# utterances that one Session.search call decodes together, taken longest
# first (read_corpus_dir's order).  A joint lockstep takes at least
# LOCKSTEP_ROWS // beam of them, then more while beam times their frames
# stays within LOCKSTEP_ROW_FRAMES (64 rows of 48 frames), as each live
# hypothesis holds the decoder's keys and values: short utterances share
# fewer, fuller label steps
LOCKSTEP_UTTERANCES = 32
LOCKSTEP_ROWS = 64
LOCKSTEP_ROW_FRAMES = 3072
# the config keys that a decode flag of the same name overrides, and their types
DECODE_FLAGS = {"strategy": str, "beam": int, "top_k": int, "compress_threshold": float,
                "lm_path": str, "lm_weight": float}


class CliError(Exception):
    pass


def load_lm(path: str | Path) -> NGramModel | TableLM:
    try:
        with open(path, "rb") as f:
            head = f.read(len(NGRAM_MAGIC))
    except OSError as exc:
        raise CliError(f"cannot read LM file {path}: {exc.strerror}") from exc
    if head == NGRAM_MAGIC:
        return load_ngram(path)
    return load_table_lm(path)


def read_id_lines(path: Path) -> dict[str, tuple[int, str]]:
    """The ``<id>\\t<text>`` lines of a UTF-8 file as id -> (line number,
    text), in file order.  Every line needs its tab, and an id names one
    file in a corpus dir, once: it is nonempty, not ``.`` or ``..``, holds
    no ``/`` or ``\\`` and repeats no earlier line's.  CliError names the
    file and line of the first that breaks this."""
    ids: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        utt_id, tab, text = line.partition("\t")
        if not tab:
            raise CliError(f"{path} line {lineno}: expected '<utterance id>\\t<transcript>'")
        if utt_id in ("", ".", "..") or "/" in utt_id or "\\" in utt_id:
            raise CliError(f"{path} line {lineno}: bad utterance id {utt_id!r}")
        if utt_id in ids:
            raise CliError(f"{path} line {lineno}: utterance id {utt_id!r} repeats line {ids[utt_id][0]}")
        ids[utt_id] = lineno, text
    return ids


def read_corpus_dir(corpus_dir: str | Path):
    """The vocabulary and ``(utt_id, FKPG path, transcript)`` per utterance,
    longest first: by FKPG size, which grows with frames at a fixed width,
    ties in ``refs.txt`` order.  ``refs.txt`` ids follow
    :func:`read_id_lines`."""
    corpus_dir = Path(corpus_dir)
    vocab_path = corpus_dir / "vocab.txt"
    refs_path = corpus_dir / "refs.txt"
    for p in (vocab_path, refs_path):
        if not p.exists():
            raise CliError(f"missing corpus file: {p}")
    vocab = read_vocabulary(vocab_path)
    utts, sizes = [], {}
    for utt_id, (_, transcript) in read_id_lines(refs_path).items():
        pg_path = corpus_dir / f"{utt_id}.fkpg"
        try:
            sizes[utt_id] = pg_path.stat().st_size
        except (OSError, ValueError):
            raise CliError(f"missing posteriorgram for {utt_id}: {pg_path}") from None
        utts.append((utt_id, pg_path, transcript))
    utts.sort(key=lambda u: -sizes[u[0]])  # stable: ties keep refs.txt order
    return vocab, utts


def _integer(v, low=1) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= low


def _finite(v, low=-math.inf) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and low < v < math.inf


def _path(v) -> bool:
    return isinstance(v, str) and v != ""


def _check(key: str, value, rule: tuple, where: str = "") -> None:
    """Raise ValidationError unless ``value`` passes the rule of ``key``."""
    if isinstance(rule[0], str):
        if value not in rule:
            raise ValidationError(f"{where}unknown {key} {value!r}; expected {', '.join(rule)}")
    elif not rule[0](value):
        raise ValidationError(f"{where}{key} must be {rule[1]}, not {value!r}")


def _key(default, *rule):
    """A config key: its default, then its rule: the values it takes, or a
    test and what a value must be."""
    return field(default=default, metadata={"rule": rule})


# A scorer entry: a unique name, a kind, a weight and its kind's keys, with
# their defaults (None: none).  decoder_lm is the toy decoder without audio,
# its weights read from weights_path or else seeded with seed.
_SCORER_KEYS = {
    "ctc_prefix": {},
    "ngram": {"path": None},
    "decoder_lm": {"weights_path": None, "seed": 0, "prompt": ()},
}
_SCORER_RULES = {
    "name": (lambda v: _path(v) and not set(v) & set("=, \t\n\r"),
             "a string without whitespace, '=' or ','"),
    "weight": (_finite, "finite"),
    "path": (_path, "a file path"),
    "weights_path": (_path, "a file path"),
    "seed": (lambda v: _integer(v, 0), "an integer >= 0"),
    # ids past the vocabulary fail when the session loads the decoder
    "prompt": (lambda v: isinstance(v, (list, tuple)) and all(_integer(i, 0) for i in v),
               "a list of label ids"),
}


def _scorer_entry(spec) -> dict:
    """A checked copy of a scorer entry, with its kind's defaults."""
    if not isinstance(spec, dict) or "name" not in spec or "kind" not in spec:
        raise ValidationError(f"scorer entry needs a name and a kind: {spec!r}")
    where, kind = f"scorer {spec['name']!r}: ", spec["kind"]
    if kind == "decoder_am":
        raise ValidationError(f"{where}decoder_am needs encoder audio, which decode does not read")
    if not isinstance(kind, str) or kind not in _SCORER_KEYS:
        raise ValidationError(f"{where}unknown scorer kind {kind!r}")
    keys = _SCORER_KEYS[kind]
    unknown = set(spec) - {"name", "kind", "weight", *keys}
    if unknown:
        raise ValidationError(f"{where}unknown keys {sorted(unknown)} for kind {kind}")
    if "path" in keys and "path" not in spec:
        raise ValidationError(f"{where}kind {kind} needs 'path'")
    entry = {"weight": 0.0, **{k: v for k, v in keys.items() if v is not None}, **spec}
    for key, value in entry.items():
        if key != "kind":
            _check(key, value, _SCORER_RULES[key], where)
    if "prompt" in entry:
        entry["prompt"] = tuple(entry["prompt"])
    return entry


@dataclass(frozen=True)
class DecodeConfig:
    """The one decode config schema: a field per key, with its type, default
    and rule.  Each construction, ``dataclasses.replace`` too, checks every
    key and scorer entry; scorer entries get their kind's defaults."""

    strategy: str = _key("ctc-greedy", "ctc-greedy", "timesync", "delayed", "joint")
    beam: int = _key(8, _integer, "an integer >= 1")
    # joint only: scores divided by length, and labels capped per frame
    length_norm: bool = _key(False, lambda v: isinstance(v, bool), "true or false")
    max_len_factor: float = _key(1.0, lambda v: _finite(v, 0), "a finite number > 0")
    # CTC pruning to the top k labels, blank kept, after compression; Session
    # checks k against the vocabulary
    top_k: int | None = _key(None, lambda v: v is None or _integer(v), "null or an integer >= 1")
    # CTC frame compression; a threshold above 1 (inf too) merges nothing
    compress_threshold: float | None = _key(
        None, lambda v: v is None or _finite(v, 0) or v == math.inf, "null or a number > 0"
    )
    # an FKLM or table JSON LM, fused by timesync (unless lm_weight is 0) and
    # delayed, which needs one (search.frame_lm)
    lm_path: str | None = _key(None, lambda v: v is None or _path(v), "null or a file path")
    lm_weight: float = _key(0.0, _finite, "a finite number")
    scorers: tuple[dict, ...] = _key((), lambda v: isinstance(v, (list, tuple)), "a list")  # joint
    normalization: str = _key("lowercase", "lowercase", "none")  # of bench's WER text

    def __post_init__(self):
        for f in fields(self):
            _check(f.name, getattr(self, f.name), f.metadata["rule"])
        object.__setattr__(self, "scorers", tuple(_scorer_entry(s) for s in self.scorers))
        if self.strategy == "joint" and not self.scorers:
            raise ValidationError("joint decoding needs at least one scorer")
        names = [s["name"] for s in self.scorers]
        if len(set(names)) < len(names):
            raise ValidationError(f"scorer names must be unique: {names}")

    @classmethod
    def from_json(cls, path: str | Path | None = None, **overrides) -> DecodeConfig:
        """The config in JSON file ``path`` (the defaults without one), with
        each override that is not None in place of its key."""
        loaded = {}
        if path:
            loaded = read_json(path)
            if not isinstance(loaded, dict):
                raise FormatError(f"config file {path} must hold a JSON object")
            unknown = set(loaded) - {f.name for f in fields(cls)}
            if unknown:
                raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{**loaded, **{k: v for k, v in overrides.items() if v is not None}})


@dataclass(frozen=True)
class Session:
    """A checked config, its vocabulary and its fusion, built once per run.
    Each construction, ``dataclasses.replace`` too, checks that ``top_k``
    fits the vocabulary."""

    cfg: DecodeConfig
    vocab: Vocabulary
    fusion: object = None  # frame_lm's, for timesync and delayed
    # joint: its scorers as a function of a lockstep's posteriorgrams
    scorers: Callable[[Sequence[Posteriorgram]], list[LabelScorer]] | None = None
    weights: ScorerWeights | None = None  # joint

    def __post_init__(self):
        k, v = self.cfg.top_k, self.vocab.size
        if k is not None and k > v:
            raise ValidationError(f"top_k must be at most the {v} labels of the vocabulary, not {k}")

    @classmethod
    def from_config(cls, cfg: DecodeConfig, vocab: Vocabulary) -> Session:
        """Load the models ``cfg`` names.  One that cannot be read, or does
        not fit ``vocab``, fails naming its scorer, before any output."""
        if cfg.strategy in ("timesync", "delayed"):  # joint names its LMs in scorers
            delayed = cfg.strategy == "delayed"
            fused = cfg.lm_path and (delayed or cfg.lm_weight != 0)  # else none is fused
            lm = load_lm(cfg.lm_path) if fused else None
            try:
                fusion = frame_lm(vocab, lm, cfg.lm_weight, delayed)
            except ValidationError as exc:
                raise ValidationError(f"{exc}: {cfg.lm_path}" if lm else str(exc)) from exc
            return cls(cfg, vocab, fusion=fusion)
        if cfg.strategy != "joint":
            return cls(cfg, vocab)
        scorers, weights = build_joint_scorers(cfg, vocab)
        return cls(cfg, vocab, scorers=scorers, weights=weights)

    def locksteps(self, items):
        """``(utt_id, Posteriorgram)`` pairs in the lists that one search
        decodes together, in order: see LOCKSTEP_UTTERANCES."""
        cfg = self.cfg
        least = most = LOCKSTEP_UTTERANCES
        budget = 0  # the frames a lockstep past its floor may hold
        if cfg.strategy == "joint":  # each utterance holds beam rows
            least = max(1, min(most, LOCKSTEP_ROWS // cfg.beam))
            budget = LOCKSTEP_ROW_FRAMES // cfg.beam
        chunk, frames = [], 0
        for item in items:
            n = item[1].num_frames
            if len(chunk) == most or len(chunk) >= least and frames + n > budget:
                yield chunk
                chunk, frames = [], 0
            chunk.append(item)
            frames += n
        if chunk:
            yield chunk

    def search(self, pgs: Sequence[Posteriorgram], stats: Sequence[DecodeStats]) -> list[NBestList]:
        """The n-best lists of prepared posteriorgrams, their counters in
        ``stats``, one per posteriorgram.  Each also gets its audio and its
        frames' share of the call's wall time."""
        cfg, vocab = self.cfg, self.vocab
        if cfg.strategy == "joint":  # caps and scorers, built before the timer starts
            max_lens = [max(1, round(cfg.max_len_factor * pg.num_frames)) for pg in pgs]
            scorers = self.scorers(pgs)
        t0 = time.perf_counter()
        if cfg.strategy == "joint":
            nbests = labelsync_beam(scorers, self.weights, cfg.beam, vocab, max_lens, stats)
        elif cfg.strategy != "ctc-greedy":
            nbests = timesync_ctc_beam(pgs, vocab, cfg.beam, self.fusion, stats)
        else:  # ctc-greedy: one path per utterance
            nbests = []
            for pg, one in zip(pgs, stats):
                labels = tuple(greedy_decode(pg, vocab.blank_id))
                score = float(np.max(pg.log_probs, axis=1).sum())
                nbests.append(NBestList([NBestEntry(labels, {"ctc": score}, score, True)]))
                one.peak_live_hypotheses = 1
        wall = time.perf_counter() - t0
        frames = sum(pg.num_frames for pg in pgs)
        for pg, one in zip(pgs, stats):
            one.wall_time_s += wall * pg.num_frames / frames
            one.audio_seconds += pg.duration_seconds
        return nbests


def build_joint_scorers(
    cfg: DecodeConfig, vocab: Vocabulary
) -> tuple[Callable[[Sequence[Posteriorgram]], list[LabelScorer]], ScorerWeights]:
    """The scorers of ``cfg.scorers`` as a function of a lockstep's
    posteriorgrams, in config order, and their weights.  Each ``ngram`` and
    ``decoder_lm`` scorer is built here, once; the function adds a CTC
    prefix scorer over the posteriorgrams for each ``ctc_prefix`` entry.
    An LM not on ``vocab`` fails, naming its scorer and file."""
    built: dict[str, LabelScorer] = {}  # ctc_prefix scorers are built per lockstep
    for spec in cfg.scorers:
        name, kind = spec["name"], spec["kind"]
        try:
            if kind == "ngram":
                model = load_lm(spec["path"])
                if model.vocab.tokens != vocab.tokens:
                    raise ValidationError(f"{spec['path']}: the LM is not on the corpus vocabulary")
                built[name] = ContextLMScorer(model, name)
            elif kind == "decoder_lm":
                dw = decoder_weights(vocab, spec.get("weights_path"), spec["seed"])
                prompt = spec["prompt"]
                if max(prompt, default=-1) >= vocab.size:
                    raise ValidationError(f"prompt ids must be < {vocab.size}: {list(prompt)}")
                interface = InterfaceConfig("prefix", prompt=prompt)  # no audio: any kind
                built[name] = DecoderLabelScorer(dw, interface, vocab, name=name)
        except (CliError, ValueError, OSError) as exc:
            raise CliError(f"scorer {name!r}: {exc}") from exc
    weights = ScorerWeights({s["name"]: s["weight"] for s in cfg.scorers}, cfg.length_norm)
    names = [spec["name"] for spec in cfg.scorers]

    def scorers(pgs: Sequence[Posteriorgram]) -> list[LabelScorer]:
        return [built.get(name) or CtcPrefixLabelScorer(pgs, vocab, name) for name in names]

    return scorers, weights


def decoder_weights(vocab: Vocabulary, path: str | None, seed: int) -> DecoderWeights:
    """The toy decoder's weights for ``vocab``: read from FKWT file ``path``,
    else seeded with ``seed``.  Weights of another vocabulary size fail."""
    if path is None:
        return seeded_weights(Hyperparams(vocab_size=vocab.size), seed)
    dw = load_weights(path)
    if dw.hp.vocab_size != vocab.size:
        raise ValidationError(f"{path}: weights of {dw.hp.vocab_size} labels, not {vocab.size}")
    return dw


def prepare_posteriorgram(pg: Posteriorgram, cfg: DecodeConfig, vocab: Vocabulary) -> Posteriorgram:
    """``pg`` compressed, then top-k pruned with blank kept, as ``cfg`` says."""
    if cfg.compress_threshold is not None:
        pg = compress_posteriors(pg, cfg.compress_threshold)
    if cfg.top_k is not None:
        pg = topk_prune(pg, cfg.top_k, vocab.blank_id)
    return pg


def decode_utterance(
    pgs: Sequence[Posteriorgram], session: Session
) -> list[tuple[NBestList, DecodeStats]]:
    """An (n-best list, stats) pair per posteriorgram of one step of
    :func:`decode_corpus`, prepared and searched together."""
    pgs = [prepare_posteriorgram(pg, session.cfg, session.vocab) for pg in pgs]
    stats = [DecodeStats() for _ in pgs]
    return list(zip(session.search(pgs, stats), stats))


def read_posteriorgrams(utts):
    """``(utt_id, Posteriorgram)`` pairs for :func:`read_corpus_dir` entries,
    each read only when it is asked for."""
    for utt_id, pg_path, _ in utts:
        try:
            pg = read_posteriorgram(pg_path)
        except (OSError, ValueError) as exc:
            raise CliError(f"decoding {utt_id} ({pg_path}) failed: {exc}") from exc
        yield utt_id, pg


def decode_corpus(session: Session, items):
    """Decode ``(utt_id, Posteriorgram)`` pairs, a lockstep of
    :meth:`Session.locksteps` at a time, yielding ``(utt_id, n-best list,
    stats)`` in their order.

    A posteriorgram whose width is not the vocabulary's fails, naming its
    utterance; so does a failed decode, rerunning a failed lockstep one
    utterance at a time to find the one that fails, and a search that finds
    no hypothesis with a finite score.
    """
    for chunk in session.locksteps(items):
        for utt_id, pg in chunk:
            check_width(pg, session.vocab, f"posteriorgram of {utt_id}")
        try:
            results = decode_utterance([pg for _, pg in chunk], session)
        except Exception as exc:
            if len(chunk) > 1:
                for utt_id, pg in chunk:
                    try:
                        decode_utterance([pg], session)
                    except Exception as alone:
                        raise CliError(f"decoding {utt_id} failed: {alone}") from alone
            ids = ", ".join(utt_id for utt_id, _ in chunk)
            raise CliError(f"decoding {ids} failed: {exc}") from exc
        for (utt_id, _), (nbest, stats) in zip(chunk, results):
            if not len(nbest):
                raise CliError(f"decoding {utt_id} found no hypothesis with a finite score")
            yield utt_id, nbest, stats


def cmd_decode(args) -> int:
    cfg = DecodeConfig.from_json(args.config, **{key: getattr(args, key) for key in DECODE_FLAGS})
    vocab, utts = read_corpus_dir(args.corpus)
    session = Session.from_config(cfg, vocab)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = sorted(decode_corpus(session, read_posteriorgrams(utts)), key=lambda r: r[0])

    total = DecodeStats()
    hyp_lines = []
    for utt_id, nbest, stats in results:
        write_nbest(nbest, vocab, out_dir / f"{utt_id}.nbest")
        hyp_lines.append(f"{utt_id}\t{vocab.text(nbest.best.output_labels(vocab.eos_id))}")
        total.merge(stats)
    (out_dir / "hyps.txt").write_text("".join(line + "\n" for line in hyp_lines), encoding="utf-8")
    (out_dir / "config.json").write_text(
        json.dumps(asdict(cfg), sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    (out_dir / "stats.txt").write_text(format_stats(total), encoding="utf-8")
    print(f"decoded {len(results)} utterances -> {out_dir}")
    return 0


def format_stats(stats: DecodeStats) -> str:
    rtf = f"{stats.rtf:.6f}" if stats.rtf is not None else "n/a"
    return (
        f"scorer_evaluations\t{stats.scorer_evaluations}\n"
        f"peak_live_hypotheses\t{stats.peak_live_hypotheses}\n"
        f"peak_candidate_set\t{stats.peak_candidate_set}\n"
        f"steps\t{stats.steps}\n"
        f"ctc_exact_pairs\t{stats.ctc_exact_pairs}\n"
        f"wall_time_s\t{stats.wall_time_s:.6f}\n"
        f"audio_seconds\t{stats.audio_seconds:.6f}\n"
        f"rtf\t{rtf}\n"
    )


def read_sentences(path: str | Path, normalization: str) -> list[str]:
    """A text file's non-empty lines, normalized unless ``normalization``
    is "none"; a file without any is an error."""
    lines = [line for line in read_text(path).splitlines() if line]
    if not lines:
        raise ValidationError(f"{path} holds no text")
    if normalization != "none":
        lines = [" ".join(words(line, normalization)) for line in lines]
    return lines


def cmd_wer(args) -> int:
    refs, hyps = read_id_lines(args.refs), read_id_lines(args.hyps)
    for utt_id, (lineno, _) in hyps.items():
        if utt_id not in refs:
            raise CliError(f"{args.hyps} line {lineno}: hypothesis id {utt_id!r} has no reference")
    missing = sorted(set(refs) - set(hyps))
    if missing:
        raise CliError(f"hypotheses missing for ids: {missing[:5]}")
    pairs = [
        (words(refs[k][1], args.normalization), words(hyps[k][1], args.normalization))
        for k in sorted(refs)
    ]
    counts = corpus_wer(pairs)
    print(
        f"S\t{counts.substitutions}\nD\t{counts.deletions}\nI\t{counts.insertions}\n"
        f"N\t{counts.ref_length}\nWER\t{counts.wer:.4f}"
    )
    return 0


def segment_lines(vocab: Vocabulary, lines: Sequence[str], path: str | Path) -> list[list[int]]:
    """:func:`retokenize` of each line read from ``path``; a word that
    ``vocab`` cannot segment fails, naming the file."""
    try:
        return [retokenize(vocab, line) for line in lines]
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def cmd_ppl(args) -> int:
    model = load_lm(args.model)
    lines = read_sentences(args.text, args.normalization)
    seqs = segment_lines(model.vocab, lines, args.text)
    n_words = sum(len(line.split()) for line in lines)
    token_ppl, word_ppl = perplexities(model, seqs, n_words)
    print(f"token_ppl\t{token_ppl:.4f}")
    if word_ppl is not None:
        print(f"word_ppl\t{word_ppl:.4f}")
    return 0


def cmd_lm_train(args) -> int:
    lines = read_sentences(args.text, args.normalization)
    vocab = read_vocabulary(args.vocab)
    corpus = segment_lines(vocab, lines, args.text)
    model = train_ngram(vocab, corpus, order=args.order, backoff_factor=args.backoff)
    save_ngram(model, args.out)
    print(f"trained order-{args.order} model on {len(corpus)} sequences -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        seed=args.seed,
        noise=args.noise,
        words_per_utt=(args.min_words, args.max_words),
    )
    utterances = gen_corpus(cfg, args.utts)  # checks the arguments before any output
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_vocabulary(cfg.vocab, out_dir / "vocab.txt")
    ref_lines = []
    for i, (pg, transcript) in enumerate(utterances):
        utt_id = f"utt{i:04d}"
        write_posteriorgram(pg, out_dir / f"{utt_id}.fkpg")
        ref_lines.append(f"{utt_id}\t{transcript}")
    (out_dir / "refs.txt").write_text("\n".join(ref_lines) + "\n", encoding="utf-8")
    snapshot = {
        "seed": args.seed,
        "noise": args.noise,
        "utts": args.utts,
        "words_per_utt": [args.min_words, args.max_words],
    }
    (out_dir / "synth_config.json").write_text(
        json.dumps(snapshot, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.utts} utterances -> {out_dir}")
    return 0


def grid_values(flag: str, text: str, parse, none_ok: bool = False) -> list:
    """The comma-separated values of a ``bench`` grid flag; "none" is None
    where ``none_ok``.  A value ``parse`` rejects raises ValidationError."""
    values = []
    for value in text.split(","):
        if none_ok and value == "none":
            values.append(None)
            continue
        try:
            values.append(parse(value))
        except ValueError:
            raise ValidationError(f"{flag}: {value!r} is not a valid value") from None
    return values


def cmd_bench(args) -> int:
    cfg = DecodeConfig.from_json(args.config)
    vocab, utts = read_corpus_dir(args.corpus)
    session = Session.from_config(cfg, vocab)
    ks = grid_values("--top-k", args.top_k, int, none_ok=True)
    taus = grid_values("--compress-threshold", args.compress_threshold, float, none_ok=True)
    beams = grid_values("--beam", args.beam, int)
    # each point a checked session: a bad grid value fails before any read
    grid = [replace(session, cfg=replace(cfg, top_k=k, compress_threshold=tau, beam=beam))
            for k in ks for tau in taus for beam in beams]
    refs = [words(transcript, cfg.normalization) for _, _, transcript in utts]
    if not any(refs):  # WER needs a reference word
        raise ValidationError(f"{Path(args.corpus) / 'refs.txt'} holds no reference words")
    pgs = list(read_posteriorgrams(utts))
    print("top_k\ttau\tbeam\twer\trtf\tpeak_candidates\tscorer_evals")
    for point in grid:
        total = DecodeStats()
        pairs = []
        for ref, (_, nbest, stats) in zip(refs, decode_corpus(point, pgs)):
            total.merge(stats)
            hyp = vocab.text(nbest.best.output_labels(vocab.eos_id))
            pairs.append((ref, words(hyp, cfg.normalization)))
        wer = corpus_wer(pairs).wer
        rtf = f"{total.rtf:.6f}" if total.rtf is not None else "n/a"
        k, tau = point.cfg.top_k, point.cfg.compress_threshold
        print(
            f"{k if k is not None else 'none'}\t"
            f"{tau if tau is not None else 'none'}\t{point.cfg.beam}\t"
            f"{wer:.4f}\t{rtf}\t{total.peak_candidate_set}\t{total.scorer_evaluations}"
        )
    return 0


def cmd_export_attn(args) -> int:
    vocab = read_vocabulary(args.vocab)
    _check("seed", args.seed, _SCORER_RULES["seed"], "--")
    weights = decoder_weights(vocab, args.weights, args.seed)
    config = InterfaceConfig(
        kind=args.interface,
        prefix_attention=args.prefix_attention,
        prompt=tuple(retokenize(vocab, args.prompt)) if args.prompt else (),
    )
    audio = read_encoder_output(args.audio) if args.audio else None
    labels = [vocab.bos_id] + retokenize(vocab, args.text)
    export_attention(weights, config, audio, labels, args.out)
    print(f"attention maps -> {args.out}")
    return 0


COMMANDS = ("decode", "wer", "ppl", "lm-train", "synth", "bench", "export-attn")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  When ``command`` names a subcommand, only that
    subcommand's arguments are built; otherwise all of them are."""
    parser = argparse.ArgumentParser(
        prog="fusionkit", description="ASR decoding and score-fusion experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, func):
        if command in COMMANDS and command != name:
            return None
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    if p := add("decode", "decode a corpus directory", cmd_decode):
        p.add_argument("corpus")
        p.add_argument("out")
        p.add_argument("--config", default=None)
        for key, kind in DECODE_FLAGS.items():
            p.add_argument("--" + key.replace("_", "-"), type=kind, default=None)

    if p := add("wer", "pooled word error rate over keyed files", cmd_wer):
        p.add_argument("refs")
        p.add_argument("hyps")
        p.add_argument("--normalization", default="lowercase")

    if p := add("ppl", "perplexity of a language model on text", cmd_ppl):
        p.add_argument("model")
        p.add_argument("text")
        p.add_argument("--normalization", default="lowercase")

    if p := add("lm-train", "train a backoff n-gram model", cmd_lm_train):
        p.add_argument("text")
        p.add_argument("vocab")
        p.add_argument("out")
        p.add_argument("--order", type=int, default=3)
        p.add_argument("--backoff", type=float, default=0.4)
        p.add_argument("--normalization", default="lowercase")

    if p := add("synth", "generate a synthetic corpus directory", cmd_synth):
        p.add_argument("out")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--utts", type=int, default=20)
        p.add_argument("--noise", type=float, default=0.0)
        p.add_argument("--min-words", dest="min_words", type=int, default=2)
        p.add_argument("--max-words", dest="max_words", type=int, default=4)

    if p := add("bench", "sweep pruning/compression/beam grids", cmd_bench):
        p.add_argument("corpus")
        p.add_argument("--config", default=None)
        p.add_argument("--top-k", dest="top_k", default="none")
        p.add_argument("--compress-threshold", dest="compress_threshold", default="none")
        p.add_argument("--beam", default="8")

    if p := add("export-attn", "write per-head attention matrices", cmd_export_attn):
        p.add_argument("vocab")
        p.add_argument("text")
        p.add_argument("out")
        p.add_argument("--weights", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--interface", default="prefix")
        p.add_argument("--prefix-attention", dest="prefix_attention", default="causal")
        p.add_argument("--prompt", default="")
        p.add_argument("--audio", default=None)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args, extra = build_parser(argv[0] if argv else None).parse_known_args(argv)
    if extra:  # the full parser words the error: its usage line names every command
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, FormatError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
