"""Command-line surface: decode, wer, ppl, lm-train, synth, bench, export-attn.

Every command is deterministic given its config and seed; primary outputs
are byte-stable across reruns.  Timing lives in a separate stats file so
golden-file comparisons stay meaningful.

The decode/bench config is a flat JSON object; every key can be overridden
by a same-named command line flag.  Keys:

    strategy            ctc-greedy | timesync | delayed | joint
    beam                int >= 1
    length_norm         bool (joint strategy)
    max_len_factor      float, label cap relative to the frame count
    top_k               int >= 1 or null: CTC distribution pruning
    keep_blank          bool, blank always survives pruning
    compress_threshold  float > 0 or null: CTC compression threshold (above 1: no merging)
    compress_order      "compress-then-prune" (default) or "prune-then-compress"
    lm_path             LM file (FKLM n-gram or table JSON) for timesync/delayed fusion
    lm_weight           finite float
    scorers             joint strategy: list of {name, kind, weight, ...}
    normalization       lowercase | none (applied by wer)
    seed                int, seeds any decoder scorers without weight files
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

from fusionkit.core import (
    FormatError,
    Posteriorgram,
    ScorerWeights,
    ValidationError,
    Vocabulary,
    read_posteriorgram,
    read_vocabulary,
    write_posteriorgram,
    write_vocabulary,
)
from fusionkit.ctc import compress_posteriors, greedy_decode, merge_indices, topk_prune
from fusionkit.decoder import (
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
    perplexity,
    retokenize,
    save_ngram,
    train_ngram,
    word_perplexity,
)
from fusionkit.metrics import corpus_wer, words
from fusionkit.search import (
    DecodeStats,
    NBestEntry,
    NBestList,
    ScorerHandle,
    labelsync_lockstep,
    lockstep_beam,
    write_nbest,
)
from fusionkit.synth import SynthConfig, gen_corpus

STRATEGIES = ("ctc-greedy", "timesync", "delayed", "joint")
DEFAULT_CONFIG = {
    "strategy": "ctc-greedy",
    "beam": 8,
    "length_norm": False,
    "max_len_factor": 1.0,
    "top_k": None,
    "keep_blank": True,
    "compress_threshold": None,
    "compress_order": "compress-then-prune",
    "lm_path": None,
    "lm_weight": 0.0,
    "scorers": [],
    "normalization": "lowercase",
    "seed": 0,
}
# utterances that one lockstep search (timesync, delayed, joint) decodes
# together; a joint lockstep takes at most LOCKSTEP_ROWS // beam of them, as
# each live hypothesis holds the decoder's keys and values
LOCKSTEP_UTTERANCES = 32
LOCKSTEP_ROWS = 64


class CliError(Exception):
    pass


def load_lm(path: str | Path) -> NGramModel | TableLM:
    try:
        with open(path, "rb") as f:
            head = f.read(len(NGRAM_MAGIC))
    except OSError as exc:
        raise CliError(f"cannot read LM file {path}: {exc.strerror}") from exc
    if head == NGRAM_MAGIC.encode():
        return load_ngram(path)
    return load_table_lm(path)


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if path:
        p = Path(path)
        if not p.exists():
            raise CliError(f"config file not found: {p}")
        try:
            loaded = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"config file {p} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise FormatError(f"config file {p} must hold a JSON object")
        unknown = set(loaded) - set(DEFAULT_CONFIG)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    return cfg


def read_corpus_dir(corpus_dir: str | Path):
    corpus_dir = Path(corpus_dir)
    vocab_path = corpus_dir / "vocab.txt"
    refs_path = corpus_dir / "refs.txt"
    for p in (vocab_path, refs_path):
        if not p.exists():
            raise CliError(f"missing corpus file: {p}")
    vocab = read_vocabulary(vocab_path)
    utts = []
    for lineno, line in enumerate(refs_path.read_text(encoding="utf-8").splitlines(), 1):
        utt_id, tab, transcript = line.partition("\t")
        if not tab:
            raise CliError(f"{refs_path} line {lineno}: expected '<utterance id>\\t<transcript>'")
        pg_path = corpus_dir / f"{utt_id}.fkpg"
        if not pg_path.exists():
            raise CliError(f"missing posteriorgram for {utt_id}: {pg_path}")
        utts.append((utt_id, pg_path, transcript))
    return vocab, utts


def prepare_posteriorgram(pg: Posteriorgram, cfg: dict, vocab: Vocabulary) -> Posteriorgram:
    steps = (
        ("compress", "prune")
        if cfg["compress_order"] == "compress-then-prune"
        else ("prune", "compress")
    )
    for step in steps:
        if step == "compress" and cfg["compress_threshold"] is not None:
            pg = compress_posteriors(pg, merge_indices(pg, float(cfg["compress_threshold"])))
        if step == "prune" and cfg["top_k"] is not None:
            pg = topk_prune(pg, int(cfg["top_k"]), bool(cfg["keep_blank"]), vocab.blank_id)
    return pg


@dataclass
class DecodeModels:
    """What a decode run loads once and shares across its utterances."""

    lm: NGramModel | TableLM | None = None
    scorers: list[ScorerHandle] = field(default_factory=list)  # joint strategy
    weights: ScorerWeights | None = None  # joint strategy


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_search_settings(cfg: dict) -> None:
    """Raise ValidationError for a ``beam``, ``top_k`` or
    ``compress_threshold`` that no decode can use."""
    beam, top_k, tau = cfg["beam"], cfg["top_k"], cfg["compress_threshold"]
    if not _is_int(beam) or beam < 1:
        raise ValidationError(f"beam must be an integer >= 1, not {beam!r}")
    if top_k is not None and (not _is_int(top_k) or top_k < 1):
        raise ValidationError(f"top_k must be null or an integer >= 1, not {top_k!r}")
    # a threshold above 1 merges no frames: compression off
    if tau is not None and (not _is_real(tau) or not tau > 0):
        raise ValidationError(f"compress_threshold must be null or > 0, not {tau!r}")


def load_models(cfg: dict, vocab: Vocabulary) -> DecodeModels:
    """Check the strategy and the search settings and load every model the
    config names.

    A bad config fails here, before any output is written or posteriorgram
    read.
    """
    strategy = cfg["strategy"]
    if strategy not in STRATEGIES:
        raise CliError(f"unknown strategy {strategy!r}; expected one of {', '.join(STRATEGIES)}")
    check_search_settings(cfg)
    if strategy in ("timesync", "delayed"):
        weight = cfg["lm_weight"]
        if not _is_real(weight) or not math.isfinite(weight):
            raise ValidationError(f"lm_weight must be a finite number, not {weight!r}")
        # only these two fuse the lm_path LM; joint names its LMs in scorers
        lm = load_lm(cfg["lm_path"]) if cfg["lm_path"] else None
        if strategy == "delayed" and lm is None:
            raise CliError("delayed fusion needs lm_path")
        return DecodeModels(lm)
    if strategy != "joint":
        return DecodeModels()
    scorers, weight_map = build_joint_scorers(cfg, vocab)
    weights = ScorerWeights(
        weight_map,
        length_norm=bool(cfg["length_norm"]),
        max_len_factor=float(cfg["max_len_factor"]),
    )
    return DecodeModels(scorers=scorers, weights=weights)


def build_joint_scorers(cfg: dict, vocab: Vocabulary) -> tuple[list[ScorerHandle], dict[str, float]]:
    """One handle per ``scorers`` entry, its model loaded, plus the weight map."""
    handles = []
    weight_map = {}
    for spec in cfg["scorers"]:
        if not isinstance(spec, dict) or "name" not in spec or "kind" not in spec:
            raise CliError(f"scorer entry needs a name and a kind: {spec!r}")
        name, kind = spec["name"], spec["kind"]
        try:
            weight_map[name] = float(spec.get("weight", 0.0))
            if kind == "ctc_prefix":
                handle = ScorerHandle(name, kind)
            elif kind in ("ngram", "table"):
                handle = ScorerHandle(name, kind, model=load_lm(spec["path"]))
            elif kind == "decoder_lm":
                if "weights_path" in spec:
                    dw = load_weights(spec["weights_path"])
                else:
                    hp = Hyperparams(vocab_size=vocab.size)
                    dw = seeded_weights(hp, int(spec.get("seed", cfg["seed"])))
                interface = InterfaceConfig(
                    kind=spec.get("interface", "prefix"),
                    prefix_attention=spec.get("prefix_attention", "causal"),
                    prompt=tuple(spec.get("prompt", ())),
                )
                handle = ScorerHandle(name, kind, decoder_weights=dw, interface=interface)
            elif kind == "decoder_am":
                raise CliError("decoder_am needs encoder audio; decode reads posteriorgrams only")
            else:
                raise CliError(f"unknown scorer kind {kind!r}")
        except (CliError, KeyError, TypeError, ValueError, OSError) as exc:
            raise CliError(f"scorer {name!r}: {exc}") from exc
        handles.append(handle)
    return handles, weight_map


def decode_utterance(
    pgs: Sequence[Posteriorgram], vocab: Vocabulary, cfg: dict, models: DecodeModels
) -> list[tuple[NBestList, DecodeStats]]:
    """Decode the utterances of one step of :func:`decode_corpus`: an
    (n-best list, stats) pair per posteriorgram.

    ``timesync``, ``delayed`` and ``joint`` search all of them in one
    lockstep, and each utterance's stats carry its share of the search
    time; ``ctc-greedy`` decodes them one by one.
    """
    strategy = cfg["strategy"]
    pgs = [prepare_posteriorgram(pg, cfg, vocab) for pg in pgs]
    stats = [DecodeStats() for _ in pgs]
    if strategy in ("timesync", "delayed"):
        nbests = lockstep_beam(
            pgs,
            vocab,
            int(cfg["beam"]),
            models.lm,
            float(cfg["lm_weight"]),
            delayed=strategy == "delayed",
            stats=stats,
        )
    elif strategy == "joint":
        nbests = labelsync_lockstep(
            pgs, models.scorers, models.weights, int(cfg["beam"]), vocab, stats
        )
    else:  # ctc-greedy
        nbests = []
        for pg, one in zip(pgs, stats):
            t0 = time.perf_counter()
            labels = tuple(greedy_decode(pg, vocab.blank_id))
            path_score = float(np.max(pg.log_probs, axis=1).sum())
            one.wall_time_s = time.perf_counter() - t0
            one.audio_seconds = pg.duration_seconds
            one.peak_live_hypotheses = 1
            nbests.append(NBestList([NBestEntry(labels, {"ctc": path_score}, path_score, True)]))
    return list(zip(nbests, stats))


def read_posteriorgrams(utts):
    """``(utt_id, Posteriorgram)`` pairs for :func:`read_corpus_dir` entries,
    each read only when it is asked for."""
    for utt_id, pg_path, _ in utts:
        try:
            pg = read_posteriorgram(pg_path)
        except (OSError, ValueError) as exc:
            raise CliError(f"decoding {utt_id} ({pg_path}) failed: {exc}") from exc
        yield utt_id, pg


def decode_corpus(vocab: Vocabulary, cfg: dict, models: DecodeModels, items):
    """Decode ``(utt_id, Posteriorgram)`` pairs in turn, yielding
    ``(utt_id, n-best list, stats)``.

    ``timesync``, ``delayed`` and ``joint`` decode up to
    ``LOCKSTEP_UTTERANCES`` pairs at a time in one lockstep search,
    ``ctc-greedy`` one at a time.  A posteriorgram whose width is not the
    vocabulary's fails, naming its utterance; so does a failed decode,
    rerunning a failed lockstep one utterance at a time to find the one
    that fails, and a search that finds no hypothesis with a finite score.
    """
    size = 1
    if cfg["strategy"] in ("timesync", "delayed"):
        size = LOCKSTEP_UTTERANCES
    elif cfg["strategy"] == "joint":
        size = max(1, min(LOCKSTEP_UTTERANCES, LOCKSTEP_ROWS // cfg["beam"]))
    items = iter(items)
    while chunk := list(islice(items, size)):
        for utt_id, pg in chunk:
            if pg.num_labels != vocab.size:
                raise ValidationError(
                    f"posteriorgram of {utt_id} has {pg.num_labels} labels, "
                    f"the vocabulary {vocab.size}"
                )
        try:
            results = decode_utterance([pg for _, pg in chunk], vocab, cfg, models)
        except Exception as exc:
            if len(chunk) > 1:
                for utt_id, pg in chunk:
                    try:
                        decode_utterance([pg], vocab, cfg, models)
                    except Exception as alone:
                        raise CliError(f"decoding {utt_id} failed: {alone}") from alone
            ids = ", ".join(utt_id for utt_id, _ in chunk)
            raise CliError(f"decoding {ids} failed: {exc}") from exc
        for (utt_id, _), (nbest, stats) in zip(chunk, results):
            if not len(nbest):
                raise CliError(f"decoding {utt_id} found no hypothesis with a finite score")
            yield utt_id, nbest, stats


def cmd_decode(args) -> int:
    cfg = load_config(
        args.config,
        {
            "strategy": args.strategy,
            "beam": args.beam,
            "top_k": args.top_k,
            "compress_threshold": args.compress_threshold,
            "lm_path": args.lm_path,
            "lm_weight": args.lm_weight,
        },
    )
    vocab, utts = read_corpus_dir(args.corpus)
    models = load_models(cfg, vocab)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = sorted(
        decode_corpus(vocab, cfg, models, read_posteriorgrams(utts)), key=lambda r: r[0]
    )

    total = DecodeStats()
    hyp_lines = []
    for utt_id, nbest, stats in results:
        write_nbest(nbest, vocab, out_dir / f"{utt_id}.nbest")
        hyp_lines.append(f"{utt_id}\t{vocab.text(nbest.best.output_labels(vocab.eos_id))}")
        total.merge(stats)
    (out_dir / "hyps.txt").write_text("\n".join(hyp_lines) + "\n", encoding="utf-8")
    (out_dir / "config.json").write_text(
        json.dumps(cfg, sort_keys=True, indent=1) + "\n", encoding="utf-8"
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


def read_lines(path: str | Path) -> list[str]:
    """The non-empty lines of a UTF-8 text file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc
    return [line for line in text.splitlines() if line]


def read_sentences(path: str | Path, normalization: str) -> list[str]:
    """A text file's non-empty lines, normalized unless ``normalization``
    is "none"; a file without any is an error."""
    lines = read_lines(path)
    if not lines:
        raise ValidationError(f"{path} holds no text")
    if normalization != "none":
        lines = [" ".join(words(line, normalization)) for line in lines]
    return lines


def cmd_wer(args) -> int:
    refs = dict(line.partition("\t")[::2] for line in read_lines(args.refs))
    hyps = dict(line.partition("\t")[::2] for line in read_lines(args.hyps))
    missing = sorted(set(refs) - set(hyps))
    if missing:
        raise CliError(f"hypotheses missing for ids: {missing[:5]}")
    pairs = [
        (words(refs[k], args.normalization), words(hyps[k], args.normalization))
        for k in sorted(refs)
    ]
    counts = corpus_wer(pairs)
    print(
        f"S\t{counts.substitutions}\nD\t{counts.deletions}\nI\t{counts.insertions}\n"
        f"N\t{counts.ref_length}\nWER\t{counts.wer:.4f}"
    )
    return 0


def cmd_ppl(args) -> int:
    model = load_lm(args.model)
    lines = read_sentences(args.text, args.normalization)
    seqs = [retokenize(model.vocab, line) for line in lines]
    token_ppl = perplexity(model, seqs)
    n_words = sum(len(line.split()) for line in lines)
    print(f"token_ppl\t{token_ppl:.4f}")
    if n_words:
        print(f"word_ppl\t{word_perplexity(model, seqs, n_words):.4f}")
    return 0


def cmd_lm_train(args) -> int:
    lines = read_sentences(args.text, args.normalization)
    vocab = read_vocabulary(args.vocab)
    corpus = [retokenize(vocab, line) for line in lines]
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
    cfg = load_config(args.config, {})
    vocab, utts = read_corpus_dir(args.corpus)
    models = load_models(cfg, vocab)
    ks = grid_values("--top-k", args.top_k, int, none_ok=True)
    taus = grid_values("--compress-threshold", args.compress_threshold, float, none_ok=True)
    beams = grid_values("--beam", args.beam, int)
    grid = [(k, tau, beam) for k in ks for tau in taus for beam in beams]
    for k, tau, beam in grid:
        check_search_settings(dict(cfg, top_k=k, compress_threshold=tau, beam=beam))
    pgs = list(read_posteriorgrams(utts))
    norm = cfg["normalization"]
    refs = [words(transcript, norm) for _, _, transcript in utts]
    print("top_k\ttau\tbeam\twer\trtf\tpeak_candidates\tscorer_evals")
    for k, tau, beam in grid:
        run_cfg = dict(cfg, top_k=k, compress_threshold=tau, beam=beam)
        total = DecodeStats()
        pairs = []
        for ref, (_, nbest, stats) in zip(refs, decode_corpus(vocab, run_cfg, models, pgs)):
            total.merge(stats)
            hyp = vocab.text(nbest.best.output_labels(vocab.eos_id))
            pairs.append((ref, words(hyp, norm)))
        wer = corpus_wer(pairs).wer
        rtf = f"{total.rtf:.6f}" if total.rtf is not None else "n/a"
        print(
            f"{k if k is not None else 'none'}\t"
            f"{tau if tau is not None else 'none'}\t{beam}\t"
            f"{wer:.4f}\t{rtf}\t{total.peak_candidate_set}\t{total.scorer_evaluations}"
        )
    return 0


def cmd_export_attn(args) -> int:
    vocab = read_vocabulary(args.vocab)
    if args.weights:
        weights = load_weights(args.weights)
    else:
        weights = seeded_weights(Hyperparams(vocab_size=vocab.size), args.seed)
    config = InterfaceConfig(
        kind=args.interface,
        prefix_attention=args.prefix_attention,
        prompt=tuple(retokenize(vocab, args.prompt)) if args.prompt else (),
    )
    audio = None
    if args.audio:
        from fusionkit.core import read_encoder_output

        audio = read_encoder_output(args.audio)
    labels = [vocab.bos_id] + retokenize(vocab, args.text)
    export_attention(weights, config, audio, labels, args.out)
    print(f"attention maps -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionkit", description="ASR decoding and score-fusion experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="decode a corpus directory")
    p.add_argument("corpus")
    p.add_argument("out")
    p.add_argument("--config", default=None)
    p.add_argument("--strategy", default=None)
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--top-k", dest="top_k", type=int, default=None)
    p.add_argument("--compress-threshold", dest="compress_threshold", type=float, default=None)
    p.add_argument("--lm-path", dest="lm_path", default=None)
    p.add_argument("--lm-weight", dest="lm_weight", type=float, default=None)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("wer", help="pooled word error rate over keyed files")
    p.add_argument("refs")
    p.add_argument("hyps")
    p.add_argument("--normalization", default="lowercase")
    p.set_defaults(func=cmd_wer)

    p = sub.add_parser("ppl", help="perplexity of a language model on text")
    p.add_argument("model")
    p.add_argument("text")
    p.add_argument("--normalization", default="lowercase")
    p.set_defaults(func=cmd_ppl)

    p = sub.add_parser("lm-train", help="train a backoff n-gram model")
    p.add_argument("text")
    p.add_argument("vocab")
    p.add_argument("out")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--backoff", type=float, default=0.4)
    p.add_argument("--normalization", default="lowercase")
    p.set_defaults(func=cmd_lm_train)

    p = sub.add_parser("synth", help="generate a synthetic corpus directory")
    p.add_argument("out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--utts", type=int, default=20)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--min-words", dest="min_words", type=int, default=2)
    p.add_argument("--max-words", dest="max_words", type=int, default=4)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="sweep pruning/compression/beam grids")
    p.add_argument("corpus")
    p.add_argument("--config", default=None)
    p.add_argument("--top-k", dest="top_k", default="none")
    p.add_argument("--compress-threshold", dest="compress_threshold", default="none")
    p.add_argument("--beam", default="8")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-attn", help="write per-head attention matrices")
    p.add_argument("vocab")
    p.add_argument("text")
    p.add_argument("out")
    p.add_argument("--weights", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--interface", default="prefix")
    p.add_argument("--prefix-attention", dest="prefix_attention", default="causal")
    p.add_argument("--prompt", default="")
    p.add_argument("--audio", default=None)
    p.set_defaults(func=cmd_export_attn)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, FormatError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
