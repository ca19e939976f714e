"""Workload definitions and their set-up: synthetic corpus, LM, decode config.

Everything here is derived from the workload name and the seed, so the same
seed writes byte-identical files.  The decoder under test only ever sees the
files; it is never handed in-memory objects.

Run as a script it performs one complete set-up in a fresh interpreter and
ends with a warm-up decode, so the parent can time set-up as a user pays it:

    python3 perfbench/corpus.py WORKLOAD SEED OUT_DIR
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

NOISE = 0.3
LM_SENTENCES = 300
LM_ORDER = 3

JOINT_SCORERS = [
    {"name": "ctc", "kind": "ctc_prefix", "weight": 1.0},
    {"name": "lm", "kind": "ngram", "weight": 0.5},
    {"name": "dec", "kind": "decoder_lm", "weight": 0.02},
]


@dataclass(frozen=True)
class Corpus:
    """Utterances drawn in stream order from ``fusionkit.synth``.

    An utterance is kept when its frame count lies in ``band`` and still
    fits the remaining ``frame_budget``; drawing stops once the remainder is
    below the band.  Fixing the audio length this way keeps decode cost from
    varying with the seed, which only changes the content.  At least
    ``draws`` utterances are generated, so that set-up time does not depend
    on how soon a seed's stream fills the budget.
    """

    words: tuple[int, int]
    band: tuple[int, int]
    frame_budget: int
    draws: int


# 2-4 words; the band drops only the rarest lengths and lets the budget
# fill to within 16 frames: about 17 utterances, 28 s of audio.  Joint
# decoding cost varies with the content, so fewer utterances would let the
# seed move the cost
SHORT = Corpus(words=(2, 4), band=(16, 48), frame_budget=480, draws=32)
# 20-24 words: one utterance of about 12 s.  The band holds it near 200
# frames because the prefix-scorer cost grows with the square of the length
LONG = Corpus(words=(20, 24), band=(196, 204), frame_budget=204, draws=32)
# one utterance of typical length, decoded with the workload's settings
WARMUP = Corpus(words=(2, 4), band=(24, 28), frame_budget=28, draws=16)

WORKLOADS = {
    "tsync-short": (SHORT, {"strategy": "timesync", "beam": 8, "lm_weight": 0.3}),
    "joint-short": (SHORT, {"strategy": "joint", "beam": 16}),
    "joint-long": (
        LONG,
        {"strategy": "joint", "beam": 16, "top_k": 96, "compress_threshold": 0.9},
    ),
}


def import_fusionkit():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "fusionkit" / "__init__.py").is_file():
        raise SystemExit(f"fusionkit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import fusionkit

    if Path(fusionkit.__file__).resolve().parent != SRC / "fusionkit":
        raise SystemExit(f"imported fusionkit from {fusionkit.__file__}, not from {SRC}")
    return fusionkit


def quiet_main(argv: list[str]) -> int:
    """``fusionkit.cli.main`` with its progress line kept off our stdout."""
    from fusionkit.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def select_utterances(corpus: Corpus, seed: int):
    from fusionkit.synth import SynthConfig, gen_utterance

    cfg = SynthConfig(seed=seed, noise=NOISE, words_per_utt=corpus.words)
    lo, hi = corpus.band
    left = corpus.frame_budget
    kept = []
    index = 0
    while left >= lo or index < corpus.draws:
        if index > 100_000:
            raise RuntimeError("corpus selection did not fill its frame budget")
        pg, transcript = gen_utterance(cfg, index)
        index += 1
        if left >= lo and lo <= pg.num_frames <= min(hi, left):
            kept.append((pg, transcript))
            left -= pg.num_frames
    return cfg, kept


def write_corpus(out_dir: Path, vocab, utterances) -> None:
    from fusionkit.core import write_posteriorgram, write_vocabulary

    out_dir.mkdir(parents=True, exist_ok=True)
    write_vocabulary(vocab, out_dir / "vocab.txt")
    refs = []
    for i, (pg, transcript) in enumerate(utterances):
        utt_id = f"utt{i:04d}"
        write_posteriorgram(pg, out_dir / f"{utt_id}.fkpg")
        refs.append(f"{utt_id}\t{transcript}")
    (out_dir / "refs.txt").write_text("\n".join(refs) + "\n", encoding="utf-8")


def decode_config(workload: str, lm_path: Path) -> dict:
    _, settings = WORKLOADS[workload]
    cfg = dict(settings)
    if cfg["strategy"] == "joint":
        cfg["scorers"] = [
            dict(s, path=str(lm_path)) if s["kind"] == "ngram" else dict(s)
            for s in JOINT_SCORERS
        ]
    else:
        cfg["lm_path"] = str(lm_path)
    return cfg


def build(workload: str, seed: int, out_dir: Path) -> None:
    """Write ``corpus/``, ``warmup/``, ``lm.fklm`` and ``config.json``.

    The warm-up corpus is one short utterance decoded with the workload's
    own settings: it runs every code path once at a small cost.
    """
    from fusionkit.synth import sample_sentences

    corpus, _ = WORKLOADS[workload]
    cfg, utterances = select_utterances(corpus, seed)
    write_corpus(out_dir / "corpus", cfg.vocab, utterances)
    warm_cfg, warm = select_utterances(WARMUP, seed)
    write_corpus(out_dir / "warmup", warm_cfg.vocab, warm)

    text = out_dir / "lm_text.txt"
    text.write_text("\n".join(sample_sentences(cfg, LM_SENTENCES)) + "\n", encoding="utf-8")
    lm_path = out_dir / "lm.fklm"
    code = quiet_main(
        ["lm-train", str(text), str(out_dir / "corpus" / "vocab.txt"), str(lm_path),
         "--order", str(LM_ORDER)]
    )
    if code != 0:
        raise RuntimeError(f"lm-train exited with {code}")
    (out_dir / "config.json").write_text(
        json.dumps(decode_config(workload, lm_path), sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )


def decode(work_dir: Path, corpus_dir: Path, out_dir: Path) -> int:
    """One in-process ``fusionkit decode`` call with the workload's config."""
    return quiet_main(
        ["decode", str(corpus_dir), str(out_dir), "--config", str(work_dir / "config.json")]
    )


def main(argv: list[str]) -> int:
    workload, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    import_fusionkit()
    build(workload, seed, out_dir)
    code = decode(out_dir, out_dir / "warmup", out_dir / "warmup_out")
    if code != 0:
        raise RuntimeError(f"warm-up decode exited with {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
