"""The benchmark's tracer wraps fusionkit functions by module and qualified
name (``TARGETS`` in ``perfbench/tracing.py``).  A target that no longer
resolves is reported as unmeasured and fails the benchmark's own tests,
which this suite does not collect, so a rename or a move is caught here; so
is a decode that no longer runs its search under the name traced.
"""

import importlib
import json
import sys
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """``perfbench/tracing.py`` run from its source text under a private
    module name, so nothing under ``perfbench/`` is written, bytecode
    included."""
    module = types.ModuleType("_perfbench_tracing")
    module.__file__ = str(TRACING)
    sys.modules[module.__name__] = module  # dataclasses resolves annotations through it
    try:
        exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_every_wrap_target_resolves_to_a_callable():
    targets = load_tracing().TARGETS
    assert targets
    for target in targets:
        obj = importlib.import_module(target.module)
        for part in target.qualname.split("."):
            obj = getattr(obj, part, None)
        assert target.module.startswith("fusionkit.") and callable(obj), target.metric


@pytest.mark.parametrize(
    "strategy, search",
    [("timesync", "search.timesync_ctc_beam"), ("delayed", "search.timesync_ctc_beam"),
     ("joint", "search.labelsync_beam")],
)
def test_decode_reaches_the_traced_search(tmp_path, strategy, search):
    # the tracer replaces a function wherever a fusionkit module imported
    # it by name, so a decode's search is measured under its own metric
    from fusionkit.cli import main
    from fusionkit.lm import retokenize, save_ngram, train_ngram
    from fusionkit.synth import SynthConfig, sample_sentences

    from fixtures import build_lm_vocab

    corpus = tmp_path / "corpus"
    assert main(["synth", str(corpus), "--seed", "2", "--utts", "3", "--noise", "0.3"]) == 0
    argv = ["decode", str(corpus), str(tmp_path / "out"), "--strategy", strategy, "--beam", "2"]
    if strategy == "delayed":
        lm_vocab = build_lm_vocab()
        texts = sample_sentences(SynthConfig(seed=2), 20)
        lm_path = tmp_path / "words.fklm"
        save_ngram(train_ngram(lm_vocab, [retokenize(lm_vocab, t) for t in texts], 2), lm_path)
        argv += ["--lm-path", str(lm_path), "--lm-weight", "0.5"]
    if strategy == "joint":
        config = tmp_path / "joint.json"
        config.write_text(json.dumps({"scorers": [
            {"name": "ctc", "kind": "ctc_prefix", "weight": 1.0},
            {"name": "dec", "kind": "decoder_lm", "weight": 0.1},
        ]}))
        argv += ["--config", str(config)]
    tracer = load_tracing().Tracer()
    with tracer.root(), tracer.installed() as missing:
        assert main(argv) == 0
    assert missing == []
    assert tracer.stats[search].calls >= 1
