"""Time one decode's calls of a layer through two versions of its module.

    python3 tools/replay_step.py CORPUS CONFIG OTHER_SRC \\
        [--layer {ctc_step,decoder_step}] [--repeats N]

Decodes CORPUS once with ``fusionkit decode --config CONFIG`` and records
every call of the layer with its inputs:

- ``ctc_step`` (the default): ``CtcPrefixScorer.step``, with the scorer's
  constructor inputs (posteriorgrams, vocabulary and name) and the states;
- ``decoder_step``: ``decoder.decoder_step``, with the weights, the state,
  the labels and the rows.

It then replays the recorded calls, one decode's worth at a time,
alternately through this checkout's ``src/fusionkit/ctc.py`` (or
``decoder.py``) and through ``OTHER_SRC``'s, which is loaded beside it in
the same process (both import this checkout's ``fusionkit.core``).  A CTC
replay builds fresh scorers before its clock starts, and a scorer builds
its candidates' columns once, at construction, so the clock times ``step``
alone.  It needs an ``OTHER_SRC`` with the same scorer API:
``CtcPrefixScorer(posteriorgrams, vocabulary, name)`` and ``step(states)``;
against sources whose scorer takes blank and EOS ids and a candidate list
per step, compare whole decodes instead.  A decoder replay hands each side
the weights and states as its own classes, so it needs an ``OTHER_SRC``
whose states hold keys/values time-major, (L, B, d), as this one's do;
against older sources, compare whole decodes instead.  Prints the min
and median milliseconds per decode of each side.  Standard library and
numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = {"ctc_step": "ctc", "decoder_step": "decoder"}


def load_module(src: Path, module: str, name: str):
    """``src/fusionkit/<module>.py`` as a module of its own called ``name``."""
    path = src / "fusionkit" / f"{module}.py"
    if not path.is_file():
        raise SystemExit(f"no fusionkit/{module}.py under {src}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def decode(corpus: Path, config: Path) -> None:
    from fusionkit.cli import main

    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        code = main(["decode", str(corpus), str(Path(out) / "out"), "--config", str(config)])
    if code != 0:
        raise SystemExit(f"decode exited with {code}")


def record(corpus: Path, config: Path, layer: str) -> list[tuple]:
    """One decode's calls of ``layer``, in call order: (scorer, pgs, vocab,
    name, states) for ``ctc_step``, (weights, state, labels, rows) for
    ``decoder_step``.  Each call holds its scorer or weights, so
    no two of them share an ``id``."""
    from fusionkit import ctc, decoder

    calls = []
    if layer == "ctc_step":
        step = ctc.CtcPrefixScorer.step

        def recording(self, states):
            calls.append((self, self.pgs, self.vocab, self.name, states))
            return step(self, states)

        ctc.CtcPrefixScorer.step = recording
        try:
            decode(corpus, config)
        finally:
            ctc.CtcPrefixScorer.step = step
    else:
        step = decoder.decoder_step

        def recording(weights, state, labels, rows=None):
            calls.append((weights, state, labels, rows))
            return step(weights, state, labels, rows)

        # the callers hold the function under its own name
        holders = [m for n, m in list(sys.modules.items())
                   if n.startswith("fusionkit") and getattr(m, "decoder_step", None) is step]
        for module in holders:
            module.decoder_step = recording
        try:
            decode(corpus, config)
        finally:
            for module in holders:
                module.decoder_step = step
    if not calls:
        raise SystemExit(f"the decode made no {layer} call (not a config that runs it?)")
    return calls


def replay_ctc(module, calls: list[tuple]) -> float:
    """Seconds for one decode's step calls through ``module``'s scorer."""
    scorers = {}
    for recorded, pgs, vocab, name, _ in calls:
        if id(recorded) not in scorers:
            scorers[id(recorded)] = module.CtcPrefixScorer(pgs, vocab, name)
    gc.collect()
    t0 = time.perf_counter()
    for recorded, _, _, _, states in calls:
        scorers[id(recorded)].step(states)
    return time.perf_counter() - t0


def replay_decoder(module, calls: list[tuple]) -> float:
    """Seconds for one decode's ``decoder_step`` calls through ``module``."""
    weights = {}
    args = []
    for w, state, labels, rows in calls:
        if id(w) not in weights:
            weights[id(w)] = module.DecoderWeights(w.hp, w.tensors)
        state = module.IncrementalState(state.position, state.self_k, state.self_v,
                                        state.cross_k, state.cross_v)
        args.append((weights[id(w)], state, labels, rows))
    gc.collect()
    t0 = time.perf_counter()
    for w, state, labels, rows in args:
        module.decoder_step(w, state, labels, rows)
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("corpus", type=Path)
    parser.add_argument("config", type=Path)
    parser.add_argument("other_src", type=Path, help="a src directory holding fusionkit/")
    parser.add_argument("--layer", choices=sorted(MODULES), default="ctc_step")
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    calls = record(args.corpus, args.config, args.layer)
    module = MODULES[args.layer]
    replay = replay_ctc if args.layer == "ctc_step" else replay_decoder
    sides = {
        "this": (SRC / "fusionkit" / f"{module}.py", load_module(SRC, module, f"replay_this_{module}")),
        "other": (args.other_src / "fusionkit" / f"{module}.py",
                  load_module(args.other_src, module, f"replay_other_{module}")),
    }
    times = {side: [] for side in sides}
    for i in range(args.repeats):
        for side in sorted(sides, reverse=i % 2 == 1):  # alternate which side runs first
            times[side].append(replay(sides[side][1], calls))
    print(f"{len(calls)} {args.layer} calls per decode, {args.repeats} replays per side")
    for side, (path, _) in sides.items():
        ms = [1000.0 * t for t in times[side]]
        print(f"{side}\t{path}\tmin {min(ms):.2f} ms\tmedian {statistics.median(ms):.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
