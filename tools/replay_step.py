"""Time one decode's CTC bound passes through two versions of ``ctc.py``.

    python3 tools/replay_step.py CORPUS CONFIG OTHER_SRC [--repeats N]

Decodes CORPUS once with ``fusionkit decode --config CONFIG`` and records
every ``CtcPrefixScorer.step`` call: the scorer's posteriorgrams, blank and
EOS ids, the states and the candidates.  It then replays the recorded calls,
one decode's worth at a time, alternately through this checkout's
``src/fusionkit/ctc.py`` and through ``OTHER_SRC/fusionkit/ctc.py``, which
is loaded beside it in the same process (both import this checkout's
``fusionkit.core``).  Each replay builds fresh scorers before its clock
starts, so the per-scorer column caches are rebuilt inside ``step`` as in a
decode.  Prints the min and median milliseconds per decode of each side.
Standard library and numpy only.
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


def load_ctc(src: Path, name: str):
    """``src/fusionkit/ctc.py`` as a module of its own called ``name``."""
    path = src / "fusionkit" / "ctc.py"
    if not path.is_file():
        raise SystemExit(f"no fusionkit/ctc.py under {src}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def record(corpus: Path, config: Path) -> list[tuple]:
    """One decode's step calls as (scorer key, pgs, blank, eos, states,
    candidates), in call order."""
    from fusionkit import ctc
    from fusionkit.cli import main

    calls = []
    step = ctc.CtcPrefixScorer.step

    def recording(self, states, candidates):
        calls.append((id(self), self.pgs, self.blank_id, self.eos_id, states, candidates))
        return step(self, states, candidates)

    ctc.CtcPrefixScorer.step = recording
    try:
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            code = main(["decode", str(corpus), str(Path(out) / "out"), "--config", str(config)])
    finally:
        ctc.CtcPrefixScorer.step = step
    if code != 0:
        raise SystemExit(f"decode exited with {code}")
    if not calls:
        raise SystemExit("the decode made no CtcPrefixScorer.step call (not a joint CTC config?)")
    return calls


def replay(module, calls: list[tuple]) -> float:
    """Seconds for one decode's calls through ``module``'s scorer."""
    scorers = {}
    for key, pgs, blank, eos, _, _ in calls:
        if key not in scorers:
            scorers[key] = module.CtcPrefixScorer(pgs, blank, eos)
    gc.collect()
    t0 = time.perf_counter()
    for key, _, _, _, states, candidates in calls:
        scorers[key].step(states, candidates)
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("corpus", type=Path)
    parser.add_argument("config", type=Path)
    parser.add_argument("other_src", type=Path, help="a src directory holding fusionkit/ctc.py")
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    calls = record(args.corpus, args.config)
    sides = {
        "this": (SRC / "fusionkit" / "ctc.py", load_ctc(SRC, "replay_this_ctc")),
        "other": (args.other_src / "fusionkit" / "ctc.py", load_ctc(args.other_src, "replay_other_ctc")),
    }
    times = {side: [] for side in sides}
    for i in range(args.repeats):
        for side in sorted(sides, reverse=i % 2 == 1):  # alternate which side runs first
            times[side].append(replay(sides[side][1], calls))
    print(f"{len(calls)} step calls per decode, {args.repeats} replays per side")
    for side, (path, _) in sides.items():
        ms = [1000.0 * t for t in times[side]]
        print(f"{side}\t{path}\tmin {min(ms):.2f} ms\tmedian {statistics.median(ms):.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
