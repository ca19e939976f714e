"""Time whole decodes of two checkouts in one process.

    python3 tools/ab_decode.py OTHER_CHECKOUT --workload W [--seed S] [--rounds N]

Loads the ``fusionkit`` package of both checkouts, "this" one and
OTHER_CHECKOUT's.  Each side's package is imported while its ``fusionkit``
modules are the ones in ``sys.modules``; module globals bind at import, so
each side keeps its own code.  A side's modules are swapped back into
``sys.modules`` for its calls, so that imports made inside a call find them
too.  Each side then builds the benchmark's workload W at seed S with its
own package, in a work dir of its own: corpus, warm-up corpus, LM and
config, through ``perfbench/corpus.py`` of the checkout holding this
script.  So each side reads the files its own package writes, an LM format
that the other does not read included.

After one warm-up decode per side, each round runs one whole in-process
``fusionkit decode`` of the side's corpus per side,
``cli.main(["decode", ...])`` with the workload's config, the side that goes
first alternating.  Every call's n-best files and ``hyps.txt`` are checked
against the outputs pinned in ``perfbench/reference/`` for the workload and
seed, or, for a seed without a pinned reference, against the first call's.
After the timed rounds, each side runs three more decodes under
``tracemalloc``, untimed.  Prints, per side, the min and median wall and CPU
milliseconds per decode, the rounds it won on wall time, and the min and
spread (max - min) of those decodes' traced peaks (the most memory
allocated during a decode and held at once, numpy's arrays included); exits
1 if any call's outputs differ.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
TRACED_DECODES = 3  # per side: one decode's traced peak moves between decodes of one tree


def _perfbench():
    """``perfbench/corpus.py`` and ``run.py``, imported as they are, with no
    bytecode written under ``perfbench/``."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("corpus"), importlib.import_module("run")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


corpus, perfbench_run = _perfbench()


def _ours(name: str) -> bool:
    return name == "fusionkit" or name.startswith("fusionkit.")


@contextlib.contextmanager
def installed(modules: dict):
    """``modules`` as the ``fusionkit`` entries of ``sys.modules``; the
    entries found there are put back on exit."""
    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if _ours(name)}
    sys.modules.update(modules)
    try:
        yield
    finally:
        for name in [name for name in sys.modules if _ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def load_tree(checkout: Path) -> dict:
    """Every module of ``CHECKOUT/src/fusionkit``, freshly imported, by name."""
    src = checkout.resolve() / "src"
    package = src / "fusionkit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no fusionkit package under {src}")
    modules = {}
    with installed(modules):
        sys.path.insert(0, str(src))
        try:
            for path in sorted(package.glob("*.py")):
                name = "fusionkit" if path.stem == "__init__" else f"fusionkit.{path.stem}"
                importlib.import_module(name)
        finally:
            sys.path.remove(str(src))
        modules.update((name, m) for name, m in sys.modules.items() if _ours(name))
    for name, module in modules.items():
        if Path(module.__file__).resolve().parent != package:
            raise SystemExit(f"{name} was imported from {module.__file__}, not from {package}")
    return modules


def timed_decode(modules: dict, work: Path, corpus_dir: Path, out_dir: Path) -> tuple[float, float]:
    """Wall and CPU seconds of one decode of ``corpus_dir`` into ``out_dir``
    through ``modules``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    with installed(modules):
        gc.collect()
        cpu0, t0 = time.process_time(), time.perf_counter()
        code = corpus.decode(work, corpus_dir, out_dir)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if code != 0:
        raise SystemExit(f"decode exited with {code}")
    return wall, cpu


def traced_peak(modules: dict, work: Path, corpus_dir: Path, out_dir: Path) -> int:
    """Bytes of the traced peak of one decode of ``corpus_dir`` through
    ``modules``."""
    tracemalloc.start()
    try:
        timed_decode(modules, work, corpus_dir, out_dir)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="a checkout holding src/fusionkit/")
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = {"this": ROOT, "other": args.other.resolve()}
    trees = {side: load_tree(checkout) for side, checkout in sides.items()}
    reference = perfbench_run.load_reference(args.workload, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        work = {side: Path(tmp) / side for side in sides}
        for side, tree in trees.items():
            with installed(tree):
                corpus.build(args.workload, args.seed, work[side])
            timed_decode(tree, work[side], work[side] / "warmup", work[side] / "warmup_out")
        utt_ids = [line.split("\t", 1)[0] for line in
                   (work["this"] / "corpus" / "refs.txt").read_text(encoding="utf-8").splitlines()]
        expected = reference
        times = {side: [] for side in sides}
        won = dict.fromkeys(sides, 0)
        mismatches = 0
        for i in range(args.rounds):
            for side in sorted(sides, reverse=i % 2 == 1):  # alternate which side goes first
                out_dir = work[side] / "out"
                times[side].append(timed_decode(trees[side], work[side], work[side] / "corpus", out_dir))
                outputs = perfbench_run.read_outputs(out_dir, utt_ids)
                if expected is None:
                    expected = outputs
                failed = perfbench_run.failed_utterances(outputs, expected)
                if failed:
                    mismatches += 1
                    print(f"round {i}: {side} differs on {', '.join(failed)}", file=sys.stderr)
            won[min(sides, key=lambda side: times[side][-1][0])] += 1
        peaks = {side: [traced_peak(trees[side], work[side], work[side] / "corpus", work[side] / "out")
                        for _ in range(TRACED_DECODES)] for side in sides}
    against = "the pinned reference" if reference is not None else "the first call (no pinned reference)"
    print(f"{args.workload}\tseed {args.seed}\t{len(utt_ids)} utterances\t{args.rounds} rounds"
          f"\toutputs checked against {against}: {mismatches} calls differ")
    for side, checkout in sides.items():
        wall = [1e3 * w for w, _ in times[side]]
        cpu = [1e3 * c for _, c in times[side]]
        print(f"{side}\t{checkout}\twall min {min(wall):.2f} ms\tmedian {statistics.median(wall):.2f} ms"
              f"\tcpu min {min(cpu):.2f} ms\tmedian {statistics.median(cpu):.2f} ms"
              f"\twon {won[side]}/{args.rounds}\ttraced peak {min(peaks[side]) / 2**20:.3f} MB"
              f" (spread {(max(peaks[side]) - min(peaks[side])) / 2**10:.1f} KB of {TRACED_DECODES})")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
