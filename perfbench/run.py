"""Decode benchmark: end-to-end cost of ``fusionkit decode`` per workload.

    python3 perfbench/run.py --workload joint-short --seed 0 --seconds 30 --trace 0

Set-up (corpus, LM, warm-up decode) runs three times, each in a fresh
interpreter, and ``setup_s`` is the median.  Then this process repeats
untraced, in-process ``fusionkit.cli.main(["decode", ...])`` calls over the
corpus for ``--seconds`` and reports medians over the calls.  Every timing is
scaled to a reference machine speed by a fixed probe run around it (see
``probe``).  With ``--trace 1`` every other call runs with spans around each
module's public functions (see tracing.py) and the per-layer metrics are
reported instead.

Every call's ``hyps.txt`` and n-best files are checked against the outputs
pinned in ``reference/`` for the workload and seed (written once by pin.py);
an utterance whose outputs differ, or whose decode raised, counts as failed.
The last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from pathlib import Path

import corpus
from corpus import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
COUNTERS = ("scorer_evaluations", "peak_live_hypotheses", "peak_candidate_set", "steps")
# probe() on an idle 2-core Xeon at 2.1 GHz (Python 3.11.7, numpy 2.4.6)
PROBE_REF_S = 0.105


def probe() -> float:
    """Time a fixed mix of small numpy operations and Python dict work, the
    kinds of work a decode does, to gauge the machine's current speed."""
    import numpy as np

    rows = np.log(np.linspace(0.01, 1.0, 64 * 160)).reshape(64, 160)
    t0 = time.perf_counter()
    acc = rows[0]
    for i in range(12_500):
        acc = np.logaddexp(acc, rows[i % 64]) - 0.5
    table = {}
    for i in range(325_000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_revision(),
        "loadavg_1m": os.getloadavg()[0],
    }


def git_revision() -> str:
    """Read from ``.git`` directly: a checkout without one gives "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def tree_digest(root: Path, names: list[str]) -> str:
    h = hashlib.sha256()
    for name in names:
        for path in sorted((root / name).rglob("*")) if (root / name).is_dir() else [root / name]:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def audio_seconds(corpus_dir: Path) -> float:
    """Frames times frame duration, read from each FKPG header."""
    total = 0.0
    for path in sorted(corpus_dir.glob("*.fkpg")):
        with open(path, "rb") as f:
            _, frames, _, dur_us = struct.unpack("<IIII", f.read(20)[4:])
        total += frames * dur_us / 1e6
    return total


def read_outputs(out_dir: Path, utt_ids: list[str]) -> dict:
    """hyps.txt lines and n-best digests per utterance; None where missing."""
    hyps_path = out_dir / "hyps.txt"
    lines = hyps_path.read_text(encoding="utf-8").splitlines() if hyps_path.is_file() else []
    hyps = dict(line.split("\t", 1) for line in lines if "\t" in line)
    return {
        "hyps": {u: hyps.get(u) for u in utt_ids},
        "nbest_sha256": {
            u: file_digest(out_dir / f"{u}.nbest") if (out_dir / f"{u}.nbest").is_file() else None
            for u in utt_ids
        },
        "extra_lines": len(lines) - len(hyps.keys() & set(utt_ids)),
    }


def failed_utterances(outputs: dict, reference: dict) -> list[str]:
    """Utterances whose hypothesis or n-best file differs from the reference."""
    failed = [
        u
        for u in outputs["hyps"]
        if outputs["hyps"][u] is None
        or outputs["hyps"][u] != reference["hyps"].get(u)
        or outputs["nbest_sha256"][u] != reference["nbest_sha256"].get(u)
    ]
    if outputs["extra_lines"] or set(reference["hyps"]) != set(outputs["hyps"]):
        return sorted(outputs["hyps"])
    return failed


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(seed))


def read_counters(out_dir: Path) -> dict | None:
    path = out_dir / "stats.txt"
    if not path.is_file():
        return None
    fields = dict(line.split("\t", 1) for line in path.read_text().splitlines() if "\t" in line)
    return {k: fields.get(k) for k in COUNTERS}


def corpus_wer(corpus_dir: Path, hyps: dict) -> float:
    from fusionkit.metrics import corpus_wer as wer_counts, words

    pairs = []
    for line in (corpus_dir / "refs.txt").read_text(encoding="utf-8").splitlines():
        utt, ref = line.split("\t", 1)
        pairs.append((words(ref), words(hyps.get(utt) or "")))
    return wer_counts(pairs).wer


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    p = int(100 * (1 - 10 / n))
    return f"p{p}", statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def set_up(workload: str, seed: int, work: Path, repeats: int) -> tuple[list, bool]:
    """Run the set-up ``repeats`` times; returns (seconds, probe seconds)
    per repeat and whether every repeat wrote byte-identical inputs."""
    times, digests = [], set()
    before = probe()
    for i in range(repeats):
        out = work / f"setup{i}"
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "corpus.py"), workload, str(seed), str(out)],
            check=True,
            timeout=SETUP_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - t0
        after = probe()
        times.append((elapsed, (before + after) / 2))
        before = after
        digests.add(tree_digest(out, ["corpus", "warmup", "lm.fklm"]))
    return times, len(digests) == 1


def measure(args, work: Path, tracer) -> dict:
    base = work / "setup0"
    corpus_dir = base / "corpus"
    utt_ids = [line.split("\t", 1)[0] for line in (corpus_dir / "refs.txt").read_text().splitlines()]
    reference = load_reference(args.workload, args.seed)
    out_dir = work / "out"

    if corpus.decode(base, base / "warmup", work / "warmup_out") != 0:
        raise RuntimeError("warm-up decode failed")

    calls = []  # one record per decode call
    min_calls = 4 if args.trace else 3
    start = time.perf_counter()
    last = 0.0  # duration of the previous iteration: stop before overrunning
    while len(calls) < min_calls or time.perf_counter() - start + last <= args.seconds:
        iteration_start = time.perf_counter()
        traced = bool(args.trace) and len(calls) % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        gc.collect()
        record = {"traced": traced, "error": None}
        probe_before = probe()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.root(), tracer.installed() as missing:
                    t0 = time.perf_counter()
                    code = corpus.decode(base, corpus_dir, out_dir)
                    record["wall_s"] = time.perf_counter() - t0
                record["spans"] = tracer.stats
                record["top_s"] = tracer.top_seconds
                record["missing"] = missing
            else:
                code = corpus.decode(base, corpus_dir, out_dir)
                record["wall_s"] = time.perf_counter() - t0
            record["cpu_s"] = cpu_seconds() - cpu0
            if code != 0:
                record["error"] = f"decode exited with {code}"
        except Exception:  # a crash fails the call's utterances; the run goes on
            record["error"] = traceback.format_exc()
            record["wall_s"] = time.perf_counter() - t0
            record["cpu_s"] = cpu_seconds() - cpu0
        record["probe_s"] = (probe_before + probe()) / 2
        outputs = read_outputs(out_dir, utt_ids)
        # without a pinned reference, every call must repeat the first one
        expected = reference if reference is not None or not calls else calls[0]["outputs"]
        if record["error"]:
            print(record["error"], file=sys.stderr)
            record["failed"] = list(utt_ids)
        elif expected is None:
            record["failed"] = []
        else:
            record["failed"] = failed_utterances(outputs, expected)
        record["outputs"] = outputs
        record["counters"] = read_counters(out_dir)
        calls.append(record)
        last = time.perf_counter() - iteration_start
    return {
        "calls": calls,
        "reference": reference is not None,
        "wer": corpus_wer(corpus_dir, calls[0]["outputs"]["hyps"]),
        "audio_s": audio_seconds(corpus_dir),
        "utterances": len(utt_ids),
    }


def to_reference(seconds: float, probe_s: float) -> float:
    """Seconds as they would read at the probe's reference speed."""
    return seconds * PROBE_REF_S / probe_s


def end_to_end_metrics(run: dict, setup_times: list) -> tuple[dict, list[str]]:
    """Medians of the timings, each scaled to the reference speed by the
    probe run around it.  On a shared machine neighbours slow every call by
    up to 1.6x for minutes at a time; raw medians follow them, scaled ones
    much less.  The report gives the raw figures too."""
    untraced = [c for c in run["calls"] if not c["traced"]]
    walls = [to_reference(c["wall_s"], c["probe_s"]) for c in untraced]
    raw_walls = [c["wall_s"] for c in untraced]
    samples = {
        "wall_s": (walls, raw_walls, "s"),
        "rtf": (
            [w / run["audio_s"] for w in walls],
            [w / run["audio_s"] for w in raw_walls],
            "s/s",
        ),
        "cpu_s": (
            [to_reference(c["cpu_s"], c["probe_s"]) for c in untraced],
            [c["cpu_s"] for c in untraced],
            "s",
        ),
        "setup_s": ([to_reference(t, p) for t, p in setup_times], [t for t, _ in setup_times], "s"),
    }
    metrics, report = {}, []
    for name, (values, raw, unit) in samples.items():
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        label, hi = high_percentile(values)
        report.append(
            f"{name}\tmedian={statistics.median(values):.6g}\t{label}={hi:.6g}\tn={len(values)}"
            f"\t{unit}\traw: median={statistics.median(raw):.6g} min={min(raw):.6g}"
        )
    probes = [c["probe_s"] for c in untraced]
    report.append(
        f"probe_s\tmedian={statistics.median(probes):.6g}\tmin={min(probes):.6g}"
        f"\tmax={max(probes):.6g}\treference={PROBE_REF_S}"
    )
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    report.append(f"peak_rss_mb\t{rss:.6g}\tMB")
    return metrics, report


def per_layer_metrics(run: dict, tracer) -> tuple[dict, list[str]]:
    """Span totals of the traced call with the median scaled wall time, in
    reference seconds; per-utterance latency pools every traced call."""
    traced = [c for c in run["calls"] if c["traced"] and not c["error"]]
    untraced = [c for c in run["calls"] if not c["traced"]]
    if not traced:
        raise RuntimeError("no traced decode call succeeded")

    def scaled_wall(c):
        return to_reference(c["wall_s"], c["probe_s"])

    mid = sorted(traced, key=scaled_wall)[(len(traced) - 1) // 2]
    scale = PROBE_REF_S / mid["probe_s"]
    targets = {t.metric for t in tracer.targets}
    missing = set(mid["missing"])
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    shares = []
    for t in tracer.targets:
        span = mid["spans"][t.metric]
        put(f"{t.metric}.s", span.seconds * scale, "s")
        put(f"{t.metric}.calls", span.calls, "count")
        if t.nests:
            put(f"{t.metric}.self_s", span.self_seconds * scale, "s")
        if t.per_call:
            durations = [
                1e3 * to_reference(d, c["probe_s"])
                for c in traced
                for d in c["spans"][t.metric].durations
            ]
            put(f"{t.metric}.median_ms", statistics.median(durations or [0.0]), "ms")
            put(f"{t.metric}.max_ms", max(durations, default=0.0), "ms")
        if t.items is not None:
            if span.item_errors:
                missing.add(f"{t.metric} (items)")
            put("ctc.candidates_scored", span.items, "count")
        if span.seconds:
            shares.append((span.seconds / mid["wall_s"], t.metric))

    advance = metrics["search.CtcPrefixLabelScorer.advance.calls"]["value"]
    scored = metrics["ctc.candidates_scored"]["value"]
    put("ctc.state_use_ratio", advance / scored if scored else 0.0, "ratio")
    counters = mid["counters"] or {}
    for key in COUNTERS:
        put(f"search.{key}", int(counters.get(key) or 0), "count")
    put("trace.coverage", mid["top_s"] / mid["wall_s"], "ratio")
    untraced_wall = statistics.median(scaled_wall(c) for c in untraced)
    traced_wall = statistics.median(scaled_wall(c) for c in traced)
    put("trace.overhead", traced_wall / untraced_wall - 1.0, "ratio")
    put("trace.wrapped", len(targets - missing), "count")

    report = [f"traced calls\t{len(traced)}\tuntraced calls\t{len(untraced)}"]
    report += [f"share\t{share:.3f}\t{name}" for share, name in sorted(shares, reverse=True)]
    report += [f"unmeasured\t{name}" for name in sorted(missing)]
    report += [f"{k}\t{v['value']:.6g}\t{v['unit']}" for k, v in metrics.items()]
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # a fixed string-hash seed keeps dict layouts, and with them the
        # decode's speed, from changing between runs of the same code
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})

    corpus.import_fusionkit()
    from tracing import Tracer

    env = environment()
    print("env\t" + json.dumps(env, sort_keys=True), flush=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times, inputs_identical = set_up(
            args.workload, args.seed, work, 1 if args.trace else SETUP_REPEATS
        )
        tracer = Tracer()
        run = measure(args, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    calls = run["calls"]
    attempted = run["utterances"] * len(calls)
    failed = sum(len(c["failed"]) for c in calls)
    counters_repeat = len({json.dumps(c["counters"], sort_keys=True) for c in calls}) == 1
    report = [
        f"workload\t{args.workload}\tseed\t{args.seed}\tutterances\t{run['utterances']}"
        f"\taudio_s\t{run['audio_s']:.3f}",
        "pinned reference\t" + ("checked" if run["reference"] else
                                "absent for this seed: only call-to-call identity checked"),
        f"inputs identical across set-ups\t{inputs_identical}",
        f"stats.txt counters identical across calls\t{counters_repeat}\t{calls[0]['counters']}",
        f"wer\t{run['wer']:.4f}\tratio",
        f"fail_ratio\t{failed / attempted:.4f}\tratio\t({failed} of {attempted} utterances)",
    ]
    if args.trace:
        metrics, lines = per_layer_metrics(run, tracer)
    else:
        metrics, lines = end_to_end_metrics(run, setup_times)
    print("\n".join(report + lines))
    result = {
        "correct": failed == 0 and counters_repeat and inputs_identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
