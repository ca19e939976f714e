"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
INPUTS = ["corpus", "warmup", "lm.fklm"]

corpus.import_fusionkit()


@pytest.mark.parametrize("workload", ["tsync-short", "joint-long"])
def test_seed_determines_inputs(workload, tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        corpus.build(workload, seed, tmp_path / name)
    digest = {name: run.tree_digest(tmp_path / name, INPUTS) for name in "abc"}
    assert digest["a"] == digest["b"]
    assert digest["a"] != digest["c"]


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_unit(trace, group):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tsync-short",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = last_json_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    # reported, with units, beside the bounded metrics
    for name in ("wer", "fail_ratio"):
        assert any(line.startswith(f"{name}\t") and "\tratio" in line
                   for line in proc.stdout.splitlines())


def run_in_process(argv) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return last_json_line(out.getvalue()), out.getvalue()


@pytest.mark.parametrize("corrupt", ["hyps", "nbest_sha256"])
def test_corrupted_reference_fails_utterances(corrupt, tmp_path, monkeypatch):
    workload, seed = "tsync-short", 0
    shutil.copytree(run.REFERENCE_DIR, tmp_path / "reference")
    path = tmp_path / "reference" / f"{workload}.json"
    data = json.loads(path.read_text())
    pinned = data["seeds"][str(seed)][corrupt]
    pinned["utt0000"] = "x" + pinned["utt0000"]
    path.write_text(json.dumps(data))
    monkeypatch.setattr(run, "REFERENCE_DIR", tmp_path / "reference")

    result, stdout = run_in_process(["--workload", workload, "--seed", str(seed), "--seconds", "0"])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // len(pinned)  # utt0000 in every call
    assert "fail_ratio\t0.0000" not in stdout


def test_missing_wrap_target_is_unmeasured(tmp_path):
    import tracing
    from fusionkit import cli

    gone = tracing.Target("ctc.no_such_function", "fusionkit.ctc", "no_such_function")
    tracer = tracing.Tracer(tracing.TARGETS + (gone,))
    corpus.build("tsync-short", 0, tmp_path / "w")
    with tracer.root(), tracer.installed() as missing:
        assert corpus.decode(tmp_path / "w", tmp_path / "w" / "corpus", tmp_path / "out") == 0
    assert missing == ["ctc.no_such_function"]
    assert tracer.stats["ctc.no_such_function"].calls == 0
    assert tracer.stats["cli.decode_utterance"].calls > 0
    assert not hasattr(cli.decode_utterance, "__wrapped__")
