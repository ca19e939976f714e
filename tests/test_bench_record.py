import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

ENV = {"git_rev": "abc123", "loadavg_1m": 0.5, "nproc": 2, "numpy": "2.4.6", "python": "3.11.7"}
RESULT = {
    "attempted": 34,
    "correct": True,
    "failed": 0,
    "metrics": {"wall_s": {"unit": "s", "value": 0.03}, "cpu_s": {"unit": "s", "value": 0.029}},
}
STDOUT = "env\t" + json.dumps(ENV) + "\nworkload\ttsync-short\n" + json.dumps(RESULT) + "\n"
COMMAND = ["python3", "perfbench/run.py", "--workload", "tsync-short", "--seed", "29", "--seconds", "12"]


def test_record_of_fake_result_line():
    record = bench_record.record_of(STDOUT, label="change", command=COMMAND, date="D")
    assert record == {
        "rev": "abc123",
        "date": "D",
        "python": "3.11.7",
        "numpy": "2.4.6",
        "nproc": 2,
        "command": " ".join(COMMAND),
        "label": "change",
        "correct": True,
        "attempted": 34,
        "failed": 0,
        "metrics": {"cpu_s": 0.029, "wall_s": 0.03},
    }


def test_output_without_env_line_rejected():
    with pytest.raises(ValueError, match="no env line"):
        bench_record.record_of(json.dumps(RESULT), label="parent", command=COMMAND, date="D")


def test_append_records_keeps_earlier_ones(tmp_path):
    path = tmp_path / "BENCH_tsync-short.json"
    first = bench_record.record_of(STDOUT, label="parent", command=COMMAND, date="D1")
    second = bench_record.record_of(STDOUT, label="change", command=COMMAND, date="D2")
    bench_record.append_records(path, [first])
    bench_record.append_records(path, [second])
    assert json.loads(path.read_text()) == [first, second]
    path.write_text("{}")
    with pytest.raises(ValueError, match="JSON list"):
        bench_record.append_records(path, [first])
