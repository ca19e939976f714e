import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit.cli import main
from fusionkit.decoder import read_tensor_container

from fixtures import fklm_vocab_edited, fuzzed


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    code = main(["synth", str(root), "--seed", "5", "--utts", "4", "--noise", "0.0"])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def lm_file(tmp_path_factory, corpus):
    root = tmp_path_factory.mktemp("lm")
    text = root / "train.txt"
    refs = (corpus / "refs.txt").read_text().splitlines()
    text.write_text("\n".join(line.split("\t", 1)[1] for line in refs) + "\n")
    model = root / "model.fklm"
    code = main(["lm-train", str(text), str(corpus / "vocab.txt"), str(model), "--order", "2"])
    assert code == 0
    return model


@pytest.fixture(scope="module")
def word_lm_file(tmp_path_factory):
    """An LM on the synthetic word vocabulary, for delayed fusion."""
    from fusionkit.lm import retokenize, save_ngram, train_ngram
    from fusionkit.synth import SynthConfig, sample_sentences

    from fixtures import build_lm_vocab

    lm_vocab = build_lm_vocab()
    texts = sample_sentences(SynthConfig(seed=5), 100)
    path = tmp_path_factory.mktemp("word_lm") / "words.fklm"
    save_ngram(train_ngram(lm_vocab, [retokenize(lm_vocab, t) for t in texts], order=2), path)
    return path


class TestSynthAndDecode:
    def test_synth_layout(self, corpus):
        assert (corpus / "vocab.txt").exists()
        assert (corpus / "refs.txt").exists()
        assert (corpus / "utt0000.fkpg").exists()
        assert (corpus / "synth_config.json").exists()

    def test_greedy_decode_clean_corpus_wer_zero(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run(["decode", str(corpus), str(out), "--strategy", "ctc-greedy"], capsys)
        assert code == 0
        code, stdout, _ = run(["wer", str(corpus / "refs.txt"), str(out / "hyps.txt")], capsys)
        assert code == 0
        assert "WER\t0.0000" in stdout

    def test_decode_outputs_deterministic(self, corpus, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code, _, _ = run(
                ["decode", str(corpus), str(out), "--strategy", "timesync", "--beam", "4"],
                capsys,
            )
            assert code == 0
        for name in ["hyps.txt", "utt0000.nbest", "config.json"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_empty_corpus_writes_empty_hyps(self, corpus, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "vocab.txt").write_bytes((corpus / "vocab.txt").read_bytes())
        (empty / "refs.txt").write_text("")
        out = tmp_path / "out"
        code, _, _ = run(["decode", str(empty), str(out), "--strategy", "timesync"], capsys)
        assert code == 0
        assert (out / "hyps.txt").read_bytes() == b""
        code, stdout, err = run(["wer", str(empty / "refs.txt"), str(out / "hyps.txt")], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and "reference word" in err

    def test_jobs_config_key_rejected(self, corpus, tmp_path, capsys):
        cfg_path = tmp_path / "jobs.json"
        cfg_path.write_text(json.dumps({"strategy": "timesync", "jobs": 2}))
        out = tmp_path / "o"
        code, stdout, err = run(["decode", str(corpus), str(out), "--config", str(cfg_path)], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and "jobs" in err
        assert not out.exists()

    def test_joint_without_scorers_fails_before_output(self, corpus, tmp_path, capsys):
        out = tmp_path / "o"
        code, stdout, err = run(["decode", str(corpus), str(out), "--strategy", "joint"], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1
        assert "error: joint decoding needs at least one scorer" in err
        assert not out.exists()

    def test_decode_timesync_with_lm(self, corpus, lm_file, tmp_path, capsys):
        out = tmp_path / "fused"
        code, _, _ = run(
            [
                "decode", str(corpus), str(out),
                "--strategy", "timesync", "--beam", "4",
                "--lm-path", str(lm_file), "--lm-weight", "0.5",
            ],
            capsys,
        )
        assert code == 0
        assert (out / "stats.txt").exists()

    def test_delayed_fusion_decode(self, corpus, tmp_path, capsys):
        from fusionkit.lm import retokenize, save_ngram, train_ngram
        from fusionkit.synth import SynthConfig, sample_sentences

        from fixtures import build_lm_vocab

        lm_vocab = build_lm_vocab()
        cfg = SynthConfig(seed=5)
        lm = train_ngram(
            lm_vocab, [retokenize(lm_vocab, t) for t in sample_sentences(cfg, 100)], order=2
        )
        lm_path = tmp_path / "words.fklm"
        save_ngram(lm, lm_path)
        out = tmp_path / "delayed"
        code, _, _ = run(
            [
                "decode", str(corpus), str(out),
                "--strategy", "delayed", "--beam", "8",
                "--lm-path", str(lm_path), "--lm-weight", "0.3",
            ],
            capsys,
        )
        assert code == 0
        code, stdout, _ = run(["wer", str(corpus / "refs.txt"), str(out / "hyps.txt")], capsys)
        assert "WER\t0.0000" in stdout

    def test_joint_config_decode(self, corpus, tmp_path, capsys):
        cfg = {
            "strategy": "joint",
            "beam": 2,
            "scorers": [{"name": "ctc", "kind": "ctc_prefix", "weight": 1.0}],
        }
        cfg_path = tmp_path / "joint.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "joint"
        code, _, _ = run(["decode", str(corpus), str(out), "--config", str(cfg_path)], capsys)
        assert code == 0
        hyps = (out / "hyps.txt").read_text().splitlines()
        refs = (corpus / "refs.txt").read_text().splitlines()
        assert [h.split("\t")[1] for h in hyps] == [r.split("\t")[1] for r in refs]

    def test_missing_posteriorgram_names_file(self, corpus, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "vocab.txt").write_bytes((corpus / "vocab.txt").read_bytes())
        (broken / "refs.txt").write_text("uttZZ\thello\n")
        code, _, err = run(["decode", str(broken), str(tmp_path / "o")], capsys)
        assert code == 1
        assert "uttZZ" in err

    @pytest.mark.parametrize("missing", ["vocab.txt", "refs.txt"])
    def test_missing_corpus_file_fails_cleanly(self, corpus, tmp_path, capsys, missing):
        broken = tmp_path / "broken"
        shutil.copytree(corpus, broken)
        (broken / missing).unlink()
        code, stdout, err = run(["decode", str(broken), str(tmp_path / "o")], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and f"missing corpus file: {broken / missing}" in err

    @pytest.mark.parametrize("bad_line", ["", "utt0000 no tab"])
    def test_malformed_refs_line_names_file_and_line(self, corpus, tmp_path, capsys, bad_line):
        broken = tmp_path / "broken"
        broken.mkdir()
        for path in corpus.iterdir():
            (broken / path.name).write_bytes(path.read_bytes())
        refs = broken / "refs.txt"
        refs.write_text(refs.read_text() + bad_line + "\n")
        line = len(refs.read_text().splitlines())
        for command in (["decode", str(broken), str(tmp_path / "o")], ["bench", str(broken)]):
            code, _, err = run(command, capsys)
            assert code == 1
            assert err.count("error:") == 1
            assert str(refs) in err and f"line {line}" in err

    @pytest.mark.parametrize(
        "utt_id,message",
        [
            ("", "bad utterance id ''"),
            (".", "bad utterance id '.'"),
            ("..", "bad utterance id '..'"),
            ("../broken/utt0001", "bad utterance id '../broken/utt0001'"),  # names a file
            ("sub\\utt0001", "bad utterance id 'sub\\\\utt0001'"),  # so does this, on Windows
            ("utt0001", "utterance id 'utt0001' repeats line 2"),
        ],
        ids=["empty", "dot", "dotdot", "slash", "backslash", "repeated"],
    )
    def test_bad_utterance_id_names_refs_line(self, corpus, tmp_path, capsys, utt_id, message):
        # an id names one posteriorgram of the corpus dir, and one output, once
        broken = tmp_path / "broken"
        broken.mkdir()
        for path in corpus.iterdir():
            (broken / path.name).write_bytes(path.read_bytes())
        (broken / "sub\\utt0001.fkpg").write_bytes((corpus / "utt0001.fkpg").read_bytes())
        refs = broken / "refs.txt"
        refs.write_text(refs.read_text() + utt_id + "\tsome words\n")
        lineno = len(refs.read_text().splitlines())
        out = tmp_path / "o"
        for command in (["decode", str(broken), str(out)], ["bench", str(broken)]):
            code, stdout, err = run(command, capsys)
            assert code == 1 and stdout == ""
            assert err.count("error:") == 1 and f"{refs} line {lineno}: {message}" in err
        assert not out.exists()
        assert not list(tmp_path.rglob("*.nbest"))

    @pytest.mark.parametrize(
        "cfg,message",
        [
            ({"strategy": "bogus"}, "unknown strategy"),
            ({"strategy": "delayed"}, "delayed needs an LM"),
            ({"strategy": "joint", "scorers": [{"name": "x", "kind": "bogus", "weight": 1}]},
             "unknown scorer kind"),
            ({"strategy": "joint", "scorers": [{"name": "x", "weight": 1}]}, "name and a kind"),
            ({"strategy": "joint", "scorers": [{"name": "x", "kind": "ngram", "weight": 1}]},
             "'path'"),
            ({"strategy": "joint",
              "scorers": [{"name": "x", "kind": "ngram", "path": "no.fklm", "weight": 1}]},
             "cannot read LM file"),
            ({"strategy": "joint", "scorers": [{"name": "x", "kind": "decoder_am", "weight": 1}]},
             "encoder audio"),
            ({"strategy": "joint",
              "scorers": [{"name": "x", "kind": "decoder_lm", "interface": "bogus", "weight": 1}]},
             "unknown keys"),
            ({"strategy": "timesync", "lm_path": "no.fklm", "lm_weight": 0.3}, "cannot read LM file"),
            ({"strategy": "joint", "scorers": [{"name": "x", "kind": "ctc_prefix",
                                                "weight": float("nan")}]}, "must be finite"),
            ({"strategy": "joint", "scorers": [{"name": "x", "kind": "ctc_prefix",
                                                "weight": float("-inf")}]}, "must be finite"),
            ({"strategy": "timesync", "lm_weight": float("nan")}, "lm_weight must be"),
            ({"strategy": "timesync", "lm_weight": float("inf")}, "lm_weight must be"),
            ({"strategy": "delayed", "lm_weight": float("nan")}, "lm_weight must be"),
            ({"strategy": "timesync", "beam": 0}, "beam must be"),
            ({"strategy": "joint", "beam": 2.5}, "beam must be"),
            ({"strategy": "timesync", "beam": True}, "beam must be"),
            ({"strategy": "ctc-greedy", "top_k": 0}, "top_k must be"),
            ({"strategy": "timesync", "top_k": 1.5}, "top_k must be"),
            ({"strategy": "timesync", "compress_threshold": 0}, "compress_threshold must be"),
            ({"strategy": "joint", "compress_threshold": float("nan")},
             "compress_threshold must be"),
            ({"strategy": "joint", "length_norm": "no"}, "length_norm must be"),
            ({"keep_blank": "no"}, "unknown config keys"),
            ({"compress_order": "bogus"}, "unknown config keys"),
            ({"normalization": "bogus"}, "unknown normalization"),
            ({"seed": 1.5}, "unknown config keys"),
            ({"strategy": "joint", "max_len_factor": "abc"}, "max_len_factor must be"),
            ({"max_len_factor": None}, "max_len_factor must be"),
            ({"strategy": "timesync", "lm_path": 5}, "lm_path must be"),
            ({"strategy": "joint", "scorers": "junk"}, "scorers must be"),
            ({"strategy": "joint", "scorers": [{"name": "x", "kind": "ctc_prefix", "weight": 1},
                                               {"name": "x", "kind": "ctc_prefix", "weight": 1}]},
             "names must be unique"),
            ({"strategy": "joint", "scorers": [{"name": "x", "kind": "ctc_prefix", "weight": 1,
                                                "bogus": 1}]}, "unknown keys"),
            ({"strategy": "joint", "scorers": [{"name": "x", "kind": "decoder_lm", "weight": 1,
                                                "prompt": [9999]}]}, "prompt ids"),
            ({"strategy": "joint", "scorers": [{"name": "x", "kind": "decoder_lm", "weight": 1,
                                                "prompt": [-1]}]}, "prompt must be"),
            ({"strategy": "joint", "scorers": [{"name": "x", "kind": "decoder_lm", "weight": 1,
                                                "prompt": "ab"}]}, "prompt must be"),
            ({"strategy": "joint", "scorers": [{"name": "x", "kind": "decoder_lm", "weight": 1,
                                                "seed": 1.5}]}, "seed must be"),
            ({"strategy": "joint", "scorers": [{"name": "x", "kind": "decoder_lm", "weight": 1,
                                                "prefix_attention": "causal"}]}, "unknown keys"),
            ({"strategy": "joint", "scorers": [{"name": "x", "kind": "table", "path": "lm.json",
                                                "weight": 1}]}, "unknown scorer kind"),
        ],
    )
    def test_bad_config_fails_before_reading_posteriorgrams(
        self, corpus, tmp_path, capsys, cfg, message
    ):
        broken = tmp_path / "broken"
        broken.mkdir()
        for path in corpus.iterdir():
            data = b"JUNK" if path.suffix == ".fkpg" else path.read_bytes()
            (broken / path.name).write_bytes(data)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        for command in (
            ["decode", str(broken), str(out), "--config", str(cfg_path)],
            ["bench", str(broken), "--config", str(cfg_path)],
        ):
            code, stdout, err = run(command, capsys)
            assert code == 1 and stdout == ""
            assert err.count("error:") == 1 and message in err
            assert ".fkpg" not in err and ": None" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cfg",
        [
            {"strategy": "ctc-greedy"},
            {"strategy": "joint", "beam": 2,
             "scorers": [{"name": "ctc", "kind": "ctc_prefix", "weight": 1.0}]},
        ],
    )
    def test_lm_path_unread_without_lm_fusion(self, corpus, tmp_path, capsys, cfg):
        # only timesync and delayed fuse the lm_path LM; the others never load it
        missing = str(tmp_path / "missing.fklm")
        plain, with_lm = tmp_path / "plain.json", tmp_path / "with_lm.json"
        plain.write_text(json.dumps(cfg))
        with_lm.write_text(json.dumps({**cfg, "lm_path": missing}))
        out = tmp_path / "o"
        for command in (
            ["decode", str(corpus), str(out), "--config", str(plain), "--lm-path", missing],
            ["decode", str(corpus), str(out), "--config", str(with_lm)],
            ["bench", str(corpus), "--config", str(with_lm)],
        ):
            code, _, err = run(command, capsys)
            assert code == 0 and err == ""
        assert (out / "hyps.txt").exists()

    def test_timesync_at_weight_zero_loads_no_lm(self, corpus, tmp_path, capsys):
        # timesync fuses no LM at weight 0, so lm_path is never read; delayed
        # still needs its LM
        missing = str(tmp_path / "missing.fklm")
        flags = ["--strategy", "timesync", "--beam", "3", "--lm-weight", "0"]
        plain, with_lm = tmp_path / "plain", tmp_path / "with_lm"
        assert run(["decode", str(corpus), str(plain), *flags], capsys)[0] == 0
        code, _, err = run(["decode", str(corpus), str(with_lm), *flags, "--lm-path", missing], capsys)
        assert code == 0 and err == ""
        for name in ["hyps.txt"] + [f"utt{i:04d}.nbest" for i in range(4)]:
            assert (with_lm / name).read_bytes() == (plain / name).read_bytes()
        counters = (plain / "stats.txt").read_text().splitlines()[:5]
        assert (with_lm / "stats.txt").read_text().splitlines()[:5] == counters
        out = tmp_path / "delayed"
        code, stdout, err = run(
            ["decode", str(corpus), str(out), "--strategy", "delayed", "--lm-weight", "0",
             "--lm-path", missing], capsys
        )
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and "cannot read LM file" in err and missing in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--strategy", "timesync", "--beam", "0"], "beam must be"),
            (["--strategy", "timesync", "--lm-weight", "nan"], "lm_weight must be"),
            (["--strategy", "timesync", "--lm-weight", "inf"], "lm_weight must be"),
            (["--strategy", "ctc-greedy", "--top-k", "0"], "top_k must be"),
            (["--strategy", "ctc-greedy", "--compress-threshold", "-0.5"],
             "compress_threshold must be"),
            (["--strategy", "ctc-greedy", "--top-k", "500"], "top_k must be at most the 179 labels"),
        ],
    )
    def test_bad_flag_fails_before_output(self, corpus, lm_file, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        code, stdout, err = run(
            ["decode", str(corpus), str(out), "--lm-path", str(lm_file), *flags], capsys
        )
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["{", '{"strategy": "timesync",}', "", "[1, 2]"])
    def test_invalid_json_config(self, corpus, tmp_path, capsys, text):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(text)
        out = tmp_path / "o"
        for command in (
            ["decode", str(corpus), str(out), "--config", str(cfg_path)],
            ["bench", str(corpus), "--config", str(cfg_path)],
        ):
            code, stdout, err = run(command, capsys)
            assert code == 1 and stdout == ""
            assert err.count("error:") == 1 and str(cfg_path) in err
            assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decode-config", "decode-lm-path", "ppl"])
    def test_deeply_nested_json_fails_cleanly(self, corpus, tmp_path, capsys, command):
        # well-formed, but nested past the parser's recursion limit, where
        # json.loads raises RecursionError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        text = tmp_path / "t.txt"
        text.write_text("the and\n")
        out = tmp_path / "o"
        argv = {
            "decode-config": ["decode", str(corpus), str(out), "--config", str(deep)],
            "decode-lm-path": [
                "decode", str(corpus), str(out),
                "--strategy", "timesync", "--lm-weight", "0.3", "--lm-path", str(deep),
            ],
            "ppl": ["ppl", str(deep), str(text)],
        }[command]
        code, stdout, err = run(argv, capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and str(deep) in err and "Traceback" not in err
        assert not out.exists()

    def test_refs_not_utf8_fails_cleanly(self, corpus, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        for path in corpus.iterdir():
            (broken / path.name).write_bytes(path.read_bytes())
        refs = broken / "refs.txt"
        refs.write_bytes(refs.read_bytes() + b"utt0000\t\xff\xfe\n")
        out = tmp_path / "o"
        for command in (["decode", str(broken), str(out)], ["bench", str(broken)]):
            code, stdout, err = run(command, capsys)
            assert code == 1 and stdout == ""
            assert err.count("error:") == 1 and str(refs) in err and "not UTF-8" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "strategy, lm, message",
        [
            ("timesync", "word_lm_file", "timesync needs an LM on the acoustic vocabulary"),
            ("delayed", "lm_file", "delayed needs an LM on a vocabulary of its own"),
        ],
    )
    def test_lm_vocabulary_checked_at_load(self, corpus, tmp_path, capsys, request, strategy, lm, message):
        path = str(request.getfixturevalue(lm))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"strategy": strategy, "lm_path": path, "lm_weight": 0.5}))
        out = tmp_path / "o"
        for command in (
            ["decode", str(corpus), str(out), "--config", str(cfg_path)],
            ["bench", str(corpus), "--config", str(cfg_path)],
        ):
            code, stdout, err = run(command, capsys)
            assert code == 1 and stdout == ""
            assert err.count("error:") == 1 and message in err and path in err
        assert not out.exists()

    @pytest.mark.parametrize("lm", ["reversed", "words"])
    def test_joint_ngram_vocabulary_checked_at_load(self, corpus, word_lm_file, tmp_path, capsys, lm):
        # an LM on the corpus tokens in another order, or on a vocabulary of
        # another size, fails before any output, naming its scorer and file
        from fusionkit.core import Vocabulary, read_vocabulary
        from fusionkit.lm import save_ngram, train_ngram

        path = word_lm_file
        if lm == "reversed":
            vocab = read_vocabulary(corpus / "vocab.txt")
            plain = [i for i in range(vocab.size) if not vocab.is_special(i)]
            tokens = list(vocab.tokens)
            for i, j in zip(plain, reversed(plain)):
                tokens[i] = vocab.tokens[j]
            reversed_vocab = Vocabulary.from_tokens(tokens)
            path = tmp_path / "reversed.fklm"
            save_ngram(train_ngram(reversed_vocab, [plain[:3], plain[2:4]], order=2), path)
        cfg = {"strategy": "joint", "scorers": [
            {"name": "ctc", "kind": "ctc_prefix", "weight": 1.0},
            {"name": "lm", "kind": "ngram", "weight": 0.5, "path": str(path)},
        ]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        for command in (
            ["decode", str(corpus), str(out), "--config", str(cfg_path)],
            ["bench", str(corpus), "--config", str(cfg_path)],
        ):
            code, stdout, err = run(command, capsys)
            assert code == 1 and stdout == ""
            assert err.count("error:") == 1 and "scorer 'lm'" in err and str(path) in err
            assert "not on the corpus vocabulary" in err
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["ctc-greedy", "timesync", "delayed", "joint"])
    def test_posteriorgram_width_must_match_vocabulary(
        self, corpus, lm_file, word_lm_file, tmp_path, capsys, strategy
    ):
        from fusionkit.core import Posteriorgram, read_posteriorgram, write_posteriorgram

        broken = tmp_path / "broken"
        broken.mkdir()
        for path in corpus.iterdir():
            (broken / path.name).write_bytes(path.read_bytes())
        # one label more than vocab.txt, the extra one never likely
        lp = read_posteriorgram(corpus / "utt0002.fkpg").log_probs
        wide = np.concatenate([lp, np.full((lp.shape[0], 1), -np.inf)], axis=1)
        write_posteriorgram(Posteriorgram(wide), broken / "utt0002.fkpg")
        cfg = {"strategy": strategy, "beam": 2, "lm_path": str(lm_file), "lm_weight": 0.3}
        if strategy == "delayed":
            cfg["lm_path"] = str(word_lm_file)
        if strategy == "joint":
            cfg["scorers"] = [{"name": "ctc", "kind": "ctc_prefix", "weight": 1.0}]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        for command in (
            ["decode", str(broken), str(tmp_path / "o"), "--config", str(cfg_path)],
            ["bench", str(broken), "--config", str(cfg_path)],
        ):
            code, _, err = run(command, capsys)
            assert code == 1
            assert err.count("error:") == 1
            assert "utt0002" in err and "labels" in err

    @pytest.mark.parametrize("strategy", ["timesync", "delayed"])
    def test_lockstep_chunks_match_one_utterance_runs(
        self, lm_file, word_lm_file, tmp_path, capsys, monkeypatch, strategy
    ):
        from fusionkit import cli

        corpus = tmp_path / "corpus"
        assert main(["synth", str(corpus), "--seed", "3", "--utts", "7", "--noise", "0.4",
                     "--min-words", "1", "--max-words", "5"]) == 0
        lm = lm_file if strategy == "timesync" else word_lm_file
        outs = []
        for size in (cli.LOCKSTEP_UTTERANCES, 3, 1):
            monkeypatch.setattr(cli, "LOCKSTEP_UTTERANCES", size)
            out = tmp_path / f"out{size}"
            code, _, _ = run(
                ["decode", str(corpus), str(out), "--strategy", strategy, "--beam", "4",
                 "--lm-path", str(lm), "--lm-weight", "0.5"],
                capsys,
            )
            assert code == 0
            outs.append(out)
        for out in outs[1:]:
            for name in ["hyps.txt"] + [f"utt{i:04d}.nbest" for i in range(7)]:
                assert (out / name).read_bytes() == (outs[0] / name).read_bytes()
            # the counters; timing lines differ from run to run
            stats = (out / "stats.txt").read_text().splitlines()[:5]
            assert stats == (outs[0] / "stats.txt").read_text().splitlines()[:5]

    @pytest.mark.parametrize("strategy", ["timesync", "delayed"])
    def test_failed_lockstep_names_its_utterance(
        self, corpus, lm_file, word_lm_file, tmp_path, capsys, monkeypatch, strategy
    ):
        from fusionkit import cli
        from fusionkit.core import read_posteriorgram

        culprit = read_posteriorgram(corpus / "utt0002.fkpg").log_probs
        search = cli.timesync_ctc_beam

        def failing(pgs, *args, **kwargs):
            if any(np.array_equal(pg.log_probs, culprit) for pg in pgs):
                raise ValueError("search broke")
            return search(pgs, *args, **kwargs)

        monkeypatch.setattr(cli, "timesync_ctc_beam", failing)
        lm = lm_file if strategy == "timesync" else word_lm_file
        code, _, err = run(
            ["decode", str(corpus), str(tmp_path / "o"), "--strategy", strategy,
             "--lm-path", str(lm), "--lm-weight", "0.5"],
            capsys,
        )
        assert code == 1
        assert err.count("error:") == 1
        assert "decoding utt0002 failed: search broke" in err
        assert "utt0000" not in err

    def test_failed_lockstep_names_it_when_no_utterance_fails_alone(
        self, corpus, tmp_path, capsys, monkeypatch
    ):
        from fusionkit import cli

        search = cli.timesync_ctc_beam

        def failing(pgs, *args, **kwargs):
            if len(pgs) > 1:
                raise ValueError("lockstep broke")
            return search(pgs, *args, **kwargs)

        monkeypatch.setattr(cli, "timesync_ctc_beam", failing)
        code, _, err = run(["decode", str(corpus), str(tmp_path / "o"), "--strategy", "timesync"], capsys)
        assert code == 1
        assert err.count("error:") == 1 and "failed: lockstep broke" in err
        assert all(f"utt{i:04d}" in err for i in range(4))

    def test_joint_corpus_run_matches_one_utterance_runs(self, lm_file, tmp_path, capsys):
        # one lockstep over the corpus gives each utterance the n-best file,
        # hyps.txt line and counters of a run that decodes it alone
        corpus = tmp_path / "corpus"
        assert main(["synth", str(corpus), "--seed", "3", "--utts", "7", "--noise", "0.4",
                     "--min-words", "1", "--max-words", "5"]) == 0
        cfg = {
            "strategy": "joint",
            "beam": 4,
            "length_norm": True,
            "scorers": [
                {"name": "ctc", "kind": "ctc_prefix", "weight": 1.0},
                {"name": "lm", "kind": "ngram", "weight": 0.5, "path": str(lm_file)},
                {"name": "dec", "kind": "decoder_lm", "weight": 0.05},
            ],
        }
        cfg_path = tmp_path / "joint.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, _ = run(["decode", str(corpus), str(tmp_path / "all"), "--config", str(cfg_path)], capsys)
        assert code == 0
        hyps = (tmp_path / "all" / "hyps.txt").read_text().splitlines()
        refs = (corpus / "refs.txt").read_text().splitlines()
        totals = [0, 0, 0, 0, 0]
        for i, ref in enumerate(refs):
            utt_id = ref.split("\t", 1)[0]
            alone = tmp_path / f"alone{i}"
            alone.mkdir()
            (alone / "vocab.txt").write_bytes((corpus / "vocab.txt").read_bytes())
            (alone / "refs.txt").write_text(ref + "\n")
            (alone / f"{utt_id}.fkpg").write_bytes((corpus / f"{utt_id}.fkpg").read_bytes())
            out = tmp_path / f"out{i}"
            code, _, _ = run(["decode", str(alone), str(out), "--config", str(cfg_path)], capsys)
            assert code == 0
            nbest = f"{utt_id}.nbest"
            assert (out / nbest).read_bytes() == (tmp_path / "all" / nbest).read_bytes()
            assert (out / "hyps.txt").read_text() == hyps[i] + "\n"
            counters = [int(line.split("\t")[1]) for line in (out / "stats.txt").read_text().splitlines()[:5]]
            for k, value in enumerate(counters):  # peaks are maxima, the rest sums
                totals[k] = max(totals[k], value) if k in (1, 2) else totals[k] + value
        stats = (tmp_path / "all" / "stats.txt").read_text().splitlines()[:5]
        assert [int(line.split("\t")[1]) for line in stats] == totals

    @pytest.mark.parametrize("command", ["decode", "bench"])
    def test_no_finite_hypothesis_names_its_utterance(self, corpus, tmp_path, capsys, command):
        # a posteriorgram with all mass on </s>: no frame-synchronous prefix
        # ends with a finite score, while joint decoding ends with the empty
        # hypothesis
        from fusionkit.core import Posteriorgram, read_vocabulary, write_posteriorgram

        broken = tmp_path / "broken"
        broken.mkdir()
        for path in corpus.iterdir():
            (broken / path.name).write_bytes(path.read_bytes())
        vocab = read_vocabulary(corpus / "vocab.txt")
        lp = np.full((3, vocab.size), -np.inf)
        lp[:, vocab.eos_id] = 0.0
        write_posteriorgram(Posteriorgram(lp), broken / "utt0002.fkpg")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"strategy": "timesync", "beam": 2}))
        if command == "decode":
            argv = ["decode", str(broken), str(tmp_path / "o"), "--config", str(cfg_path)]
        else:
            argv = ["bench", str(broken), "--config", str(cfg_path)]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err.count("error:") == 1 and "Traceback" not in err
        assert "utt0002" in err and "finite score" in err

        cfg_path.write_text(json.dumps({
            "strategy": "joint", "beam": 2,
            "scorers": [{"name": "ctc", "kind": "ctc_prefix", "weight": 1.0}],
        }))
        out = tmp_path / "joint"
        code, _, _ = run(["decode", str(broken), str(out), "--config", str(cfg_path)], capsys)
        assert code == 0
        assert "utt0002\t\n" in (out / "hyps.txt").read_text()
        assert (out / "utt0002.nbest").read_text() == "1\t0.0\tctc=0.0\t\n"

    def test_config_json_round_trips(self, corpus, tmp_path, capsys):
        # config.json holds the checked config, flags and defaults filled in,
        # and reads back to an equal one
        from fusionkit.cli import DecodeConfig

        cfg = {
            "strategy": "joint",
            "beam": 2,
            "max_len_factor": 1,
            "compress_threshold": float("inf"),  # merges nothing
            "scorers": [
                {"name": "ctc", "kind": "ctc_prefix", "weight": 1},
                {"name": "dec", "kind": "decoder_lm", "weight": 0.05, "seed": 2, "prompt": [3, 4]},
            ],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        argv = ["decode", str(corpus), str(out), "--config", str(cfg_path), "--beam", "3"]
        assert run(argv, capsys)[0] == 0
        expected = DecodeConfig.from_json(cfg_path, beam=3)
        assert DecodeConfig.from_json(out / "config.json") == expected
        assert expected.beam == 3

    def test_decoder_weights_from_file(self, corpus, tmp_path, capsys):
        # a decoder_lm reads its weights_path: the seed-4 weights saved as
        # an FKWT file decode byte-identically to "seed": 4
        from fusionkit.core import read_vocabulary
        from fusionkit.decoder import Hyperparams, save_weights, seeded_weights

        size = read_vocabulary(corpus / "vocab.txt").size
        weights = tmp_path / "dec.fkwt"
        save_weights(seeded_weights(Hyperparams(vocab_size=size), 4), weights)
        outs = []
        for name, source in [("seed", {"seed": 4}), ("file", {"weights_path": str(weights)})]:
            cfg = {"strategy": "joint", "beam": 3, "scorers": [
                {"name": "ctc", "kind": "ctc_prefix", "weight": 1.0},
                {"name": "dec", "kind": "decoder_lm", "weight": 0.5, **source},
            ]}
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            outs.append(tmp_path / name)
            assert run(["decode", str(corpus), str(outs[-1]), "--config", str(cfg_path)], capsys)[0] == 0
        for name in ["hyps.txt"] + [f"utt{i:04d}.nbest" for i in range(4)]:
            assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()

    def test_decoder_weights_for_another_vocabulary_fail_cleanly(self, corpus, tmp_path, capsys):
        from fusionkit.decoder import Hyperparams, save_weights, seeded_weights

        weights = tmp_path / "dec.fkwt"
        save_weights(seeded_weights(Hyperparams(vocab_size=5), 4), weights)
        cfg = {"strategy": "joint", "scorers": [
            {"name": "dec", "kind": "decoder_lm", "weight": 1.0, "weights_path": str(weights)},
        ]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        code, stdout, err = run(["decode", str(corpus), str(out), "--config", str(cfg_path)], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and "scorer 'dec'" in err and "5 labels" in err
        assert not out.exists()

    def test_corrupt_posteriorgram_names_utterance_and_file(self, corpus, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        for path in corpus.iterdir():
            (broken / path.name).write_bytes(path.read_bytes())
        bad = broken / "utt0001.fkpg"
        bad.write_bytes(bad.read_bytes()[:-7])
        out = tmp_path / "o"
        code, stdout, err = run(["decode", str(broken), str(out)], capsys)
        assert code == 1
        assert err.count("error:") == 1 and "utt0001" in err and str(bad) in err
        assert not list(out.glob("*.nbest"))

    def test_zero_frame_duration_fails_cleanly(self, corpus, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(corpus, broken)
        bad = broken / "utt0001.fkpg"
        data = bytearray(bad.read_bytes())
        data[16:20] = bytes(4)  # the header's frame duration in microseconds
        bad.write_bytes(bytes(data))
        code, stdout, err = run(["decode", str(broken), str(tmp_path / "o")], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and str(bad) in err and "frame_duration_ms must be positive" in err

    def test_unknown_config_key_rejected(self, corpus, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"strategy": "joint", "bogus": 1}))
        code, _, err = run(["decode", str(corpus), str(tmp_path / "o"), "--config", str(cfg_path)], capsys)
        assert code == 1
        assert "bogus" in err


class TestLockstepSchedule:
    """Utterances go to the searches longest first: a joint lockstep takes
    at least LOCKSTEP_ROWS // beam of them, then more within the row-frame
    budget.  Which utterances share a lockstep changes no output."""

    @staticmethod
    def joint_config(tmp_path, *scorers):
        cfg_path = tmp_path / "joint.json"
        scorers = [{"name": "ctc", "kind": "ctc_prefix", "weight": 1.0}, *scorers]
        cfg_path.write_text(json.dumps({"strategy": "joint", "beam": 16, "scorers": scorers}))
        return str(cfg_path)

    @staticmethod
    def record_locksteps(monkeypatch):
        from fusionkit import cli

        frames, search = [], cli.Session.search

        def recording(session, pgs, stats):
            frames.append([pg.num_frames for pg in pgs])
            return search(session, pgs, stats)

        monkeypatch.setattr(cli.Session, "search", recording)
        return frames

    def test_corpus_listed_longest_first_ties_in_refs_order(self, corpus, tmp_path):
        from fusionkit.cli import read_corpus_dir
        from fusionkit.core import read_posteriorgram

        copy = tmp_path / "corpus"
        copy.mkdir()
        for path in corpus.iterdir():
            (copy / path.name).write_bytes(path.read_bytes())
        for name in ("b", "a"):  # ties with utt0002
            (copy / f"{name}.fkpg").write_bytes((corpus / "utt0002.fkpg").read_bytes())
        ids = ["b", "utt0003", "utt0002", "utt0000", "a", "utt0001"]
        (copy / "refs.txt").write_text("".join(f"{u}\tw\n" for u in ids))
        _, utts = read_corpus_dir(copy)
        listed = [u for u, _, _ in utts]
        frames = [read_posteriorgram(path).num_frames for _, path, _ in utts]
        assert sorted(listed) == sorted(ids)
        assert frames == sorted(frames, reverse=True) and frames[0] > frames[-1]
        ties = [u for u in listed if u in ("a", "b", "utt0002")]
        assert ties == ["b", "utt0002", "a"]

    @pytest.mark.parametrize("strategy", ["joint", "timesync"])
    def test_shuffled_refs_decode_identically(self, lm_file, tmp_path, capsys, strategy):
        corpus = tmp_path / "corpus"
        assert main(["synth", str(corpus), "--seed", "3", "--utts", "7", "--noise", "0.4",
                     "--min-words", "1", "--max-words", "5"]) == 0
        shuffled = tmp_path / "shuffled"
        shuffled.mkdir()
        for path in corpus.iterdir():
            (shuffled / path.name).write_bytes(path.read_bytes())
        lines = (corpus / "refs.txt").read_text().splitlines()
        (shuffled / "refs.txt").write_text("\n".join(lines[i] for i in (4, 1, 6, 0, 3, 5, 2)) + "\n")
        if strategy == "joint":
            flags = ["--config", self.joint_config(
                tmp_path, {"name": "lm", "kind": "ngram", "weight": 0.5, "path": str(lm_file)},
                {"name": "dec", "kind": "decoder_lm", "weight": 0.05})]
        else:
            flags = ["--strategy", "timesync", "--beam", "4", "--lm-path", str(lm_file),
                     "--lm-weight", "0.5"]
        outs = [tmp_path / "out", tmp_path / "out_shuffled"]
        for source, out in zip((corpus, shuffled), outs):
            assert run(["decode", str(source), str(out), *flags], capsys)[0] == 0
        for name in ["hyps.txt"] + [f"utt{i:04d}.nbest" for i in range(7)]:
            assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()
        counters = (outs[0] / "stats.txt").read_text().splitlines()[:5]
        assert (outs[1] / "stats.txt").read_text().splitlines()[:5] == counters

    def test_short_utterances_fill_the_row_frame_budget(self, tmp_path, capsys, monkeypatch):
        from fusionkit import cli

        corpus = tmp_path / "corpus"
        assert main(["synth", str(corpus), "--seed", "0", "--utts", "17", "--noise", "0.3"]) == 0
        frames = self.record_locksteps(monkeypatch)
        cfg, least, outs = self.joint_config(tmp_path), cli.LOCKSTEP_ROWS // 16, []
        for cap in (cli.LOCKSTEP_UTTERANCES, 5):
            monkeypatch.setattr(cli, "LOCKSTEP_UTTERANCES", cap)
            frames.clear()
            outs.append(tmp_path / f"out{cap}")
            assert run(["decode", str(corpus), str(outs[-1]), "--config", cfg], capsys)[0] == 0
            assert sum(map(len, frames)) == 17
            assert all(least <= len(f) <= cap for f in frames[:-1]) and len(frames[-1]) <= cap
            for lockstep, after in zip(frames, frames[1:]):
                if len(lockstep) > least:  # each one past the floor within the budget
                    assert 16 * sum(lockstep) <= cli.LOCKSTEP_ROW_FRAMES
                if len(lockstep) < cap:  # and the next one would not have fit
                    assert 16 * (sum(lockstep) + after[0]) > cli.LOCKSTEP_ROW_FRAMES
            assert least < max(map(len, frames)) <= cap
        for name in ["hyps.txt"] + [f"utt{i:04d}.nbest" for i in range(17)]:
            assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()

    def test_long_utterances_keep_the_floor(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus"
        assert main(["synth", str(corpus), "--seed", "1", "--utts", "5", "--noise", "0.3",
                     "--min-words", "20", "--max-words", "24"]) == 0
        frames = self.record_locksteps(monkeypatch)
        cfg = self.joint_config(tmp_path)
        assert run(["decode", str(corpus), str(tmp_path / "o"), "--config", cfg], capsys)[0] == 0
        assert [len(f) for f in frames] == [4, 1]
        assert min(map(min, frames)) > 160


class TestSearchAccounting:
    def test_audio_and_wall_time_split_by_frames(self, corpus):
        # each utterance of a lockstep gets its own audio and its frames'
        # share of the search's wall time: one time per frame, one RTF
        from fusionkit.cli import DecodeConfig, Session, read_corpus_dir, read_posteriorgrams
        from fusionkit.search import DecodeStats

        vocab, utts = read_corpus_dir(corpus)
        pgs = [pg for _, pg in read_posteriorgrams(utts)]
        assert len({pg.num_frames for pg in pgs}) > 1
        ctc = {"name": "ctc", "kind": "ctc_prefix", "weight": 1.0}
        for strategy in ("ctc-greedy", "timesync", "joint"):
            scorers = [ctc] if strategy == "joint" else []
            cfg = DecodeConfig(strategy=strategy, beam=4, scorers=scorers)
            stats = [DecodeStats() for _ in pgs]
            Session.from_config(cfg, vocab).search(pgs, stats)
            assert [s.audio_seconds for s in stats] == [pg.duration_seconds for pg in pgs]
            per_frame = [s.wall_time_s / pg.num_frames for s, pg in zip(stats, pgs)]
            assert per_frame[0] > 0
            assert per_frame == pytest.approx([per_frame[0]] * len(pgs), rel=1e-9)
            rtfs = [s.rtf for s in stats]
            assert rtfs == pytest.approx([rtfs[0]] * len(pgs), rel=1e-9)


class TestWerCommand:
    def test_identical_files(self, tmp_path, capsys):
        refs = tmp_path / "refs.txt"
        refs.write_text("u1\thello world\nu2\tgood day\n")
        code, stdout, _ = run(["wer", str(refs), str(refs)], capsys)
        assert code == 0
        assert "WER\t0.0000" in stdout

    def test_case_normalization(self, tmp_path, capsys):
        refs = tmp_path / "refs.txt"
        hyps = tmp_path / "hyps.txt"
        refs.write_text("u1\tHello World\n")
        hyps.write_text("u1\thello world\n")
        code, stdout, _ = run(["wer", str(refs), str(hyps)], capsys)
        assert "WER\t0.0000" in stdout
        code, stdout, _ = run(["wer", str(refs), str(hyps), "--normalization", "none"], capsys)
        assert "WER\t1.0000" in stdout

    @pytest.mark.parametrize("text", ["", "u1\t\n"], ids=["empty", "no-words"])
    def test_no_reference_words_fails_cleanly(self, tmp_path, capsys, text):
        refs = tmp_path / "refs.txt"
        refs.write_text(text)
        code, stdout, err = run(["wer", str(refs), str(refs)], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and "needs at least one reference word" in err

    @pytest.mark.parametrize("missing", ["refs", "hyps"])
    def test_missing_file_fails_cleanly(self, tmp_path, capsys, missing):
        present, gone = tmp_path / "present.txt", tmp_path / "gone.txt"
        present.write_text("u1\thello\n")
        files = [gone, present] if missing == "refs" else [present, gone]
        code, stdout, err = run(["wer"] + [str(f) for f in files], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and str(gone) in err

    def test_missing_hypotheses_fail_cleanly(self, tmp_path, capsys):
        refs, hyps = tmp_path / "refs.txt", tmp_path / "hyps.txt"
        refs.write_text("a\tone two\nb\tfive\nc\tsix\n")
        hyps.write_text("b\tfive\n")
        code, stdout, err = run(["wer", str(refs), str(hyps)], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and "hypotheses missing for ids: ['a', 'c']" in err

    @pytest.mark.parametrize(
        "refs, hyps, bad, line",
        [
            ("a\tone two\na\tthree four\nb\tfive\n", "a\tone two\nb\tfive\nc\textra words\n", "refs", 2),
            ("a\tone two\nb\tfive\n", "a\tone two\nb\tfive\na\tone\n", "hyps", 3),
            ("a\tone two\nb\tfive\n", "a\tone two\nb\tfive\nc\textra words\n", "hyps", 3),
        ],
        ids=["repeated-ref", "repeated-hyp", "hyp-without-ref"],
    )
    def test_bad_ids_name_file_and_line(self, tmp_path, capsys, refs, hyps, bad, line):
        files = {"refs": tmp_path / "refs.txt", "hyps": tmp_path / "hyps.txt"}
        files["refs"].write_text(refs)
        files["hyps"].write_text(hyps)
        code, stdout, err = run(["wer", str(files["refs"]), str(files["hyps"])], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and f"{files[bad]} line {line}:" in err


class TestPplCommand:
    def test_uniform_table_lm_reports_outcome_count(self, tmp_path, capsys):
        from fusionkit.lm import save_table_lm
        from fusionkit.core import Vocabulary

        from fixtures import uniform_table_lm

        vocab = Vocabulary.from_tokens(
            ["<blank>", "<s>", "</s>"] + [chr(ord("a") + i) for i in range(9)]
        )
        model_path = tmp_path / "uniform.json"
        save_table_lm(uniform_table_lm(vocab), model_path)
        text = tmp_path / "text.txt"
        text.write_text("abc\nba\n")
        code, stdout, _ = run(["ppl", str(model_path), str(text)], capsys)
        assert code == 0
        assert "token_ppl\t10.0000" in stdout

    def test_ngram_ppl_runs(self, lm_file, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("the and\n")
        code, stdout, _ = run(["ppl", str(lm_file), str(text)], capsys)
        assert code == 0
        assert "token_ppl" in stdout and "word_ppl" in stdout

    def test_text_scored_once(self, lm_file, tmp_path, capsys, monkeypatch):
        # token and word perplexity come from one pass over the text
        from fusionkit import cli, lm

        calls, score = [], lm.lm_logprob

        def counting(model, seq):
            calls.append(seq)
            return score(model, seq)

        for module in (lm, cli):  # wherever the command looks it up
            monkeypatch.setattr(module, "lm_logprob", counting, raising=False)
        text = tmp_path / "t.txt"
        text.write_text("the and\n" * 50)
        code, stdout, _ = run(["ppl", str(lm_file), str(text)], capsys)
        assert code == 0
        assert len(calls) == 50
        # the figures of one sum over the lines, to the digit
        model = cli.load_lm(lm_file)
        seq = lm.retokenize(model.vocab, "the and")
        total = sum(score(model, seq) for _ in range(50))
        token_ppl = math.exp(-total / (50 * (len(seq) + 1)))
        assert stdout == f"token_ppl\t{token_ppl:.4f}\nword_ppl\t{math.exp(-total / 100):.4f}\n"

    def test_lm_missing_special_flag_fails_cleanly(self, lm_file, tmp_path, capsys):
        def drop_blank(text):
            lines = text.split("\n")
            blank_at = next(i for i, line in enumerate(lines) if line.split("\t")[1] == "blank")
            lines[blank_at] = lines[blank_at].split("\t")[0] + "\t"
            return "\n".join(lines)

        model = tmp_path / "noblank.fklm"
        model.write_bytes(fklm_vocab_edited(lm_file.read_bytes(), drop_blank))
        text = tmp_path / "t.txt"
        text.write_text("the and\n")
        code, stdout, err = run(["ppl", str(model), str(text)], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and "missing: blank" in err

    @pytest.mark.parametrize(
        "case", ["fklm-header-without-tab", "table-lm-without-vocab", "table-lm-truncated"]
    )
    def test_malformed_lm_fails_cleanly(self, lm_file, tmp_path, capsys, case):
        from fusionkit.core import Vocabulary
        from fusionkit.lm import save_table_lm

        from fixtures import uniform_table_lm

        model = tmp_path / "bad.lm"
        if case == "fklm-header-without-tab":
            # a vocabulary line of the header, which FKLM v2 keeps as text
            model.write_bytes(fklm_vocab_edited(lm_file.read_bytes(), lambda t: t.replace("\t", " ", 1)))
        else:
            vocab = Vocabulary.from_tokens(["<blank>", "<s>", "</s>", "a", "b"])
            save_table_lm(uniform_table_lm(vocab), model)
            doc = model.read_text()
            if case == "table-lm-without-vocab":
                doc = json.dumps({k: v for k, v in json.loads(doc).items() if k != "vocab"})
            else:
                doc = doc[: len(doc) // 2]
            model.write_text(doc)
        text = tmp_path / "t.txt"
        text.write_text("the and\n")
        code, stdout, err = run(["ppl", str(model), str(text)], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and str(model) in err


    @pytest.mark.parametrize("command", ["ppl", "decode"])
    def test_text_fklm_asks_for_lm_train(self, corpus, tmp_path, capsys, command):
        # the FKLM v1 text format, which lm-train wrote before FKLM v2
        model = tmp_path / "old.fklm"
        model.write_text("FKLM v1\norder\t2\nbackoff\t0.4\n[vocab]\n<blank>\tblank\n[ngrams]\n")
        text = tmp_path / "t.txt"
        text.write_text("the and\n")
        out = tmp_path / "out"
        argv = {"ppl": ["ppl", str(model), str(text)],
                "decode": ["decode", str(corpus), str(out), "--strategy", "timesync", "--lm-path", str(model),
                           "--lm-weight", "0.3"]}
        code, stdout, err = run(argv[command], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and err.count("\n") == 1
        assert str(model) in err and "re-run lm-train" in err
        assert not out.exists()

    def test_lm_train_bytes_do_not_depend_on_the_process(self, corpus, tmp_path):
        # two interpreters with other string hashes write the same FKLM bytes
        import os
        import subprocess
        import sys

        text = tmp_path / "train.txt"
        refs = (corpus / "refs.txt").read_text().splitlines()
        text.write_text("\n".join(line.split("\t", 1)[1] for line in refs) + "\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        written = []
        for seed in ("1", "2"):
            out = tmp_path / f"lm{seed}.fklm"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            subprocess.run([sys.executable, "-m", "fusionkit.cli", "lm-train", str(text),
                            str(corpus / "vocab.txt"), str(out), "--order", "3"],
                           env=env, check=True, capture_output=True)
            written.append(out.read_bytes())
        assert written[0] == written[1] and written[0].startswith(b"FKLM\x02\0\0\0")


class TestCorpusToolsFailCleanly:
    """A bad argument or input ends in one error line and exit 1, with
    nothing written."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--noise", "1.5"], "noise must lie in [0, 1)"),
            (["--utts", "0"], "at least one utterance"),
            (["--min-words", "5", "--max-words", "2"], "ranges must be nonempty"),
            (["--noise", "5e-324"], "floor mass underflows to 0"),
            (["--seed", "-1"], "seed must be >= 0"),
        ],
    )
    def test_synth(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        code, stdout, err = run(["synth", str(out), *flags], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            ("the and\n", ["--order", "0"], "order must be >= 1"),
            ("", [], "holds no text"),
            ("\n\n", [], "holds no text"),
            (None, [], "train.txt"),
            ("the and\n", ["--backoff", "0"], "backoff factor must be finite and > 0"),
            ("the and\n", ["--backoff", "-1"], "backoff factor must be finite and > 0"),
            ("the and\n", ["--order", "400"], "at most 16"),
            ("hello w\u00f6rld\n", [], "train.txt: cannot segment 'w\u00f6rld'"),
        ],
    )
    def test_lm_train(self, corpus, tmp_path, capsys, text, flags, message):
        path = tmp_path / "train.txt"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "lm.fklm"
        code, stdout, err = run(["lm-train", str(path), str(corpus / "vocab.txt"), str(out), *flags], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and message in err
        assert not out.exists()

    def test_lm_train_binary_vocabulary(self, tmp_path, capsys):
        (tmp_path / "train.txt").write_text("the and\n")
        (tmp_path / "vocab.txt").write_bytes(b"\xff\xfe\x00bad\n")
        out = tmp_path / "lm.fklm"
        code, stdout, err = run(
            ["lm-train", str(tmp_path / "train.txt"), str(tmp_path / "vocab.txt"), str(out)], capsys
        )
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and "not UTF-8" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["wer", "ppl", "lm-train"])
    def test_unknown_normalization(self, corpus, lm_file, tmp_path, capsys, command):
        text = tmp_path / "text.txt"
        text.write_text("u1\tthe and\n")
        out = tmp_path / "lm.fklm"
        argv = {
            "wer": ["wer", str(text), str(text)],
            "ppl": ["ppl", str(lm_file), str(text)],
            "lm-train": ["lm-train", str(text), str(corpus / "vocab.txt"), str(out)],
        }[command]
        code, stdout, err = run(argv + ["--normalization", "bogus"], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and "unknown normalization mode 'bogus'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [("", "holds no text"), (None, "text.txt"),
         ("hello w\u00f6rld\n", "text.txt: cannot segment 'w\u00f6rld'")],
    )
    def test_ppl(self, lm_file, tmp_path, capsys, text, message):
        path = tmp_path / "text.txt"
        if text is not None:
            path.write_text(text)
        code, stdout, err = run(["ppl", str(lm_file), str(path)], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and message in err


class TestBenchCommand:
    def test_grid_table(self, tmp_path, capsys):
        noisy = tmp_path / "noisy"
        code = main(["synth", str(noisy), "--seed", "3", "--utts", "3", "--noise", "0.3"])
        assert code == 0
        capsys.readouterr()
        cfg = {
            "strategy": "joint",
            "beam": 2,
            "scorers": [{"name": "ctc", "kind": "ctc_prefix", "weight": 1.0}],
        }
        cfg_path = tmp_path / "joint.json"
        cfg_path.write_text(json.dumps(cfg))
        code, stdout, _ = run(
            [
                "bench", str(noisy), "--config", str(cfg_path),
                "--top-k", "none,24", "--beam", "2",
            ],
            capsys,
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0].startswith("top_k\ttau\tbeam")
        assert len(lines) == 3
        full = lines[1].split("\t")
        pruned = lines[2].split("\t")
        # with the full support live, pruning shrinks the candidate counter
        assert int(pruned[5]) < int(full[5])
        assert int(pruned[6]) < int(full[6])


    @pytest.mark.parametrize(
        "flag, value, bad",
        [("--top-k", "abc", "abc"), ("--beam", "2,x", "x"), ("--compress-threshold", "0.9,y", "y")],
    )
    def test_bad_grid_value_fails_before_reading(
        self, corpus, tmp_path, capsys, monkeypatch, flag, value, bad
    ):
        from fusionkit import cli

        def unread(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli, "read_posteriorgram", unread)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"strategy": "timesync", "beam": 2}))
        code, stdout, err = run(["bench", str(corpus), "--config", str(cfg_path), flag, value], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and "Traceback" not in err
        assert flag in err and repr(bad) in err

    def test_refs_without_words_fail_before_header(self, corpus, tmp_path, capsys):
        bare = tmp_path / "bare"
        shutil.copytree(corpus, bare)
        (bare / "refs.txt").write_text("utt0000\t \n")
        code, stdout, err = run(["bench", str(bare)], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and "holds no reference words" in err

    def test_top_k_above_vocabulary_fails_before_header(self, corpus, capsys):
        # the corpus vocabulary has 179 labels: the grid point k = 500 fails
        # before the table's header or its first row
        code, stdout, err = run(["bench", str(corpus), "--top-k", "3,500"], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and "top_k must be at most the 179 labels" in err


class TestExportAttnCommand:
    def test_writes_container(self, corpus, tmp_path, capsys):
        out = tmp_path / "attn.fkwt"
        code, _, _ = run(
            ["export-attn", str(corpus / "vocab.txt"), "the and", str(out), "--seed", "1"],
            capsys,
        )
        assert code == 0
        maps = read_tensor_container(out)
        assert any(name.startswith("layer0.head") for name in maps)

    @pytest.mark.parametrize("case", ["missing-tensor", "name-not-utf8"])
    def test_malformed_weights_fail_cleanly(self, corpus, tmp_path, capsys, case):
        from fusionkit.decoder import Hyperparams, save_weights, seeded_weights, write_tensor_container

        vocab = corpus / "vocab.txt"
        bad = tmp_path / "BAD.fkwt"
        hp = Hyperparams(layers=1, dim=8, heads=2, vocab_size=len(vocab.read_text().splitlines()))
        save_weights(seeded_weights(hp, 0), bad)
        if case == "missing-tensor":
            tensors = read_tensor_container(bad)
            del tensors["layer0.cross_attn.wk"]
            write_tensor_container(tensors, bad)
            message = "missing tensor 'layer0.cross_attn.wk'"
        else:
            data = bad.read_bytes()
            at = data.index(b"embed")
            bad.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
            message = "not UTF-8"
        out = tmp_path / "attn.fkwt"
        code, stdout, err = run(
            ["export-attn", str(vocab), "the and", str(out), "--weights", str(bad)], capsys
        )
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and "Traceback" not in err
        assert str(bad) in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "case, flags, message",
        [
            ("interface", ["--interface", "bogus"], "unknown interface kind 'bogus'"),
            ("prefix-attention", ["--prefix-attention", "both"], "unknown prefix attention 'both'"),
            ("merged-bidirectional", ["--interface", "merged", "--prefix-attention", "bidirectional"],
             "requires the prefix kind"),
            ("aed-without-audio", ["--interface", "aed"], "aed decoding requires audio"),
            ("negative-seed", ["--seed", "-1"], "--seed must be an integer >= 0"),
            ("audio-width", [], "audio dim 5 does not match decoder dim 32"),
            ("weights-vocabulary", [], "weights of 7 labels, not 179"),
        ],
    )
    def test_bad_argument_fails_cleanly(self, corpus, tmp_path, capsys, case, flags, message):
        from fusionkit.core import EncoderOutput, write_encoder_output
        from fusionkit.decoder import Hyperparams, save_weights, seeded_weights

        if case == "audio-width":
            audio = tmp_path / "audio.fkeo"
            write_encoder_output(EncoderOutput(np.zeros((3, 5))), audio)
            flags = ["--audio", str(audio)]
        elif case == "weights-vocabulary":
            weights = tmp_path / "other.fkwt"
            save_weights(seeded_weights(Hyperparams(layers=1, dim=8, heads=2, vocab_size=7), 0), weights)
            flags = ["--weights", str(weights)]
        out = tmp_path / "attn.fkwt"
        code, stdout, err = run(["export-attn", str(corpus / "vocab.txt"), "the and", str(out), *flags], capsys)
        assert code == 1 and stdout == ""
        assert err.count("error:") == 1 and "Traceback" not in err and message in err
        assert not out.exists()


class TestFuzzedRefs:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(
        edit=st.sampled_from(["truncate", "flip", "insert"]),
        where=st.floats(0, 1),
        flip=st.integers(1, 255),
        insert=st.binary(min_size=1, max_size=12),
    )
    def test_decode_and_bench_exit_cleanly(self, corpus, edit, where, flip, insert):
        # a truncated, flipped or grown refs.txt decodes and benches, or ends
        # in one error line and exit 1; no exception leaves main
        refs = fuzzed((corpus / "refs.txt").read_bytes(), edit, where, flip, insert)
        with tempfile.TemporaryDirectory() as tmp:
            fuzz = Path(tmp) / "corpus"
            shutil.copytree(corpus, fuzz)
            (fuzz / "refs.txt").write_bytes(refs)
            for argv in (["decode", str(fuzz), str(Path(tmp) / "out")], ["bench", str(fuzz), "--beam", "1"]):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
                err = stderr.getvalue()
                if code == 0:
                    assert err == ""
                else:
                    assert code == 1 and stdout.getvalue() == ""
                    assert err.startswith("error: ") and err.count("\n") == 1


class TestFuzzedNGramFile:
    """A byte-edited FKLM file, or one whose bytes begin with another
    codec's file, read by ``ppl``, a timesync ``decode`` that fuses it and a
    joint ``decode`` that scores with it: each runs, or ends in exit 1 with
    one ``error:`` line and writes no n-best file or ``hyps.txt``."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory, corpus, lm_file):
        from fusionkit.core import read_vocabulary
        from fusionkit.decoder import Hyperparams, save_weights, seeded_weights
        from fusionkit.lm import save_table_lm

        from fixtures import uniform_table_lm

        root = tmp_path_factory.mktemp("fuzz_lm")
        one = root / "corpus"  # the first utterance only, for speed
        one.mkdir()
        line = (corpus / "refs.txt").read_text().splitlines()[0]
        (one / "refs.txt").write_text(line + "\n")
        for name in ("vocab.txt", line.split("\t", 1)[0] + ".fkpg"):
            shutil.copy(corpus / name, one / name)
        vocab = read_vocabulary(corpus / "vocab.txt")
        save_table_lm(uniform_table_lm(vocab), root / "table.json")
        hp = Hyperparams(vocab_size=vocab.size, dim=8, heads=2, layers=1, ffn_dim=16)
        save_weights(seeded_weights(hp, 0), root / "weights.fkwt")
        (root / "text.txt").write_text(line.split("\t", 1)[1] + "\n")
        others = {name: (root / name).read_bytes() for name in ("table.json", "weights.fkwt")}
        others["fkpg"] = (one / (line.split("\t", 1)[0] + ".fkpg")).read_bytes()
        return one, root / "text.txt", lm_file.read_bytes(), others

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(
        edit=st.sampled_from(["truncate", "flip", "insert", "swap"]),
        where=st.floats(0, 1),
        flip=st.integers(1, 255),
        insert=st.binary(min_size=1, max_size=12),
        other=st.sampled_from(["table.json", "weights.fkwt", "fkpg"]),
    )
    def test_commands_exit_cleanly(self, inputs, edit, where, flip, insert, other):
        one, text, base, others = inputs
        if edit == "swap":
            data = others[other] + base[int(where * len(base)) :]
        else:
            data = fuzzed(base, edit, where, flip, insert)
        with tempfile.TemporaryDirectory() as tmp:
            model = Path(tmp) / "lm.fklm"
            model.write_bytes(data)
            config = Path(tmp) / "joint.json"
            config.write_text(json.dumps({"strategy": "joint", "beam": 2, "scorers": [
                {"name": "ctc", "kind": "ctc_prefix", "weight": 1.0},
                {"name": "lm", "kind": "ngram", "weight": 0.5, "path": str(model)}]}))
            out = Path(tmp) / "out"
            for argv in (
                ["ppl", str(model), str(text)],
                ["decode", str(one), str(out), "--strategy", "timesync", "--beam", "2",
                 "--lm-path", str(model), "--lm-weight", "0.3"],
                ["decode", str(one), str(out), "--config", str(config)],
            ):
                shutil.rmtree(out, ignore_errors=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
                err = stderr.getvalue()
                if code == 0:
                    assert err == ""
                    continue
                assert code == 1 and stdout.getvalue() == ""
                assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
                if argv[0] == "decode":
                    assert not list(out.glob("*.nbest")) and not (out / "hyps.txt").exists()


# texts of the parser that built all seven subcommands for every call
TOP_USAGE = "usage: fusionkit [-h] {decode,wer,ppl,lm-train,synth,bench,export-attn} ...\n"
PARSER_TEXTS = {
    "--help": (0, TOP_USAGE + """
ASR decoding and score-fusion experiments

positional arguments:
  {decode,wer,ppl,lm-train,synth,bench,export-attn}
    decode              decode a corpus directory
    wer                 pooled word error rate over keyed files
    ppl                 perplexity of a language model on text
    lm-train            train a backoff n-gram model
    synth               generate a synthetic corpus directory
    bench               sweep pruning/compression/beam grids
    export-attn         write per-head attention matrices

options:
  -h, --help            show this help message and exit
""", ""),
    "decode --help": (0, """usage: fusionkit decode [-h] [--config CONFIG] [--strategy STRATEGY]
                        [--beam BEAM] [--top-k TOP_K]
                        [--compress-threshold COMPRESS_THRESHOLD]
                        [--lm-path LM_PATH] [--lm-weight LM_WEIGHT]
                        corpus out

positional arguments:
  corpus
  out

options:
  -h, --help            show this help message and exit
  --config CONFIG
  --strategy STRATEGY
  --beam BEAM
  --top-k TOP_K
  --compress-threshold COMPRESS_THRESHOLD
  --lm-path LM_PATH
  --lm-weight LM_WEIGHT
""", ""),
    "decode c o --bogus 1": (2, "", TOP_USAGE + "fusionkit: error: unrecognized arguments: --bogus 1\n"),
    "": (2, "", TOP_USAGE + "fusionkit: error: the following arguments are required: command\n"),
    "nope": (2, "", TOP_USAGE + "fusionkit: error: argument command: invalid choice: 'nope' "
             "(choose from 'decode', 'wer', 'ppl', 'lm-train', 'synth', 'bench', 'export-attn')\n"),
}


class TestParser:
    @pytest.mark.parametrize("argv", sorted(PARSER_TEXTS))
    def test_texts_unchanged(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            main(argv.split())
        assert (info.value.code, *capsys.readouterr()) == PARSER_TEXTS[argv]

    def test_named_command_builds_only_its_own_arguments(self):
        from fusionkit.cli import COMMANDS, build_parser

        def subcommands(parser):
            (action,) = [a for a in parser._actions if a.dest == "command"]
            return list(action.choices)

        assert subcommands(build_parser()) == list(COMMANDS)
        assert subcommands(build_parser("nope")) == list(COMMANDS)
        for name in COMMANDS:
            assert subcommands(build_parser(name)) == [name]
