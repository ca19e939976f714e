import json

import pytest

from fusionkit.cli import main
from fusionkit.decoder import read_tensor_container


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

    def test_parallel_jobs_identical_outputs(self, corpus, tmp_path, capsys):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        for out, jobs in ((serial, "1"), (parallel, "3")):
            code, _, _ = run(
                ["decode", str(corpus), str(out), "--strategy", "timesync",
                 "--beam", "4", "--jobs", jobs],
                capsys,
            )
            assert code == 0
        for name in ["hyps.txt", "utt0000.nbest", "utt0003.nbest"]:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

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
        from fusionkit.synth import SynthConfig, build_lm_vocab, sample_sentences

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
        "cfg,message",
        [
            ({"strategy": "bogus"}, "unknown strategy"),
            ({"strategy": "delayed"}, "needs lm_path"),
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
             "interface kind"),
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
            assert ".fkpg" not in err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, corpus, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"strategy": "joint", "bogus": 1}))
        code, _, err = run(["decode", str(corpus), str(tmp_path / "o"), "--config", str(cfg_path)], capsys)
        assert code == 1
        assert "bogus" in err


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


class TestPplCommand:
    def test_uniform_table_lm_reports_outcome_count(self, tmp_path, capsys):
        from fusionkit.lm import save_table_lm, uniform_table_lm
        from fusionkit.core import Vocabulary

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


    def test_lm_missing_special_flag_fails_cleanly(self, lm_file, tmp_path, capsys):
        lines = lm_file.read_text().splitlines()
        vocab_at = lines.index("[vocab]") + 1
        blank_at = next(
            i for i in range(vocab_at, len(lines)) if lines[i].split("\t")[1] == "blank"
        )
        tok = lines[blank_at].split("\t")[0]
        lines[blank_at] = f"{tok}\t"
        model = tmp_path / "noblank.fklm"
        model.write_text("\n".join(lines) + "\n")
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
        from fusionkit.lm import save_table_lm, uniform_table_lm

        model = tmp_path / "bad.lm"
        if case == "fklm-header-without-tab":
            model.write_text(lm_file.read_text().replace("order\t", "order ", 1))
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
