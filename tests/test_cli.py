import hashlib
import json
import os
import subprocess
import sys
import string
from pathlib import Path

import numpy as np
import pytest

import char2subword
from char2subword import build_alphabet, load_checkpoint, load_vocabulary
from char2subword import cli
from char2subword.cli import main
from char2subword.objectives import EmbeddingTable, load_table, save_table_binary, save_table_text

from conftest import TOY_WORDS
from reference import save_checkpoint_v1


@pytest.fixture
def workdir(tmp_path):
    """Vocabulary + matching table on disk, plus a tiny corpus."""
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_text("\n".join(TOY_WORDS[:20] + ["[UNK]"]) + "\n")
    rng = np.random.default_rng(0)
    m = rng.normal(size=(21, 8))
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    table_path = tmp_path / "table.txt"
    save_table_text(table_path, EmbeddingTable(matrix=m))
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_text("apple about above\nactor admit after again\n")
    return tmp_path


def run_cli(argv, cwd, **env):
    """The CLI as its own process, importing this package, with `env` added."""
    src = str(Path(char2subword.__file__).resolve().parent.parent)
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "char2subword.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def simulate(workdir, extra=(), seed="0", epochs="2"):
    ckpt = workdir / "model.c2sw"
    rc = main(["simulate", "--vocab", str(workdir / "vocab.txt"),
               "--table", str(workdir / "table.txt"),
               "--seed", seed, "--epochs", epochs,
               "--d-char", "8", "--n-layers", "1", "--n-heads", "1",
               "--out", str(ckpt), *extra])
    return rc, ckpt


class TestSimulate:
    def test_trains_and_writes_checkpoint(self, workdir):
        rc, ckpt = simulate(workdir)
        assert rc == 0
        assert ckpt.read_bytes()[:4] == b"C2SW"

    def test_metrics_log_reruns_byte_identical(self, workdir):
        m1, m2 = workdir / "m1.jsonl", workdir / "m2.jsonl"
        rc1, _ = simulate(workdir, extra=["--metrics", str(m1)])
        rc2, _ = simulate(workdir, extra=["--metrics", str(m2)])
        assert rc1 == rc2 == 0
        assert m1.read_bytes() == m2.read_bytes()
        rec = json.loads(m1.read_text().splitlines()[0])
        assert "wall_time" not in rec
        assert {"epoch", "total", "cos", "ce", "l2", "nbr"} <= set(rec)

    def test_seed_required(self, workdir):
        rc = main(["simulate", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--epochs", "1", "--out", str(workdir / "x.c2sw")])
        assert rc == 2

    def test_table_vocab_mismatch_exit_2(self, workdir, tmp_path):
        bad = tmp_path / "bad_table.txt"
        rng = np.random.default_rng(1)
        save_table_text(bad, EmbeddingTable(matrix=rng.normal(size=(5, 8))))
        rc = main(["simulate", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(bad), "--seed", "0", "--epochs", "1",
                   "--out", str(workdir / "x.c2sw")])
        assert rc == 2

    def test_noise_flag(self, workdir):
        rc, _ = simulate(workdir, extra=["--noise", "--p-noise", "0.9"])
        assert rc == 0

    def test_noise_layouts_file_replaces_the_default(self, workdir, capsys):
        layouts = workdir / "layouts.json"
        layouts.write_text('{"q": {}}')
        rc, ckpt = simulate(workdir, extra=["--noise", "--layouts", str(layouts)])
        assert rc == 2
        assert capsys.readouterr().err == "error: layouts must map at least one key\n"
        assert not ckpt.exists()
        layouts.write_text('{"q": {"a": ["s"]}}')
        rc, ckpt = simulate(workdir, extra=["--noise", "--layouts", str(layouts)])
        assert rc == 0 and ckpt.exists()

    def test_numeric_failure_is_one_stderr_line(self, workdir):
        # a huge step overflows the forward passes; numpy's overflow and invalid-value
        # warnings would print their own lines before the message
        out = run_cli(["simulate", "--vocab", "vocab.txt", "--table", "table.txt",
                       "--seed", "3", "--lr", "1e300", "--out", "model.c2sw"], workdir)
        assert out.returncode == 3
        assert out.stderr.startswith("numeric failure: non-finite ")
        assert len(out.stderr.splitlines()) == 1
        assert not (workdir / "model.c2sw").exists()

    def test_overflowing_eval_exit_3(self, workdir, capsys):
        # Adam's first step moves every parameter by about lr: finite, but the
        # end-of-epoch eval's forward pass overflows
        rc, ckpt = simulate(workdir, extra=["--lr", "1e308", "--batch-size", "64"],
                            epochs="1")
        assert rc == 3
        assert "numeric failure: non-finite vocabulary embeddings after epoch 0" \
            in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("flags", [
        ["--layouts", "missing_layouts.json"],
        ["--p-noise", "0.9"],
        ["--min-length", "3"],
        ["--ops", "drop"],
        ["--p-noise", "0.9", "--layouts", "missing_layouts.json"],
    ])
    def test_noise_flags_without_noise_exit_2(self, tmp_path, capsys, flags):
        # every input path is missing: the rule is checked before any file is read
        rc = main(["simulate", "--vocab", str(tmp_path / "missing_vocab.txt"),
                   "--table", str(tmp_path / "missing_table.txt"), "--seed", "0",
                   "--out", str(tmp_path / "x.c2sw"), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: simulate takes --") and err.count("\n") == 1
        assert err.rstrip().endswith("only with --noise")
        assert all(flag in err for flag in flags if flag.startswith("--"))
        assert not (tmp_path / "x.c2sw").exists()

    def test_noise_keys_in_config_need_noise(self, workdir, capsys):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"p_noise": 0.9, "min_length": 3}))
        rc, ckpt = simulate(workdir, extra=["--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: simulate takes --p-noise, --min-length only with --noise\n"
        assert not ckpt.exists()
        rc, ckpt = simulate(workdir, extra=["--config", str(cfg), "--noise"])
        assert rc == 0 and ckpt.exists()

    def test_vocabulary_of_special_tokens_only_exit_2(self, tmp_path, capsys):
        (tmp_path / "vocab.txt").write_text("[UNK]\n[PAD]\n")
        (tmp_path / "table.txt").write_text("2 3\n1 0 0\n0 1 0\n")
        rc, ckpt = simulate(tmp_path, extra=["--nbr-k", "1"], epochs="1")
        assert rc == 2
        assert capsys.readouterr().err == ("error: the vocabulary has no entry to train on: "
                                           "every entry is a special token\n")
        assert not ckpt.exists()

    def test_no_d_out_flag(self, workdir, capsys):
        # the output width is the table's
        rc, _ = simulate(workdir, extra=["--d-out", "8"])
        assert rc == 2
        assert capsys.readouterr().err == "error: char2subword: unrecognized arguments: --d-out 8\n"


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, workdir):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "epochs": 1, "d_char": 8,
                                   "n_layers": 1, "n_heads": 1}))
        ckpt = workdir / "cfg_model.c2sw"
        rc = main(["simulate", "--config", str(cfg),
                   "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--seed", "0", "--out", str(ckpt)])
        assert rc == 0

    def test_unknown_key_rejected(self, workdir):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "learning_rate": 0.1}))
        rc = main(["simulate", "--config", str(cfg),
                   "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--seed", "0", "--epochs", "1",
                   "--out", str(workdir / "x.c2sw")])
        assert rc == 2

    def test_bad_version_rejected(self, workdir):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"version": 99}))
        rc = main(["simulate", "--config", str(cfg),
                   "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--seed", "0", "--epochs", "1",
                   "--out", str(workdir / "x.c2sw")])
        assert rc == 2

    def test_malformed_json_exit_2(self, workdir):
        cfg = workdir / "cfg.json"
        cfg.write_text("{not json")
        rc = main(["simulate", "--config", str(cfg),
                   "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--seed", "0", "--epochs", "1",
                   "--out", str(workdir / "x.c2sw")])
        assert rc == 2


    @staticmethod
    def write(workdir, doc):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps(doc))
        return str(cfg)

    @pytest.mark.parametrize("doc, message", [
        ({"d_char": 8.0}, "argument --d-char: invalid int value: '8.0'"),
        ({"batch_size": None}, "argument --batch-size: invalid int value: 'null'"),
        ({"lr": "fast"}, "argument --lr: invalid float value: 'fast'"),
        ({"noise": True, "p_noise": "x"}, "argument --p-noise: invalid float value: 'x'"),
        ({"noise": "yes"}, "config key 'noise' may only be true"),
        ([{"epochs": 1}], "must hold a JSON object"),
        ({"k": 5}, "unrecognized arguments: --k=5"),
        ({"epoch": 1}, "simulate takes no config key(s) ['epoch']"),
        ({"config": "other.json"}, "simulate takes no config key(s) ['config']"),
        ({"noise": True, "ops": "-swap"}, "unknown noise operation(s): ['-swap']"),
        ({"lr": "nan"}, "learning rate must be finite and > 0, got nan"),
        ({"lr": "inf"}, "learning rate must be finite and > 0, got inf"),
        ({"w_cos": "nan"}, "loss weights must be finite and nonnegative"),
        ({"w_nbr": "inf"}, "loss weights must be finite and nonnegative"),
        ({"nbr_k": 0}, "nbr_k must be >= 1, got 0"),
        ({"nbr_k": 1000}, "cannot rank the top 1000"),
    ], ids=["float-for-int", "null", "str-for-float", "p-noise", "noise-not-bool", "array",
            "other-command-key", "flag-prefix", "nested-config", "dash-value", "lr-nan",
            "lr-inf", "weight-nan", "weight-inf", "nbr-k-zero", "nbr-k-above-table"])
    def test_bad_config_exit_2(self, workdir, capsys, doc, message):
        rc = main(["simulate", "--config", self.write(workdir, doc),
                   "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--seed", "0", "--epochs", "1",
                   "--out", str(workdir / "x.c2sw")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_values_parse_as_their_flags(self, workdir):
        rc, ckpt = simulate(workdir, extra=["--noise", "--lr", "0.01"], seed="3")
        assert rc == 0
        out = workdir / "cfg_model.c2sw"
        # numbers as JSON strings, a switch and path flags, with no flag given
        doc = {"version": 1, "noise": True, "lr": "0.01", "seed": "3", "epochs": "2",
               "d_char": 8, "n_layers": 1, "n_heads": 1, "vocab": str(workdir / "vocab.txt"),
               "table": str(workdir / "table.txt"), "out": str(out)}
        assert main(["simulate", "--config", self.write(workdir, doc)]) == 0
        assert out.read_bytes() == ckpt.read_bytes()

    def test_neighbors_config_matches_flags(self, workdir, capsys):
        _, ckpt = simulate(workdir)
        query = ["neighbors", "--vocab", str(workdir / "vocab.txt"),
                 "--table", str(workdir / "table.txt"), "--checkpoint", str(ckpt), "##ple"]
        capsys.readouterr()  # discard training progress line
        assert main(query + ["--subword", "-n", "3"]) == 0
        expected = capsys.readouterr().out
        assert len(expected.splitlines()) == 3
        cfg = self.write(workdir, {"full_word": False, "n": 3})
        assert main(query + ["--config", cfg]) == 0
        assert capsys.readouterr().out == expected
        assert main(query + ["--config", cfg, "-n", "2"]) == 0  # the flag wins
        assert capsys.readouterr().out.splitlines() == expected.splitlines()[:2]


class TestEval:
    def test_report(self, workdir, capsys):
        _, ckpt = simulate(workdir)
        capsys.readouterr()  # discard training progress line
        rc = main(["eval", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--checkpoint", str(ckpt), "--k", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy ")
        assert "prec@5" in out and "avg_precision" in out

    def test_k_too_large_exit_2(self, workdir):
        _, ckpt = simulate(workdir)
        rc = main(["eval", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--checkpoint", str(ckpt), "--k", "99"])
        assert rc == 2

    def test_k_zero_exit_2(self, workdir, capsys):
        _, ckpt = simulate(workdir)
        rc = main(["eval", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--checkpoint", str(ckpt), "--k", "0"])
        assert rc == 2
        assert capsys.readouterr().err == "error: eval --k must be >= 1, got 0\n"

    def test_vocabulary_of_special_tokens_only_exit_2(self, tmp_path, capsys):
        (tmp_path / "vocab.txt").write_text("[UNK]\n[MASK]\n")
        (tmp_path / "table.txt").write_text("2 3\n1 0 0\n0 1 0\n")
        vocab = load_vocabulary(tmp_path / "vocab.txt")
        alphabet = build_alphabet(vocab)
        params = char2subword.init_params(char2subword.ModelConfig(d_char=8, d_out=3, n_layers=1,
                                                                   n_heads=1),
                                          len(alphabet), seed=0)
        char2subword.save_checkpoint(tmp_path / "model.c2sw", params, alphabet)
        rc = main(["eval", "--vocab", str(tmp_path / "vocab.txt"),
                   "--table", str(tmp_path / "table.txt"),
                   "--checkpoint", str(tmp_path / "model.c2sw"), "--k", "2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the vocabulary has no entry to evaluate: "
                                "every entry is a special token\n")


class TestNeighbors:
    def test_lists_n(self, workdir, capsys):
        _, ckpt = simulate(workdir)
        capsys.readouterr()  # discard training progress line
        rc = main(["neighbors", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--checkpoint", str(ckpt), "apple", "-n", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for line in lines:
            token, sim = line.split("\t")
            float(sim)

    @pytest.mark.parametrize("n, message", [("0", "neighbors -n must be >= 1, got 0"),
                                            ("22", "need n >= 1 and n <= 21")], ids=["0", "22"])
    def test_n_outside_vocabulary_exit_2(self, workdir, capsys, n, message):
        _, ckpt = simulate(workdir)
        capsys.readouterr()  # discard training progress line
        rc = main(["neighbors", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--checkpoint", str(ckpt), "apple", "-n", n])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("query", ["mash potato", " ", "", "ab\tc", "apple\n"])
    def test_query_not_one_word_exit_2(self, workdir, capsys, query):
        _, ckpt = simulate(workdir)
        capsys.readouterr()  # discard training progress line
        rc = main(["neighbors", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"), "--checkpoint", str(ckpt), query])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: expected one nonempty word with no whitespace, "
                                f"got {query!r}\n")

    @pytest.mark.parametrize("command", ["neighbors", "attn"])
    def test_query_checked_before_any_input_is_read(self, workdir, capsys, command):
        missing = workdir / "missing.embt"
        table = ["--table", str(missing)] if command == "neighbors" else []
        rc = main([command, "--vocab", str(workdir / "vocab.txt"), *table,
                   "--checkpoint", str(missing), "mash potato"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: expected one nonempty word with no whitespace, "
                                "got 'mash potato'\n")

    def test_missing_checkpoint_exit_2(self, workdir):
        rc = main(["neighbors", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--checkpoint", str(workdir / "nope.c2sw"), "apple"])
        assert rc == 2


class TestNoise:
    def test_stream_deterministic(self, workdir, capsys):
        out1, out2 = workdir / "n1.txt", workdir / "n2.txt"
        args = ["noise", "--seed", "3", "--p-noise", "1.0",
                str(workdir / "corpus.txt")]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text() != (workdir / "corpus.txt").read_text()

    def test_whitespace_runs_are_copied(self, workdir, capsys):
        src, out = workdir / "tabs.txt", workdir / "n.txt"
        src.write_text("foo\tbar\tbaz qux\n", encoding="utf-8")
        assert main(["noise", "--seed", "1", "--p-noise", "1.0", str(src),
                     "--out", str(out)]) == 0
        # every word is shorter than --min-length, so nothing changes
        assert out.read_bytes() == src.read_bytes()
        assert capsys.readouterr().out == "changed 0 tokens\n"

    def test_seed_required(self, workdir):
        rc = main(["noise", str(workdir / "corpus.txt"),
                   "--out", str(workdir / "n.txt")])
        assert rc == 2

    def test_bad_layout_values_exit_2(self, workdir, capsys):
        layouts = workdir / "layouts.json"
        layouts.write_text('{"q": {"a": 1}}')
        rc = main(["noise", "--seed", "3", "--layouts", str(layouts),
                   str(workdir / "corpus.txt"), "--out", str(workdir / "n.txt")])
        assert rc == 2
        assert "layout 'q': key 'a' needs a list of single characters" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", ["{}", '{"q": {}}'])
    def test_layouts_without_a_key_exit_2(self, workdir, capsys, doc):
        # with no key to type, mistype could change no token
        layouts, out = workdir / "layouts.json", workdir / "n.txt"
        layouts.write_text(doc)
        rc = main(["noise", "--seed", "3", "--ops", "mistype", "--p-noise", "1.0",
                   "--layouts", str(layouts), str(workdir / "corpus.txt"), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: layouts must map at least one key\n"
        assert not out.exists()


class TestStats:
    def test_output(self, workdir, capsys):
        rc = main(["stats", "--vocab", str(workdir / "vocab.txt"),
                   "--corpus", str(workdir / "corpus.txt")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean_tokens 3.5" in out
        assert "ratio" in out

    def test_missing_vocab_file_exit_2(self, workdir, capsys):
        rc = main(["stats", "--vocab", str(workdir / "missing.txt"),
                   "--corpus", str(workdir / "corpus.txt")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "missing.txt" in captured.err


class TestEmbed:
    def test_table_only_no_checkpoint(self, workdir, capsys):
        rc = main(["embed", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--mode", "table_only", "apple about"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "2 8 table_only"

    def test_hybrid_needs_checkpoint(self, workdir):
        rc = main(["embed", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--mode", "hybrid", "apple"])
        assert rc == 2

    def test_full_mode_file_input(self, workdir):
        _, ckpt = simulate(workdir)
        out = workdir / "emb.txt"
        rc = main(["embed", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--checkpoint", str(ckpt), "--mode", "full",
                   "--file", str(workdir / "corpus.txt"), "--out", str(out)])
        assert rc == 0
        first = out.read_text().splitlines()[0]
        assert first == "3 8 full"

    @pytest.mark.parametrize("other", ["alphabet", "width"])
    def test_table_only_checks_a_given_checkpoint(self, workdir, capsys, other):
        # table_only never runs the module, but a checkpoint it is given must still fit
        words = ["zebra", "[UNK]"] if other == "alphabet" else workdir / "vocab.txt"
        alphabet = build_alphabet(load_vocabulary(words))
        d_out = 4 if other == "width" else 8
        ckpt = workdir / "other.c2sw"
        config = char2subword.ModelConfig(d_char=8, d_out=d_out, n_layers=1, n_heads=1)
        char2subword.save_checkpoint(ckpt, char2subword.init_params(config, len(alphabet), 0),
                                     alphabet)
        rc = main(["embed", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"), "--checkpoint", str(ckpt),
                   "--mode", "table_only", "apple about"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = {"alphabet": f"differs from the one checkpoint {ckpt} was trained with",
                    "width": f"has width 8 but checkpoint {ckpt} has output width 4"}
        assert expected[other] in captured.err

    def test_table_only_output_is_the_same_with_a_matching_checkpoint(self, workdir, capsys):
        _, ckpt = simulate(workdir)
        capsys.readouterr()  # discard training progress line
        outs = []
        for extra in ([], ["--checkpoint", str(ckpt)]):
            assert main(["embed", "--vocab", str(workdir / "vocab.txt"),
                         "--table", str(workdir / "table.txt"), *extra,
                         "--mode", "table_only", "apple zzqx about"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].startswith("3 8 table_only\n") and outs[0] == outs[1]


class TestAttn:
    def test_dump(self, workdir, capsys):
        _, ckpt = simulate(workdir)
        capsys.readouterr()  # discard training progress line
        rc = main(["attn", "--vocab", str(workdir / "vocab.txt"),
                   "--checkpoint", str(ckpt), "apple"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("input apple\n")
        assert "layer 0 head 0" in out

    @pytest.mark.parametrize("query", ["mash potato", " ", "", "ab\tc"])
    def test_query_not_one_word_exit_2(self, workdir, capsys, query):
        _, ckpt = simulate(workdir)
        out = workdir / "attn.txt"
        capsys.readouterr()  # discard training progress line
        rc = main(["attn", "--vocab", str(workdir / "vocab.txt"), "--checkpoint", str(ckpt),
                   "--out", str(out), query])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: expected one nonempty word with no whitespace, "
                                f"got {query!r}\n")
        assert not out.exists()


class TestCheckpointVersions:
    @pytest.mark.parametrize("argv", [
        ["eval", "--table", "table.txt", "--k", "5"],
        ["embed", "--table", "table.txt", "--mode", "full", "apple zzqx about"],
        ["embed", "--table", "table.txt", "--mode", "hybrid", "apple zzqx about"],
        ["attn", "apple"],
        ["neighbors", "--table", "table.txt", "apple", "-n", "4"],
    ], ids=["eval", "embed-full", "embed-hybrid", "attn", "neighbors"])
    def test_v1_file_gives_the_same_output(self, workdir, capsys, argv):
        _, ckpt = simulate(workdir, extra=["--n-heads", "2"])  # heads interleave in v1
        v1 = workdir / "v1.c2sw"
        alphabet = build_alphabet(load_vocabulary(workdir / "vocab.txt"))
        save_checkpoint_v1(v1, load_checkpoint(ckpt)[0], alphabet)
        capsys.readouterr()  # discard training progress line
        command, *rest = argv
        rest = [str(workdir / a) if a.endswith(".txt") else a for a in rest]
        outs = []
        for path in (ckpt, v1):
            assert main([command, "--vocab", str(workdir / "vocab.txt"),
                         "--checkpoint", str(path), *rest]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] and outs[0] == outs[1]


class TestParams:
    def test_default_reference_scale(self, workdir, capsys):
        rc = main(["params", "--vocab", str(workdir / "vocab.txt")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "91812096" in out

    def test_checkpoint_path(self, workdir, capsys):
        _, ckpt = simulate(workdir)
        capsys.readouterr()  # discard training progress line
        outs = []
        for extra in (["--vocab", str(workdir / "vocab.txt")], []):  # --vocab is optional
            assert main(["params", "--checkpoint", str(ckpt), *extra,
                         "--table-v", "21", "--table-d", "8"]) == 0
            outs.append(capsys.readouterr().out)
        assert "(21 x 8): 168" in outs[0] and outs[0] == outs[1]

    def test_model_flags_from_config_match_flags(self, workdir, capsys):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"d_char": 8, "n_layers": 1, "n_heads": 1, "d_out": 16}))
        outs = []
        for extra in ([], ["--d-char", "8", "--n-layers", "1", "--n-heads", "1", "--d-out", "16"],
                      ["--config", str(cfg)]):
            assert main(["params", "--vocab", str(workdir / "vocab.txt"), *extra]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[2] != outs[0]

    def test_odd_d_char_exit_2(self, workdir, capsys):
        rc = main(["params", "--vocab", str(workdir / "vocab.txt"),
                   "--d-char", "7", "--n-heads", "1"])
        assert rc == 2
        assert "d_char (7) must be even" in capsys.readouterr().err


class TestPretrain:
    def test_non_finite_parameters_exit_3(self, workdir, capsys):
        _, ckpt = simulate(workdir)
        out = workdir / "pre.c2sw"
        corpus = workdir / "long.txt"  # enough tokens that the epoch selects some
        corpus.write_text((workdir / "corpus.txt").read_text() * 5)
        # rows of norm 10 give gradient entries above 1.8, so lr * m overflows in
        # the epoch's only Adam step; no loss is computed after it
        big = workdir / "big.txt"
        table = load_table(workdir / "table.txt")
        save_table_text(big, EmbeddingTable(matrix=10.0 * table.matrix))
        capsys.readouterr()  # discard training progress line
        rc = main(["pretrain", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(big), "--checkpoint", str(ckpt),
                   "--corpus", str(corpus), "--seed", "0", "--epochs", "1",
                   "--lr", "1e308", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "non-finite parameters after the last step of epoch 0" in err
        assert not out.exists()

    def test_finite_but_huge_parameters_exit_3(self, workdir, capsys):
        # unit rows keep every gradient entry below 1.8, so Adam's one step leaves the
        # parameters finite at about 1e308; the forward pass after training overflows
        _, ckpt = simulate(workdir)
        out = workdir / "pre.c2sw"
        capsys.readouterr()  # discard training progress line
        rc = main(["pretrain", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"), "--checkpoint", str(ckpt),
                   "--corpus", str(workdir / "corpus.txt"), "--seed", "1", "--epochs", "1",
                   "--lr", "1e308", "--out", str(out)])
        assert rc == 3
        assert "numeric failure: non-finite output after the last step" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_no_selected_token_exit_2(self, workdir, capsys):
        # seed 0 masks no token of the two-line corpus, so no Adam step would run
        _, ckpt = simulate(workdir)
        out = workdir / "pre.c2sw"
        capsys.readouterr()  # discard training progress line
        rc = main(["pretrain", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"), "--checkpoint", str(ckpt),
                   "--corpus", str(workdir / "corpus.txt"), "--seed", "0", "--epochs", "1",
                   "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"corpus {workdir / 'corpus.txt'} selected no token to mask in 1 epoch(s)" \
            in captured.err
        assert not out.exists()


class TestTableWidth:
    @pytest.mark.parametrize("argv", [
        ["pretrain", "--corpus", "corpus.txt", "--seed", "0", "--epochs", "1",
         "--out", "pre.c2sw"],
        ["eval", "--k", "3"],
        ["neighbors", "apple"],
        ["embed", "--mode", "hybrid", "apple", "--out", "emb.txt"],
    ], ids=lambda argv: argv[0])
    def test_narrow_table_exit_2(self, workdir, capsys, argv):
        _, ckpt = simulate(workdir)  # output width 8
        narrow = workdir / "narrow.txt"
        rng = np.random.default_rng(2)
        save_table_text(narrow, EmbeddingTable(matrix=rng.normal(size=(21, 4))))
        capsys.readouterr()  # discard training progress line
        command, *rest = argv
        rest = [str(workdir / a) if a.endswith((".txt", ".c2sw")) else a for a in rest]
        rc = main([command, "--vocab", str(workdir / "vocab.txt"), "--table", str(narrow),
                   "--checkpoint", str(ckpt), *rest])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"table {narrow} has width 4 but checkpoint {ckpt} has output width 8" \
            in captured.err
        assert not (workdir / "pre.c2sw").exists() and not (workdir / "emb.txt").exists()


class TestLoadInputs:
    @pytest.mark.parametrize("argv, reads", [
        (["stats", "--vocab", "vocab.txt", "--corpus", "corpus.txt"], ["vocab"]),
        (["attn", "--vocab", "vocab.txt", "--checkpoint", "model.c2sw", "apple"],
         ["vocab", "checkpoint"]),
        (["embed", "--vocab", "vocab.txt", "--table", "table.txt", "--mode", "table_only",
          "apple"], ["vocab", "table"]),
        (["params", "--checkpoint", "model.c2sw"], ["checkpoint"]),
    ], ids=["stats", "attn", "embed-table_only", "params-checkpoint"])
    def test_reads_only_the_inputs_it_names(self, workdir, capsys, monkeypatch, argv, reads):
        simulate(workdir)
        read = []

        def recording(name, load):
            return lambda path: read.append(name) or load(path)

        monkeypatch.setattr(cli, "load_vocabulary", recording("vocab", cli.load_vocabulary))
        monkeypatch.setattr(cli, "load_table", recording("table", cli.load_table))
        monkeypatch.setattr(cli.model_mod, "load_checkpoint",
                            recording("checkpoint", cli.model_mod.load_checkpoint))
        argv = [str(workdir / a) if a.endswith((".txt", ".c2sw")) else a for a in argv]
        assert main(argv) == 0
        assert read == reads


class TestUsageErrors:
    def test_unknown_mode(self, workdir, capsys):
        rc = main(["embed", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--mode", "bogus", "apple"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: char2subword embed: argument --mode: invalid choice: 'bogus'")
        assert err.count("\n") == 1

    def test_missing_vocab_exit_2(self, workdir):
        rc = main(["stats", "--corpus", str(workdir / "corpus.txt")])
        assert rc == 2

    SIMULATE = ["simulate", "--vocab", "v.txt", "--table", "t.txt", "--seed", "0",
                "--out", "x.c2sw"]
    INPUTS = ["--vocab", "v.txt", "--table", "t.txt", "--checkpoint", "m.c2sw"]

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "--vocab", "v.txt", "--table", "t.txt", "--out", "x.c2sw"], "--seed"),
        (["pretrain", "--vocab", "v.txt", "--table", "t.txt", "--checkpoint", "m.c2sw",
          "--corpus", "c.txt", "--out", "x.c2sw"], "--seed"),
        (["noise", "c.txt", "--out", "n.txt"], "--seed"),
        (["pretrain", "--vocab", "v.txt", "--table", "t.txt", "--seed", "0",
          "--corpus", "c.txt", "--out", "x.c2sw"], "--checkpoint"),
        (["eval", "--vocab", "v.txt", "--table", "t.txt", "--out", "r.txt"], "--checkpoint"),
        (["neighbors", "--vocab", "v.txt", "--table", "t.txt", "apple"], "--checkpoint"),
        (["attn", "--vocab", "v.txt", "apple", "--out", "a.txt"], "--checkpoint"),
        (["stats", "--corpus", "c.txt"], "--vocab"),
        (["embed", "--vocab", "v.txt", "--table", "t.txt", "--mode", "full", "apple"],
         "--checkpoint"),
        (["embed", "--vocab", "v.txt", "--table", "t.txt", "--mode", "table_only", "apple",
          "--file", "f.txt"], "--file"),
        (["embed", "--vocab", "v.txt", "--table", "t.txt", "--mode", "table_only"], "--file"),
        (["params", "--table-v", "21"], "--checkpoint"),
        (["params", "--vocab", "v.txt", "--table-v", "-5"], "--table-v must be >= 1, got -5"),
        (["params", "--checkpoint", "m.c2sw", "--table-d", "0"], "--table-d must be >= 1"),
        # a bad flag value, rejected by a config built before the inputs are loaded
        (SIMULATE + ["--lr", "0"], "learning rate must be finite and > 0, got 0.0"),
        (SIMULATE + ["--batch-size", "0"], "batch_size must be >= 1, got 0"),
        (SIMULATE + ["--epochs", "-1"], "epochs must be >= 0, got -1"),
        (SIMULATE + ["--nbr-k", "0"], "nbr_k must be >= 1, got 0"),
        (SIMULATE + ["--d-char", "7"], "d_char (7) must be even"),
        (SIMULATE + ["--max-chars", "0"], "got {'max_chars': 0}"),
        (SIMULATE + ["--w-cos", "-1"], "nonnegative, got (-1.0, 1.0, 1.0, 1.0)"),
        (SIMULATE + ["--noise", "--p-noise", "2"], "p_noise must be in [0, 1], got 2.0"),
        (SIMULATE + ["--noise", "--ops", "typo"], "unknown noise operation(s): ['typo']"),
        (SIMULATE + ["--seed=-1"], "simulate --seed must be >= 0, got -1"),
        (["pretrain", *INPUTS, "--seed=-1", "--corpus", "c.txt", "--out", "x.c2sw"],
         "pretrain --seed must be >= 0, got -1"),
        (["noise", "c.txt", "--out", "n.txt", "--seed=-7"], "noise --seed must be >= 0, got -7"),
        (["pretrain", *INPUTS, "--seed", "0", "--corpus", "c.txt", "--out", "x.c2sw",
          "--lr", "-1"], "learning rate must be finite and > 0, got -1.0"),
        (["eval", *INPUTS, "--k", "0"], "eval --k must be >= 1, got 0"),
        (["neighbors", *INPUTS, "apple", "-n", "0"], "neighbors -n must be >= 1, got 0"),
        (["params", "--vocab", "v.txt", "--d-char", "7"], "d_char (7) must be even"),
        (["params", "--vocab", "v.txt", "--n-heads", "0"], "got {'n_heads': 0}"),
        # the checkpoint fixes the model: its shape flags are refused, not ignored
        (["params", "--checkpoint", "m.c2sw", "--d-char", "7", "--n-layers", "9",
          "--d-out", "3"], "params takes --d-char, --n-layers, --d-out only without --checkpoint"),
    ], ids=["simulate-seed", "pretrain-seed", "noise-seed", "pretrain-checkpoint",
            "eval-checkpoint", "neighbors-checkpoint", "attn-checkpoint", "stats-vocab",
            "embed-full-checkpoint", "embed-sentence-and-file", "embed-no-text",
            "params-vocab-or-checkpoint", "params-table-v-negative", "params-table-d-zero",
            "simulate-lr", "simulate-batch-size", "simulate-epochs", "simulate-nbr-k",
            "simulate-d-char", "simulate-max-chars", "simulate-w-cos", "simulate-p-noise",
            "simulate-ops", "simulate-seed-negative", "pretrain-seed-negative",
            "noise-seed-negative", "pretrain-lr", "eval-k", "neighbors-n", "params-d-char",
            "params-n-heads", "params-model-flags-with-checkpoint"])
    def test_missing_flag_named_before_any_file_is_read(self, tmp_path, capsys, argv, flag):
        # no path exists, so a check made after loading would name a missing file
        rc = main([str(tmp_path / a) if a.endswith((".txt", ".c2sw")) else a for a in argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and flag in err
        assert "No such file" not in err
        assert not any(tmp_path.iterdir())

    def test_config_without_value_exit_2(self, capsys):
        assert main(["simulate", "--config"]) == 2
        assert capsys.readouterr().err == \
            "error: char2subword: argument --config: expected one argument\n"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        assert "--seed SEED" in capsys.readouterr().out


class TestInputContracts:
    def eval_rc(self, workdir, ckpt, table="table.txt"):
        return main(["eval", "--vocab", str(workdir / "vocab.txt"),
                     "--table", str(workdir / table), "--checkpoint", str(ckpt), "--k", "5"])

    @pytest.mark.parametrize("edit", [lambda b: b[:-8], lambda b: b + b"junk"],
                             ids=["truncated", "trailing"])
    def test_bad_checkpoint_length_exit_2(self, workdir, capsys, edit):
        _, ckpt = simulate(workdir)
        ckpt.write_bytes(edit(ckpt.read_bytes()))
        assert self.eval_rc(workdir, ckpt) == 2
        assert "checkpoint payload is" in capsys.readouterr().err

    @staticmethod
    def rewrite_header(ckpt, edit):
        """Apply `edit` to the checkpoint's JSON header, keeping the payload."""
        data = ckpt.read_bytes()
        hlen = int.from_bytes(data[8:12], "little")
        header = json.loads(data[12:12 + hlen])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        ckpt.write_bytes(data[:8] + len(blob).to_bytes(4, "little") + blob + data[12 + hlen:])

    def test_checkpoint_header_of_a_billion_layers_exit_2(self, workdir, capsys):
        _, ckpt = simulate(workdir)
        self.rewrite_header(ckpt, lambda header: header["config"].update(n_layers=10 ** 9))
        assert self.eval_rc(workdir, ckpt) == 2
        assert "checkpoint payload is" in capsys.readouterr().err

    def test_checkpoint_header_without_manifest_exit_2(self, workdir, capsys):
        _, ckpt = simulate(workdir)
        self.rewrite_header(ckpt, lambda header: header.pop("manifest"))
        assert self.eval_rc(workdir, ckpt) == 2
        assert "checkpoint header must be a JSON object" in capsys.readouterr().err

    def test_checkpoint_marker_false_exit_2(self, workdir, capsys):
        _, ckpt = simulate(workdir)
        self.rewrite_header(ckpt, lambda header: header.update(marker_on_full_words=False))
        assert self.eval_rc(workdir, ckpt) == 2
        assert "marker_on_full_words must be true" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda chars: ["#x", *chars[1:]], "checkpoint alphabet entry '#x' is not a single"),
        (lambda chars: [chars[1], *chars[1:]], "is a duplicate"),
    ], ids=["long-entry", "duplicate"])
    def test_checkpoint_alphabet_not_distinct_characters_exit_2(self, workdir, capsys,
                                                                edit, message):
        _, ckpt = simulate(workdir)
        capsys.readouterr()  # discard training progress line
        self.rewrite_header(ckpt, lambda header: header.update(alphabet=edit(header["alphabet"])))
        assert main(["params", "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("line, edit", [
        (1, lambda lines: ["21"] + lines[1:]),
        (4, lambda lines: lines[:3] + [" ".join(["x"] * 8)] + lines[4:]),
    ], ids=["header", "row"])
    def test_text_table_line_not_numbers_exit_2(self, workdir, capsys, line, edit):
        _, ckpt = simulate(workdir)
        capsys.readouterr()  # discard training progress line
        lines = (workdir / "table.txt").read_text().splitlines()
        (workdir / "bad.txt").write_text("\n".join(edit(lines)) + "\n")
        assert self.eval_rc(workdir, ckpt, table="bad.txt") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: text table line {line}") and err.count("\n") == 1

    @pytest.mark.parametrize("edit, got", [(lambda b: b + b"junkjunk", 8 * 21 * 4 + 8),
                                           (lambda b: b[:-8], 8 * 21 * 4 - 8)],
                             ids=["trailing", "short"])
    def test_bad_embt_length_exit_2(self, workdir, capsys, edit, got):
        _, ckpt = simulate(workdir)
        embt = workdir / "table.embt"
        save_table_binary(embt, load_table(workdir / "table.txt"))
        assert self.eval_rc(workdir, ckpt, table="table.embt") == 0
        embt.write_bytes(edit(embt.read_bytes()))
        assert self.eval_rc(workdir, ckpt, table="table.embt") == 2
        assert f"EMBT payload is {got} bytes, expected {21 * 8 * 4}" in capsys.readouterr().err

    def test_reordered_vocab_exit_2(self, workdir, capsys):
        _, ckpt = simulate(workdir)
        (workdir / "reordered.txt").write_text(
            "\n".join(TOY_WORDS[:20][::-1] + ["[UNK]"]) + "\n")
        rc = main(["neighbors", "--vocab", str(workdir / "reordered.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--checkpoint", str(ckpt), "apple"])
        assert rc == 2
        assert "alphabet" in capsys.readouterr().err

    def test_text_table_rows_after_v_exit_2(self, workdir, capsys):
        _, ckpt = simulate(workdir)
        with open(workdir / "table.txt", "a") as fh:
            fh.write(" ".join(["1"] * 8) + "\n")
        assert self.eval_rc(workdir, ckpt) == 2
        assert "text table has data after its 21 rows" in capsys.readouterr().err

    def test_text_table_shorter_than_its_header_exit_2(self, workdir, capsys):
        _, ckpt = simulate(workdir)
        lines = (workdir / "table.txt").read_text().splitlines()
        (workdir / "short.txt").write_text(f"{10 ** 9} 8\n" + "\n".join(lines[1:3]) + "\n")
        assert self.eval_rc(workdir, ckpt, table="short.txt") == 2
        assert f"header says {10 ** 9} rows but the file has 2" in capsys.readouterr().err

    def test_non_finite_table_exit_2(self, workdir, capsys):
        _, ckpt = simulate(workdir)
        lines = (workdir / "table.txt").read_text().splitlines()
        lines[3] = " ".join(["nan"] * 8)
        (workdir / "nan_table.txt").write_text("\n".join(lines) + "\n")
        assert self.eval_rc(workdir, ckpt, table="nan_table.txt") == 2
        assert "non-finite row(s): [2]" in capsys.readouterr().err


class TestBlasThreads:
    def test_same_bytes_at_one_and_two_blas_threads(self, tmp_path):
        # CE products with a 600 x 768 table split their sums by OpenBLAS's thread
        # count, so their bits match across counts only when the package pins one
        rng = np.random.default_rng(3)
        words = set()
        while len(words) < 599:
            words.add("".join(rng.choice(list(string.ascii_lowercase), rng.integers(3, 10))))
        words = sorted(words)
        (tmp_path / "vocab.txt").write_text("\n".join(words + ["[UNK]"]) + "\n")
        save_table_binary(tmp_path / "table.embt",
                          EmbeddingTable(matrix=rng.normal(size=(600, 768))))
        (tmp_path / "corpus.txt").write_text(
            "\n".join(" ".join(words[i:i + 8]) for i in range(0, 160, 8)) + "\n")
        inputs = ["--vocab", "vocab.txt", "--table", "table.embt"]
        commands = [
            ["simulate", *inputs, "--seed", "3", "--epochs", "2", "--noise",
             "--out", "sim.c2sw", "--metrics", "sim.jsonl"],
            ["pretrain", *inputs, "--checkpoint", "sim.c2sw", "--corpus", "corpus.txt",
             "--seed", "3", "--epochs", "1", "--out", "mlm.c2sw", "--metrics", "mlm.jsonl"],
            ["eval", *inputs, "--checkpoint", "mlm.c2sw", "--out", "eval.txt"],
        ]
        runs = {}
        for threads in ("1", "2"):
            run_dir = tmp_path / f"threads{threads}"
            run_dir.mkdir()
            for name in ("vocab.txt", "table.embt", "corpus.txt"):
                os.symlink(tmp_path / name, run_dir / name)
            outputs = []
            for argv in commands:
                out = run_cli(argv, run_dir, OPENBLAS_NUM_THREADS=threads)
                assert out.returncode == 0, out.stderr
                outputs.append(out.stdout)
            digests = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                       for name in ("sim.c2sw", "sim.jsonl", "mlm.c2sw", "mlm.jsonl",
                                    "eval.txt")}
            runs[threads] = outputs, digests
        assert runs["1"] == runs["2"]
