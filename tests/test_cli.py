import json

import numpy as np
import pytest

from char2subword import build_alphabet, load_checkpoint, load_vocabulary
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_eval_exit_3(self, workdir, capsys):
        # Adam's first step moves every parameter by about lr: finite, but the
        # end-of-epoch eval's forward pass overflows
        rc, ckpt = simulate(workdir, extra=["--lr", "1e308", "--batch-size", "64"],
                            epochs="1")
        assert rc == 3
        assert "numeric failure: non-finite vocabulary embeddings after epoch 0" \
            in capsys.readouterr().err
        assert not ckpt.exists()

    def test_no_d_out_flag(self, workdir):
        # the output width is the table's
        with pytest.raises(SystemExit):
            simulate(workdir, extra=["--d-out", "8"])


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
    ], ids=["float-for-int", "null", "str-for-float", "p-noise", "noise-not-bool", "array",
            "other-command-key", "flag-prefix", "nested-config", "dash-value", "lr-nan",
            "lr-inf", "weight-nan", "weight-inf", "nbr-k-zero"])
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
        assert "need n >= 1 and n <= 21" in capsys.readouterr().err


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

    @pytest.mark.parametrize("n", ["0", "22"])
    def test_n_outside_vocabulary_exit_2(self, workdir, capsys, n):
        _, ckpt = simulate(workdir)
        capsys.readouterr()  # discard training progress line
        rc = main(["neighbors", "--vocab", str(workdir / "vocab.txt"),
                   "--table", str(workdir / "table.txt"),
                   "--checkpoint", str(ckpt), "apple", "-n", n])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need n >= 1 and n <= 21" in captured.err

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
        rc = main(["params", "--vocab", str(workdir / "vocab.txt"),
                   "--checkpoint", str(ckpt), "--table-v", "21", "--table-d", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(21 x 8): 168" in out


    def test_odd_d_char_exit_2(self, workdir, capsys):
        rc = main(["params", "--vocab", str(workdir / "vocab.txt"),
                   "--d-char", "7", "--n-heads", "1"])
        assert rc == 2
        assert "d_char (7) must be even" in capsys.readouterr().err


class TestPretrain:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


class TestUsageErrors:
    def test_unknown_mode(self, workdir):
        with pytest.raises(SystemExit):
            main(["embed", "--vocab", str(workdir / "vocab.txt"),
                  "--table", str(workdir / "table.txt"),
                  "--mode", "bogus", "apple"])

    def test_missing_vocab_exit_2(self, workdir):
        rc = main(["stats", "--corpus", str(workdir / "corpus.txt")])
        assert rc == 2


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

    def test_non_finite_table_exit_2(self, workdir, capsys):
        _, ckpt = simulate(workdir)
        lines = (workdir / "table.txt").read_text().splitlines()
        lines[3] = " ".join(["nan"] * 8)
        (workdir / "nan_table.txt").write_text("\n".join(lines) + "\n")
        assert self.eval_rc(workdir, ckpt, table="nan_table.txt") == 2
        assert "non-finite row(s): [2]" in capsys.readouterr().err
