"""Acceptance gate. One test per criterion; each prints a pass/fail line.

The headline numbers from the original experiments need a 119K x 768 table and
benchmark corpora, so these criteria are property-based plus scaled analogues
on 50-entry toy tables.
"""

import json
import random
import sys
import time

import numpy as np
import pytest

import char2subword as c2s
from char2subword import model as M
from char2subword import training
from char2subword.cli import main as cli_main
from char2subword.embedder import EmbedMode, embed_sequence
from char2subword.evaluation import precision_at_k
from char2subword.noise import NoiseConfig, OPERATIONS, apply_op, default_layouts
from char2subword.objectives import (
    EmbeddingTable,
    LossWeights,
    build_neighbor_index,
    rank_neighbors,
    save_table_text,
)
from char2subword.training import (
    TrainConfig,
    apply_masking,
    make_masking_plan,
    mlm_step,
    simulation_sample_loss,
    train_simulation,
)
from char2subword.vocab import char_sequence

import conftest
from conftest import TOY_WORDS


def report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num}" + (f": {detail}" if detail else "")
    conftest.ACCEPTANCE_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, line


def fd_coord(fn, tensor, idx, h=1e-6):
    orig = tensor.flat[idx]
    tensor.flat[idx] = orig + h
    fp = fn()
    tensor.flat[idx] = orig - h
    fm = fn()
    tensor.flat[idx] = orig
    return (fp - fm) / (2.0 * h)


def make_model(alphabet, seed, d_char=16):
    cfg = c2s.ModelConfig(d_char=d_char, d_out=16, n_layers=2, n_heads=2)
    return M.init_params(cfg, len(alphabet), seed)


class TestCriterion1:
    def test_gradient_fidelity(self, toy_vocab, toy_table, monkeypatch):
        """Analytic gradients of the combined loss and the MLM loss match
        central finite differences (< 1e-4 relative) over 20 seeds, < 2 min."""
        monkeypatch.setattr(training, "SELECT_P", 1.0)
        t0 = time.monotonic()
        alphabet = c2s.build_alphabet(toy_vocab)
        assert len(alphabet) <= 30
        cfg = c2s.ModelConfig(d_char=8, d_out=16, n_layers=2, n_heads=2)
        index = build_neighbor_index(toy_table, 5)
        weights = LossWeights(1.0, 1.0, 1.0, 1.0)
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            params = M.init_params(cfg, len(alphabet), seed)
            tid = int(rng.integers(49))
            seq = char_sequence(toy_vocab.token(tid), False, alphabet)
            _, _, grads = simulation_sample_loss(
                params, seq, tid, toy_table, index, weights)

            def combined():
                total, _, _ = simulation_sample_loss(
                    params, seq, tid, toy_table, index, weights)
                return total

            # MLM loss over two masked tokens from the same vocabulary
            ids = [tid, int(rng.integers(49))]
            seqs = [char_sequence(toy_vocab.token(i), False, alphabet) for i in ids]
            prng = random.Random(seed)
            plan = make_masking_plan(ids, seqs, prng)
            masked = apply_masking(plan, seqs, alphabet, prng)
            targets = [e.target_id for e in plan.entries]
            _, mlm_grads = mlm_step(params, masked, targets, toy_table)

            def mlm():
                loss, _ = mlm_step(params, masked, targets, toy_table)
                return loss

            names = list(params.tensors)
            sizes = np.array([params.tensors[n].size for n in names], dtype=float)
            probs = sizes / sizes.sum()
            for _ in range(150):
                name = names[int(rng.choice(len(names), p=probs))]
                idx = int(rng.integers(params.tensors[name].size))
                for fn, g in ((combined, grads), (mlm, mlm_grads)):
                    fd = fd_coord(fn, params.tensors[name], idx)
                    an = g[name].flat[idx]
                    rel = abs(an - fd) / max(1.0, abs(an), abs(fd))
                    worst = max(worst, rel)
        elapsed = time.monotonic() - t0
        ok = worst < 1e-4 and elapsed < 120
        report(1, ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2:
    def test_identity_zeros(self, toy_table):
        """L_cos, L2, L_nbr, and the combined loss with the CE term off all
        vanish when the prediction equals the target row."""
        index = build_neighbor_index(toy_table, 5)
        worst = 0.0
        for tid in range(toy_table.size):
            e = toy_table.row(tid)
            worst = max(worst, c2s.loss_cos(e, e.copy()))
            worst = max(worst, c2s.loss_l2(e, e.copy()))
            worst = max(worst, c2s.loss_nbr(tid, e.copy(), toy_table, index))
            total, _ = c2s.combined_loss(tid, e, e.copy(), toy_table, index,
                                         LossWeights(1.0, 0.0, 1.0, 1.0))
            worst = max(worst, total)
        report(2, worst < 1e-12, f"max identity residual {worst:.2e}")


class TestCriterion3:
    @staticmethod
    def oracle_neighbors(matrix, i, k):
        norms = np.linalg.norm(matrix, axis=1)
        sims = (matrix @ matrix[i]) / (norms * norms[i])
        order = sorted(range(matrix.shape[0]), key=lambda j: (-sims[j], j))
        return order[:k]

    @staticmethod
    def oracle_precision(table, index, ids, vecs, k_max):
        per_k = {k: 0.0 for k in range(1, k_max + 1)}
        for row, i in enumerate(ids):
            truth = list(index.neighbors(i))
            norms = np.linalg.norm(table.matrix, axis=1)
            v = vecs[row]
            sims = (table.matrix @ v) / (norms * np.linalg.norm(v))
            pred = sorted(range(table.size), key=lambda j: (-sims[j], j))[:k_max]
            for k in per_k:
                per_k[k] += len(set(truth[:k]) & set(pred[:k])) / k
        return {k: v / len(ids) for k, v in per_k.items()}

    def test_oracle_equivalence(self, tiny_config, toy_vocab):
        """Neighbor index and precision@k match brute-force reimplementations
        on 100 random tables (with forced duplicate-row ties)."""
        rng = np.random.default_rng(99)
        ok = True
        for trial in range(100):
            n = int(rng.integers(5, 201))
            d = int(rng.integers(4, 17))
            m = rng.normal(size=(n, d))
            if trial % 3 == 0:  # force cosine ties via duplicated rows
                m[1] = m[0]
                m[n // 2] = 2.0 * m[0]
            table = EmbeddingTable(matrix=m)
            k = int(rng.integers(1, min(n, 10) + 1))
            index = build_neighbor_index(table, k)
            for i in range(n):
                if list(index.neighbors(i)) != self.oracle_neighbors(m, i, k):
                    ok = False
        # precision_at_k against the loop oracle on a handful of tables
        alphabet = c2s.build_alphabet(toy_vocab)
        params = M.init_params(tiny_config, len(alphabet), 0)
        for trial in range(10):
            m = rng.normal(size=(50, 16))
            table = EmbeddingTable(matrix=m)
            index = build_neighbor_index(table, 15)
            ids = toy_vocab.non_special_ids()
            vecs = rng.normal(size=(len(ids), 16))
            rep = precision_at_k(params, toy_vocab, table, index, alphabet,
                                 embedded=(ids, vecs))
            expected = self.oracle_precision(table, index, ids, vecs, 15)
            for k, v in expected.items():
                if rep.precision_at[k] != pytest.approx(v, abs=1e-12):
                    ok = False
        report(3, ok)


class TestCriterion4:
    def test_toy_convergence(self, toy_vocab, toy_table):
        """Clean-input simulation training reaches accuracy >= 0.98 and
        Prec@1 >= 0.95 within 300 epochs in under 5 minutes."""
        t0 = time.monotonic()
        alphabet = c2s.build_alphabet(toy_vocab)
        params = make_model(alphabet, seed=0)
        cfg = TrainConfig(epochs=300, seed=0)
        _, metrics = train_simulation(params, toy_vocab, toy_table, alphabet,
                                      cfg, eval_every=25)
        elapsed = time.monotonic() - t0
        evals = [m for m in metrics if "accuracy" in m]
        best_acc = max(m["accuracy"] for m in evals)
        best_p1 = max(m["prec1"] for m in evals)
        ok = best_acc >= 0.98 and best_p1 >= 0.95 and elapsed < 300
        report(4, ok, f"accuracy {best_acc:.3f}, prec@1 {best_p1:.3f}, {elapsed:.1f}s")


class TestCriterion5:
    def test_objective_ordering(self, toy_vocab):
        """With identical budgets, CE-only training beats cosine-only on
        Avg Prec in at least 4 of 5 seeded runs (clustered toy tables)."""
        alphabet = c2s.build_alphabet(toy_vocab)
        wins = 0
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            centers = rng.normal(size=(10, 16)) * 2.0
            e = np.repeat(centers, 5, axis=0) + rng.normal(size=(50, 16)) * 0.4
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            table = EmbeddingTable(matrix=e)
            index = build_neighbor_index(table, 15)
            scores = {}
            for name, weights in (("ce", LossWeights(0.0, 1.0, 0.0, 0.0)),
                                  ("cos", LossWeights(1.0, 0.0, 0.0, 0.0))):
                params = make_model(alphabet, seed, d_char=8)
                cfg = TrainConfig(epochs=30, seed=seed, weights=weights)
                trained, _ = train_simulation(params, toy_vocab, table, alphabet,
                                              cfg, eval_every=0)
                rep = precision_at_k(trained, toy_vocab, table, index, alphabet)
                scores[name] = rep.avg_precision
            if scores["ce"] > scores["cos"]:
                wins += 1
        report(5, wins >= 4, f"CE beats cosine in {wins}/5 runs")


class TestCriterion6:
    @staticmethod
    def perturbations(vocab, seed, noise_cfg):
        """Four held-out single-edit variants per eligible token."""
        rng = random.Random(900 + seed)
        out = []
        for i in vocab.non_special_ids():
            token = vocab.token(i)
            if len(token) < noise_cfg.min_length:
                continue
            for _ in range(4):
                op = OPERATIONS[rng.randrange(len(OPERATIONS))]
                out.append((i, apply_op(token, op, rng, noise_cfg)))
        return out

    @staticmethod
    def score(params, table, alphabet, perturbed):
        hits = 0
        for tid, variant in perturbed:
            seq = char_sequence(variant, False, alphabet,
                                max_chars=params.config.max_chars)
            e_hat, _, _ = M.forward(params, seq)
            order, _ = rank_neighbors(table, e_hat, 1)
            hits += int(order[0] == tid)
        return hits / len(perturbed)

    def test_noise_robustness(self, toy_vocab, toy_table, toy_alphabet, noise_config):
        """Noise-trained models recover >= 80% of held-out single-edit
        perturbations and beat the noise-free model in >= 4 of 5 seeds."""
        train_noise = NoiseConfig(layouts=tuple(default_layouts()), p_noise=0.6)
        wins = 0
        details = []
        for seed in range(5):
            perturbed = self.perturbations(toy_vocab, seed, noise_config)
            results = {}
            for name, noise in (("noisy", train_noise), ("clean", None)):
                params = make_model(toy_alphabet, seed)
                cfg = TrainConfig(epochs=400, seed=seed, noise=noise)
                trained, _ = train_simulation(params, toy_vocab, toy_table,
                                              toy_alphabet, cfg, eval_every=0)
                results[name] = self.score(trained, toy_table, toy_alphabet, perturbed)
            details.append(f"{results['noisy']:.3f}>{results['clean']:.3f}")
            if results["noisy"] >= 0.8 and results["noisy"] > results["clean"]:
                wins += 1
        report(6, wins >= 4, f"{wins}/5 seeds ({' '.join(details)})")


class TestCriterion7:
    def test_masking_statistics(self, toy_vocab):
        """Over 100,000 tokens: selection within 0.15 +/- 0.005 and per-char
        actions within 0.80/0.10/0.10 +/- 0.01."""
        alphabet = c2s.build_alphabet(toy_vocab)
        ids = toy_vocab.non_special_ids()
        seqs = [char_sequence(toy_vocab.token(i), False, alphabet) for i in ids]
        rng = random.Random(0)
        n_tokens, n_selected = 0, 0
        actions = {"mask": 0, "randomize": 0, "keep": 0}
        while n_tokens < 100_000:
            plan = make_masking_plan(ids, seqs, rng)
            n_tokens += len(ids)
            n_selected += len(plan)
            for entry in plan.entries:
                for a in entry.actions:
                    actions[a] += 1
        sel = n_selected / n_tokens
        total = sum(actions.values())
        fracs = {k: v / total for k, v in actions.items()}
        ok = (abs(sel - 0.15) < 0.005
              and abs(fracs["mask"] - 0.80) < 0.01
              and abs(fracs["randomize"] - 0.10) < 0.01
              and abs(fracs["keep"] - 0.10) < 0.01)
        report(7, ok, f"select {sel:.4f}, actions {fracs['mask']:.3f}/"
                      f"{fracs['randomize']:.3f}/{fracs['keep']:.3f}")


class TestCriterion8:
    @staticmethod
    def levenshtein(a, b):
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                               prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    def test_noise_laws(self, noise_config):
        """10,000 applications per op obey the length/edit laws exactly; the
        length guard never edits tokens of four or fewer characters."""
        rng = random.Random(0)
        tokens = ["Window", "basket", "Gentle", "napkin", "Formal", "zipper",
                  "##pieces", "Thunder"]
        violations = 0
        for op in OPERATIONS:
            for t in range(10_000):
                tok = tokens[t % len(tokens)]
                out = apply_op(tok, op, rng, noise_config)
                core = tok[2:] if tok.startswith("##") else tok
                out_core = out[2:] if tok.startswith("##") else out
                dist = self.levenshtein(core, out_core)
                if out == tok:
                    violations += 1
                elif op in ("mistype", "toggle") and (len(out) != len(tok) or dist != 1):
                    violations += 1
                elif op == "swap" and (len(out) != len(tok) or dist > 2):
                    violations += 1
                elif op == "drop" and (len(out) != len(tok) - 1 or dist != 1):
                    violations += 1
                elif op in ("repeat", "punctuation") and (len(out) != len(tok) + 1
                                                          or dist != 1):
                    violations += 1
        # guard: tokens at or below four editable characters pass through
        for short in ("door", "cat", "##door", "a"):
            for _ in range(200):
                if c2s.sample_noisy(short, rng, noise_config) != short:
                    violations += 1
        report(8, violations == 0, f"{violations} violations")


class TestCriterion9:
    def test_parameter_accounting(self):
        """Reference table size plus hand-summed module totals on three configs."""
        ok = M.table_param_count(119547, 768) == 91_812_096

        def hand_sum(d, dout, layers, heads, a):
            per_layer = (4 * d                       # two LayerNorm pairs
                         + 3 * heads * d * (d // heads)  # Q, K, V per head
                         + d * d                     # Wo
                         + d * 4 * d + 4 * d         # W1, b1
                         + 4 * d * d + d)            # W2, b2
            return a * d + layers * per_layer + d * dout + dout + 2 * dout

        cases = [
            (c2s.ModelConfig(d_char=8, d_out=16, n_layers=1, n_heads=2), 10),
            (c2s.ModelConfig(d_char=16, d_out=16, n_layers=2, n_heads=2), 30),
            (c2s.ModelConfig(d_char=12, d_out=24, n_layers=3, n_heads=4), 28),
        ]
        for cfg, a in cases:
            expected = hand_sum(cfg.d_char, cfg.d_out, cfg.n_layers, cfg.n_heads, a)
            if M.param_count(cfg, a) != expected:
                ok = False
            params = M.init_params(cfg, a, 0)
            if sum(t.size for t in params.tensors.values()) != expected:
                ok = False
        report(9, ok)


class TestCriterion10:
    def test_mode_contracts(self, toy_vocab, toy_table, tiny_config):
        """Hybrid on all-in-vocabulary text is a bit-exact table lookup; full
        mode yields exactly one vector per whitespace word on 1,000 sentences."""
        alphabet = c2s.build_alphabet(toy_vocab)
        params = M.init_params(tiny_config, len(alphabet), 0)
        rng = random.Random(0)
        words = [toy_vocab.token(i) for i in toy_vocab.non_special_ids()]
        ok = True
        for _ in range(200):
            sent = " ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))
            out = embed_sequence(EmbedMode.HYBRID, sent, toy_vocab, toy_table,
                                 params=params, alphabet=alphabet)
            for piece, tag, vec in zip(out.pieces, out.provenance, out.vectors):
                if tag != "table" or not np.array_equal(
                        vec, toy_table.row(toy_vocab.id_of[piece])):
                    ok = False
        surface = words + ["zzzzz", "Apple", "qwertx", "blorp"]
        for _ in range(1000):
            n = rng.randint(1, 6)
            sent = " ".join(rng.choice(surface) for _ in range(n))
            out = embed_sequence(EmbedMode.FULL, sent, toy_vocab, toy_table,
                                 params=params, alphabet=alphabet)
            if len(out.vectors) != n or out.provenance != ["char2subword"] * n:
                ok = False
        report(10, ok)


class TestCriterion11:
    def test_cli_determinism(self, tmp_path, capsys):
        """Every CLI command rerun with the same seed/config produces
        byte-identical artifacts (stdout or output files)."""
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(TOY_WORDS[:20] + ["[UNK]"]) + "\n")
        rng = np.random.default_rng(0)
        m = rng.normal(size=(21, 8))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        table = tmp_path / "table.txt"
        save_table_text(table, EmbeddingTable(matrix=m))
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("apple about above\nactor admit after again\n")

        base = ["--vocab", str(vocab), "--table", str(table)]
        ckpt = tmp_path / "m_0.c2sw"

        def run(argv):
            rc = cli_main(argv)
            assert rc == 0, argv
            return capsys.readouterr().out.encode()

        def artifacts(tag):
            sim_ckpt = tmp_path / f"sim_{tag}.c2sw"
            sim_log = tmp_path / f"sim_{tag}.jsonl"
            out = [run(["simulate", *base, "--seed", "0", "--epochs", "2",
                        "--d-char", "8", "--n-layers", "1", "--n-heads", "1",
                        "--out", str(sim_ckpt), "--metrics", str(sim_log)])]
            out += [sim_ckpt.read_bytes(), sim_log.read_bytes()]
            pre_ckpt = tmp_path / f"pre_{tag}.c2sw"
            pre_log = tmp_path / f"pre_{tag}.jsonl"
            out += [run(["pretrain", *base, "--checkpoint", str(sim_ckpt),
                         "--corpus", str(corpus), "--seed", "1", "--epochs", "1",
                         "--out", str(pre_ckpt), "--metrics", str(pre_log)])]
            out += [pre_ckpt.read_bytes(), pre_log.read_bytes()]
            rep = tmp_path / f"eval_{tag}.txt"
            out += [run(["eval", *base, "--checkpoint", str(sim_ckpt),
                         "--k", "5", "--out", str(rep)]), rep.read_bytes()]
            out += [run(["neighbors", *base, "--checkpoint", str(sim_ckpt),
                         "apple", "-n", "3"])]
            noised = tmp_path / f"noise_{tag}.txt"
            out += [run(["noise", "--seed", "7", "--p-noise", "1.0",
                         str(corpus), "--out", str(noised)]), noised.read_bytes()]
            out += [run(["stats", "--vocab", str(vocab), "--corpus", str(corpus)])]
            emb = tmp_path / f"emb_{tag}.txt"
            out += [run(["embed", *base, "--checkpoint", str(sim_ckpt),
                         "--mode", "hybrid", "apple zzzzz",
                         "--out", str(emb)]), emb.read_bytes()]
            attn = tmp_path / f"attn_{tag}.txt"
            out += [run(["attn", "--vocab", str(vocab), "--checkpoint",
                         str(sim_ckpt), "apple", "--out", str(attn)]),
                    attn.read_bytes()]
            out += [run(["params", "--vocab", str(vocab)])]
            return out

        first = artifacts("a")
        second = artifacts("b")
        mismatches = sum(a != b for a, b in zip(first, second))
        report(11, mismatches == 0 and len(first) == len(second),
               f"{len(first)} artifacts compared")
