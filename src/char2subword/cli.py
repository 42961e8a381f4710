"""Command-line surface: simulate, pretrain, eval, neighbors, noise, stats,
embed, attn, params.

Exit codes: 0 success, 2 configuration/usage error, 3 numeric failure.
A JSON config file (--config, schema version 1) supplies defaults; explicit
flags win. All randomness flows from --seed.
"""

import argparse
import json
import sys
from collections import Counter

from . import evaluation, model as model_mod, training
from .embedder import EmbedMode, embed_sequence, write_embeddings
from .noise import NoiseConfig, OPERATIONS, default_layouts, load_layouts, sample_noisy
from .objectives import LossWeights, build_neighbor_index, load_table
from .training import TrainConfig, TrainingError
from .vocab import build_alphabet, load_vocabulary

CONFIG_VERSION = 1

DEFAULTS = {
    "d_char": 16,
    "d_out": None,  # inferred from the table
    "n_layers": 2,
    "n_heads": 2,
    "max_chars": 32,
    "epochs": 100,
    "lr": 3e-3,
    "batch_size": 32,
    "k": 15,
    "n": 5,
    "mode": "hybrid",
    "p_noise": 0.5,
    "min_length": 5,
    "ops": ",".join(OPERATIONS),
    "w_cos": 1.0,
    "w_ce": 1.0,
    "w_l2": 1.0,
    "w_nbr": 1.0,
    "nbr_k": 5,
    "noise": False,
    "full_word": True,
}


class CliError(ValueError):
    pass


def _merge(args):
    """Layer DEFAULTS < config file < explicit flags."""
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config file {args.config}: {exc}")
        version = doc.pop("version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise CliError(f"unsupported config version {version}")
        unknown = set(doc) - set(DEFAULTS) - {"seed"}
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        merged.update(doc)
    for key, val in vars(args).items():
        if val is not None and key in merged:
            merged[key] = val
    if getattr(args, "seed", None) is not None:
        merged["seed"] = args.seed
    return merged


def _load_inputs(args, need_table=True):
    if not getattr(args, "vocab", None):
        raise CliError("--vocab is required")
    vocab = load_vocabulary(args.vocab)
    alphabet = build_alphabet(vocab)
    table = None
    if need_table:
        if not getattr(args, "table", None):
            raise CliError("--table is required")
        table = load_table(args.table)
        if table.size != len(vocab):
            raise CliError(f"table has {table.size} rows but vocabulary has {len(vocab)}")
    return vocab, alphabet, table


def _noise_config(merged, args):
    if getattr(args, "layouts", None):
        with open(args.layouts, encoding="utf-8") as fh:
            layouts = load_layouts(fh)
    else:
        layouts = default_layouts()
    ops = tuple(op for op in merged["ops"].split(",") if op)
    return NoiseConfig(enabled_ops=ops, layouts=tuple(layouts),
                       min_length=merged["min_length"], p_noise=merged["p_noise"])


def _train_config(merged, noise_cfg):
    if "seed" not in merged:
        raise CliError("--seed is required (no wall-clock default)")
    weights = LossWeights(l_cos=merged["w_cos"], l_ce=merged["w_ce"],
                          l_l2=merged["w_l2"], l_nbr=merged["w_nbr"])
    return TrainConfig(epochs=merged["epochs"], seed=merged["seed"], lr=merged["lr"],
                       batch_size=merged["batch_size"], weights=weights,
                       noise=noise_cfg, nbr_k=merged["nbr_k"])


def _write_metrics(path, metrics):
    # wall_time is dropped so reruns are byte-identical
    with open(path, "w", encoding="utf-8") as fh:
        for record in metrics:
            clean = {k: v for k, v in record.items() if k != "wall_time"}
            fh.write(json.dumps(clean, sort_keys=True) + "\n")


def _load_model(args, alphabet):
    """Load --checkpoint; `alphabet` (from --vocab, or None) must be the one
    the checkpoint was trained with, or character ids would mean other chars."""
    if not getattr(args, "checkpoint", None):
        raise CliError("--checkpoint is required")
    params, alphabet_chars, _ = model_mod.load_checkpoint(args.checkpoint)
    if alphabet is not None and list(alphabet.chars) != alphabet_chars:
        raise CliError(f"--vocab {args.vocab} gives a character alphabet that differs "
                       f"from the one checkpoint {args.checkpoint} was trained with")
    return params


def cmd_simulate(args):
    merged = _merge(args)
    vocab, alphabet, table = _load_inputs(args)
    noise_cfg = _noise_config(merged, args) if merged["noise"] else None
    d_out = merged["d_out"] or table.dim
    config = model_mod.ModelConfig(d_char=merged["d_char"], d_out=d_out,
                                   n_layers=merged["n_layers"], n_heads=merged["n_heads"],
                                   max_chars=merged["max_chars"])
    train_cfg = _train_config(merged, noise_cfg)
    params = model_mod.init_params(config, len(alphabet), train_cfg.seed)
    params, metrics = training.train_simulation(params, vocab, table, alphabet, train_cfg)
    model_mod.save_checkpoint(args.out, params, alphabet)
    if args.metrics:
        _write_metrics(args.metrics, metrics)
    if metrics:
        last = metrics[-1]
        print(f"epoch {last['epoch']}: loss {last['total']:.6f} "
              f"accuracy {last.get('accuracy', float('nan')):.4f} "
              f"prec@1 {last.get('prec1', float('nan')):.4f}")
    return 0


def cmd_pretrain(args):
    merged = _merge(args)
    vocab, alphabet, table = _load_inputs(args)
    params = _load_model(args, alphabet)
    with open(args.corpus, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    sequences = training.corpus_samples(vocab, alphabet, lines,
                                        max_chars=params.config.max_chars)
    if not sequences:
        raise CliError(f"corpus {args.corpus} is empty")
    train_cfg = _train_config(merged, None)
    params, metrics = training.pretrain_mlm(params, sequences, vocab, table,
                                            alphabet, train_cfg)
    model_mod.save_checkpoint(args.out, params, alphabet)
    if args.metrics:
        _write_metrics(args.metrics, metrics)
    if metrics:
        print(f"epoch {metrics[-1]['epoch']}: mlm_loss {metrics[-1]['mlm_loss']:.6f}")
    return 0


def cmd_eval(args):
    merged = _merge(args)
    vocab, alphabet, table = _load_inputs(args)
    params = _load_model(args, alphabet)
    k = merged["k"]
    if k > table.size:
        raise CliError(f"--k {k} exceeds vocabulary size {table.size}")
    index = build_neighbor_index(table, k)
    report = evaluation.precision_at_k(params, vocab, table, index, alphabet, k_max=k)
    text = report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_neighbors(args):
    merged = _merge(args)
    vocab, alphabet, table = _load_inputs(args)
    params = _load_model(args, alphabet)
    if merged["n"] > len(vocab):
        raise CliError(f"-n {merged['n']} exceeds vocabulary size {len(vocab)}")
    results = evaluation.neighbor_query(params, table, vocab, alphabet, args.query,
                                        is_full_word=merged["full_word"], n=merged["n"])
    for token, sim in results:
        print(f"{token}\t{sim:.4f}")
    return 0


def cmd_noise(args):
    merged = _merge(args)
    if "seed" not in merged:
        raise CliError("--seed is required")
    noise_cfg = _noise_config(merged, args)
    import random

    rng = random.Random(merged["seed"])
    counts = Counter()
    with open(args.in_corpus, encoding="utf-8") as src, \
            open(args.out, "w", encoding="utf-8") as dst:
        for line in src:
            words = line.rstrip("\n").split(" ")
            noised = []
            for word in words:
                out = sample_noisy(word, rng, noise_cfg) if word else word
                if out != word:
                    counts["changed"] += 1
                noised.append(out)
            dst.write(" ".join(noised) + "\n")
    print(f"changed {counts['changed']} tokens")
    return 0


def cmd_stats(args):
    vocab, _, _ = _load_inputs(args, need_table=False)
    with open(args.corpus, encoding="utf-8") as fh:
        sentences = [ln.rstrip("\n") for ln in fh]
    stats = evaluation.seq_length_stats(sentences, vocab)
    print(stats.to_text(), end="")
    return 0


def cmd_embed(args):
    merged = _merge(args)
    vocab, alphabet, table = _load_inputs(args)
    try:
        mode = EmbedMode(merged["mode"])
    except ValueError:
        raise CliError(f"unknown mode {merged['mode']!r}")
    params = _load_model(args, alphabet) if mode != EmbedMode.TABLE_ONLY else None
    if args.sentence is not None:
        sentences = [args.sentence]
    elif args.file:
        with open(args.file, encoding="utf-8") as fh:
            sentences = [ln.rstrip("\n") for ln in fh]
    else:
        raise CliError("provide a sentence argument or --file")
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for sentence in sentences:
            embedded = embed_sequence(mode, sentence, vocab, table, params=params,
                                      alphabet=alphabet)
            write_embeddings(out, embedded, mode)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_attn(args):
    merged = _merge(args)
    _, alphabet, _ = _load_inputs(args, need_table=False)
    params = _load_model(args, alphabet)
    text = evaluation.dump_attention(params, alphabet, args.query,
                                     is_full_word=merged["full_word"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def cmd_params(args):
    merged = _merge(args)
    if getattr(args, "checkpoint", None):
        alphabet = _load_inputs(args, need_table=False)[1] if args.vocab else None
        params = _load_model(args, alphabet)
        config = params.config
        alphabet_size = params.alphabet_size
    else:
        vocab, alphabet, _ = _load_inputs(args, need_table=False)
        d_out = merged["d_out"] or 768
        config = model_mod.ModelConfig(d_char=merged["d_char"], d_out=d_out,
                                       n_layers=merged["n_layers"],
                                       n_heads=merged["n_heads"],
                                       max_chars=merged["max_chars"])
        alphabet_size = len(alphabet)
    module = model_mod.param_count(config, alphabet_size)
    table = model_mod.table_param_count(args.table_v, args.table_d)
    print(f"char2subword parameters: {module}")
    print(f"embedding table parameters ({args.table_v} x {args.table_d}): {table}")
    if table:
        print(f"module/table ratio: {module / table:.4f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="char2subword",
        description="Train and evaluate a character-level mimic of a frozen "
                    "subword embedding table.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, table=True, ckpt=False, seed=False):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--vocab", help="vocabulary file, one token per line")
        if table:
            p.add_argument("--table", help="embedding table file (text or EMBT binary)")
        if ckpt:
            p.add_argument("--checkpoint", help="model checkpoint (C2SW binary)")
        if seed:
            p.add_argument("--seed", type=int, help="random seed (required; no wall-clock default)")

    def model_flags(p):
        p.add_argument("--d-char", dest="d_char", type=int)
        p.add_argument("--d-out", dest="d_out", type=int)
        p.add_argument("--n-layers", dest="n_layers", type=int)
        p.add_argument("--n-heads", dest="n_heads", type=int)
        p.add_argument("--max-chars", dest="max_chars", type=int)

    def train_flags(p):
        p.add_argument("--epochs", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--batch-size", dest="batch_size", type=int)

    def noise_flags(p):
        p.add_argument("--layouts", help="keyboard layout JSON file")
        p.add_argument("--p-noise", dest="p_noise", type=float)
        p.add_argument("--min-length", dest="min_length", type=int)
        p.add_argument("--ops", help="comma-separated noise operations")

    p = sub.add_parser("simulate", help="train the module to mimic the table")
    common(p, seed=True)
    model_flags(p)
    train_flags(p)
    noise_flags(p)
    p.add_argument("--noise", action="store_const", const=True, default=None,
                   help="enable noise augmentation")
    p.add_argument("--w-cos", dest="w_cos", type=float)
    p.add_argument("--w-ce", dest="w_ce", type=float)
    p.add_argument("--w-l2", dest="w_l2", type=float)
    p.add_argument("--w-nbr", dest="w_nbr", type=float)
    p.add_argument("--nbr-k", dest="nbr_k", type=int)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--metrics", help="per-epoch metrics log (JSON lines)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pretrain", help="character-level MLM pre-training")
    common(p, ckpt=True, seed=True)
    train_flags(p)
    p.add_argument("--corpus", required=True, help="one whitespace-tokenized sentence per line")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--metrics", help="per-epoch metrics log (JSON lines)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("eval", help="accuracy and precision@k report")
    common(p, ckpt=True)
    p.add_argument("--k", type=int, help="max neighbor depth (default 15)")
    p.add_argument("--out", help="report output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("neighbors", help="nearest vocabulary entries for a query")
    common(p, ckpt=True)
    p.add_argument("query")
    p.add_argument("-n", type=int, help="number of neighbors (default 5)")
    p.add_argument("--subword", dest="full_word", action="store_const", const=False,
                   default=None, help="treat the query as a subword piece")
    p.set_defaults(func=cmd_neighbors)

    p = sub.add_parser("noise", help="stream noise over a corpus")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    noise_flags(p)
    p.add_argument("in_corpus")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("stats", help="token vs subword sequence-length statistics")
    common(p, table=False)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("embed", help="embed sentences in table_only/full/hybrid mode")
    common(p, ckpt=True)
    p.add_argument("--mode", choices=[m.value for m in EmbedMode])
    p.add_argument("sentence", nargs="?")
    p.add_argument("--file", help="embed every line of this file")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("attn", help="dump attention maps for an input")
    common(p, table=False, ckpt=True)
    p.add_argument("query")
    p.add_argument("--subword", dest="full_word", action="store_const", const=False,
                   default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_attn)

    p = sub.add_parser("params", help="module vs table parameter accounting")
    common(p, table=False, ckpt=True)
    model_flags(p)
    p.add_argument("--table-v", dest="table_v", type=int, default=119547)
    p.add_argument("--table-d", dest="table_d", type=int, default=768)
    p.set_defaults(func=cmd_params)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
