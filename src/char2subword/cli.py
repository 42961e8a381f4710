"""Command-line surface: simulate, pretrain, eval, neighbors, noise, stats,
embed, attn, params.

Exit codes: 0 success, 2 configuration/usage error, 3 numeric failure.
A JSON config file (--config, schema version 1) is an object whose keys are
the command's own flags, spelled with `_` for `-`: `n` is -n, `noise: true`
is --noise and `full_word: false` is --subword. Its values go through the
flags' own parsing, placed before the command line, so explicit flags win.
All randomness flows from --seed.
"""

import argparse
import json
import random
import sys
from contextlib import nullcontext

from . import evaluation, model as model_mod, training
from .embedder import EmbedMode, embed_sequence, write_embeddings
from .noise import NoiseConfig, default_layouts, load_layouts, sample_noisy
from .objectives import LossWeights, build_neighbor_index, check_vocab_size, load_table
from .training import TrainConfig, TrainingError
from .vocab import build_alphabet, load_vocabulary

CONFIG_VERSION = 1
_SWITCHES = {"noise": (True, "--noise"), "full_word": (False, "--subword")}


class CliError(ValueError):
    pass


class _ConfigParser(argparse.ArgumentParser):
    """Raises parse errors as CliError, so main() returns 2 for a bad config value."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _config_argv(path):
    """Map each key of the --config JSON object at `path` to its flag argument."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}")
    if not isinstance(doc, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    version = doc.pop("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise CliError(f"unsupported config version {version}")
    flags = {}
    for key, value in doc.items():
        if key in _SWITCHES:
            on, flags[key] = _SWITCHES[key]
            if value is not on:
                raise CliError(f"config key {key!r} may only be {json.dumps(on)}")
        else:
            flag = "-n" if key == "n" else "--" + key.replace("_", "-")
            # one --flag=value word: a value starting with '-' stays a value
            flags[key] = f"{flag}={value if isinstance(value, str) else json.dumps(value)}"
    return flags


def _parse_args(argv):
    """Parse argv with the --config file's flags, if any, after the command name."""
    pre = argparse.ArgumentParser(prog="char2subword", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return build_parser().parse_args(argv)
    flags = _config_argv(path)
    args = build_parser(_ConfigParser).parse_args(argv[:1] + list(flags.values()) + argv[1:])
    # a prefix of a flag parses as that flag, so each key must be a flag's full name
    unknown = sorted(key for key in flags if key == "config" or key not in vars(args))
    if unknown:
        raise CliError(f"{args.command} takes no config key(s) {unknown}")
    return args


def _load_inputs(args, need_table=True):
    if not args.vocab:
        raise CliError("--vocab is required")
    vocab = load_vocabulary(args.vocab)
    alphabet = build_alphabet(vocab)
    table = None
    if need_table:
        if not args.table:
            raise CliError("--table is required")
        table = load_table(args.table)
        check_vocab_size(table, vocab)  # before eval spends time on the index
    return vocab, alphabet, table


def _noise_config(args):
    if args.layouts:
        with open(args.layouts, encoding="utf-8") as fh:
            layouts = load_layouts(fh)
    else:
        layouts = default_layouts()
    ops = tuple(op for op in args.ops.split(",") if op)
    return NoiseConfig(enabled_ops=ops, layouts=tuple(layouts),
                       min_length=args.min_length, p_noise=args.p_noise)


def _train_config(args, **options):
    if args.seed is None:
        raise CliError("--seed is required (no wall-clock default)")
    return TrainConfig(epochs=args.epochs, seed=args.seed, lr=args.lr,
                       batch_size=args.batch_size, **options)


def _model_config(args, d_out):
    return model_mod.ModelConfig(d_char=args.d_char, d_out=d_out, n_layers=args.n_layers,
                                 n_heads=args.n_heads, max_chars=args.max_chars)


def _write_metrics(path, metrics):
    with open(path, "w", encoding="utf-8") as fh:
        for record in metrics:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _load_model(args, alphabet, table=None):
    """Load --checkpoint; `alphabet` (from --vocab, or None) must be the one
    the checkpoint was trained with, or character ids would mean other chars,
    and `table` (or None) must be as wide as the checkpoint's output."""
    if not args.checkpoint:
        raise CliError("--checkpoint is required")
    params, alphabet_chars, _ = model_mod.load_checkpoint(args.checkpoint)
    if alphabet is not None and list(alphabet.chars) != alphabet_chars:
        raise CliError(f"--vocab {args.vocab} gives a character alphabet that differs "
                       f"from the one checkpoint {args.checkpoint} was trained with")
    if table is not None and table.dim != params.config.d_out:
        raise CliError(f"table {args.table} has width {table.dim} but checkpoint "
                       f"{args.checkpoint} has output width {params.config.d_out}")
    return params


def cmd_simulate(args):
    vocab, alphabet, table = _load_inputs(args)
    noise_cfg = _noise_config(args) if args.noise else None
    config = _model_config(args, table.dim)
    weights = LossWeights(l_cos=args.w_cos, l_ce=args.w_ce, l_l2=args.w_l2, l_nbr=args.w_nbr)
    train_cfg = _train_config(args, weights=weights, noise=noise_cfg, nbr_k=args.nbr_k)
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
    vocab, alphabet, table = _load_inputs(args)
    params = _load_model(args, alphabet, table)
    with open(args.corpus, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    sequences = training.corpus_samples(vocab, alphabet, lines,
                                        max_chars=params.config.max_chars)
    if not sequences:
        raise CliError(f"corpus {args.corpus} is empty")
    params, metrics = training.pretrain_mlm(params, sequences, vocab, table,
                                            alphabet, _train_config(args))
    model_mod.save_checkpoint(args.out, params, alphabet)
    if args.metrics:
        _write_metrics(args.metrics, metrics)
    if metrics:
        print(f"epoch {metrics[-1]['epoch']}: mlm_loss {metrics[-1]['mlm_loss']:.6f}")
    return 0


def cmd_eval(args):
    vocab, alphabet, table = _load_inputs(args)
    params = _load_model(args, alphabet, table)
    index = build_neighbor_index(table, args.k)
    text = evaluation.precision_at_k(params, vocab, table, index, alphabet,
                                     k_max=args.k).to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_neighbors(args):
    vocab, alphabet, table = _load_inputs(args)
    params = _load_model(args, alphabet, table)
    results = evaluation.neighbor_query(params, table, vocab, alphabet, args.query,
                                        is_full_word=args.full_word, n=args.n)
    for token, sim in results:
        print(f"{token}\t{sim:.4f}")
    return 0


def cmd_noise(args):
    if args.seed is None:
        raise CliError("--seed is required")
    noise_cfg = _noise_config(args)
    rng = random.Random(args.seed)
    changed = 0
    with open(args.in_corpus, encoding="utf-8") as src, \
            open(args.out, "w", encoding="utf-8") as dst:
        for line in src:
            words = line.rstrip("\n").split(" ")
            noised = [sample_noisy(word, rng, noise_cfg) if word else word for word in words]
            changed += sum(out != word for out, word in zip(noised, words))
            dst.write(" ".join(noised) + "\n")
    print(f"changed {changed} tokens")
    return 0


def cmd_stats(args):
    vocab, _, _ = _load_inputs(args, need_table=False)
    with open(args.corpus, encoding="utf-8") as fh:
        sentences = [ln.rstrip("\n") for ln in fh]
    stats = evaluation.seq_length_stats(sentences, vocab)
    print(stats.to_text(), end="")
    return 0


def cmd_embed(args):
    vocab, alphabet, table = _load_inputs(args)
    mode = EmbedMode(args.mode)
    params = _load_model(args, alphabet, table) if mode != EmbedMode.TABLE_ONLY else None
    if args.sentence is not None:
        sentences = [args.sentence]
    elif args.file:
        with open(args.file, encoding="utf-8") as fh:
            sentences = [ln.rstrip("\n") for ln in fh]
    else:
        raise CliError("provide a sentence argument or --file")
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        for sentence in sentences:
            embedded = embed_sequence(mode, sentence, vocab, table, params=params,
                                      alphabet=alphabet)
            write_embeddings(out, embedded, mode)
    return 0


def cmd_attn(args):
    _, alphabet, _ = _load_inputs(args, need_table=False)
    params = _load_model(args, alphabet)
    text = evaluation.dump_attention(params, alphabet, args.query,
                                     is_full_word=args.full_word)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def cmd_params(args):
    if args.checkpoint:
        alphabet = _load_inputs(args, need_table=False)[1] if args.vocab else None
        params = _load_model(args, alphabet)
        config, alphabet_size = params.config, params.alphabet_size
    else:
        alphabet_size = len(_load_inputs(args, need_table=False)[1])
        config = _model_config(args, args.d_out)
    module = model_mod.param_count(config, alphabet_size)
    table = model_mod.table_param_count(args.table_v, args.table_d)
    print(f"char2subword parameters: {module}")
    print(f"embedding table parameters ({args.table_v} x {args.table_d}): {table}")
    if table:
        print(f"module/table ratio: {module / table:.4f}")
    return 0


def build_parser(parser_class=argparse.ArgumentParser):
    parser = parser_class(
        prog="char2subword",
        description="Train and evaluate a character-level mimic of a frozen "
                    "subword embedding table.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, table=True, ckpt=False, seed=False):
        p.add_argument("--config", help="JSON config file of flag values; flags override it")
        p.add_argument("--vocab", help="vocabulary file, one token per line")
        if table:
            p.add_argument("--table", help="embedding table file (text or EMBT binary)")
        if ckpt:
            p.add_argument("--checkpoint", help="model checkpoint (C2SW binary)")
        if seed:
            p.add_argument("--seed", type=int, help="random seed (required; no wall-clock default)")

    def model_flags(p):
        p.add_argument("--d-char", type=int, default=16)
        p.add_argument("--n-layers", type=int, default=2)
        p.add_argument("--n-heads", type=int, default=2)
        p.add_argument("--max-chars", type=int, default=model_mod.ModelConfig.max_chars)

    def train_flags(p):
        p.add_argument("--epochs", type=int, default=100)
        p.add_argument("--lr", type=float, default=TrainConfig.lr)
        p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)

    def noise_flags(p):
        p.add_argument("--layouts", help="keyboard layout JSON file")
        p.add_argument("--p-noise", type=float, default=NoiseConfig.p_noise)
        p.add_argument("--min-length", type=int, default=NoiseConfig.min_length)
        p.add_argument("--ops", default=",".join(NoiseConfig.enabled_ops),
                       help="comma-separated noise operations")

    p = sub.add_parser("simulate", help="train the module to mimic the table")
    common(p, seed=True)
    model_flags(p)
    train_flags(p)
    noise_flags(p)
    p.add_argument("--noise", action="store_true", help="enable noise augmentation")
    p.add_argument("--w-cos", type=float, default=LossWeights.l_cos)
    p.add_argument("--w-ce", type=float, default=LossWeights.l_ce)
    p.add_argument("--w-l2", type=float, default=LossWeights.l_l2)
    p.add_argument("--w-nbr", type=float, default=LossWeights.l_nbr)
    p.add_argument("--nbr-k", type=int, default=TrainConfig.nbr_k)
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
    p.add_argument("--k", type=int, default=evaluation.EVAL_K, help="max neighbor depth")
    p.add_argument("--out", help="report output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("neighbors", help="nearest vocabulary entries for a query")
    common(p, ckpt=True)
    p.add_argument("query")
    p.add_argument("-n", type=int, default=5, help="number of neighbors")
    p.add_argument("--subword", dest="full_word", action="store_false",
                   help="treat the query as a subword piece")
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
    p.add_argument("--mode", choices=[m.value for m in EmbedMode], default="hybrid")
    p.add_argument("sentence", nargs="?")
    p.add_argument("--file", help="embed every line of this file")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("attn", help="dump attention maps for an input")
    common(p, table=False, ckpt=True)
    p.add_argument("query")
    p.add_argument("--subword", dest="full_word", action="store_false")
    p.add_argument("--out")
    p.set_defaults(func=cmd_attn)

    p = sub.add_parser("params", help="module vs table parameter accounting")
    common(p, table=False, ckpt=True)
    model_flags(p)
    p.add_argument("--d-out", type=int, default=768)
    p.add_argument("--table-v", type=int, default=119547)
    p.add_argument("--table-d", type=int, default=768)
    p.set_defaults(func=cmd_params)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
