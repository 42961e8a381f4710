"""Command-line surface: simulate, pretrain, eval, neighbors, noise, stats,
embed, attn, params.

Exit codes: 0 success, 2 configuration/usage error, 3 numeric failure.
Every usage error is one `error:` line and exit 2, reported before any input
file is read. Required: --vocab (all but noise and params); --table
(simulate, pretrain, eval, neighbors, embed); --checkpoint (pretrain, eval,
neighbors, attn); --seed (simulate, pretrain, noise); and embed's sentence
or --file, not both. embed needs --checkpoint unless --mode table_only.
params needs --vocab or --checkpoint, and takes the model flags (--d-char,
--n-layers, --n-heads, --max-chars, --d-out) only without --checkpoint.
simulate takes the noise flags (--p-noise, --min-length, --ops, --layouts)
only with --noise. A --layouts JSON file replaces NoiseConfig's default
layouts, the built-in QWERTY one.
A given --checkpoint is always read and checked, even by embed --mode table_only.
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
from dataclasses import replace

from . import evaluation, model as model_mod, training
from .embedder import EmbedMode, embed_sequence, write_embeddings
from .noise import NoiseConfig, load_layouts, noise_line
from .objectives import LossWeights, build_neighbor_index, check_vocab_size, load_table
from .training import TrainConfig, TrainingError
from .vocab import build_alphabet, check_word, load_vocabulary

CONFIG_VERSION = 1
# the model flags' defaults; --d-out (params only) defaults to the mBERT table width
_MODEL_DEFAULTS = {"d_char": 16, "n_layers": 2, "n_heads": 2,
                   "max_chars": model_mod.ModelConfig.max_chars, "d_out": 768}
_SWITCHES = {"noise": (True, "--noise"), "full_word": (False, "--subword")}


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises every usage error as CliError, so main() returns 2 with one error: line."""

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
    pre = _Parser(prog="char2subword", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    flags = {} if path is None else _config_argv(path)
    args = build_parser().parse_args(argv[:1] + list(flags.values()) + argv[1:])
    # a prefix of a flag parses as that flag, so each key must be a flag's full name
    unknown = sorted(key for key in flags if key == "config" or key not in vars(args))
    if unknown:
        raise CliError(f"{args.command} takes no config key(s) {unknown}")
    for flag, least in (("--k", 1), ("-n", 1), ("--table-v", 1), ("--table-d", 1),
                        ("--seed", 0)):  # counts and seeds, named before any file is read
        value = getattr(args, flag.lstrip("-").replace("-", "_"), least)
        if value < least:
            raise CliError(f"{args.command} {flag} must be >= {least}, got {value}")
    return args


def _load_inputs(args):
    """(vocab, alphabet, table, params) from --vocab, --table and --checkpoint,
    each None when the command has no such flag or it was not given. The table
    must have a row per vocabulary entry, and the checkpoint the vocabulary's
    alphabet (or character ids would mean other characters) and table width."""
    vocab = alphabet = table = params = None
    if getattr(args, "vocab", None) is not None:
        vocab = load_vocabulary(args.vocab)
        alphabet = build_alphabet(vocab)
    if getattr(args, "table", None) is not None:
        table = load_table(args.table)
        check_vocab_size(table, vocab)  # before eval spends time on the index
    if getattr(args, "checkpoint", None) is not None:
        params, alphabet_chars, _ = model_mod.load_checkpoint(args.checkpoint)
        if alphabet is not None and list(alphabet.chars) != alphabet_chars:
            raise CliError(f"--vocab {args.vocab} gives a character alphabet that differs "
                           f"from the one checkpoint {args.checkpoint} was trained with")
        if table is not None and table.dim != params.config.d_out:
            raise CliError(f"table {args.table} has width {table.dim} but checkpoint "
                           f"{args.checkpoint} has output width {params.config.d_out}")
    return vocab, alphabet, table, params


def _noise_config(args):
    """The NoiseConfig of the noise flags but --layouts; a flag not given takes its default."""
    ops = None if args.ops is None else tuple(op for op in args.ops.split(",") if op)
    options = {"enabled_ops": ops, "min_length": args.min_length, "p_noise": args.p_noise}
    return NoiseConfig(**{key: value for key, value in options.items() if value is not None})


def _with_layouts(noise_cfg, path):
    """noise_cfg with the layouts of the --layouts file `path`, if one was given."""
    if not path:
        return noise_cfg
    with open(path, encoding="utf-8") as fh:
        return replace(noise_cfg, layouts=load_layouts(fh))


def _train_config(args, **options):
    return TrainConfig(epochs=args.epochs, seed=args.seed, lr=args.lr,
                       batch_size=args.batch_size, **options)


def _model_config(args, d_out):
    return model_mod.ModelConfig(d_char=args.d_char, d_out=d_out, n_layers=args.n_layers,
                                 n_heads=args.n_heads, max_chars=args.max_chars)


def _write_metrics(path, metrics):
    with open(path, "w", encoding="utf-8") as fh:
        for record in metrics:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def cmd_simulate(args):
    unused = ["--" + dest.replace("_", "-") for dest in ("layouts", "p_noise", "min_length", "ops")
              if getattr(args, dest) is not None]
    if unused and not args.noise:
        raise CliError(f"simulate takes {', '.join(unused)} only with --noise")
    weights = LossWeights(l_cos=args.w_cos, l_ce=args.w_ce, l_l2=args.w_l2, l_nbr=args.w_nbr)
    train_cfg = _train_config(args, weights=weights, nbr_k=args.nbr_k,
                              noise=_noise_config(args) if args.noise else None)
    _model_config(args, d_out=1)  # checks the model flags; the table gives the real d_out
    vocab, alphabet, table, _ = _load_inputs(args)
    train_cfg = replace(train_cfg, noise=_with_layouts(train_cfg.noise, args.layouts))
    params = model_mod.init_params(_model_config(args, table.dim), len(alphabet), train_cfg.seed)
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
    train_cfg = _train_config(args)
    vocab, alphabet, table, params = _load_inputs(args)
    with open(args.corpus, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    sequences = training.corpus_samples(vocab, alphabet, lines,
                                        max_chars=params.config.max_chars)
    if not sequences:
        raise CliError(f"corpus {args.corpus} is empty")
    params, metrics = training.pretrain_mlm(params, sequences, vocab, table, alphabet, train_cfg)
    if metrics and not any(record["selected"] for record in metrics):
        raise CliError(f"corpus {args.corpus} selected no token to mask in {len(metrics)} "
                       f"epoch(s), so no step was taken; use a longer corpus or another --seed")
    model_mod.save_checkpoint(args.out, params, alphabet)
    if args.metrics:
        _write_metrics(args.metrics, metrics)
    if metrics:
        print(f"epoch {metrics[-1]['epoch']}: mlm_loss {metrics[-1]['mlm_loss']:.6f}")
    return 0


def cmd_eval(args):
    vocab, alphabet, table, params = _load_inputs(args)
    index = build_neighbor_index(table, args.k)
    text = evaluation.precision_at_k(params, vocab, table, index, alphabet,
                                     k_max=args.k).to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_neighbors(args):
    check_word(args.query)
    vocab, alphabet, table, params = _load_inputs(args)
    results = evaluation.neighbor_query(params, table, vocab, alphabet, args.query,
                                        is_full_word=args.full_word, n=args.n)
    for token, sim in results:
        print(f"{token}\t{sim:.4f}")
    return 0


def cmd_noise(args):
    noise_cfg = _with_layouts(_noise_config(args), args.layouts)
    rng = random.Random(args.seed)
    changed = 0
    with open(args.in_corpus, encoding="utf-8") as src, \
            open(args.out, "w", encoding="utf-8") as dst:
        for line in src:
            noised, n_changed = noise_line(line.rstrip("\n"), rng, noise_cfg)
            changed += n_changed
            dst.write(noised + "\n")
    print(f"changed {changed} tokens")
    return 0


def cmd_stats(args):
    vocab = _load_inputs(args)[0]
    with open(args.corpus, encoding="utf-8") as fh:
        sentences = [ln.rstrip("\n") for ln in fh]
    stats = evaluation.seq_length_stats(sentences, vocab)
    print(stats.to_text(), end="")
    return 0


def cmd_embed(args):
    mode = EmbedMode(args.mode)
    if mode != EmbedMode.TABLE_ONLY and not args.checkpoint:
        raise CliError(f"embed --mode {mode.value} requires --checkpoint")
    vocab, alphabet, table, params = _load_inputs(args)
    if args.file is None:
        sentences = [args.sentence]
    else:
        with open(args.file, encoding="utf-8") as fh:
            sentences = [ln.rstrip("\n") for ln in fh]
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        for sentence in sentences:
            embedded = embed_sequence(mode, sentence, vocab, table, params=params,
                                      alphabet=alphabet)
            write_embeddings(out, embedded, mode)
    return 0


def cmd_attn(args):
    check_word(args.query)
    _, alphabet, _, params = _load_inputs(args)
    text = evaluation.dump_attention(params, alphabet, args.query,
                                     is_full_word=args.full_word)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def cmd_params(args):
    if not (args.vocab or args.checkpoint):
        raise CliError("params requires --vocab or --checkpoint")
    shape = {dest: getattr(args, dest) for dest in _MODEL_DEFAULTS
             if getattr(args, dest) is not None}
    if shape and args.checkpoint:
        given = ", ".join("--" + dest.replace("_", "-") for dest in shape)
        raise CliError(f"params takes {given} only without --checkpoint, "
                       "which fixes the model")
    config = None if args.checkpoint else model_mod.ModelConfig(**{**_MODEL_DEFAULTS, **shape})
    _, alphabet, _, params = _load_inputs(args)
    module = (model_mod.param_count(config, len(alphabet)) if params is None
              else model_mod.param_count(params.config, params.alphabet_size))
    table = model_mod.table_param_count(args.table_v, args.table_d)
    print(f"char2subword parameters: {module}")
    print(f"embedding table parameters ({args.table_v} x {args.table_d}): {table}")
    print(f"module/table ratio: {module / table:.4f}")
    return 0


def build_parser():
    parser = _Parser(
        prog="char2subword",
        description="Train and evaluate a character-level mimic of a frozen "
                    "subword embedding table.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inputs = {"vocab": {"help": "vocabulary file, one token per line"},
              "table": {"help": "embedding table file (text or EMBT binary)"},
              "checkpoint": {"help": "model checkpoint (C2SW binary)"},
              "seed": {"type": int, "help": "random seed, >= 0 (no wall-clock default)"}}

    def common(p, *flags, optional=()):
        """--config, then each of `flags`, all required but the `optional` ones."""
        p.add_argument("--config", help="JSON config file of flag values; flags override it")
        for flag in flags:
            p.add_argument(f"--{flag}", required=flag not in optional, **inputs[flag])

    def model_flags(p, *dests, defaults=True):
        """One int flag per dest; with no defaults, a flag not given stays None."""
        for dest in dests:
            p.add_argument("--" + dest.replace("_", "-"), type=int,
                           default=_MODEL_DEFAULTS[dest] if defaults else None)

    def train_flags(p):
        p.add_argument("--epochs", type=int, default=100)
        p.add_argument("--lr", type=float, default=TrainConfig.lr)
        p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)

    def noise_flags(p):
        p.add_argument("--layouts", help="keyboard layout JSON file (default: built-in QWERTY)")
        p.add_argument("--p-noise", type=float)
        p.add_argument("--min-length", type=int)
        p.add_argument("--ops", help="comma-separated noise operations")

    p = sub.add_parser("simulate", help="train the module to mimic the table")
    common(p, "vocab", "table", "seed")
    model_flags(p, "d_char", "n_layers", "n_heads", "max_chars")
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
    common(p, "vocab", "table", "checkpoint", "seed")
    train_flags(p)
    p.add_argument("--corpus", required=True, help="one whitespace-tokenized sentence per line")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--metrics", help="per-epoch metrics log (JSON lines)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("eval", help="accuracy and precision@k report")
    common(p, "vocab", "table", "checkpoint")
    p.add_argument("--k", type=int, default=evaluation.EVAL_K, help="max neighbor depth")
    p.add_argument("--out", help="report output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("neighbors", help="nearest vocabulary entries for a query")
    common(p, "vocab", "table", "checkpoint")
    p.add_argument("query")
    p.add_argument("-n", type=int, default=5, help="number of neighbors")
    p.add_argument("--subword", dest="full_word", action="store_false",
                   help="treat the query as a subword piece")
    p.set_defaults(func=cmd_neighbors)

    p = sub.add_parser("noise", help="stream noise over a corpus")
    common(p, "seed")
    noise_flags(p)
    p.add_argument("in_corpus")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("stats", help="token vs subword sequence-length statistics")
    common(p, "vocab")
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("embed", help="embed sentences in table_only/full/hybrid mode")
    common(p, "vocab", "table", "checkpoint", optional=("checkpoint",))
    p.add_argument("--mode", choices=[m.value for m in EmbedMode], default="hybrid")
    text = p.add_mutually_exclusive_group(required=True)
    text.add_argument("sentence", nargs="?")
    text.add_argument("--file", help="embed every line of this file")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("attn", help="dump attention maps for an input")
    common(p, "vocab", "checkpoint")
    p.add_argument("query")
    p.add_argument("--subword", dest="full_word", action="store_false")
    p.add_argument("--out")
    p.set_defaults(func=cmd_attn)

    p = sub.add_parser("params", help="module vs table parameter accounting")
    common(p, "vocab", "checkpoint", optional=("vocab", "checkpoint"))
    model_flags(p, *_MODEL_DEFAULTS, defaults=False)  # filled in only without --checkpoint
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
