"""Command-line entry point wiring the whole pipeline.

Subcommands: ingest, train, heal, generate, img2sketch, eval, audit-grad,
render, params; each takes only the flags it reads. Settings resolve in
three layers: built-in defaults, a key=value config file (--config), then
the --seed, --n and --pmask flags the command takes. Commands that take a
checkpoint read the model configuration from its header, not --config.

Every command that produces files writes exactly one manifest.json next
to them (command, resolved config, seed, inputs, outputs, checkpoint
hash). Outputs carry no timestamps, so identical inputs give
byte-identical files. Commands other than train stage their files and
move them into --out only on success. Exit codes: 0 success, 2 usage,
3 data error, 4 numeric/model error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .decoder import decoder_layout, generate
from .encoder import encoder_layout, reparameterize
from .errors import DatasetEmpty, LattisketchError, MalformedRecord, OutOfRange
from .params import checkpoint_hash
from .lattice import sketch_lattices
from .pipeline_eval import (HEAL_P_MASK, HealRequest, _lattice_config, _lattice_of,
                            encode_lattice, heal, heal_lattice, healing_sweep)
from .sketch_data import (LINES_PER_CHUNK, VectorSketch, rasterize, read_pgm, read_sketches,
                          render_svg, sketch_to_json_obj, write_pgm)
from .trainer import (PipelineConfig, finite_diff_audit, audit_probe, fit, init_params,
                      load_dataset, load_model)

AUDIT_TOL = 1e-3  #: audit-grad fails once an array's max relative error reaches this

# config file keys: name -> (section, dataclass field, parser)
_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(v: str) -> bool:
    try:
        return _BOOL[v.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {v!r}")


CONFIG_KEYS = {
    "d": ("encoder", "d", int),
    "k": ("encoder", "K", int),
    "dropout_rate": ("encoder", "dropout_rate", float),
    "pooling": ("encoder", "pooling", str),
    "embed_mode": ("encoder", "embed_mode", str),
    "row_normalize": ("encoder", "row_normalize", _parse_bool),
    "bn_momentum": ("encoder", "bn_momentum", float),
    "hidden_size": ("decoder", "hidden_size", int),
    "mixtures": ("decoder", "M", int),
    "n_max": ("decoder", "n_max", int),
    "temperature": ("decoder", "temperature", float),
    "n": ("lattice", "n", int),
    "side": ("lattice", "side", int),
    "proximity": ("graph", "proximity", str),
    "d_t": ("graph", "d_t", float),
    "self_loops": ("graph", "self_loops", _parse_bool),
    "lr0": ("train", "lr0", float),
    "decay": ("train", "decay", float),
    "beta1": ("train", "beta1", float),
    "beta2": ("train", "beta2", float),
    "eps": ("train", "eps", float),
    "clip": ("train", "clip", float),
    "batch_size": ("train", "batch_size", int),
    "iterations": ("train", "iterations", int),
    "p_mask_train": ("train", "p_mask_train", float),
    "seed": ("train", "seed", int),
    "checkpoint_every": ("train", "checkpoint_every", int),
    "dtype": ("train", "dtype", str),
}


def parse_config_file(path) -> dict:
    """key=value lines, '#' comments; unknown keys are rejected."""
    sections = {f.name: {} for f in dataclasses.fields(PipelineConfig)}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise MalformedRecord(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise MalformedRecord(f"{path}:{lineno}: unknown config key {key!r}")
            section, field_name, caster = CONFIG_KEYS[key]
            try:
                sections[section][field_name] = caster(value)
            except ValueError as exc:
                raise MalformedRecord(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return sections


def _non_negative_int(text: str) -> int:
    """argparse type for counts and limits; argparse reports a ValueError as usage."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _float_list(text: str) -> list:
    """argparse type for comma-separated masking rates in [0, 1] such as 0.0,0.1,0.3."""
    values = [float(v) for v in text.split(",")]
    bad = [v for v in values if not 0.0 <= v <= 1.0]  # NaN fails the comparison too
    if bad:
        raise argparse.ArgumentTypeError(f"values must lie in [0, 1], got {bad[0]}")
    return values


def build_pipeline_config(args) -> PipelineConfig:
    """defaults <- config file <- the --seed, --n and --pmask flags the command takes."""
    sections = (parse_config_file(args.config) if args.config
                else {f.name: {} for f in dataclasses.fields(PipelineConfig)})
    for flag, key in (("seed", "seed"), ("n", "n"), ("pmask", "p_mask_train")):
        if (value := getattr(args, flag, None)) is not None:
            section, field_name, _ = CONFIG_KEYS[key]
            sections[section][field_name] = value
    return PipelineConfig.from_sections(sections)


def write_manifest(out_dir: Path, command: str, config: dict, seed,
                   inputs, outputs, checkpoint=None) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(Path(p).name) for p in outputs],
        "checkpoint_hash": checkpoint_hash(checkpoint) if checkpoint else None,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def _staged_out(out, command: str, config: dict, seed, inputs, checkpoint=None):
    """Yield (stage, names): a fresh hidden directory for the command's files, inside out
    if it exists, else beside it, and a list for their names. When the block ends normally,
    manifest.json is written and every file moves into out, made under the umask if missing,
    replacing same-named files and keeping others. On any error nothing reaches out. The
    stage is deleted either way."""
    out = anchor = Path(out)
    while not anchor.is_dir() and anchor != anchor.parent:  # on out's file system
        anchor = anchor.parent
    with tempfile.TemporaryDirectory(prefix=f".{out.name}.", dir=anchor) as stage:
        names = []
        yield Path(stage), names
        write_manifest(Path(stage), command, config, seed, inputs, names, checkpoint)
        for root, _, files in os.walk(stage):
            dest = os.path.join(out, os.path.relpath(root, stage))
            os.makedirs(dest, exist_ok=True)
            for name in files:
                os.replace(os.path.join(root, name), os.path.join(dest, name))


def _lattice_chunks(path, bundle, n, count=None):
    """Yield the lattices, with no raster per sketch, of a .pgm image or of a checked
    JSON-lines file LINES_PER_CHUNK sketches at a time, on the model's grid or n lines;
    with count, of the first count sketches only, though every line is read and checked."""
    if Path(path).suffix.lower() == ".pgm":
        yield [_lattice_of(read_pgm(path), bundle, n)]
        return
    sketches = read_sketches(path)
    if (first := next(sketches, None)) is None:
        raise DatasetEmpty(f"no sketch in {path}")
    kept = itertools.islice(itertools.chain([first], sketches), count)
    while chunk := list(itertools.islice(kept, LINES_PER_CHUNK)):
        yield sketch_lattices(chunk, _lattice_config(bundle, n))
    for _ in sketches:  # the rest is read for its checks only
        pass


def _write_sketch_outputs(out_dir: Path, stem: str, sketch: VectorSketch,
                          lattice=None) -> list:
    texts = {"svg": render_svg(sketch), "json": json.dumps(sketch_to_json_obj(sketch)) + "\n"}
    if lattice is not None:
        texts["lattice.json"] = json.dumps(lattice.to_json_obj()) + "\n"
    for ext, text in texts.items():
        (out_dir / f"{stem}.{ext}").write_text(text, encoding="utf-8")
    return [f"{stem}.{ext}" for ext in texts]


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    pcfg = build_pipeline_config(args)
    n_kept = n_empty = 0
    with _staged_out(args.out, "ingest", pcfg.configs_dict(), pcfg.train.seed,
                     args.inputs) as (stage, names):
        (stage / "rasters").mkdir()
        for input_path in args.inputs:
            stem, kept = Path(input_path).stem, 0
            names.append(f"{stem}.jsonl")
            with open(stage / names[-1], "w", encoding="utf-8") as fh:
                for sk in read_sketches(input_path):
                    if sk.is_empty():
                        n_empty += 1
                        continue
                    fh.write(json.dumps(sketch_to_json_obj(sk)) + "\n")
                    names.append(f"{stem}_{kept:05d}.pgm")
                    write_pgm(rasterize(sk, pcfg.lattice.side), stage / "rasters" / names[-1])
                    kept += 1
                    if kept == args.limit:
                        break
            n_kept += kept
    print(f"ingested {n_kept} sketches ({n_empty} empty drawings skipped)")
    return 0


def cmd_train(args) -> int:
    pcfg = build_pipeline_config(args)
    out = Path(args.out)  # fit makes it once the data is read
    summary = fit(args.data, pcfg, out, resume=args.resume)
    write_manifest(out, "train", summary["pcfg"].configs_dict(), pcfg.train.seed,
                   list(args.data), [summary["checkpoint"], summary["loss_csv"]],
                   checkpoint=summary["checkpoint"])
    print(f"trained {summary['iterations']} iterations on {summary['items']} items")
    print(f"checkpoint {summary['checkpoint']}")
    print(f"loss log {summary['loss_csv']}")
    return 0


def cmd_heal(args) -> int:
    bundle = load_model(args.checkpoint)
    p_mask = HEAL_P_MASK if args.pmask is None else args.pmask
    seed, first = args.seed or 0, 0
    with _staged_out(args.out, "heal", bundle.pcfg.configs_dict(), seed, [args.input],
                     args.checkpoint) as (stage, names):
        for lattices in _lattice_chunks(args.input, bundle, args.n):
            healed = []  # a whole chunk heals, then is written
            for i, lat in enumerate(lattices, first):
                try:
                    healed.append(heal_lattice(lat, p_mask, [seed, i], bundle))
                except LattisketchError as exc:
                    raise type(exc)(f"heal_{i:04d}: {exc}") from exc
            for i, (sketch, surviving) in enumerate(healed, first):
                names += _write_sketch_outputs(stage, f"heal_{i:04d}", sketch, surviving)
            first += len(healed)
    print(f"healed {first} sketch(es) at p_mask={p_mask}")
    return 0


def cmd_generate(args) -> int:
    bundle = load_model(args.checkpoint)
    seed, psi = args.seed or 0, None
    if args.input:
        (lat,) = itertools.chain.from_iterable(_lattice_chunks(args.input, bundle, args.n, 1))
        psi = encode_lattice(lat, bundle, "the encoded input has no lattice points")
    with _staged_out(args.out, "generate", bundle.pcfg.configs_dict(), seed,
                     [args.input] if args.input else [], args.checkpoint) as (stage, names):
        for first in range(0, args.count, LINES_PER_CHUNK):
            sketches = []  # a whole chunk is drawn, then written
            for i in range(first, min(first + LINES_PER_CHUNK, args.count)):
                rng = np.random.default_rng([seed, i])
                try:
                    z = (rng.standard_normal(bundle.pcfg.encoder.d) if psi is None
                         else reparameterize(psi, bundle.store, rng=rng).z)
                    sketches.append(generate(z, bundle.store, bundle.pcfg.decoder, rng))
                except LattisketchError as exc:
                    raise type(exc)(f"gen_{i:04d}: {exc}") from exc
            for i, sketch in enumerate(sketches, first):
                names += _write_sketch_outputs(stage, f"gen_{i:04d}", sketch)
    print(f"generated {args.count} sketch(es)")
    return 0


def cmd_img2sketch(args) -> int:
    bundle = load_model(args.checkpoint)
    sketch, lattice = heal(HealRequest(raster=read_pgm(args.input), p_mask=0.0, n=args.n,
                                       seed=args.seed or 0), bundle)
    with _staged_out(args.out, "img2sketch", bundle.pcfg.configs_dict(), args.seed or 0,
                     [args.input], args.checkpoint) as (stage, names):
        names += _write_sketch_outputs(stage, "img2sketch", sketch, lattice)
    print("synthesized 1 sketch from the edge map")
    return 0


def cmd_eval(args) -> int:
    bundle = load_model(args.checkpoint)
    sketches, labels = [], []
    for path in args.data:
        file_sketches, file_labels, _ = load_dataset([path], bundle.pcfg.decoder.n_max)
        sketches += file_sketches[:args.limit or None]
        labels += file_labels[:args.limit or None]
    rows, csv_text = healing_sweep(sketches, labels, bundle, args.pmask_list,
                                   n=args.n, seed=args.seed or 0)
    with _staged_out(args.out, "eval", bundle.pcfg.configs_dict(), args.seed or 0,
                     list(args.data), args.checkpoint) as (stage, names):
        names.append("metrics.csv")
        (stage / "metrics.csv").write_text(csv_text, encoding="utf-8")
    print(f"{'p_mask':>8} {'top1':>8} {'top3':>8} {'points':>10} {'failures':>9}")
    for r in rows:
        print(f"{r['p_mask']:>8.2f} {r['top1']:>8.4f} {r['top3']:>8.4f} "
              f"{r['mean_points']:>10.1f} {r['failures']:>9d}")
    print(f"metrics written to {Path(args.out) / 'metrics.csv'}")
    return 0


def cmd_audit_grad(args) -> int:
    if args.config:
        pcfg = build_pipeline_config(args)
    else:  # default probe-sized model
        pcfg = PipelineConfig.from_sections({
            "lattice": {}, "graph": {}, "encoder": {"d": 8, "K": 2, "dropout_rate": 0.1},
            "decoder": {"hidden_size": 8, "M": 2, "n_max": 16},
            "train": {"seed": args.seed or 0, "dtype": "float64"}})
    if pcfg.encoder.d > 16 or pcfg.decoder.hidden_size > 8 or pcfg.decoder.M > 2:
        raise OutOfRange("audit-grad needs a small config: d <= 16, hidden <= 8, M <= 2")
    store = init_params(pcfg, seed=args.seed or 0, dtype=np.float64)
    probe = audit_probe(pcfg, seed=args.seed or 0)
    report = finite_diff_audit(store, probe, pcfg)
    worst = 0.0
    print(f"{'array':<24} {'checked':>8} {'max_rel_err':>14}")
    for name, entry in report.items():
        print(f"{name:<24} {entry['checked']:>8d} {entry['max_rel_err']:>14.3e}")
        worst = max(worst, entry["max_rel_err"])
    print(f"worst relative error {worst:.3e} (tolerance {AUDIT_TOL:.1e})")
    if args.out:
        with _staged_out(args.out, "audit-grad", pcfg.configs_dict(), args.seed or 0,
                         []) as (stage, names):
            names.append("audit.csv")
            with open(stage / "audit.csv", "w", encoding="utf-8") as fh:
                fh.write("array,checked,max_rel_err\n")
                for name, entry in report.items():
                    fh.write(f"{name},{entry['checked']},{entry['max_rel_err']:.6e}\n")
    if worst >= AUDIT_TOL:
        print(f"error: AUDIT_FAILED: max relative error {worst:.3e} >= {AUDIT_TOL:.1e}",
              file=sys.stderr)
        return 4
    return 0


def cmd_render(args) -> int:
    pcfg = build_pipeline_config(args)
    with _staged_out(args.out, "render", pcfg.configs_dict(), pcfg.train.seed,
                     [args.input]) as (stage, names):
        for i, sk in enumerate(read_sketches(args.input)):
            if args.format in ("svg", "both"):
                names.append(f"render_{i:04d}.svg")
                (stage / names[-1]).write_text(render_svg(sk), encoding="utf-8")
            if args.format in ("pgm", "both"):
                names.append(f"render_{i:04d}.pgm")
                write_pgm(rasterize(sk, pcfg.lattice.side), stage / names[-1])
    print(f"rendered {len(names) // (2 if args.format == 'both' else 1)} sketch(es)")
    return 0


def cmd_params(args) -> int:
    pcfg = build_pipeline_config(args)  # counted from the layout: nothing is allocated
    parts = [("total", encoder_layout(pcfg.encoder, pcfg.lattice.side)),
             ("decoder total", decoder_layout(pcfg.decoder))]
    totals = []
    for label, rows in parts[:2 if args.all else 1]:
        counts = [(name, math.prod(shape)) for name, shape, trainable, _ in rows if trainable]
        for name, count in counts:
            print(f"{name} {count}")
        totals.append(sum(count for _, count in counts))
        print(f"{label} {totals[-1]}")
    if args.all:
        print(f"model total {sum(totals)}")
    return 0


# ---------------------------------------------------------------------------
# parser


# the flags several subcommands share: name -> add_argument keywords
_FLAGS = {
    "config": {"help": "key=value config file"},
    "seed": {"type": _non_negative_int, "help": "base random seed"},
    "n": {"type": int, "help": "lattice grid (lines per direction)"},
    "pmask": {"type": float, "help": "lattice corruption probability"},
    "checkpoint": {"required": True, "help": "model checkpoint path"},
    "out": {"required": True, "help": "output directory"},
}


def _add_command(sub, name, func, flags, help, optional=""):
    """A subparser running func with the named shared flags, those in optional not required."""
    p = sub.add_parser(name, help=help, allow_abbrev=False)  # eval --pmask is no --pmask-list
    for flag in flags.split():
        p.add_argument(f"--{flag}", **_FLAGS[flag])
    for flag in optional.split():
        p.add_argument(f"--{flag}", **{**_FLAGS[flag], "required": False})
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lattisketch", description="Lattice point sampling, "
                                     "graph encoding and stroke generation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "ingest", cmd_ingest, "config out",
                     "QuickDraw JSON-lines -> canonical dataset + rasters")
    p.add_argument("inputs", nargs="+", help="QuickDraw JSON-lines files")
    p.add_argument("--limit", type=_non_negative_int, default=0, help="max sketches per file")

    p = _add_command(sub, "train", cmd_train, "config seed n pmask out", "fit the model")
    p.add_argument("--data", nargs="+", required=True,
                   help="JSON-lines dataset files (one per category)")
    p.add_argument("--resume", help="checkpoint to continue from")

    p = _add_command(sub, "heal", cmd_heal, "checkpoint seed n pmask out",
                     "regenerate sketches from corrupted lattices")
    p.add_argument("--input", required=True, help="PGM raster or JSON-lines sketches")

    p = _add_command(sub, "generate", cmd_generate, "checkpoint seed n out",
                     "sample sketches from the prior or an encoded input")
    p.add_argument("--input", help="optional PGM, or JSON-lines whose first sketch is encoded "
                   "(every line is still read and checked)")
    p.add_argument("--count", type=_non_negative_int, default=1, help="number of samples")

    p = _add_command(sub, "img2sketch", cmd_img2sketch, "checkpoint seed n out",
                     "edge-map PGM -> vector sketch")
    p.add_argument("--input", required=True, help="edge map (binary PGM)")

    p = _add_command(sub, "eval", cmd_eval, "checkpoint seed n out",
                     "healing sweep + retrieval metrics")
    p.add_argument("--data", nargs="+", required=True,
                   help="JSON-lines dataset files (one per category)")
    p.add_argument("--pmask-list", type=_float_list, default="0.0,0.1,0.3",
                   help="comma-separated corruption levels")
    p.add_argument("--limit", type=_non_negative_int, default=0, help="max sketches per file")

    _add_command(sub, "audit-grad", cmd_audit_grad, "config seed",
                 "finite-difference gradient audit (small config)", optional="out")

    p = _add_command(sub, "render", cmd_render, "config out",
                     "sketch JSON-lines -> SVG and/or PGM")
    p.add_argument("--input", required=True, help="JSON-lines sketches")
    p.add_argument("--format", choices=("svg", "pgm", "both"), default="svg")

    p = _add_command(sub, "params", cmd_params, "config", "parameter-count report for the encoder")
    p.add_argument("--all", action="store_true",
                   help="also count decoder arrays and the model total")

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage/help printing
        return int(exc.code or 0)
    try:
        return args.func(args) or 0
    except LattisketchError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: IO_ERROR: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
