"""Command-line entry point wiring the whole pipeline.

Subcommands: ingest, train, heal, generate, img2sketch, eval, audit-grad,
render, params. Settings resolve in three layers: built-in defaults, then
a key=value config file (--config), then explicit flags. Commands that
take a checkpoint read the model configuration from the checkpoint header
instead of the config file.

Every command that produces files writes exactly one manifest.json next
to them (command, resolved config, seed, inputs, outputs, checkpoint
hash). Outputs carry no timestamps, so identical inputs give
byte-identical files. Exit codes: 0 success, 2 usage, 3 data error,
4 numeric/model error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .decoder import generate
from .encoder import count_parameters, reparameterize
from .errors import DatasetEmpty, EmptyLattice, LattisketchError, MalformedRecord, OutOfRange
from .params import checkpoint_hash
from .lattice import sketch_lattices
from .pipeline_eval import (HEAL_P_MASK, _lattice_config, _lattice_of, edge_to_sketch,
                            encode_lattice, heal_lattice, healing_sweep)
from .sketch_data import (VectorSketch, rasterize, read_pgm, read_sketches, render_svg,
                          sketch_to_json_obj, write_pgm)
from .trainer import (PipelineConfig, finite_diff_audit, audit_probe, fit, init_params,
                      load_dataset, load_model)

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
    """defaults <- config file <- command-line flags."""
    sections = (parse_config_file(args.config) if args.config
                else {f.name: {} for f in dataclasses.fields(PipelineConfig)})
    if args.seed is not None:
        sections["train"]["seed"] = args.seed
    if args.n is not None:
        sections["lattice"]["n"] = args.n
    if args.pmask is not None:
        sections["train"]["p_mask_train"] = args.pmask
    return PipelineConfig.from_sections(sections)


def write_manifest(out_dir: Path, command: str, config: dict, seed,
                   inputs, outputs, checkpoint=None) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(Path(p).name) for p in outputs],
        "checkpoint_hash": checkpoint_hash(checkpoint) if checkpoint else None,
    }
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _lattices_from_input(path, bundle, n, count=None):
    """Lattices, with no raster per sketch, of a .pgm image or of the first count sketches
    of a checked JSON-lines file, on the model's grid or n lines; DATASET_EMPTY if none."""
    if Path(path).suffix.lower() == ".pgm":
        return [_lattice_of(read_pgm(path), bundle, n)]
    sketches = list(read_sketches(path))
    if not sketches:
        raise DatasetEmpty(f"no sketch in {path}")
    return sketch_lattices(sketches[:count], _lattice_config(bundle, n))


def _write_sketch_outputs(out_dir: Path, stem: str, sketch: VectorSketch,
                          lattice=None) -> list:
    texts = {"svg": render_svg(sketch), "json": json.dumps(sketch_to_json_obj(sketch)) + "\n"}
    if lattice is not None:
        texts["lattice.json"] = json.dumps(lattice.to_json_obj()) + "\n"
    written = [out_dir / f"{stem}.{ext}" for ext in texts]
    for path, text in zip(written, texts.values()):
        path.write_text(text, encoding="utf-8")
    return written


def _ensure_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    pcfg = build_pipeline_config(args)
    kept_per_input, n_empty = [], 0
    for input_path in args.inputs:  # every input is read before --out is made
        kept = []
        for sk in read_sketches(input_path):
            if sk.is_empty():
                n_empty += 1
                continue
            kept.append(sk)
            if args.limit and len(kept) >= args.limit:
                break
        kept_per_input.append(kept)
    out = _ensure_out(args)
    raster_dir = out / "rasters"
    raster_dir.mkdir(exist_ok=True)
    outputs = []
    for input_path, kept in zip(args.inputs, kept_per_input):
        stem = Path(input_path).stem
        outputs.append(out / f"{stem}.jsonl")
        outputs[-1].write_text("".join(json.dumps(sketch_to_json_obj(sk)) + "\n" for sk in kept),
                               encoding="utf-8")
        for i, sk in enumerate(kept):
            outputs.append(raster_dir / f"{stem}_{i:05d}.pgm")
            write_pgm(rasterize(sk, pcfg.lattice.side), outputs[-1])
    write_manifest(out, "ingest", pcfg.configs_dict(), pcfg.train.seed,
                   args.inputs, outputs)
    print(f"ingested {sum(map(len, kept_per_input))} sketches ({n_empty} empty drawings skipped)")
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
    healed = []
    for i, lat in enumerate(_lattices_from_input(args.input, bundle, args.n)):
        try:  # every item heals before --out is made
            healed.append(heal_lattice(lat, p_mask, [args.seed or 0, i], bundle))
        except (EmptyLattice, OutOfRange) as exc:
            raise type(exc)(f"heal_{i:04d}: {exc}") from exc
    out = _ensure_out(args)
    outputs = [path for i, (sketch, surviving) in enumerate(healed)
               for path in _write_sketch_outputs(out, f"heal_{i:04d}", sketch, surviving)]
    write_manifest(out, "heal", bundle.pcfg.configs_dict(),
                   args.seed or 0, [args.input], outputs, checkpoint=args.checkpoint)
    print(f"healed {len(healed)} sketch(es) at p_mask={p_mask}")
    return 0


def cmd_generate(args) -> int:
    bundle = load_model(args.checkpoint)
    inputs = [args.input] if args.input else []
    psi = None
    if args.input:
        lat = _lattices_from_input(args.input, bundle, args.n, count=1)[0]
        psi = encode_lattice(lat, bundle, "the encoded input has no lattice points")
    sketches = []
    for i in range(args.count):  # every sample is drawn before --out is made
        rng = np.random.default_rng([args.seed or 0, i])
        if psi is None:
            z = rng.standard_normal(bundle.pcfg.encoder.d)
        else:
            z = reparameterize(psi, bundle.store, rng=rng).z
        sketches.append(generate(z, bundle.store, bundle.pcfg.decoder, rng))
    out = _ensure_out(args)
    outputs = [path for i, sketch in enumerate(sketches)
               for path in _write_sketch_outputs(out, f"gen_{i:04d}", sketch)]
    write_manifest(out, "generate", bundle.pcfg.configs_dict(),
                   args.seed or 0, inputs, outputs, checkpoint=args.checkpoint)
    print(f"generated {args.count} sketch(es)")
    return 0


def cmd_img2sketch(args) -> int:
    bundle = load_model(args.checkpoint)
    raster = read_pgm(args.input)
    sketch, lattice = edge_to_sketch(raster, bundle, n=args.n, seed=args.seed or 0)
    out = _ensure_out(args)
    outputs = _write_sketch_outputs(out, "img2sketch", sketch, lattice)
    write_manifest(out, "img2sketch", bundle.pcfg.configs_dict(),
                   args.seed or 0, [args.input], outputs, checkpoint=args.checkpoint)
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
    out = _ensure_out(args)
    csv_path = out / "metrics.csv"
    csv_path.write_text(csv_text, encoding="utf-8")
    write_manifest(out, "eval", bundle.pcfg.configs_dict(), args.seed or 0,
                   list(args.data), [csv_path], checkpoint=args.checkpoint)
    print(f"{'p_mask':>8} {'top1':>8} {'top3':>8} {'points':>10} {'failures':>9}")
    for r in rows:
        print(f"{r['p_mask']:>8.2f} {r['top1']:>8.4f} {r['top3']:>8.4f} "
              f"{r['mean_points']:>10.1f} {r['failures']:>9d}")
    print(f"metrics written to {csv_path}")
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
    print(f"worst relative error {worst:.3e} (tolerance {args.tol:.1e})")
    if args.out:
        out = _ensure_out(args)
        report_path = out / "audit.csv"
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write("array,checked,max_rel_err\n")
            for name, entry in report.items():
                fh.write(f"{name},{entry['checked']},{entry['max_rel_err']:.6e}\n")
        write_manifest(out, "audit-grad", pcfg.configs_dict(),
                       args.seed or 0, [], [report_path])
    if worst >= args.tol:
        print(f"error: AUDIT_FAILED: max relative error {worst:.3e} >= {args.tol:.1e}",
              file=sys.stderr)
        return 4
    return 0


def cmd_render(args) -> int:
    pcfg = build_pipeline_config(args)
    sketches = list(read_sketches(args.input))  # read before --out is made
    out = _ensure_out(args)
    outputs = []
    for i, sk in enumerate(sketches):
        if args.format in ("svg", "both"):
            outputs.append(out / f"render_{i:04d}.svg")
            outputs[-1].write_text(render_svg(sk), encoding="utf-8")
        if args.format in ("pgm", "both"):
            outputs.append(out / f"render_{i:04d}.pgm")
            write_pgm(rasterize(sk, pcfg.lattice.side), outputs[-1])
    write_manifest(out, "render", pcfg.configs_dict(), pcfg.train.seed,
                   [args.input], outputs)
    print(f"rendered {len(sketches)} sketch(es)")
    return 0


def cmd_params(args) -> int:
    pcfg = build_pipeline_config(args)
    per_array, model_total = count_parameters(init_params(pcfg))
    enc = {name: count for name, count in per_array.items() if name.startswith("enc.")}
    total = sum(enc.values())
    for name, count in enc.items():
        print(f"{name} {count}")
    print(f"total {total}")
    if args.all:
        for name, count in per_array.items():
            if name not in enc:
                print(f"{name} {count}")
        print(f"decoder total {model_total - total}")
        print(f"model total {model_total}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattisketch",
        description="Lattice point sampling, graph encoding and stroke generation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--seed", type=_non_negative_int, help="base random seed")
    common.add_argument("--n", type=int, help="lattice grid (lines per direction)")
    common.add_argument("--pmask", type=float, help="lattice corruption probability")
    common.add_argument("--checkpoint", help="model checkpoint path")
    common.add_argument("--out", help="output directory")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="QuickDraw JSON-lines -> canonical dataset + rasters")
    p.add_argument("inputs", nargs="+", help="QuickDraw JSON-lines files")
    p.add_argument("--limit", type=_non_negative_int, default=0, help="max sketches per file")
    p.set_defaults(func=cmd_ingest, need_out=True)

    p = sub.add_parser("train", parents=[common], help="fit the model")
    p.add_argument("--data", nargs="+", required=True,
                   help="JSON-lines dataset files (one per category)")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train, need_out=True)

    p = sub.add_parser("heal", parents=[common],
                       help="regenerate sketches from corrupted lattices")
    p.add_argument("--input", required=True, help="PGM raster or JSON-lines sketches")
    p.set_defaults(func=cmd_heal, need_out=True, need_checkpoint=True)

    p = sub.add_parser("generate", parents=[common],
                       help="sample sketches from the prior or an encoded input")
    p.add_argument("--input", help="optional PGM, or JSON-lines whose first sketch is encoded "
                   "(every line is still read and checked)")
    p.add_argument("--count", type=_non_negative_int, default=1, help="number of samples")
    p.set_defaults(func=cmd_generate, need_out=True, need_checkpoint=True)

    p = sub.add_parser("img2sketch", parents=[common],
                       help="edge-map PGM -> vector sketch")
    p.add_argument("--input", required=True, help="edge map (binary PGM)")
    p.set_defaults(func=cmd_img2sketch, need_out=True, need_checkpoint=True)

    p = sub.add_parser("eval", parents=[common],
                       help="healing sweep + retrieval metrics")
    p.add_argument("--data", nargs="+", required=True,
                   help="JSON-lines dataset files (one per category)")
    p.add_argument("--pmask-list", type=_float_list, default="0.0,0.1,0.3",
                   help="comma-separated corruption levels")
    p.add_argument("--limit", type=_non_negative_int, default=0, help="max sketches per file")
    p.set_defaults(func=cmd_eval, need_out=True, need_checkpoint=True)

    p = sub.add_parser("audit-grad", parents=[common],
                       help="finite-difference gradient audit (small config)")
    p.add_argument("--tol", type=float, default=1e-3, help="max relative error allowed")
    p.set_defaults(func=cmd_audit_grad)

    p = sub.add_parser("render", parents=[common],
                       help="sketch JSON-lines -> SVG and/or PGM")
    p.add_argument("--input", required=True, help="JSON-lines sketches")
    p.add_argument("--format", choices=("svg", "pgm", "both"), default="svg")
    p.set_defaults(func=cmd_render, need_out=True)

    p = sub.add_parser("params", parents=[common],
                       help="parameter-count report for the encoder")
    p.add_argument("--all", action="store_true",
                   help="also count decoder arrays and the model total")
    p.set_defaults(func=cmd_params)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage/help printing
        return int(exc.code or 0)
    if getattr(args, "need_out", False) and not args.out:
        print("error: USAGE: --out is required for this command", file=sys.stderr)
        return 2
    if getattr(args, "need_checkpoint", False) and not args.checkpoint:
        print("error: USAGE: --checkpoint is required for this command", file=sys.stderr)
        return 2
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
