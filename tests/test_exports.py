"""The package's export list and its keyword defaults: pinned, and matching
what the modules define."""

import importlib
import inspect
import pkgutil

import numpy as np

import lattisketch as ls

# Adding or removing a public name is a deliberate edit of this list.
EXPORTS = [
    "PEN_DOWN", "PEN_LIFT", "PEN_END",
    "VectorSketch", "RasterSketch", "parse_quickdraw_line", "to_stroke5",
    "rasterize", "render_svg",
    "sketch_to_json_obj", "sketch_from_json_obj", "write_pgm", "read_pgm",
    "canonicalize_raster",
    "LatticeConfig", "SketchLattice", "line_positions", "sample_lattice",
    "mask_lattice", "lattice_from_json_obj",
    "GraphConfig", "SketchGraph", "build_adjacency",
    "EncoderConfig", "init_encoder_params", "encode_graphs", "encode_graphs_backward",
    "encode", "reparameterize", "reparameterize_backward", "count_parameters",
    "DecoderConfig", "init_decoder_params", "generate",
    "teacher_forced_nll", "teacher_forced_backward",
    "ParameterStore", "save_checkpoint", "load_checkpoint", "checkpoint_hash",
    "TrainConfig", "PipelineConfig", "OptimizerState", "ModelBundle",
    "lr_schedule", "clip_gradients", "adam_update", "train_step", "init_params",
    "load_dataset", "prepare_items", "save_model", "load_model", "fit",
    "finite_diff_audit", "audit_probe",
    "HealRequest", "RetrievalReport", "heal", "encode_raster", "embed_gallery",
    "retrieve", "healing_sweep",
    "generate_dataset", "make_sketch_record",
    "LattisketchError", "MalformedRecord", "SequenceTooLong", "DatasetEmpty",
    "CheckpointWriteFailure", "CheckpointFormatError", "EmptyLattice",
    "ShapeMismatch", "OutOfRange", "TokenOutOfVocabulary", "NumericalUnderflow",
    "AllItemsSkipped", "NodeBudgetExceeded",
    "__version__",
]


def test_all_is_the_pinned_list():
    assert ls.__all__ == EXPORTS


def test_all_resolves_and_lists_every_public_import():
    assert [n for n in ls.__all__ if not hasattr(ls, n)] == []
    assert len(set(ls.__all__)) == len(ls.__all__)
    unlisted = [n for n, obj in vars(ls).items()
                if not n.startswith("_") and callable(obj)
                and getattr(obj, "__module__", "").startswith("lattisketch.")
                and n not in ls.__all__]
    assert unlisted == []


# Every keyword parameter with a default (27 of them) on a public function or
# method, in every module but the CLI: adding a setting is a deliberate edit here.
KEYWORD_DEFAULTS = {
    "decoder.init_decoder_params": {"dtype": np.float32},
    "encoder.init_encoder_params": {"dtype": np.float32, "side": 256},
    "encoder.encode_layer": {"dropout": None},
    "encoder.encode_graphs": {"train_mode": False, "rng": None},
    "encoder.reparameterize": {"rng": None, "noise": None},
    "graph_builder.build_adjacency": {"dtype": np.float64},
    "params.ParameterStore.add": {"trainable": True},
    "params.save_checkpoint": {"configs": None, "extra": None},
    "pipeline_eval.encode_raster": {"n": None},
    "pipeline_eval.retrieve": {"ks": (1, 3), "self_indices": None},
    "pipeline_eval.healing_sweep": {"n": None, "seed": 0},
    "sketch_data.rasterize": {"side": 256},
    "sketch_data.sketch_to_json_obj": {"label": None},
    "sketch_data.canonicalize_raster": {"side": 256},
    "synth.generate_dataset": {"seed": 0},
    "trainer.lr_schedule": {"lr0": 1e-3, "decay": 0.999},
    "trainer.init_params": {"seed": None, "dtype": None},
    "trainer.fit": {"resume": None},
    "trainer.audit_probe": {"seed": 0},
}


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr in vars(obj):
                method = getattr(obj, attr)
                if not attr.startswith("_") and inspect.isroutine(method):
                    yield f"{name}.{attr}", method


def keyword_defaults() -> dict:
    table = {}
    for info in pkgutil.iter_modules(ls.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module(f"lattisketch.{info.name}")
        for name, fn in _public_callables(module):
            defaults = {p.name: p.default for p in inspect.signature(fn).parameters.values()
                        if p.default is not inspect.Parameter.empty}
            if defaults:
                table[f"{info.name}.{name}"] = defaults
    return table


def test_keyword_defaults_are_the_pinned_table():
    assert keyword_defaults() == KEYWORD_DEFAULTS
