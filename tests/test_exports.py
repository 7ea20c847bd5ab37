"""The package's export list: pinned, and matching what __init__ imports."""

import lattisketch as ls

# Adding or removing a public name is a deliberate edit of this list.
EXPORTS = [
    "PEN_DOWN", "PEN_LIFT", "PEN_END",
    "VectorSketch", "RasterSketch", "parse_quickdraw_line", "to_stroke5",
    "from_stroke5", "validate_stroke5", "rasterize", "render_svg",
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
    "retrieve", "edge_to_sketch", "healing_sweep",
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
