"""lattisketch: sketch healing and synthesis on lattice graphs.

Raster drawings are sampled onto a uniform lattice, turned into a
proximity graph, encoded with a residual graph-convolutional encoder
into a latent vector, and decoded back into pen strokes by a mixture
density LSTM. Everything runs on numpy with hand-written gradients.
"""

from .decoder import (DecoderConfig, generate, init_decoder_params, teacher_forced_backward,
                      teacher_forced_nll)
from .encoder import (EncoderConfig, count_parameters, encode, encode_graphs,
                      encode_graphs_backward, init_encoder_params, reparameterize,
                      reparameterize_backward)
from .errors import (AllItemsSkipped, CheckpointFormatError, CheckpointWriteFailure,
                     DatasetEmpty, EmptyLattice, LattisketchError, MalformedRecord,
                     NodeBudgetExceeded, NumericalUnderflow, OutOfRange, SequenceTooLong,
                     ShapeMismatch, TokenOutOfVocabulary)
from .graph_builder import GraphConfig, SketchGraph, build_adjacency
from .lattice import (LatticeConfig, SketchLattice, lattice_from_json_obj,
                      line_positions, mask_lattice, sample_lattice)
from .params import (ParameterStore, checkpoint_hash, load_checkpoint,
                     save_checkpoint)
from .pipeline_eval import (HealRequest, RetrievalReport, embed_gallery, encode_raster,
                            heal, healing_sweep, retrieve)
from .sketch_data import (PEN_DOWN, PEN_END, PEN_LIFT, RasterSketch, VectorSketch,
                          canonicalize_raster, parse_quickdraw_line, rasterize, read_pgm,
                          render_svg, sketch_from_json_obj, sketch_to_json_obj, to_stroke5,
                          write_pgm)
from .synth import generate_dataset, make_sketch_record
from .trainer import (ModelBundle, OptimizerState, PipelineConfig, TrainConfig,
                      adam_update, audit_probe, clip_gradients,
                      finite_diff_audit, fit, init_params, load_dataset, load_model,
                      lr_schedule, prepare_items, save_model, train_step)

__version__ = "0.1.0"

__all__ = [
    "PEN_DOWN", "PEN_LIFT", "PEN_END",
    "VectorSketch", "RasterSketch", "parse_quickdraw_line", "to_stroke5",
    "rasterize", "render_svg",
    "sketch_to_json_obj", "sketch_from_json_obj", "write_pgm", "read_pgm",
    "canonicalize_raster",
    "LatticeConfig", "SketchLattice", "line_positions", "sample_lattice",
    "mask_lattice", "lattice_from_json_obj",
    "GraphConfig", "SketchGraph", "build_adjacency",
    "EncoderConfig", "init_encoder_params", "encode_graphs",
    "encode_graphs_backward", "encode", "reparameterize",
    "reparameterize_backward", "count_parameters",
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
