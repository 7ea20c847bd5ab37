"""Exception hierarchy shared across the package.

Every error carries a stable machine-parsable ``code`` and the process
exit code the CLI maps it to (2 usage, 3 data, 4 numeric/model).
"""


class LattisketchError(Exception):
    code = "ERROR"
    exit_code = 1

    def __str__(self):
        msg = super().__str__()
        return msg if msg else self.code


# data / input errors -> exit 3

class MalformedRecord(LattisketchError):
    code = "MALFORMED_RECORD"
    exit_code = 3


class SequenceTooLong(LattisketchError):
    code = "SEQUENCE_TOO_LONG"
    exit_code = 3


class DatasetEmpty(LattisketchError):
    code = "DATASET_EMPTY"
    exit_code = 3


class CheckpointWriteFailure(LattisketchError):
    code = "CHECKPOINT_WRITE_FAILURE"
    exit_code = 3


class CheckpointFormatError(LattisketchError):
    code = "CHECKPOINT_FORMAT_ERROR"
    exit_code = 3


# numeric / model errors -> exit 4

class EmptyLattice(LattisketchError):
    code = "EMPTY_LATTICE"
    exit_code = 4


class ShapeMismatch(LattisketchError):
    code = "SHAPE_MISMATCH"
    exit_code = 4


class OutOfRange(LattisketchError):
    code = "OUT_OF_RANGE"
    exit_code = 4


class NodeBudgetExceeded(OutOfRange):
    """A lattice with more points than graph_builder.MAX_NODES."""


class TokenOutOfVocabulary(LattisketchError):
    code = "TOKEN_OUT_OF_VOCABULARY"
    exit_code = 4


class NumericalUnderflow(LattisketchError):
    code = "NUMERICAL_UNDERFLOW"
    exit_code = 4


class AllItemsSkipped(LattisketchError):
    code = "ALL_ITEMS_SKIPPED"
    exit_code = 4
