"""Exception hierarchy shared by all aqplearn modules."""


class AqpError(Exception):
    """Base class for all aqplearn errors."""


# --- store ---------------------------------------------------------------

class MalformedRow(AqpError):
    """A CSV row has the wrong number of fields."""


class ParseError(AqpError):
    """A cell could not be parsed for its declared attribute kind."""


class WrongKind(AqpError):
    """An operation was applied to an attribute of the wrong kind."""


class UnknownAttribute(AqpError):
    """An attribute name does not exist in the schema."""


class EmptyDataset(AqpError):
    """The operation needs at least one row."""


# --- querygen ------------------------------------------------------------

class InvalidTarget(AqpError):
    """Aggregation function not applicable to the attribute kind."""


class EmptyCombos(AqpError):
    """No member combinations observed in the data."""


class ShapeMismatch(AqpError):
    """A workload file is labeled where it must not be, or unlabeled where it must be."""


class TooFewQueries(AqpError):
    """Workload too small to partition into train/validation/test."""


# --- executor ------------------------------------------------------------

class EmptyAggregate(AqpError):
    """Avg/Median/Min/Max over zero matched rows is undefined."""


# --- encoder -------------------------------------------------------------

class UnknownToken(AqpError):
    """Query token absent from the vocabulary."""


class NumericOverflow(AqpError):
    """Quantized numeric literal does not fit in the vocabulary bit width."""


class MalformedMatrix(AqpError):
    """Matrix does not decode under the vocabulary and template layout."""


# --- nnet ----------------------------------------------------------------

class LengthMismatch(AqpError):
    """Prediction and label vectors differ in length."""


class DivergedLoss(AqpError):
    """Training loss became non-finite."""


class VersionMismatch(AqpError):
    """An artifact is of another kind, or of a version this build does not read."""


class VocabularyMismatch(AqpError):
    """Checkpoint was trained against a different vocabulary."""


class CheckpointMismatch(AqpError):
    """Checkpoint was trained on another target or split than the one asked for."""


# --- artifacts and cli -----------------------------------------------------

class CorruptArtifact(AqpError):
    """An input file does not parse, cannot be typed or disagrees with its header."""


class InvalidConfig(AqpError):
    """A model setting is unknown or out of range."""


class HashMismatch(AqpError):
    """Artifact was produced from a different upstream file than the one given."""


# --- metrics -------------------------------------------------------------

class DegenerateRange(AqpError):
    """True labels span a zero range; NRMSE undefined."""


class EmptyList(AqpError):
    """An input that must hold at least one item holds none."""
