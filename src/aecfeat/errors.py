"""Exception hierarchy shared across the package."""


class AecError(Exception):
    """Base class for all errors raised by this package."""


# --- audio / frontend ---------------------------------------------------

class BadSampleRate(AecError):
    pass


class SegmentTooShort(AecError):
    pass


class BadFrameLength(AecError):
    pass


class BadContext(AecError):
    pass


class EmptyInput(AecError):
    pass


class DimMismatch(AecError):
    pass


class SilentNoise(AecError):
    pass


class SilentSignal(AecError):
    pass


class NoiseTooShort(AecError):
    pass


class EmptyRir(AecError):
    pass


# --- networks -----------------------------------------------------------

class NoSoftmaxHead(AecError):
    pass


class ShapeMismatch(AecError):
    pass


class TooFewSamples(AecError):
    pass


class DegenerateLabels(AecError):
    pass


class NoHead(AecError):
    pass


class UnknownVariant(AecError):
    pass


# --- transforms ---------------------------------------------------------

class TooFewRows(AecError):
    pass


class ZeroVariance(AecError):
    pass


# --- classifiers --------------------------------------------------------

class TooFewFrames(AecError):
    pass


class EmptyClass(AecError):
    pass


class EmptyFrames(AecError):
    pass


# --- pipeline / io ------------------------------------------------------

class ParseError(AecError):
    pass


class MissingFile(AecError):
    pass


class EmptyManifest(AecError):
    pass


class EmptyReport(AecError):
    pass


class BadMagic(AecError):
    pass


class VersionMismatch(AecError):
    pass


class ChecksumFail(AecError):
    pass


class FingerprintMismatch(AecError):
    pass


class StageError(AecError):
    """Wraps a failure with the name of the pipeline stage it occurred in."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
