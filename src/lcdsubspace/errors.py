"""Exception taxonomy.

Every error carries a human-readable message; many also carry a ``witness``
attribute holding the offending object (index pair, matrix entry, ...) so
callers and the CLI can report machine-readable diagnostics.
"""


class LcdError(Exception):
    """Base class for all library errors."""

    def __init__(self, message="", witness=None):
        super().__init__(message or self.__class__.__name__)
        self.witness = witness


# --- fields and linear algebra ---

class NotPrime(LcdError):
    """Field characteristic is not a prime."""


class FieldTooLarge(LcdError):
    """Requested field order exceeds the supported bound."""


class EncodingOutOfRange(LcdError):
    """An encoded field element lies outside [0, q)."""


class NotAnInteger(LcdError):
    """A degree, dimension or count is not an integer (a bool is none)."""


class DivisionByZero(LcdError):
    """Multiplicative inverse of zero requested."""


class FieldMismatch(LcdError):
    """Operands belong to different fields."""


class DimensionMismatch(LcdError):
    """Matrix or vector shapes are incompatible."""


class IntOverflow(LcdError):
    """Integer matrix product could overflow 64-bit arithmetic."""


# --- subspaces ---

class AmbientMismatch(LcdError):
    """Subspaces live in different ambient spaces."""


class NotLCD(LcdError):
    """Subspace meets its own orthogonal complement nontrivially."""


class InternalInconsistency(LcdError):
    """Two independent computation paths disagreed; this is a bug."""


# --- codes ---

class EmptyCode(LcdError):
    """A subspace code needs at least one codeword."""


class DegenerateCode(LcdError):
    """Minimum distance is undefined for a single-codeword code."""


class PairBudgetExceeded(LcdError):
    """Exhaustive pairwise scan would exceed the pair budget."""


class NotLCDCode(LcdError):
    """Projection decoding requires every codeword to be LCD."""


class RankDeficient(LcdError):
    """Generator matrix does not have full row rank."""


# --- association schemes ---

class NotAPartition(LcdError):
    """Matrices (or cells) do not partition the expected set."""


class NotSymmetric(LcdError):
    """A relation matrix is not symmetric."""


class MissingIdentity(LcdError):
    """The identity matrix is not the 0th relation."""


class NotClosed(LcdError):
    """A product of relation matrices leaves their span."""


class IndexOutOfRange(LcdError):
    """Partition cell index outside the point set."""


class NotEquitable(LcdError):
    """Partition is not equitable for the given matrices."""


class NonIntegralQuotient(LcdError):
    """Quotient matrix entry is not an integer."""


class TooManyClasses(LcdError):
    """Divisibility screen supports at most 20 classes."""


# --- graphs and groups ---

class Disconnected(LcdError):
    """Graph is not connected."""


class NotDistanceRegular(LcdError):
    """Graph failed the distance-regularity check."""


class NotAnAutomorphism(LcdError):
    """A group generator does not preserve the graph."""


# --- Hadamard and weighing matrices ---

class GramFailure(LcdError):
    """Matrix times its transpose is not the required multiple of I."""


class BadAlphabet(LcdError):
    """Entries outside the allowed alphabet."""


class NotSquareOrder(LcdError):
    """Regular/Bush structure needs a perfect-square order."""


class OrderTooLarge(LcdError):
    """Exhaustive enumeration only supported for tiny orders."""


class NotUnbiased(LcdError):
    """Matrices are not pairwise unbiased."""


class NotRegular(LcdError):
    """Gramian construction needs regular Hadamard matrices."""


class NotBushType(LcdError):
    """Construction needs Bush-type Hadamard matrices."""


class OddN(LcdError):
    """No unbiased regular pairs of order 4n^2 exist for odd n."""


class BudgetExhausted(LcdError):
    """Search node budget ran out before the space was exhausted."""


# --- construction pipelines ---

class DimensionBlowup(LcdError):
    """Matrix algebra closure exceeded the dimension cap."""


class ZeroAlpha(LcdError):
    """Block [X | alpha*I] needs alpha != 0."""


class UnequalCells(LcdError):
    """Construction needs all partition cells to have the same size."""


class DivisibilityFails(LcdError):
    """Required intersection numbers are not divisible by p."""


class HypothesisFailed(LcdError):
    """A named hypothesis of a construction pipeline failed."""

    def __init__(self, name, witness=None):
        super().__init__(f"hypothesis failed: {name}", witness)
        self.name = name


class IdentityFails(LcdError):
    """A structural matrix identity did not hold."""


class VerificationFailed(LcdError):
    """Emitted object failed its independent verification step."""


# --- simulator / CLI ---

class InvalidSpec(LcdError):
    """Channel or CLI parameters out of range."""


class FileFormatError(LcdError):
    """Malformed matrix/group/partition file."""
