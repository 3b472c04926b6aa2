"""Exception taxonomy shared by every layer of the engine.

Everything raised on purpose derives from VbxError so callers (and the CLI)
can tell deliberate rejections apart from genuine bugs.
"""

from __future__ import annotations


class VbxError(Exception):
    """Base class for all deliberate rejections."""


class InvalidDimension(VbxError):
    """Dimension, valence, or size argument outside its allowed range."""


class SingularBasis(VbxError):
    """Candidate basis matrix is not invertible at the working tolerance."""


class ShapeMismatch(VbxError):
    """Operands disagree on dimension, valence, or field."""


class Singular(VbxError):
    """Matrix inversion requested for a non-invertible map."""


class IndexOutOfRange(VbxError):
    """Multi-index or flat index outside 1..d^(r+s)."""


class UnsupportedField(VbxError):
    """Operation defined only over the reals was given complex data."""


class _AtColumn(VbxError):
    """An error in expression text that carries the 1-based column where
    reading stopped."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.message = message
        self.position = position

    def __reduce__(self):  # pickle rebuilds from the arguments, not from str(self)
        return type(self), (self.message, self.position)

    def at(self, where: str):
        """This error, its type and column kept, with where (an entry's
        location, a file) before its message."""
        return type(self)(f"{where}: {self.message}", self.position)


class ParseError(_AtColumn):
    """Expression text rejected by the grammar."""


class UnknownSymbol(_AtColumn):
    """Identifier in an expression that the grammar does not recognize."""


class DomainViolation(VbxError):
    """Point lies outside the open box a map or field is defined on."""


class EvalError(VbxError):
    """Expression hit a pole or a function left its domain during evaluation."""


class NotADiffeomorphism(VbxError):
    """Map failed an invertibility probe (singular Jacobian at a sample)."""


class SpecError(VbxError):
    """Bundle specification file is malformed.

    Carries a JSON-pointer-ish location so the offending entry is findable.
    """

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class CocycleViolation(VbxError):
    """Transition data failed a cocycle identity where a hard failure is wanted."""


class BaseMismatch(VbxError):
    """Two bundles were expected to share a base atlas and do not."""


class ChartAssignmentError(VbxError):
    """Induced-bundle base map leaves its assigned target chart."""


class NotAnIsomorphism(VbxError):
    """Morphism lacks the invertibility a pullback construction requires."""


class SingularFrame(VbxError):
    """Candidate frame's matrix is singular somewhere on its chart."""


class FileError(VbxError):
    """Spec file missing, unreadable, or not valid JSON."""
