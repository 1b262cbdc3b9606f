"""Exception types shared across the package."""


class PptAtlasError(Exception):
    """Base class for all library errors."""


class NotAState(PptAtlasError):
    """Input matrix is not positive semidefinite within tolerance."""


class NotPpt(PptAtlasError):
    """State has a partial transpose with a negative eigenvalue."""


class SingularFactor(PptAtlasError):
    """A local 2x2 transformation factor is numerically singular."""


class InvariantMismatch(PptAtlasError):
    """Two independent evaluations of the same invariant disagree."""


class MaxIterations(PptAtlasError):
    """An iterative search failed to make progress within its retry budget."""


class BadArity(PptAtlasError):
    """A rank list has the wrong length for the requested party count."""


class DegeneratePencil(PptAtlasError):
    """A subspace's product-vector pencil gave fewer than four product vectors,
    or two that share their two-dimensional factor: the subspace holds a
    continuum of product vectors, or the pencil failed numerically."""


class DegenerateQuadruple(PptAtlasError):
    """A quadruple of 2-vectors has (near-)parallel members."""


class NotOrthonormal(PptAtlasError):
    """Vectors expected to be orthonormal are not, within tolerance."""


class NotRank4(PptAtlasError):
    """State does not have rank profile 4444 within tolerance."""


class InvalidParameter(PptAtlasError):
    """A construction parameter lies on an excluded locus."""


class DegenerateAngles(InvalidParameter):
    """Angle parameters make some basis vectors parallel."""


class DegenerateDraw(PptAtlasError):
    """A random draw hit a degenerate configuration too many times."""


class ConstructionError(PptAtlasError):
    """A constructor's internal consistency check failed."""
