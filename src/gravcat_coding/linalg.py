"""Dense real-symmetric kernel for the 2x2 / 4x4 problems in this package.

Every matrix of the model is real symmetric, so the kernels run in float64.
Every kernel here but `matrix_function` works on stacks, whose matrices are
the last two axes.  The eigensolvers are LAPACK's ``dsyevd``, which treats
each matrix of a stack on its own, so a matrix gets the same bits alone or
inside any stack.  Only two routes read eigenvectors: the Gibbs state
(``numeric._gibbs``), through the unguarded `_eigenpairs`, and
`matrix_function`, through `eigh`.  Every other solve (entropies, positivity
checks) reads the spectrum alone, through the unguarded, eigenvalue-only
`_eigenvalues`.  The symmetry scan `require_hermitian` runs where input
from outside the package enters: in `eigh`, `matrix_function` and
`check_density`, and in ``thermal.gibbs_numeric``; the stacks the package
builds skip it, save a stack of Hamiltonians with a huge or non-finite entry
(``numeric._gibbs``), and ``verify`` checks its closed-form states with
`_require_state`, the density check without the scan.  They are exactly
symmetric: only `from_spectrum` and `check_density` re-symmetrize, and the
post-selection, the partial trace and the twirl keep that.
"""

from __future__ import annotations

import warnings

import numpy as np

HERMITIAN_TOL = 1e-8        # asymmetry beyond this is an error
TRACE_TOL = 1e-10
EIG_CLAMP_FLOOR = -1e-10    # eigenvalues in [floor, 0) are silent rounding noise
EIG_ERROR_FLOOR = -1e-8     # below this the state is genuinely invalid

# real 2x2 factors of the model's operators; in ``np.kron(a, b)`` the first
# factor acts on the first qubit, the slow (left) index
_PAULI_I = np.eye(2)
_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


class NonFiniteResultError(ArithmeticError):
    """A scalar function overflowed or produced a non-finite value on the spectrum."""


class LocatedError(ValueError):
    """An error of an array kernel; ``index`` locates the first offending element."""

    def __init__(self, message: str, index: tuple[int, ...] | None = None) -> None:
        super().__init__(message)
        self.index = index

    @classmethod
    def raise_first(cls, bad: np.ndarray, values: np.ndarray, template: str) -> None:
        """Raise at the first true element of ``bad``, if any, formatting its ``values`` entry."""
        if bad.any():
            index = tuple(int(i) for i in np.unravel_index(int(bad.argmax()), bad.shape))
            raise cls(template.format(values[index]), index)


class NotHermitianError(LocatedError):
    """Input matrix is not Hermitian within tolerance; ``index`` names it in a stack."""


class InvalidStateError(LocatedError):
    """Matrix violates the density-matrix contract (trace, positivity, or shape)."""


class NumericalNoiseWarning(UserWarning):
    """An eigenvalue noticeably below zero was clamped; treat results with care."""


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2 over the last two axes."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def require_hermitian(m) -> np.ndarray:
    """Return ``m`` as a float64 array, raising ``NotHermitianError`` unless its last
    two axes are square and symmetric within ``HERMITIAN_TOL`` (absolute,
    element-wise), and ``TypeError`` on input that is not real."""
    a = np.asarray(m)
    if np.iscomplexobj(a):
        raise TypeError(f"expected real matrices, got dtype {a.dtype}")
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotHermitianError(f"expected square matrices, got shape {a.shape}")
    dev = np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    message = f"matrix deviates from Hermitian symmetry by {{:.3e}} (tolerance {HERMITIAN_TOL:.0e})"
    NotHermitianError.raise_first(~(dev <= HERMITIAN_TOL), dev, message)  # also catches NaN
    return a


def eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a real symmetric matrix, or of a stack of them.

    The eigenvalues are in descending order and the eigenvectors are the
    matching orthonormal columns.  ``np.linalg.eigh`` works on each matrix
    of the last two axes separately, with LAPACK's ``dsyevd``; the order is
    reversed to descending.
    """
    return _eigenpairs(require_hermitian(m))


def _eigenpairs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`eigh` of a float64 symmetric matrix or stack, without the symmetry scan.

    Checks nothing: every caller's stack passed `require_hermitian` or is
    symmetric by construction.
    """
    values, vectors = np.linalg.eigh(m)
    return values[..., ::-1], vectors[..., ::-1]


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a float64 symmetric matrix or stack, as `eigh` orders them.

    ``np.linalg.eigvalsh`` runs ``dsyevd`` without eigenvectors (``jobz = 'N'``)
    and, like `_eigenpairs`, checks nothing: every caller's stack passed
    `require_hermitian` or is symmetric by construction.
    """
    return np.linalg.eigvalsh(m)[..., ::-1]


def from_spectrum(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(values) V^T over stacks, re-symmetrized."""
    return _symmetrized((vectors * values[..., np.newaxis, :]) @ vectors.swapaxes(-1, -2))


def matrix_function(m, f) -> np.ndarray:
    """Apply the scalar function ``f`` to a symmetric matrix, not a stack, through its spectrum.

    Returns V diag(f(lambda)) V^T, re-symmetrized.  Raises
    ``NonFiniteResultError`` if ``f`` overflows or yields a non-finite value
    on any eigenvalue.
    """
    values, vectors = eigh(m)
    fvals = np.empty_like(values)
    for i, lam in enumerate(values):
        try:
            fvals[i] = f(float(lam))
        except (OverflowError, ValueError) as exc:
            raise NonFiniteResultError(f"f({lam!r}) did not evaluate to a finite value") from exc
    if not np.isfinite(fvals).all():
        raise NonFiniteResultError("scalar function produced overflow or NaN on the spectrum")
    return from_spectrum(vectors, fvals)


def check_density(m, *, check_psd: bool = True) -> np.ndarray:
    """Return the stack re-symmetrized once each matrix is symmetric, has unit trace
    and, with ``check_psd``, no eigenvalue below the clamp floor; otherwise
    raise with the ``index`` of the first matrix that breaks the contract."""
    return _symmetrized(_require_state(require_hermitian(m), check_psd=check_psd))


def _require_state(a: np.ndarray, *, check_psd: bool = True) -> np.ndarray:
    """`check_density` of a float64 symmetric stack without the symmetry scan: return
    ``a`` as it is once each matrix has unit trace and, with ``check_psd``, no
    eigenvalue below the clamp floor; otherwise raise ``InvalidStateError``
    with the ``index`` of the first matrix that breaks the contract."""
    trace = np.trace(a, axis1=-2, axis2=-1)
    InvalidStateError.raise_first(
        np.abs(trace - 1.0) > TRACE_TOL, trace, "trace must be 1, got {:.12g}"
    )
    if check_psd:
        low = _eigenvalues(a)[..., -1]
        InvalidStateError.raise_first(
            low < EIG_CLAMP_FLOOR, low, "negative eigenvalue {:.3e} violates positivity"
        )
    return a


def entropy_bits(eigenvalues):
    """Shannon entropy in bits of a spectrum (the last axis), with the noise-clamping policy.

    Values in [-1e-10, 0) are treated as exact zeros (0 log 0 == 0).  Values
    in [-1e-8, -1e-10) are clamped too but flagged with
    ``NumericalNoiseWarning``.  Anything below -1e-8 raises
    ``InvalidStateError``, whose ``index`` locates the first such value.  A
    stack of spectra gives an array over the leading axes.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if not lam.min(initial=np.inf) >= EIG_CLAMP_FLOOR:  # one reduction; NaN takes the branch
        InvalidStateError.raise_first(
            lam < EIG_ERROR_FLOOR, lam,
            f"eigenvalue {{:.6e}} is below the {EIG_ERROR_FLOOR:.0e} floor",
        )
        if (noisy := lam < EIG_CLAMP_FLOOR).any():
            warnings.warn(
                f"clamping noisy eigenvalue {lam[noisy][0]:.3e} to zero",
                NumericalNoiseWarning,
                stacklevel=2,
            )
    kept = np.where(lam <= 0.0, 1.0, lam)  # a clamped value adds 1 log 1 = 0; NaN stays
    return np.maximum(-(kept * np.log2(kept)).sum(axis=-1), 0.0)


def two_qubit_matrix(rho) -> np.ndarray:
    """The matrix of a two-qubit state, checked at the public boundary."""
    a = check_density(rho, check_psd=False)  # positivity is policed by entropy_bits
    if a.shape != (4, 4):
        raise InvalidStateError(f"expected a 4x4 two-qubit state, got shape {a.shape}")
    return a


def _partial_trace_first(rho) -> np.ndarray:
    """Trace out the first qubit over a stack of two-qubit states: the sum of the two
    diagonal 2x2 blocks."""
    return rho[..., :2, :2] + rho[..., 2:, 2:]
