"""Exception types shared across the package.

Every mathematical precondition failure carries a machine-readable witness so
callers (and the CLI) can report exactly what went wrong.
"""

from __future__ import annotations

from typing import Any


class MomentStrataError(Exception):
    """Base class; ``witness`` holds JSON-serializable evidence."""

    def __init__(self, message: str, witness: Any = None):
        super().__init__(message)
        self.witness = witness


class NotDivisible(MomentStrataError):
    """Exact polynomial division left a nonzero remainder."""


class NotCoprimeStable(MomentStrataError):
    """A quotient operation needs semistable == stable and the model has a
    strictly semistable point; the witness is an offending support profile."""


class TruncationTooSmall(MomentStrataError):
    """A series truncation order is too small to certify the requested
    answer; the witness names the first undecidable degree."""


class RefinementViolation(MomentStrataError):
    """A perturbed stratification failed to refine the unperturbed one."""


class EpsilonSearchFailed(MomentStrataError):
    """No perturbation in the candidate ladder could be certified."""


class WeylSymmetryRequired(MomentStrataError):
    """A reflection-group operation was asked of a model whose weights are
    not symmetric under the reflection."""


class FlagAmbiguity(MomentStrataError):
    """A configuration admits more than one destabilizing flag, which the
    classifier assumes cannot happen; the witness lists the competing flags."""


class VerificationFailed(MomentStrataError, ArithmeticError):
    """An exact self-check failed: a search or canonical certificate, or a
    measure the stratum recursion relies on. The witness names the check."""
