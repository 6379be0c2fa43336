"""System definitions for integral delay systems with multiple delays.

An :class:`IdsSystem` holds N square matrices A_i and N positive delays
tau_i describing the dynamics

    x(t) = sum_i A_i * integral_{-tau_i}^{0} x(t+s) ds

A :class:`DiscreteIds` holds the pointwise-delay counterpart
x(t) = sum_i A_i x(t - tau_i), whose delays must be strictly increasing.

Both are immutable values: construction stores read-only float64 copies of
the A_i and a tuple of float delays, so a caller that later changes its own
arrays changes neither the system nor what is derived from it.  Derived data
lives on the system: ``tau_max`` is computed from ``tau``, and an integral
system caches its optimal spectral weights on first use.  Validation checks
the invariants; it adds nothing to the value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "IdsSystem",
    "DiscreteIds",
    "ValidationError",
    "ParseError",
    "validate_system",
    "load_system",
    "save_system",
    "benchmark_system",
]


class ValidationError(ValueError):
    """A candidate system violates a structural invariant."""


class ParseError(ValueError):
    """Serialized system text could not be decoded."""


def _freeze(M: np.ndarray) -> np.ndarray:
    out = np.array(M, dtype=float)
    out.setflags(write=False)
    return out


class _Value:
    """Matrices ``A`` and delays ``tau``, stored as read-only float64 copies
    and a tuple of floats."""

    A: tuple[np.ndarray, ...]
    tau: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(_freeze(M) for M in self.A))
        object.__setattr__(self, "tau", tuple(float(t) for t in self.tau))

    @property
    def n(self) -> int:
        return int(self.A[0].shape[0]) if self.A else 0

    @property
    def N(self) -> int:
        return len(self.A)

    @property
    def tau_max(self) -> float:
        return max(self.tau)


@dataclass(frozen=True)
class IdsSystem(_Value):
    """N-term integral delay system: matrices ``A`` and window lengths ``tau``."""

    A: tuple[np.ndarray, ...]
    tau: tuple[float, ...]

    @cached_property
    def optimal_weights(self) -> tuple[tuple[float, ...], float]:
        """``criteria_spectral.optimize_weights``' result, computed on first
        use (or by a ``weights_below`` search that runs to its end); a
        computation that raises stores nothing."""
        from .criteria_spectral import _minimize_weights

        return _minimize_weights(self)

    def with_delays(self, tau: tuple[float, ...] | list[float]) -> "IdsSystem":
        return validate_system(IdsSystem(A=self.A, tau=tuple(tau)))


@dataclass(frozen=True)
class DiscreteIds(_Value):
    """Pointwise-delay system x(t) = sum_i A_i x(t - tau_i), 0 < tau_1 < ... < tau_N."""

    A: tuple[np.ndarray, ...]
    tau: tuple[float, ...]


def _common_checks(A: tuple[np.ndarray, ...], tau: tuple[float, ...]) -> None:
    if len(A) == 0:
        raise ValidationError("N = 0: at least one delay term is required")
    if len(A) != len(tau):
        raise ValidationError(
            f"matrix/delay count mismatch: {len(A)} matrices, {len(tau)} delays"
        )
    n = A[0].shape[0] if A[0].ndim == 2 else -1
    for i, M in enumerate(A):
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValidationError(f"A[{i}] is not square: shape {M.shape}")
        if M.shape[0] != n:
            raise ValidationError(
                f"dimension mismatch: A[0] is {n}x{n} but A[{i}] is {M.shape[0]}x{M.shape[1]}"
            )
        if not np.all(np.isfinite(M)):
            raise ValidationError(f"A[{i}] has non-finite entries")
    for i, t in enumerate(tau):
        if not np.isfinite(t) or t <= 0.0:
            raise ValidationError(f"nonpositive delay: tau[{i}] = {t}")


def validate_system(raw: IdsSystem | DiscreteIds) -> IdsSystem | DiscreteIds:
    """Check all invariants of a system and return it.

    Idempotent: construction already stored the canonical read-only copy.
    For :class:`DiscreteIds` strict delay ordering is also enforced.
    """
    _common_checks(raw.A, raw.tau)
    if isinstance(raw, DiscreteIds):
        tau = raw.tau
        for i in range(1, len(tau)):
            if tau[i] <= tau[i - 1]:
                raise ValidationError(
                    f"delays must be strictly increasing: tau[{i-1}]={tau[i-1]} "
                    f">= tau[{i}]={tau[i]}"
                )
    return raw


def load_system(text: str) -> IdsSystem | DiscreteIds:
    """Parse the text system format.

    The format is a JSON object with keys ``"A"`` (list of row-major square
    numeric matrices) and ``"tau"`` (list of numbers), plus an optional
    ``"kind"`` in {"integral", "discrete"} defaulting to "integral".
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(obj, dict):
        raise ParseError("top-level value must be an object")
    for key in ("A", "tau"):
        if key not in obj:
            raise ParseError(f"missing required field {key!r}")
    kind = obj.get("kind", "integral")
    if kind not in ("integral", "discrete"):
        raise ParseError(f"field 'kind' must be 'integral' or 'discrete', got {kind!r}")
    if not isinstance(obj["A"], list):
        raise ParseError("field 'A' must be a list of matrices")
    mats = []
    for i, rows in enumerate(obj["A"]):
        try:
            M = np.array(rows, dtype=float)
        except (TypeError, ValueError) as e:
            raise ParseError(f"field 'A'[{i}] is not numeric: {e}") from e
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValidationError(f"A[{i}] is not square: shape {M.shape}")
        mats.append(M)
    try:
        tau = tuple(float(t) for t in obj["tau"])
    except (TypeError, ValueError) as e:
        raise ParseError(f"field 'tau' is not a list of numbers: {e}") from e
    cls = DiscreteIds if kind == "discrete" else IdsSystem
    if cls is DiscreteIds:
        return validate_system(DiscreteIds(A=tuple(mats), tau=tau))
    return validate_system(IdsSystem(A=tuple(mats), tau=tau))


def save_system(sys: IdsSystem | DiscreteIds) -> str:
    """Serialize a system; ``load_system(save_system(s))`` reproduces ``s``."""
    obj = {
        "kind": "discrete" if isinstance(sys, DiscreteIds) else "integral",
        "A": [np.asarray(M).tolist() for M in sys.A],
        "tau": [float(t) for t in sys.tau],
    }
    return json.dumps(obj, indent=2)


def benchmark_system(tau1: float = 0.3, tau2: float = 0.1) -> IdsSystem:
    """Built-in two-delay benchmark system used by the margin table and docs."""
    A1 = np.array([[-4.0, 1.0], [-13.0, 2.0]])
    A2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    return validate_system(IdsSystem(A=(A1, A2), tau=(tau1, tau2)))
