"""Closed-loop realization and stability matrices.

A realization matrix R expresses every signal in a closed loop as a
combination of all signals plus a per-signal external disturbance,
eta = R eta + d.  The stability matrix S is the map from the stacked
disturbances to the stacked signals, eta = S d.  Whenever both exist they
satisfy (I - R) S = S (I - R) = I, so S = (I - R)^{-1}; this module computes
and verifies that identity exactly, checks the causality/stability
conditions for an internally stable loop, completes linearly dependent
stability columns, and handles invertible disturbance-basis changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import InvariantViolation, SingularMatrixError, SpaceMismatchError
from .tfmatrix import SignalSpace, TFMatrix, _product_is, _sliced, embed


@dataclass(frozen=True)
class Realization:
    """Square realization matrix over a signal space.

    ``structural_zeros`` lists (row, col) block pairs asserted to be zero;
    each assertion is checked against the actual entries on construction.
    """

    space: SignalSpace
    R: TFMatrix
    structural_zeros: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "structural_zeros", frozenset(self.structural_zeros))
        if self.R.rows != self.space or self.R.cols != self.space:
            raise SpaceMismatchError("realization matrix must be square over its signal space")
        for rname, cname in self.structural_zeros:
            rows, cols = self.space.index_range(rname), self.space.index_range(cname)
            if any(self.R.entries[i][j] for i in rows for j in cols):
                raise InvariantViolation(
                    f"block ({rname!r}, {cname!r}) declared zero but has nonzero entries"
                )

    @classmethod
    def from_blocks(
        cls, space: SignalSpace, blocks: Mapping[tuple[str, str], TFMatrix]
    ) -> "Realization":
        """Realization with the given blocks of R; every block not given is a structural zero."""
        r = TFMatrix.from_blocks(space, space, blocks)
        names = space.names
        return cls(space, r, frozenset((a, b) for a in names for b in names if (a, b) not in blocks))


@dataclass(frozen=True)
class StabilityMatrix:
    """Square disturbance-to-signal transfer matrix over a signal space."""

    space: SignalSpace
    S: TFMatrix

    def __post_init__(self):
        if self.S.rows != self.space or self.S.cols != self.space:
            raise SpaceMismatchError("stability matrix must be square over its signal space")


@dataclass(frozen=True)
class Transformation:
    """Invertible disturbance-basis change d = T w.

    Stores both T and its inverse; T T_inv = T_inv T = I is checked exactly
    on construction by ``tfmatrix._product_is``.  One product suffices: over
    the field of rational functions a one-sided inverse of a square matrix
    is two-sided.
    """

    T: TFMatrix
    T_inv: TFMatrix

    def __post_init__(self):
        if not self.T.is_square or self.T.rows != self.T_inv.rows:
            raise SpaceMismatchError("transformation matrices must be square over one space")
        if not _product_is(self.T, self.T_inv, TFMatrix.identity(self.T.rows)):
            raise InvariantViolation("T and T_inv are not exact inverses")

    @classmethod
    def from_matrix(cls, T: TFMatrix) -> "Transformation":
        return cls(T, T.inverse())

    def inverted(self) -> "Transformation":
        return Transformation(self.T_inv, self.T)


@dataclass(frozen=True)
class BlockFinding:
    """One failed condition, located by matrix ('R' or 'S') and block names."""

    matrix: str
    row: str
    col: str
    kind: str  # "improper" or "unstable"


@dataclass(frozen=True)
class ConditionReport:
    passed: bool
    findings: tuple[BlockFinding, ...]


def stability_from_realization(r: Realization) -> StabilityMatrix:
    """S = (I - R)^{-1}.

    Raises SingularMatrixError when I - R is singular, in which case no
    stability matrix exists for this realization.
    """
    eye = TFMatrix.identity(r.space)
    try:
        s = (eye - r.R).inverse()
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            "no stability matrix exists: I - R is singular"
        ) from exc
    return StabilityMatrix(r.space, s)


def verify_lemma(r: Realization, s: StabilityMatrix) -> bool:
    """Check (I - R) S = S (I - R) = I exactly.

    Only (I - R) S = I is decided, by ``tfmatrix._product_is``: I - R and S
    are square over the field of rational functions, where a one-sided
    inverse is two-sided.
    """
    if r.space != s.space:
        raise SpaceMismatchError("realization and stability matrix use different spaces")
    eye = TFMatrix.identity(r.space)
    return _product_is(eye - r.R, s.S, eye)


def check_conditions(
    r: Realization, s: StabilityMatrix, verdicts: dict | None = None
) -> ConditionReport:
    """Causality and internal-stability conditions for a synthesized loop.

    Off-diagonal blocks of R must be proper and every block of S must be
    stable proper.  Diagonal blocks of R are exempt: rows that encode plant
    dynamics carry improper diagonal entries by construction.  Failures are
    reported, not raised.  Each name's index range and one-block space are
    built once per check, and each distinct denominator of S is tested for
    stability once.  ``verdicts`` is the check's dict from denominator to
    verdict, as ``TFMatrix.classify`` takes it: pass one to share the
    verdicts with the check's later classifications.
    """
    if r.space != s.space:
        raise SpaceMismatchError("realization and stability matrix use different spaces")
    findings: list[BlockFinding] = []
    names = r.space.names
    ranges = {a: r.space.index_range(a) for a in names}
    spaces = {a: SignalSpace.single(a, len(rr)) for a, rr in ranges.items()}

    def block(m: TFMatrix, a: str, b: str) -> TFMatrix:
        return TFMatrix._of(spaces[a], spaces[b], _sliced(m.entries, ranges[a], ranges[b]))

    for a in names:
        for b in names:
            if a != b and not block(r.R, a, b).is_proper:
                findings.append(BlockFinding("R", a, b, "improper"))
    if verdicts is None:
        verdicts = {}
    for a in names:
        for b in names:
            cls = block(s.S, a, b).classify(verdicts)
            if not cls.all_proper:
                findings.append(BlockFinding("S", a, b, "improper"))
            elif not cls.in_rh_inf:
                findings.append(BlockFinding("S", a, b, "unstable"))
    return ConditionReport(passed=not findings, findings=tuple(findings))


def dependency_complete(
    r: Realization, s_partial: Mapping[str, TFMatrix], target: str
) -> TFMatrix:
    """Complete the stability columns of ``target`` from the other columns.

    When the target signal does not feed back into itself (its diagonal
    realization block is zero), S(I - R) = I pins down
    S[:, target] = e_target + sum_{b != target} S[:, b] R[b, target],
    which removes those columns from any synthesis decision variables.
    """
    if target not in r.space:
        raise SpaceMismatchError(f"unknown target signal {target!r}")
    if not r.R.block(target, target).is_zero:
        raise InvariantViolation(
            f"dependency completion needs a zero diagonal block at {target!r}"
        )
    out = embed(r.space, target)
    for b in r.space.names:
        if b == target:
            continue
        if b not in s_partial:
            raise InvariantViolation(f"missing stability column block for signal {b!r}")
        col = s_partial[b]
        if col.rows != r.space:
            raise SpaceMismatchError(f"stability column for {b!r} has wrong row space")
        out = out + col @ r.R.block(b, target)
    return out


def transform(
    r: Realization, s: StabilityMatrix, t: Transformation
) -> tuple[Realization, StabilityMatrix]:
    """Equivalent system under the disturbance change d = T w.

    Returns (R_eq, S_eq) with R_eq = I - T^{-1}(I - R) and S_eq = S T; the
    pair satisfies the defining identity whenever (r, s) does.
    """
    if r.space != s.space:
        raise SpaceMismatchError("realization and stability matrix use different spaces")
    if t.T.rows != r.space:
        raise SpaceMismatchError("transformation space does not match the system")
    eye = TFMatrix.identity(r.space)
    r_eq = eye - t.T_inv @ (eye - r.R)
    s_eq = s.S @ t.T
    return Realization(r.space, r_eq), StabilityMatrix(r.space, s_eq)


def verify_equivalent(r1: Realization, r2: Realization, t: Transformation) -> bool:
    """Check T^{-1} (I - R1) = I - R2 exactly, by ``tfmatrix._product_is``.

    When this holds, the bijection between realizations and stability
    matrices forces S2 = S1 T.
    """
    if r1.space != r2.space:
        raise SpaceMismatchError("realizations use different signal spaces")
    if t.T.rows != r1.space:
        raise SpaceMismatchError("transformation space does not match the systems")
    eye = TFMatrix.identity(r1.space)
    return _product_is(t.T_inv, eye - r1.R, eye - r2.R)
