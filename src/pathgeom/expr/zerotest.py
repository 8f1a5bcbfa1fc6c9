"""Randomized zero testing of expressions.

Rational-function expressions are tested at random rational points
(Schwartz-Zippel); expressions containing radicals fall back to 256-bit
floating evaluation with relative tolerance 1e-30.  Constraint expressions
mark excluded loci: a sample is admissible only where every constraint is
nonzero, and poles of the tested expression trigger resampling.

A rational point n/d is evaluated mod the prime p = 2^61 - 1 at the residue
n * d^-1 (`tape.MODULUS`).  Where no denominator vanishes mod p, a nonzero
residue proves the value nonzero over Q; the nonzero verdict's witness value
is then evaluated exactly.  A zero residue counts as a zero value.  A
constraint that is 0 mod p, or a pole mod p, is decided by exact
evaluation, so the draws and the rejected samples are those of exact
arithmetic.  A call whose tapes have no mod-p value (a fractional power, or
a nonzero constant that is 0 or undefined mod p: `Tape.reducible_mod_p`) is
evaluated exactly throughout, as is a point with a coordinate undefined mod
p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import DivisionByZero, DomainError, SamplingExhausted
from .nodes import Expr, sub
from .sampling import RESAMPLE_BUDGET, draw_exact
from .tape import compile_tape, residue

DEFAULT_BOUND = 10 ** 6
DEFAULT_TRIALS = 20
MPF_REL_TOL = 1e-30
MPF_PREC = 256


@dataclass
class ZeroVerdict:
    is_zero: bool
    witness: dict | None = None
    witness_value: object = None
    trials: int = 0
    mode: str = "exact"
    degree_bound: int | None = None
    failure_bound: float | None = None
    constraints_rejected: int = 0

    def __bool__(self):
        return self.is_zero


def _modp(tape, residues):
    """The value mod p at a point given by its residues, or None when there
    are no residues or the point is a pole mod p (which may not be one over
    Q)."""
    if residues is None:
        return None
    try:
        return tape.eval_modp(residues)
    except DivisionByZero:
        return None


def is_zero_probabilistic(e: Expr, constraints=(), trials: int = DEFAULT_TRIALS,
                          seed=0, rng: random.Random | None = None,
                          bound: int = DEFAULT_BOUND,
                          var_ranges: dict | None = None) -> ZeroVerdict:
    """Decide e == 0 by evaluation at `trials` admissible random points.

    Returns a nonzero verdict with a witness assignment as soon as any
    evaluation is nonzero (exact) or exceeds the relative tolerance (mpf).
    var_ranges maps variable names to (lo, hi) sampling intervals, useful to
    keep radicands positive.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if rng is None:
        rng = random.Random(seed)
    constraints = tuple(constraints)
    names = sorted(set(e.free_variables).union(*(c.free_variables for c in constraints))
                   if constraints else e.free_variables)
    radical = e.has_radical or any(c.has_radical for c in constraints)
    mode = "mpf" if radical else "exact"
    tape = compile_tape(e, names)
    ctapes = [compile_tape(c, names) for c in constraints]
    ranges = [(var_ranges or {}).get(n) for n in names]
    rejected = 0
    modular = mode == "exact" and tape.reducible_mod_p and all(
        ct.reducible_mod_p for ct in ctapes)

    def residues_of(point):
        if not modular:
            return None
        residues = [residue(q) for q in point]
        return None if None in residues else residues

    def admissible(point, residues):
        for ct in ctapes:
            try:
                if mode == "exact":
                    # a nonzero residue proves the constraint nonzero
                    if not _modp(ct, residues) and ct.eval_exact(point) == 0:
                        return False
                else:
                    value, scale = ct.eval_mpf(point, MPF_PREC)
                    if abs(value) <= MPF_REL_TOL * max(1, scale):
                        return False
            except (DivisionByZero, DomainError):
                return False
        return True

    for trial in range(trials):
        point = None
        value = scale = None
        for _ in range(RESAMPLE_BUDGET):
            cand = draw_exact(rng, ranges, bound)
            residues = residues_of(cand)
            if not admissible(cand, residues):
                rejected += 1
                continue
            try:
                if mode == "exact":
                    # a zero residue counts as zero; otherwise the value
                    # (a nonzero verdict's witness value) is exact
                    value = (0 if _modp(tape, residues) == 0
                             else tape.eval_exact(cand))
                    scale = None
                else:
                    value, scale = tape.eval_mpf(cand, MPF_PREC)
            except (DivisionByZero, DomainError):
                rejected += 1
                continue
            point = cand
            break
        if point is None:
            raise SamplingExhausted(
                f"no admissible sample point in {RESAMPLE_BUDGET} attempts "
                f"(constraints rejected {rejected} candidates)")
        if mode == "exact":
            nonzero = value != 0
        else:
            nonzero = abs(value) > MPF_REL_TOL * max(1, scale)
        if nonzero:
            return ZeroVerdict(False, witness=dict(zip(names, point)),
                               witness_value=value, trials=trial + 1, mode=mode,
                               degree_bound=e.degree_bound,
                               constraints_rejected=rejected)
    deg = e.degree_bound
    failure = None
    if mode == "exact" and deg is not None:
        # Schwartz-Zippel: a draw from the default box takes any one value
        # with probability at most 1/(2 bound + 1) <= 1/bound, and
        # n/d -> n * d^-1 mod p keeps distinct draws apart while
        # 2 bound^2 < p, so a trial misses a nonzero value with probability
        # <= deg/bound, over Q and mod p alike unless p divides every
        # coefficient of the cleared numerator
        per = min(1.0, deg / bound)
        failure = per ** trials
    return ZeroVerdict(True, trials=trials, mode=mode, degree_bound=deg,
                       failure_bound=failure, constraints_rejected=rejected)


def exprs_equal(a: Expr, b: Expr, constraints=(), trials: int = DEFAULT_TRIALS,
                seed=0, rng=None, var_ranges=None) -> ZeroVerdict:
    """Identity test a == b via is_zero_probabilistic(a - b)."""
    return is_zero_probabilistic(sub(a, b), constraints=constraints, trials=trials,
                                 seed=seed, rng=rng, var_ranges=var_ranges)
