"""Exception taxonomy shared by all modules."""


class PathgeomError(Exception):
    """Base class for all package errors."""


# -- expression evaluation ---------------------------------------------------

class DivisionByZero(PathgeomError):
    """A denominator evaluated to zero."""


class DomainError(PathgeomError):
    """Real evaluation left its domain (e.g. negative base under an even root),
    or an exact evaluation hit a non-representable value."""


class UnboundVariable(PathgeomError):
    """A free variable had no value in the assignment."""


class SamplingExhausted(PathgeomError):
    """No admissible random sample point found within the attempt budget."""


# -- jets / charts -----------------------------------------------------------

class ChartMismatch(PathgeomError):
    """An expression or form refers to variables outside the declared chart."""


# -- DSL ---------------------------------------------------------------------

class DslError(PathgeomError):
    """An error in .pg text, at the line:column of its token."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class DslSyntaxError(DslError):
    def __init__(self, message, line, column, expected=()):
        super().__init__(message, line, column)
        self.expected = frozenset(expected)


class UnknownVariable(DslError):
    def __init__(self, name, declaration, line, column):
        super().__init__(f"unknown variable {name!r} in declaration "
                         f"{declaration!r}", line, column)
        self.name = name
        self.declaration = declaration


class DuplicateName(DslError):
    def __init__(self, name, line, column):
        super().__init__(f"duplicate declaration name {name!r}", line, column)
        self.name = name


# -- root classification -----------------------------------------------------

class IllConditioned(PathgeomError):
    """The root multiplicities found in mpf do not add up to the degree."""


# -- forms / linear algebra --------------------------------------------------

class RankDeficient(PathgeomError):
    """The 2-form's coefficient matrix does not have corank exactly 1."""


class DependentGenerators(PathgeomError):
    """The wedge of a Pfaffian system's generators vanishes identically."""


# -- constructions -----------------------------------------------------------

class UnknownName(PathgeomError):
    """No catalog entry or document declaration with that name."""


class NonTransverse(PathgeomError):
    """The dancing anchor is incident (the solution function vanishes on it)."""


class NewtonDiverged(PathgeomError):
    def __init__(self, t):
        super().__init__(f"Newton iteration diverged near t = {t}")
        self.t = t


class JacobianSingular(PathgeomError):
    def __init__(self, t):
        super().__init__(f"constraint Jacobian singular near t = {t}")
        self.t = t


class SeedNotFound(PathgeomError):
    """Could not locate a point on the constraint curve to start continuation."""


class PairUndefined(PathgeomError):
    def __init__(self, t):
        super().__init__(f"pair has no value at t = {t}")
        self.t = t


# -- numerics ----------------------------------------------------------------

class SingularEncounter(PathgeomError):
    def __init__(self, t):
        super().__init__(f"trajectory approached a singular locus at t = {t}")
        self.t = t


class StepUnderflow(PathgeomError):
    """Adaptive integration could not meet the tolerance above the minimum step."""


class EliminationInvalid(PathgeomError):
    """The elimination expression does not solve the designated equation."""


class TorsionNonzero(PathgeomError):
    """A torsion-free pair was required."""

