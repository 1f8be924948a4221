"""Exception hierarchy for the verifier, certifier, and oracle."""


class MipcertError(Exception):
    """Base class for all package errors."""


class CheckError(MipcertError):
    """A proof step or subproof failed verification."""


# --- exact arithmetic layer ---

class NegativeMultiplierOnInequality(CheckError):
    pass


class DimensionMismatch(CheckError):
    pass


class NonIntegralCoefficient(CheckError):
    pass


class NonIntegralVariable(CheckError):
    pass


class NotRoundable(CheckError):
    """Rounding applied to an equality."""


# --- model layer ---

class MalformedProblem(MipcertError):
    pass


class NotNegatable(CheckError):
    pass


# --- rule checkers ---

class SubproofFailed(CheckError):
    pass


class UnknownPremiseId(CheckError):
    pass


class StrictBoundUsedWithInfiniteZ(CheckError):
    pass


class NotImplications(CheckError):
    pass


class CoverCheckFailed(CheckError):
    pass


class ConsequentsDiffer(CheckError):
    pass


class InfeasibleSolution(CheckError):
    pass


class NotImproving(CheckError):
    pass


class IdentityCheckFailed(CheckError):
    pass


class NonEqualityPremise(CheckError):
    pass


class MissingSubproof(CheckError):
    pass


class WitnessNotIntegral(CheckError):
    pass


class OrderUndetermined(CheckError):
    pass


class StrictOrderUndetermined(CheckError):
    pass


class NotShrinking(CheckError):
    pass


class UnknownId(CheckError):
    pass


class VariantPreconditionFailed(CheckError):
    pass


class DerivedSetNonEmpty(CheckError):
    pass


class ConsistencyViolation(CheckError):
    pass


class NoContradictionPresent(CheckError):
    pass


class IdNotIncreasing(CheckError):
    """New constraint ids must exceed every id seen so far."""


# --- certificate file layer ---

class CertificateSyntaxError(MipcertError):
    """Positioned parse error."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


# --- certifier ---

class UnboundedVariable(MipcertError):
    pass


class NonIntegralProblem(MipcertError):
    pass


class NotACover(MipcertError):
    pass


class CertifyOptionError(MipcertError):
    """A certifier option naming an unknown cut family."""


# --- size limits: the oracle's lattice, printable numbers ---

class TooLarge(MipcertError):
    pass
