"""Exception hierarchy shared across the pipeline stages."""


class MathVerifyError(Exception):
    """Base class for every error raised by this package."""


# --- tokenizing / parsing ---

class ParseError(MathVerifyError):
    pass


class UnbalancedBraces(ParseError):
    pass


class IllegalCharacter(ParseError):
    def __init__(self, char: str, offset: int):
        super().__init__(f"illegal character {char!r} at byte offset {offset}")
        self.char = char
        self.offset = offset

    def __reduce__(self):
        # Unpickling calls the class with these arguments, not with the
        # message built from them, so an exception that a ``--jobs``
        # worker sends back arrives whole.
        return type(self), (self.char, self.offset)


class ArityMismatch(ParseError):
    pass


# --- macro table ---

class MacroTableError(MathVerifyError):
    pass


class DuplicateMacroName(MacroTableError):
    pass


class MalformedEntry(MacroTableError):
    pass


# --- extraction ---

class ExtractionError(MathVerifyError):
    pass


class UnclosedEnvironment(ExtractionError):
    pass


class MalformedConstraintEnvironment(ExtractionError):
    pass


# --- translation ---

class TranslationError(MathVerifyError):
    """Base for the three translation-failure causes tallied in reports."""

    failure_kind = "error"


class UnknownMacro(TranslationError):
    failure_kind = "unknown_macro"


class InsufficientSemantics(TranslationError):
    failure_kind = "insufficient_semantics"


class UnsupportedGrammar(TranslationError):
    failure_kind = "unsupported_grammar"


class NoDialectMapping(MathVerifyError):
    pass


# --- constraints ---

class ConstraintError(MathVerifyError):
    pass


class MalformedRule(ConstraintError):
    pass


class PlaceholderValueCountMismatch(ConstraintError):
    pass


class InconsistentProgression(ConstraintError):
    pass


class UnknownSetSymbol(ConstraintError):
    pass


# --- symbolic verification ---

class SymbolicError(MathVerifyError):
    pass


class BudgetExceeded(SymbolicError):
    pass


class NonEquationRelation(SymbolicError):
    pass


# --- numeric verification ---

class EvaluationError(MathVerifyError):
    """Base for numeric-kernel evaluation failures."""

    kind = "evaluation_error"


class NumericallyUnsupported(EvaluationError):
    kind = "numerically_unsupported"

    def __init__(self, function_id: str):
        super().__init__(f"no numeric support for {function_id!r}")
        self.function_id = function_id

    def __reduce__(self):
        return type(self), (self.function_id,)


class PoleOrSingularity(EvaluationError):
    kind = "pole_or_singularity"


class ConvergenceFailure(EvaluationError):
    kind = "convergence_failure"


class VerificationTimeout(MathVerifyError):
    pass


# --- pipeline / configuration ---

class PipelineError(MathVerifyError):
    pass


class MissingInputFile(PipelineError):
    pass


class ConfigParseError(PipelineError):
    pass
