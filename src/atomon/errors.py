"""Exception hierarchy shared by all atomon modules."""


class AtomonError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AtomonError):
    """A structure failed construction-time validation."""


class NonAssociativeError(ValidationError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"table is not associative at ({i}, {j}, {k})")
        self.triple = (i, j, k)


class BadIdentityError(ValidationError):
    def __init__(self, x: int):
        super().__init__(f"element {x} violates the identity law")
        self.elem = x


class DuplicateNameError(ValidationError):
    pass


class NotIdentityPreservingError(ValidationError):
    pass


class NotMultiplicativeError(ValidationError):
    def __init__(self, x: int, y: int):
        super().__init__(f"map is not multiplicative at ({x}, {y})")
        self.pair = (x, y)


class NotAtomPreservingError(AtomonError):
    def __init__(self, which=None):
        msg = "homomorphism is not atom-preserving"
        if which is not None:
            msg += f" (component {which})"
        super().__init__(msg)
        self.which = which


class NotAtomicError(AtomonError):
    pass


class ImageNotAtomError(AtomonError):
    def __init__(self, symbol):
        super().__init__(f"image of {symbol!r} is not an atom of the target")
        self.symbol = symbol


class WindowTooShortError(AtomonError):
    pass


class PeriodViolatedError(AtomonError):
    def __init__(self, n: int):
        super().__init__(f"claimed period violated at position {n}")
        self.position = n


class SourceMismatchError(AtomonError):
    pass


class TargetMismatchError(AtomonError):
    pass


class NotInProductError(AtomonError):
    pass


class CapExceededError(AtomonError):
    def __init__(self, cap: int):
        super().__init__(f"closure exceeded the size cap {cap}")
        self.cap = cap


class SearchBudgetExceededError(AtomonError):
    def __init__(self, limit: int):
        super().__init__(f"search budget of {limit} expansions exceeded")
        self.limit = limit


class PreconditionError(AtomonError):
    """An operation refused to run because its precondition is unmet."""


class UnknownSuiteError(AtomonError):
    pass


class ParseError(AtomonError):
    pass
