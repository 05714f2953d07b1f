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
    def __init__(self, which: int):
        super().__init__(f"hom {which} is not atom-preserving")
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
    def __init__(self, limit: int, unit: str = "expansions"):
        super().__init__(f"search budget of {limit} {unit} exceeded")
        self.limit = limit


class UnknownSuiteError(AtomonError):
    pass


class ParseError(AtomonError):
    pass
