"""Exception types shared across the package."""


class CycleClustError(Exception):
    """Base class for all library errors."""


class UsageError(CycleClustError):
    """Base class for errors in what the caller asked for: an argument out
    of range or a malformed input file. The command line exits 2 on these
    and 1 on every other error."""


class NegativeEntryError(CycleClustError):
    def __init__(self, row, col, value):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"negative entry {value!r} at ({row}, {col})")


class NonFiniteEntryError(CycleClustError):
    pass


class RowSumViolationError(CycleClustError):
    def __init__(self, row, row_sum):
        self.row, self.row_sum = row, row_sum
        super().__init__(f"row {row} sums to {row_sum!r}, expected 1")


class BalanceViolationError(CycleClustError):
    def __init__(self, row, row_sum, col_sum):
        self.row, self.row_sum, self.col_sum = row, row_sum, col_sum
        super().__init__(
            f"row sum {row_sum!r} and column sum {col_sum!r} differ at index {row}"
        )


class NotConvergedError(CycleClustError):
    def __init__(self, max_iter):
        self.max_iter = max_iter
        super().__init__(f"no fixed point after {max_iter} iterations")


class NonUniqueStationaryError(CycleClustError):
    def __init__(self, difference):
        self.difference = difference
        super().__init__(
            f"two starting vectors reached fixed points differing by {difference!r}"
        )


class DimensionMismatchError(UsageError):
    pass


class OverlappingSetsError(CycleClustError):
    def __init__(self, common):
        self.common = common
        super().__init__(f"bin sets overlap on {sorted(common)}")


class InvalidClusteringError(UsageError):
    pass


class InvalidClusterCountError(UsageError):
    def __init__(self, m, n):
        self.m, self.n = m, n
        super().__init__(f"cluster count {m} outside valid range [3, {n}]")


class FractionalSolutionError(CycleClustError):
    def __init__(self, name, value):
        self.name, self.value = name, value
        super().__init__(f"variable {name} = {value!r} is not within 1e-6 of binary")


class InfeasibleAssignmentError(CycleClustError):
    pass


class ObjectiveMismatchError(CycleClustError):
    def __init__(self, model_value, direct_value):
        self.model_value, self.direct_value = model_value, direct_value
        super().__init__(
            f"model objective {model_value!r} disagrees with recomputed {direct_value!r}"
        )


class NumericalFailureError(CycleClustError):
    pass


class UnboundedError(CycleClustError):
    pass


class TooLargeError(UsageError):
    def __init__(self, size, guard):
        self.size, self.guard = size, guard
        super().__init__(f"enumeration size {size} exceeds guard {guard}")


class TooFewPointsError(UsageError):
    def __init__(self, available, requested):
        self.available, self.requested = available, requested
        super().__init__(f"requested {requested} centers from {available} distinct points")


class DegenerateRowError(CycleClustError):
    def __init__(self, row, denominator):
        self.row, self.denominator = row, denominator
        super().__init__(f"row {row} has vanishing weight {denominator!r}")


class NonFiniteStateError(CycleClustError):
    pass


class InvalidTerminalCountError(UsageError):
    def __init__(self, m):
        self.m = m
        super().__init__(f"need at least 3 terminals, got {m}")


class IsolatedNonTerminalError(UsageError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"non-terminal vertex {vertex} has zero weighted degree")


class FileFormatError(UsageError):
    pass
