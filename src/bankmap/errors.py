"""Exception vocabulary for the package."""

from __future__ import annotations


class BankMapError(Exception):
    """Base class for every error this package raises on purpose."""


class EmptyInput(BankMapError):
    def __init__(self) -> None:
        super().__init__("permutation needs at least one entry")


class NotAnInteger(BankMapError):
    def __init__(self, what: str, value) -> None:
        self.value = value
        super().__init__(f"{what} {value!r} is not an integer")


class OutOfRange(BankMapError):
    def __init__(self, value: int, length: int, what: str = "permutation entry") -> None:
        self.value = value
        self.length = length
        super().__init__(f"{what} {value!r} is outside [0, {length})")


class DuplicateEntry(BankMapError):
    def __init__(self, value: int) -> None:
        self.value = value
        super().__init__(f"permutation entry {value} appears more than once")


class NonDivisorParallelism(BankMapError):
    def __init__(self, parallelism: int, length: int) -> None:
        self.parallelism = parallelism
        self.length = length
        super().__init__(
            f"parallelism {parallelism} does not divide block length {length}"
        )


class InvariantViolation(BankMapError):
    """A solver-internal contract was broken; indicates a bug, not bad input."""


class ObjectiveIncompatible(BankMapError):
    """Asked to synthesize controls for a mapping the network kind cannot realize."""


class RepairBudgetExhausted(BankMapError):
    def __init__(self, budget: int) -> None:
        self.budget = budget
        super().__init__(f"conflict repair did not converge within {budget} steps")


class IncompleteMapping(BankMapError):
    def __init__(self, missing: list[int]) -> None:
        self.missing = list(missing)
        super().__init__(f"mapping misses data {self.missing}")


class ControlMismatch(BankMapError):
    def __init__(self, order, cycle: int, pe: int) -> None:
        self.order = order
        self.cycle = cycle
        self.pe = pe
        super().__init__(
            f"{order.value} cycle {cycle}: control word routes PE {pe} to the wrong bank"
        )


class InstanceTooLarge(BankMapError):
    def __init__(self, length: int, parallelism: int) -> None:
        self.length = length
        self.parallelism = parallelism
        super().__init__(
            "exhaustive enumeration is limited to L <= 16 and X <= 4, "
            f"got L={length}, X={parallelism}"
        )


class InputFormatError(BankMapError):
    """A problem or mapping file failed schema validation."""

    def __init__(self, field: str, message: str) -> None:
        self.field = field
        super().__init__(f"{field}: {message}")
