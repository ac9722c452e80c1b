"""Exception types shared across the package."""


class FogplanError(Exception):
    """Base class for all fogplan errors."""


class CycleDetected(FogplanError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"application graph contains a cycle: {self.cycle}")


class DanglingEdge(FogplanError):
    def __init__(self, edge):
        self.edge = edge
        super().__init__(f"edge references unknown service: {edge}")


class UnknownColony(FogplanError):
    pass


class LengthMismatch(FogplanError):
    pass


class Saturated(FogplanError):
    """An M/D/1 queue was driven at utilization >= 1."""


class SearchSpaceTooLarge(FogplanError):
    pass


class EmptyFront(FogplanError):
    pass


class EmptyArchive(FogplanError):
    pass


class BudgetTooSmall(FogplanError):
    pass


class BadLattice(FogplanError):
    pass


class ParseError(FogplanError):
    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class UnknownVersion(FogplanError):
    pass
