"""Errors the CLI maps to exit codes by class.

``CheckFailed`` is the base of every failed mathematical check (exit 1).
``InputError`` marks bad input, and the two resource guards, raised by the
kernels and the search driver, mark an exceeded limit; all three exit 2.
They live apart from the modules that raise them, so mapping them loads
neither the kernels, the search driver nor ``multiprocessing``.
"""


class CheckFailed(ArithmeticError):
    """A checked mathematical property does not hold: a verdict, not a bug."""


class InputError(ValueError):
    """Bad user input: malformed JSON, missing file, out-of-range flag."""


class CapExceeded(RuntimeError):
    """An enumeration guard (cycle cap or clique guard) was hit."""


class BudgetExceededError(RuntimeError):
    """The requested search space exceeds the configured budget."""
