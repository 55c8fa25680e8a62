"""Resource guards raised by the kernels and the search driver.

The CLI reports both as exit 2.  They live apart from ``_kernels`` and
``search``, so mapping them loads neither the kernels, the search driver
nor ``multiprocessing``.
"""


class CapExceeded(RuntimeError):
    """An enumeration guard (cycle cap or clique guard) was hit."""


class BudgetExceededError(RuntimeError):
    """The requested search space exceeds the configured budget."""
