"""Shared pieces for the kernel backends."""

from ..errors import CapExceeded  # noqa: F401  (both backends import it from here)
