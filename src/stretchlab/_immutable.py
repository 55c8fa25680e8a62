"""The base of the value classes that validate or normalise their fields.

Records that are only a tuple of fields are ``typing.NamedTuple``.  A class
that needs its own ``__init__`` (``IntPolynomial`` trims, ``IntMatrix``
checks squareness, ``SpectralClass`` asserts its factorisation, ...) derives
from ``Immutable`` instead: its ``__init__`` sets each field once through
``set_field``, and any later assignment or deletion raises
AttributeError.  Each such class defines ``__eq__`` and ``__hash__``
itself where its instances are compared or key caches.
"""


#: Sets a field from ``__init__``, past ``Immutable.__setattr__``.
set_field = object.__setattr__


class Immutable:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __setstate__(self, state):
        # pickle and copy restore the fields here, past __setattr__: the
        # state is the instance __dict__, or (__dict__ or None, slot values).
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                set_field(self, name, value)
