"""Exception types, the immutable record bases and the lazy type test
shared across the package."""

import sys
from operator import attrgetter


def is_loaded_instance(value, layer, name):
    """isinstance(value, layer.name) for a layer of this package, without
    importing the layer: a value of a type whose module was never loaded
    cannot be of that type."""
    module = sys.modules.get(f"{__package__}.{layer}")
    return module is not None and isinstance(value, getattr(module, name))


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__``.  The constructor takes
    them by position or keyword and then calls ``__post_init__``; ``==``
    compares the class and the fields, ``hash`` hashes the fields, and
    ``repr`` reads ``Name(field=value, ...)``.  Setting or deleting an
    attribute raises AttributeError.  A slot whose name starts with an
    underscore is private state, such as a module's letters, and not a field.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        fields = tuple(s for s in cls.__dict__.get("__slots__", ()) if not s.startswith("_"))
        # a record without fields compares and hashes by its class alone
        cls._fields, cls._values = fields, attrgetter(*fields) if fields else type

    def __init__(self, *args, **kwargs):
        for name, value in zip(self._fields, self._field_values(args, kwargs)):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _field_values(cls, args, kwargs):
        names = cls._fields
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{cls.__qualname__} takes the fields {', '.join(names) or 'none'}")
        return args

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Interned:
    """Mixed in before Record: one object per value (hash-consing), so ``==``
    and ``hash`` are identity C slots.  The constructor checks the fields are
    ints and tuples of ints (``_kinds``), as a float or bool hashes equal to an
    int; ``_intern`` is the unchecked lookup.  The table is no memo and never
    cleared, or a live value could get a second, unequal object."""

    __slots__ = ()
    __init__ = object.__init__  # the fields are set once, by _intern
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._table = {}

    def __new__(cls, *args, **kwargs):
        values = cls._field_values(args, kwargs)
        for kind, value in zip(cls._kinds, values):
            if type(value) is not kind or kind is tuple and not all(type(v) is int for v in value):
                raise cls._kind_error(f"{cls.__qualname__} fields must be ints and tuples of ints, got {values!r}")
        return cls._intern(values)

    @classmethod
    def _intern(cls, values):
        # only a miss validates; setdefault keeps one object when threads race
        obj = cls._table.get(values)
        if obj is None:
            obj = object.__new__(cls)
            Record.__init__(obj, *values)
            obj = cls._table.setdefault(values, obj)
        return obj


class AffineHeckeError(Exception):
    """Base class for all errors raised by this package."""


class BadIndex(AffineHeckeError):
    """Generator or basis index outside the valid range."""


class InvalidValue(AffineHeckeError, ValueError):
    """A malformed permutation window, or the inverse of a non-unit."""


class RankMismatch(AffineHeckeError):
    """Operands live over different ranks n."""


class RankUnsupported(AffineHeckeError):
    """Operation only implemented for specific ranks (usually n = 2)."""


class ShiftNonzero(AffineHeckeError):
    """Operation requires translation-free (shift 0) permutations."""


class ZeroSpecialization(AffineHeckeError):
    """Attempt to evaluate a Laurent polynomial at q = 0."""


class NonIntegralCorrection(AffineHeckeError):
    """An exact Laurent division (LaurentPoly.exact_div) left a remainder.

    The package divides only where the quotient is exact (the fraction-free
    elimination of modules), so inside it this would indicate a bug.
    """


class TruncationExceeded(AffineHeckeError):
    """A computation escaped the chosen truncation bound."""


class DimUnsupported(AffineHeckeError):
    """Operation only implemented for specific module dimensions."""


class ParseError(AffineHeckeError):
    """Malformed expression text; carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
