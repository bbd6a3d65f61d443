"""The immutable value records of the library.

Record gives what a frozen dataclass gave the library, without loading
dataclasses (and, through it, inspect, ast and dis) in every process.
"""


class Record:
    """Base of the library's value classes.

    A subclass's __init__ writes its fields, in declaration order, into
    self.__dict__.  Equality (same class, equal fields), the hash and
    the repr Name(field=value, ...) read them from there; assigning or
    deleting an attribute raises AttributeError.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__qualname__}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}" for name, value in self.__dict__.items()])
        return f"{type(self).__qualname__}({fields})"
