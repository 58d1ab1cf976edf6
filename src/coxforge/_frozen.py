"""Immutable value classes: their decorator, kept values and proven values.

:func:`frozen` gives a class the methods of a frozen standard-library data
class: an ``__init__`` taking the fields by position or keyword,
``__repr__``, ``__eq__`` and ``__hash__`` over the field tuple,
``__match_args__``, and a ``__setattr__``/``__delattr__`` that refuse every
change.  It imports only :mod:`functools`, which the interpreter loads at
start-up (the standard module loads :mod:`inspect`), and runs one ``exec``
per class, as :func:`collections.namedtuple` does, where the standard
module runs one per method; a CLI process pays for both.

The fields are the class's own annotations, in order; a class attribute of
the same name is the field's default.  ``__init__`` calls
``self.__post_init__()`` when the class defines it, looking it up at call
time, so a validator rebound on the class is the one that runs.  A method
the class body defines itself is kept.  Instances pickle and copy their
fields only (a generated ``__getstate__``), so a value kept by :func:`kept`
never reaches a pickle or a copy.

:func:`kept` keeps what a function computes from a value on that value, so
each invariant of an immutable value is computed once per object.

:func:`proven` builds a value whose checks its caller has proven, as
unpickling builds it: no ``__init__`` and no ``__post_init__``.  Use it
only where the value follows from inputs that were already checked (a
model of a checked presentation, a fan built from checked numbers), with
the proof in a comment at the call.  The fields must be passed in the form
the constructor stores them (int tuples, sorted components, ...), or
``==``, ``hash`` and ``repr`` would differ from those of the checked value;
a user's input always goes through the constructor.
"""

from __future__ import annotations

from functools import wraps


def _refuse_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def frozen(cls: type) -> type:
    """Make ``cls`` an immutable value class with generated methods."""
    names = tuple(cls.__annotations__)
    own = vars(cls)
    namespace = {"__name__": cls.__module__, "_setattr": object.__setattr__}
    params = []
    for name in names:
        if name in own:
            namespace[f"_default_{name}"] = own[name]
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
    post_init = ["    self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    mine = "".join(f"self.{name}," for name in names)
    theirs = "".join(f"other.{name}," for name in names)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    state = "".join(f"{name!r}: self.{name}," for name in names)
    exec("\n".join([
        f"def __init__(self, {', '.join(params)}):",
        *(f"    _setattr(self, {name!r}, {name})" for name in names),
        *post_init,
        "def __repr__(self):",
        f"    return self.__class__.__qualname__ + f'({shown})'",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({mine}))",
        "def __getstate__(self):",
        f"    return {{{state}}}",
    ]), namespace)
    namespace["__init__"].__annotations__ = {**cls.__annotations__, "return": None}
    methods = {
        name: namespace[name]
        for name in ("__init__", "__repr__", "__eq__", "__hash__", "__getstate__")
    }
    for method in methods.values():
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
    methods.update(
        __setattr__=_refuse_setattr, __delattr__=_refuse_delattr, __match_args__=names
    )
    for name, value in methods.items():
        if name not in own:
            setattr(cls, name, value)
    return cls


def kept(name: str):
    """Keep the result of a one-argument function on its argument.

    ``@kept("_name")`` wraps ``compute(value)`` so that it runs at most once
    per ``value`` object: the result is stored in ``value.__dict__`` under
    ``name``, a private attribute that is not a field, and every later call
    on that object returns it.  ``value`` must be immutable, so the result
    never goes stale, and the result must be immutable too, as every caller
    shares it.  The rules:

    * a failure is never kept: a call that raises raises on every call;
    * a result that is ``value`` itself, or a tuple holding ``value``, is
      returned but not kept, so no value refers to itself and keeping makes
      no reference cycle;
    * ``compute`` never returns ``None``, which reads as nothing kept.

    Fields, ``repr``, ``==``, ``hash``, pickles and copies of a
    :func:`frozen` value never see what is kept.  A method wraps the same
    way, keeping on ``self``.
    """

    def decorate(compute):
        @wraps(compute)
        def get(value):
            result = value.__dict__.get(name)
            if result is None:
                result = compute(value)
                if not (
                    result is value
                    or (type(result) is tuple and any(item is value for item in result))
                ):
                    value.__dict__[name] = result
            return result

        return get

    return decorate


def proven(cls: type, **fields):
    """A ``cls`` value with ``fields``, built without running its checks.

    The caller has proven every check of ``cls.__post_init__`` and passes
    every field, already in stored form; see the module docstring.
    """
    value = object.__new__(cls)
    vars(value).update(fields)
    return value
