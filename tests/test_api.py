"""A ratchet on the package's settable values, so that a knob removed for want
of a caller cannot come back unnoticed."""

import dataclasses
import importlib
import inspect
import pkgutil

import glyphcode

# Lower this when a settable value goes; raising it needs a caller that sets
# the new value.
SETTABLE_VALUES = 87


def _functions(obj):
    """A public function, or a public class's public methods (class and
    static methods included), each as a plain function."""
    if inspect.isfunction(obj):
        return [obj]
    return [
        getattr(member, "__func__", member)
        for name, member in vars(obj).items()
        if not name.startswith("_")
        and (inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)))
    ]


def _field_defaults(cls):
    """The fields of a dataclass or named tuple that have a default."""
    if dataclasses.is_dataclass(cls):
        return [
            f.name
            for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING
        ]
    return list(getattr(cls, "_field_defaults", {}))


def settable_values():
    """Every parameter with a default of a function or public method named
    in a module's ``__all__``, and every field with a default of a record
    class named there, as dotted names."""
    found = []
    for info in pkgutil.iter_modules(glyphcode.__path__):
        module = importlib.import_module(f"glyphcode.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # counted where it is defined
            if inspect.isclass(obj):
                found += [f"{module.__name__}.{name}.{f}" for f in _field_defaults(obj)]
            elif not inspect.isfunction(obj):
                continue
            for function in _functions(obj):
                found += [
                    f"{module.__name__}.{function.__qualname__}({p.name})"
                    for p in inspect.signature(function).parameters.values()
                    if p.default is not p.empty
                ]
    return found


def test_settable_values_do_not_grow():
    found = settable_values()
    assert len(found) == len(set(found))
    assert len(found) <= SETTABLE_VALUES, "\n".join(found)
