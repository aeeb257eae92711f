"""Records: a frozen dataclass checks its fields, and nothing else is one.

A public record of ``quadrature``, ``engine`` or ``catalog`` that checks
its fields in ``__post_init__`` is a frozen dataclass, copied with
``dataclasses.replace``, which runs the check again.  Every other record
is a ``typing.NamedTuple``: immutable, built as a tuple is, and copied
with ``._replace``.
"""

import dataclasses
import inspect

import pytest

from paramint import catalog, engine, quadrature


def _is_named_tuple(cls: type) -> bool:
    return issubclass(cls, tuple) and hasattr(cls, "_fields")


RECORDS = {
    f"{mod.__name__.rsplit('.', 1)[1]}.{name}": cls
    for mod in (quadrature, engine, catalog)
    for name, cls in vars(mod).items()
    if inspect.isclass(cls) and cls.__module__ == mod.__name__ and not name.startswith("_")
    and (dataclasses.is_dataclass(cls) or _is_named_tuple(cls))
}


def test_the_rule_sees_every_record():
    assert sorted(RECORDS) == [
        "catalog.CatalogEntry",
        "engine.Anchor", "engine.DominationReport", "engine.InterchangeReport",
        "engine.ParamDomain", "engine.ParametricIntegral",
        "engine.VerificationPoint", "engine.VerificationReport",
        "quadrature.DomainSpec", "quadrature.OscillatoryTail",
        "quadrature.QuadConfig", "quadrature.QuadResult",
    ]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_is_a_frozen_dataclass_iff_it_checks_its_fields(name):
    cls = RECORDS[name]
    if hasattr(cls, "__post_init__"):
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    else:
        assert _is_named_tuple(cls) and not dataclasses.is_dataclass(cls)
