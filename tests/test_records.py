"""The record contract: the value types that hold the paper's objects are
immutable, build from positional or keyword arguments with their defaults,
compare and hash by value, and keep every construction-time check."""

import importlib
import pkgutil

import pytest

import cokerlab
from cokerlab import (
    Bidegree,
    FactorReport,
    Field,
    Generator,
    GrowthReport,
    InverseMonomial,
    Monomial,
    UniPoly,
    accumulate_distinct,
    build_a,
    component_dd,
    component_t,
    factor_tau,
    prime_witnesses,
    separability_check,
    torsion_witness,
)
from cokerlab.cli import RunConfig
from cokerlab.matrices import MembershipCertificate

Q = Field.rationals()

# One valid value of every record type, built the way the package builds it.
SAMPLES = {
    "Field": lambda: Field(7),
    "RunConfig": lambda: RunConfig("factors", Q, "json", None, None, index_set=(1,)),
    "InverseMonomial": lambda: InverseMonomial(1, 2),
    "Bidegree": lambda: Bidegree(2, 3),
    "Generator": lambda: Generator(Monomial.one(), 1, None),
    "Presentation": lambda: component_dd(build_a(2, Q)),
    "TorsionWitness": lambda: torsion_witness([3], Q)[1][0],
    "PrimeWitness": lambda: prime_witnesses(3, factor_tau(2, Q))[0],
    "FactorReport": lambda: factor_tau(1, Q),
    "GrowthReport": lambda: accumulate_distinct([1], Q),
    "SeparabilityCertificate": lambda: separability_check(2, 2),
    "FrobeniusComponent": lambda: component_t(6, 7, Q),
    "MembershipCertificate": lambda: MembershipCertificate(failed_column=1),
}


def test_samples_cover_every_exported_record():
    # Every record class a cokerlab module defines, exported or not.
    defined = set()
    for info in pkgutil.iter_modules(cokerlab.__path__):
        module = importlib.import_module(f"cokerlab.{info.name}")
        defined.update(name for name, value in vars(module).items()
                       if isinstance(value, type) and issubclass(value, tuple)
                       and value.__module__ == module.__name__)
    assert defined == set(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_are_read_only(name):
    record = SAMPLES[name]()
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_keyword_construction_and_defaults():
    assert Field() == Field(p=None) == Q
    config = RunConfig(command="factors", field=Q, fmt="json", output=None, seed=None)
    assert (config.max_i, config.index_set, config.d_min, config.d_max,
            config.n_set) == (None,) * 5
    certificate = MembershipCertificate(failed_column=1)
    assert certificate.solution is None and not certificate.is_solution


@pytest.mark.parametrize("make, other", [
    (lambda: Field(7), Field(5)),
    (lambda: Bidegree(2, 3), Bidegree(3, 2)),
    (lambda: InverseMonomial(1, 2), InverseMonomial(2, 1)),
], ids=["Field", "Bidegree", "InverseMonomial"])
def test_value_equality_and_hashing(make, other):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other
    assert len({a, b, other}) == 2


# Each case: a valid record, and field values that break its construction check.
def _bad_presentation_rows():
    good = component_dd(build_a(3, Q))
    return good, {"generators": good.generators[:-1]}


def _mixed_bidegrees():
    good = component_dd(build_a(3, Q))
    first, *rest = good.generators
    marked = Generator(first.monomial, first.index, Bidegree(0, 0))
    return good, {"generators": (marked, *rest)}


def _wrong_frobenius_shape():
    return component_t(6, 7, Q), {"case": "below"}


def _zero_multiplicity():
    t = UniPoly.gen(Q)
    return FactorReport(input=t + 1, unit=1, factors=((t + 1, 1),)), {"factors": ((t + 1, 0),)}


@pytest.mark.parametrize("case, error, message", [
    (lambda: (Field(7), {"p": 4}), ValueError, "4 is not prime"),
    (lambda: (Field(7), {"p": 1 << 31}), ValueError, "exceeds the supported bound"),
    (_bad_presentation_rows, ValueError, "relation rows must match"),
    (_mixed_bidegrees, ValueError, "share one bidegree"),
    (_wrong_frobenius_shape, ValueError, "does not match case below"),
    (_zero_multiplicity, ValueError, "multiplicities must be >= 1"),
    (lambda: (factor_tau(5, Q), {"unit": 7}), ArithmeticError, "does not reassemble"),
    (lambda: (accumulate_distinct([1, 2], Q), {"cumulative_distinct": (2, 1)}),
     ValueError, "must be non-decreasing"),
    (lambda: (InverseMonomial(1, 2), {"alpha": 0}), ValueError, "exponents must be >= 1"),
    (lambda: (MembershipCertificate(failed_column=1), {"solution": ()}),
     ValueError, "exactly one outcome"),
], ids=["composite-field", "field-bound", "presentation-rows",
        "presentation-bidegrees", "frobenius-shape", "factor-multiplicity",
        "factor-unit", "growth-cumulative", "inverse-monomial", "membership-outcome"])
def test_construction_checks_still_raise(case, error, message):
    # Every way to build a record runs its check: the constructor, _make and
    # _replace, which namedtuple builds through _make.
    good, changes = case()
    values = {**good._asdict(), **changes}
    for build in (lambda: type(good)(**values), lambda: type(good)._make(values.values()),
                  lambda: good._replace(**changes)):
        with pytest.raises(error, match=message):
            build()
