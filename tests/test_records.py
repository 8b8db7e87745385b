"""The record contract: the value types that hold the paper's objects are
immutable, build from positional or keyword arguments with their defaults,
compare and hash by value, and keep every construction-time check."""

import pytest

import cokerlab
from cokerlab import (
    Bidegree,
    FactorReport,
    Field,
    FrobeniusComponent,
    Generator,
    GrowthReport,
    InverseMonomial,
    MembershipCertificate,
    Monomial,
    Presentation,
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

Q = Field.rationals()

# One valid value of every record type, built the way the package builds it.
SAMPLES = {
    "Field": lambda: Field(7),
    "RunConfig": lambda: RunConfig("factors", Q, "json", None, None, index_set=(1,)),
    "InverseMonomial": lambda: InverseMonomial(1, 2),
    "Bidegree": lambda: Bidegree(2, 3),
    "Generator": lambda: Generator(Monomial.one(), 1, None),
    "Presentation": lambda: component_dd(build_a(2, Q)),
    "TorsionWitness": lambda: torsion_witness([3], Q)[0],
    "PrimeWitness": lambda: prime_witnesses(3, factor_tau(2, Q))[0],
    "FactorReport": lambda: factor_tau(1, Q),
    "GrowthReport": lambda: accumulate_distinct([1], Q),
    "SeparabilityCertificate": lambda: separability_check(2, 2),
    "FrobeniusComponent": lambda: component_t(6, 7, Q),
    "MembershipCertificate": lambda: MembershipCertificate(failed_column=1),
}


def test_samples_cover_every_exported_record():
    exported = {name for name in cokerlab.__all__
                if isinstance(getattr(cokerlab, name), type)
                and issubclass(getattr(cokerlab, name), tuple)}
    assert exported | {"RunConfig"} == set(SAMPLES)


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


def _bad_presentation_rows():
    good = component_dd(build_a(3, Q))
    return Presentation(good.generators[:-1], good.relations)


def _mixed_bidegrees():
    good = component_dd(build_a(3, Q))
    first, *rest = good.generators
    marked = Generator(first.monomial, first.index, Bidegree(0, 0))
    return Presentation((marked, *rest), good.relations)


def _wrong_frobenius_shape():
    good = component_t(6, 7, Q)
    return FrobeniusComponent(6, 7, "below", good.presentation)


def _zero_multiplicity():
    t = UniPoly.gen(Q)
    return FactorReport(input=t + 1, unit=1, factors=((t + 1, 0),))


@pytest.mark.parametrize("build, message", [
    (lambda: Field(p=4), "4 is not prime"),
    (lambda: Field(1 << 31), "exceeds the supported bound"),
    (_bad_presentation_rows, "relation rows must match"),
    (_mixed_bidegrees, "share one bidegree"),
    (_wrong_frobenius_shape, "does not match case below"),
    (_zero_multiplicity, "multiplicities must be >= 1"),
], ids=["composite-field", "field-bound", "presentation-rows",
        "presentation-bidegrees", "frobenius-shape", "factor-multiplicity"])
def test_construction_checks_still_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()
