"""Tests for string family convergence checks and mollification."""

import json

import pytest

from indefstring import catalog
from indefstring.coefficients import validate_spec
from indefstring.convergence import (
    CONVERGES,
    DIVERGES,
    INCONCLUSIVE,
    StringSequence,
    m_convergence_check,
    mollified_family,
    mollify_string,
    report_to_json,
    string_convergence_check,
)

COMPACT_ZS = (3 + 0.3j, 2.5 + 0.6j)


# -- mollification ------------------------------------------------------------


def test_mollify_origin_atom():
    out = mollify_string(catalog.omega_atom_origin(mass=1.0), 4)
    assert out.omega.atoms == ()
    assert out.omega.density == ((0.0, 0.25, 4.0),)


def test_mollify_conserves_interior_mass():
    spec = catalog.omega_atom_middle(mass=1.5)
    for n in (4, 16, 64):
        out = mollify_string(spec, n)
        total = sum((b - a) * v for a, b, v in out.omega.density)
        assert total == pytest.approx(1.5, abs=1e-12)


def test_mollify_clips_at_the_endpoint():
    spec = validate_spec({"L": 1.0, "omega": {"atoms": [{"x": 0.9, "mass": 1.0}]}})
    out = mollify_string(spec, 4)
    assert out.omega.density == ((0.9, 1.0, 4.0),)


def test_mollify_sums_bump_onto_existing_density():
    spec = validate_spec(
        {
            "L": 1.0,
            "omega": {
                "atoms": [{"x": 0.5, "mass": 1.0}],
                "density": [{"a": 0.0, "b": 1.0, "value": 1.0}],
            },
        }
    )
    out = mollify_string(spec, 4)
    assert out.omega.density == ((0.0, 0.5, 1.0), (0.5, 0.75, 5.0), (0.75, 1.0, 1.0))


def test_mollify_rejects_bad_index():
    with pytest.raises(ValueError):
        mollify_string(catalog.omega_atom_middle(), 0)


def test_mollified_family_carries_limit():
    fam = mollified_family(catalog.omega_atom_origin(mass=1.0))
    assert len(fam.specs) == 3
    assert fam.limit is not None
    assert all(s.omega.atoms == () for s in fam.specs)


# -- string-coefficient route -------------------------------------------------


def test_string_route_mollified_family_converges():
    rep = string_convergence_check(mollified_family(catalog.omega_atom_origin(mass=1.0)))
    assert rep.verdict == CONVERGES
    diffs = rep.margins["sup_diffs"]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[0] == pytest.approx(0.140625, abs=1e-9)
    assert diffs[2] == pytest.approx(0.00970458984375, abs=1e-9)


def test_string_route_constant_family_converges():
    spec = catalog.mixed_example()
    rep = string_convergence_check(StringSequence(specs=(spec,) * 3, limit=spec))
    assert rep.verdict == CONVERGES
    assert rep.margins["sup_diffs"] == [0.0, 0.0, 0.0]


def test_string_route_growing_origin_atom_diverges():
    fam = StringSequence(
        specs=tuple(catalog.omega_atom_origin(mass=float(n)) for n in (4, 16, 64))
    )
    rep = string_convergence_check(fam)
    assert rep.verdict == DIVERGES
    sig = rep.margins["sigma_max"]
    assert sig[0] < sig[1] < sig[2]


def test_string_route_without_limit_or_escape_is_inconclusive():
    fam = StringSequence(specs=(catalog.uniform_string(), catalog.uniform_string()))
    rep = string_convergence_check(fam)
    assert rep.verdict == INCONCLUSIVE


# -- Weyl-function route ------------------------------------------------------


def test_m_route_mollified_family_converges():
    rep = m_convergence_check(
        mollified_family(catalog.omega_atom_origin(mass=1.0)), zs=COMPACT_ZS
    )
    assert rep.verdict == CONVERGES
    diffs = rep.margins["sup_diffs"]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 1e-2


def test_m_route_growing_origin_atom_diverges():
    fam = StringSequence(
        specs=tuple(catalog.omega_atom_origin(mass=float(n)) for n in (4, 16, 64))
    )
    rep = m_convergence_check(fam, zs=COMPACT_ZS)
    assert rep.verdict == DIVERGES
    small = rep.per_member[0]["min_abs_m"]
    assert small == pytest.approx(3.6229, abs=1e-3)
    assert rep.per_member[-1]["min_abs_m"] > 60.0


def test_m_route_agrees_with_string_route_on_all_three_families():
    mollified = mollified_family(catalog.omega_atom_origin(mass=1.0))
    constant = StringSequence(
        specs=(catalog.mixed_example(),) * 3, limit=catalog.mixed_example()
    )
    diverging = StringSequence(
        specs=tuple(catalog.omega_atom_origin(mass=float(n)) for n in (4, 16, 64))
    )
    for fam in (mollified, constant, diverging):
        via_string = string_convergence_check(fam).verdict
        via_m = m_convergence_check(fam, zs=COMPACT_ZS).verdict
        assert via_string == via_m


# -- report serialization -----------------------------------------------------


def test_report_to_json_shape_and_note():
    rep = string_convergence_check(mollified_family(catalog.omega_atom_origin(mass=1.0)))
    doc = report_to_json(rep)
    assert sorted(doc) == ["grid", "margins", "note", "per_member", "verdict"]
    assert doc["verdict"] == CONVERGES
    assert "finite surrogate" in doc["note"]
    assert len(doc["per_member"]) == 3
    json.dumps(doc)


def test_report_to_json_serializes_complex_grid_as_pairs():
    rep = m_convergence_check(
        StringSequence(specs=(catalog.uniform_string(),), limit=catalog.uniform_string()),
        zs=COMPACT_ZS,
    )
    doc = report_to_json(rep)
    assert doc["grid"][0] == [3.0, 0.3]
    json.dumps(doc)
