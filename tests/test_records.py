"""The package's records: value semantics, frozen fields, keyword construction.

The plain records are ``typing.NamedTuple``s; ``IndexSet`` and
``EnsembleSpec`` are small classes that set their fields once, in the
constructor.  Either way a field cannot be assigned.
"""

from __future__ import annotations

import hashlib

import pytest

from ddh import (
    EnsembleSpec,
    IndexSet,
    Matrix,
    chain_condition,
    is_h_dd,
    lu_factor,
    non_sdd_rows,
    peel_levels,
    s_h_check,
    scaling_certificate,
)
from ddh.cli import main
from ddh.interwoven import interwoven_from_peeling

# an H-matrix with non-strict rows {0, 1}, so every record below is built
LADDER = Matrix([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 2.0]])


def test_validated_and_trusted_sets_are_equal_and_hash_alike():
    built, trusted = IndexSet((1, 2), 3), IndexSet.trusted((1, 2), 3)
    assert built == trusted and hash(built) == hash(trusted)
    assert {built: "a"}[trusted] == "a" and {trusted: "b"}[built] == "b"
    assert len({built, trusted}) == 1
    assert built != IndexSet((1, 2), 4) and built != IndexSet((1,), 3)
    assert built != (1, 2) and (1, 2) != built


def test_index_set_keywords_and_universe_check():
    # the member checks are in test_core.py
    assert IndexSet(members=[0, 2], universe_size=3).members == (0, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        IndexSet((), -1)


def _records() -> dict[str, object]:
    """One instance of every record, with the name of its first field."""
    verdict = is_h_dd(LADDER)
    T = non_sdd_rows(LADDER)
    return {
        "members": T,
        "indptr": LADDER.pattern,
        "t_set": verdict.peel,
        "d": scaling_certificate(LADDER, verdict.peel),
        "is_h": verdict,
        "subset": s_h_check(LADDER, T),
        "factors": lu_factor([[2.0, 1.0], [1.0, 3.0]]),
        "n": EnsembleSpec(n=3, density=0.5, equality_rows=0.5, seed=1),
        "p_seq": interwoven_from_peeling(verdict.peel),
    }


@pytest.mark.parametrize("field", list(_records()))
def test_records_reject_field_assignment(field):
    record = _records()[field]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def test_peel_paths_are_read_off_hops_that_stay_read_only():
    # the chains are kept with the row codes: one Peel, also the peel at tol 0
    chains = chain_condition(LADDER)
    assert chains is chain_condition(LADDER) is peel_levels(LADDER)
    assert chains._fields == ("t_set", "levels", "next_hop")  # no stored paths
    assert chains.paths == {0: (0, 1, 2), 1: (1, 2)}
    with pytest.raises(TypeError):
        chains.next_hop[0] = 2
    assert chains.next_hop == {0: 1, 1: 2}


def test_ensemble_spec_builds_from_keywords_and_validates():
    kwargs = dict(n=5, density=0.25, equality_rows=0.5, seed=9, complex_entries=True)
    spec = EnsembleSpec(**kwargs)
    assert [getattr(spec, k) for k in kwargs] == list(kwargs.values())
    assert spec == EnsembleSpec(5, 0.25, 0.5, 9, True) and hash(spec) == hash(EnsembleSpec(**kwargs))
    assert spec != EnsembleSpec(5, 0.25, 0.5, 10, True)
    assert EnsembleSpec(n=5, density=0.25, equality_rows=0.5, seed=9).complex_entries is False
    assert repr(spec) == (
        "EnsembleSpec(n=5, density=0.25, equality_rows=0.5, seed=9, complex_entries=True)"
    )
    for bad, message in [
        (dict(n=0), "ensemble order must be at least 1"),
        (dict(density=1.5), r"density must lie in \[0, 1\]"),
        (dict(density=float("nan")), r"density must lie in \[0, 1\]"),
        (dict(equality_rows=-0.1), r"equality_rows must lie in \[0, 1\]"),
    ]:
        with pytest.raises(ValueError, match=message):
            EnsembleSpec(**{**kwargs, **bad})
    with pytest.raises(TypeError):
        EnsembleSpec(n=5, density=0.25, equality_rows=0.5)


def test_generate_bytes_are_pinned(tmp_path, capsys):
    # sha256 of the files for these flags; file k is drawn with the seed derive_seed(7, k)
    assert main(["generate", "--n", "12", "--density", "0.5", "--equality-rows", "0.25",
                 "--seed", "7", "--count", "2", "--out-dir", str(tmp_path)]) == 0
    digests = [hashlib.sha256((tmp_path / f"dd_7_{k}.mtx").read_bytes()).hexdigest()
               for k in range(2)]
    assert digests == [
        "f1bb3a05c337d5f84315d717be4b2ec7fbad5b8bbc315cd94ff01afb18dac453",
        "23949c7ee744fb7dffcbe0e3e3c2c0b6a72d355484302c475ea52eb3e0a0d8d2",
    ]
