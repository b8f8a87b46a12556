"""Differential tests: a VerificationReport is a view of its profile at y.

The reference below keeps the report as a dataclass with a copy of every
field, filled by the readout formulas the view must reproduce.  Every
field, the JSON bytes, the repr and equality of the view are compared with
it for every y of three profiles: a linear one, a non-linear one with
x-independent residuals, and a failing one.
"""

import dataclasses
import json
from dataclasses import dataclass, field, replace

import pytest

from fpp import (
    FactoradicLabeling,
    PhaseProfile,
    VerificationReport,
    nlogn_circuit,
    phase_profile,
    relabeled,
    solve_profile,
    sqrt_circuit,
)
from fpp.errors import DomainError


@dataclass(frozen=True)
class _CopiedReport:
    """The report with every field copied out of the profile."""

    n: int
    family: str
    labeling_name: str
    y: int
    query_count: int
    expected_queries: int | None
    residuals_x_independent: bool
    phase_linear: bool
    solved_y: int | None
    passed: bool
    exponents: tuple[int, ...] = field(repr=False)
    residuals: dict[str, tuple[int, ...]] = field(repr=False)
    failure: str | None = None

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "family": self.family,
            "labeling": self.labeling_name,
            "y": self.y,
            "query_count": self.query_count,
            "expected_queries": self.expected_queries,
            "residuals_x_independent": self.residuals_x_independent,
            "phase_linear": self.phase_linear,
            "solved_y": self.solved_y,
            "passed": self.passed,
            "exponents": list(self.exponents),
            "residuals": {w: list(word) for w, word in sorted(self.residuals.items())},
            "failure": self.failure,
        }
        return json.dumps(payload, sort_keys=True)


_CopiedReport.__qualname__ = "VerificationReport"  # so that the reprs compare

FIELDS = [f.name for f in dataclasses.fields(_CopiedReport)]


def _copied(profile: PhaseProfile, y: int) -> _CopiedReport:
    m = profile.modulus
    linear = profile.residuals_ok and y % profile.readout_period == 0
    solved = None
    if linear:
        solved = (profile.exponents[1] * y) % m
    return _CopiedReport(
        n=profile.n,
        family=profile.family,
        labeling_name=profile.labeling_name,
        y=y,
        query_count=profile.query_count,
        expected_queries=profile.expected_queries,
        residuals_x_independent=profile.residuals_ok,
        phase_linear=linear,
        solved_y=solved,
        passed=linear and solved == y,
        exponents=profile.exponents,
        residuals=profile.residuals,
        failure=profile.failure,
    )


def _linear() -> PhaseProfile:
    return phase_profile(nlogn_circuit(4), FactoradicLabeling(4), processes=1)


def _non_linear() -> PhaseProfile:
    fac = FactoradicLabeling(4)
    return phase_profile(sqrt_circuit(4, relabeled(fac, (1, 0, 2, 3))), fac, processes=1)


def _failing() -> PhaseProfile:
    circuit = nlogn_circuit(5)
    # gates[0] is the polarity-1 query of U_4 on psi_2_2
    mutant = replace(circuit, gates=circuit.gates[1:])
    return phase_profile(mutant, FactoradicLabeling(5), processes=1)


PROFILES = {"linear": _linear, "non-linear": _non_linear, "failing": _failing}


@pytest.fixture(scope="module", params=sorted(PROFILES))
def profile(request) -> PhaseProfile:
    return PROFILES[request.param]()


def test_profiles_cover_each_verdict(profile):
    copies = [_copied(profile, y) for y in range(profile.modulus)]
    verdicts = {(r.residuals_x_independent, r.phase_linear, r.passed) for r in copies}
    if profile.failure is not None:
        assert verdicts == {(False, False, False)}
    elif profile.readout_period == 1:
        assert verdicts == {(True, True, True)}
    else:
        # linear at the multiples of the period; of those, some read out y
        assert (True, False, False) in verdicts and (True, True, True) in verdicts


def test_view_matches_copied_fields_json_and_repr(profile):
    for y in range(profile.modulus):
        view, copied = solve_profile(profile, y), _copied(profile, y)
        for name in FIELDS:
            assert getattr(view, name) == getattr(copied, name), (y, name)
        assert view.to_json() == copied.to_json()
        assert repr(view) == repr(copied)
        assert VerificationReport.from_json(view.to_json()) == view


def test_equality_matches_copied_reports():
    profiles = [_linear(), _non_linear(), _linear()]
    views = [solve_profile(p, y) for p in profiles for y in range(0, p.modulus, 5)]
    copies = [_copied(p, y) for p in profiles for y in range(0, p.modulus, 5)]
    for a, ca in zip(views, copies):
        for b, cb in zip(views, copies):
            assert (a == b) == (ca == cb)


def test_report_holds_only_profile_and_y():
    report = solve_profile(_linear(), 3)
    assert [f.name for f in dataclasses.fields(VerificationReport)] == ["profile", "y"]
    assert not hasattr(report, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.y = 4


@pytest.mark.parametrize("key", ["solved_y", "phase_linear", "passed"])
def test_from_json_rejects_altered_verdict(key):
    profile = _non_linear()
    for y in (12, 1):  # linear and read out; not linear
        payload = json.loads(solve_profile(profile, y).to_json())
        payload[key] = {"solved_y": (payload["solved_y"] or 0) + 1,
                        "phase_linear": not payload["phase_linear"],
                        "passed": not payload["passed"]}[key]
        with pytest.raises(DomainError, match=key):
            VerificationReport.from_json(json.dumps(payload))


def test_from_json_rejects_short_exponents():
    payload = json.loads(solve_profile(_linear(), 1).to_json())
    payload["exponents"] = payload["exponents"][:-1]
    with pytest.raises(DomainError, match="23 exponents"):
        VerificationReport.from_json(json.dumps(payload))
