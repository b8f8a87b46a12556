"""Differential tests: a VerificationReport is a view of its profile at y.

The reference below keeps the report as a dataclass with a copy of every
field, filled by the readout formulas the view must reproduce.  Every
field, the JSON bytes, the repr and equality of the view are compared with
it for every y of three profiles: a linear one, a non-linear one with
x-independent residuals, and a failing one.  The vector readout and the
profile's int64 readout rule are compared with the views and with the
Python-int formulas over drawn exponent arrays.
"""

import dataclasses
import json
import pickle
from dataclasses import dataclass, field, replace
from math import factorial, gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpp import (
    FactoradicLabeling,
    PhaseProfile,
    VerificationReport,
    nlogn_circuit,
    phase_profile,
    readout,
    relabeled,
    solve_profile,
    sqrt_circuit,
)
from fpp import perms
from fpp.errors import DomainError, UnsupportedError


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
    exponents = tuple(profile.exponents.tolist())
    linear = profile.residuals_ok and y % profile.readout_period == 0
    solved = None
    if linear:
        solved = (exponents[1] * y) % m
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
        exponents=exponents,
        residuals=profile.residuals,
        failure=profile.failure,
    )


def _linear() -> PhaseProfile:
    return phase_profile(nlogn_circuit(4), FactoradicLabeling(4))


def _non_linear() -> PhaseProfile:
    fac = FactoradicLabeling(4)
    return phase_profile(sqrt_circuit(4, relabeled(fac, (1, 0, 2, 3))), fac)


def _failing() -> PhaseProfile:
    circuit = nlogn_circuit(5)
    # gates[0] is the polarity-1 query of U_4 on psi_2_2
    mutant = replace(circuit, gates=circuit.gates[1:])
    return phase_profile(mutant, FactoradicLabeling(5))


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
            value = getattr(view, name)
            if name == "exponents":  # the profile's int64 array
                value = tuple(value.tolist())
            assert value == getattr(copied, name), (y, name)
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


_NOT_JSON_INTEGERS = [
    ("exponents", 1.9, r"exponents\[1\]=1.9, not an integer"),
    ("exponents", 1.0, r"exponents\[1\]=1.0, not an integer"),
    ("exponents", "1", r"exponents\[1\]='1', not an integer"),
    ("exponents", True, r"exponents\[1\]=True, not an integer"),
    ("y", "1", "y='1', not an integer"),
    ("y", 1.0, "y=1.0, not an integer"),
    ("y", True, "y=True, not an integer"),
    ("n", -1, "n=-1, below 2"),
    ("n", 1, "n=1, below 2"),
    ("n", "4", "n='4', not an integer"),
    ("n", 4.0, "n=4.0, not an integer"),
    ("n", True, "n=True, not an integer"),
]


_WRONG_TYPES = [
    ("query_count", "18", "query_count='18', not an integer"),
    ("query_count", 1.5, "query_count=1.5, not an integer"),
    ("query_count", True, "query_count=True, not an integer"),
    ("expected_queries", "x", "expected_queries='x', not an integer or null"),
    ("expected_queries", 18.0, "expected_queries=18.0, not an integer or null"),
    ("residuals_x_independent", 1, "residuals_x_independent=1, not a boolean"),
    ("residuals_x_independent", "true", "residuals_x_independent='true', not a boolean"),
    ("residuals", [[0, 1]], r"residuals=\[\[0, 1\]\], not an object"),
    ("residuals", {"t": [0.5, "a"]}, r"residuals\['t'\]=\[0.5, 'a'\], not a list of integers"),
    ("residuals", {"t": [0, True]}, r"residuals\['t'\]=\[0, True\], not a list of integers"),
    ("residuals", {"t": "01"}, r"residuals\['t'\]='01', not a list of integers"),
    ("family", 5, "family=5, not a string"),
    ("labeling", ["x"], r"labeling=\['x'\], not a string"),
    ("failure", 3, "failure=3, not a string or null"),
]


@pytest.mark.parametrize(
    "key, value, message", _NOT_JSON_INTEGERS,
    ids=[f"{key}={value!r}" for key, value, _ in _NOT_JSON_INTEGERS],
)
def test_from_json_refuses_fields_that_are_not_json_integers(key, value, message):
    payload = json.loads(solve_profile(_linear(), 1).to_json())
    if key == "exponents":
        payload["exponents"][1] = value  # p(1) = 1, so 1.9 would truncate to a passing report
    else:
        payload[key] = value
    with pytest.raises(DomainError, match=message):
        VerificationReport.from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "key, value, message", _WRONG_TYPES,
    ids=[f"{key}={value!r}" for key, value, _ in _WRONG_TYPES],
)
def test_from_json_refuses_other_fields_of_the_wrong_type(key, value, message):
    payload = json.loads(solve_profile(_linear(), 1).to_json())
    payload[key] = value
    with pytest.raises(DomainError, match=message):
        VerificationReport.from_json(json.dumps(payload))


def test_from_json_refuses_a_missing_key_and_a_payload_that_is_not_an_object():
    payload = json.loads(solve_profile(_linear(), 1).to_json())
    for key in payload:
        rest = {k: v for k, v in payload.items() if k != key}
        with pytest.raises(DomainError, match=f"report lacks '{key}'$"):
            VerificationReport.from_json(json.dumps(rest))
    for text in ("[]", "3", '"report"', "null"):
        with pytest.raises(DomainError, match="report is not a JSON object"):
            VerificationReport.from_json(text)


def _oracle_period(profile: PhaseProfile) -> int:
    """The readout period by Python ints, over the exponents as a tuple."""
    p = tuple(profile.exponents.tolist())
    return profile.modulus // gcd(profile.modulus, *(e - x * p[1] for x, e in enumerate(p)))


def _profile(n: int, exponents, failure: str | None = None) -> PhaseProfile:
    return PhaseProfile(
        n=n, modulus=factorial(n), family="drawn", labeling_name="drawn",
        query_count=0, expected_queries=None, exponents=exponents,
        residuals={}, residuals_ok=failure is None, failure=failure,
    )


@st.composite
def drawn_profiles(draw) -> PhaseProfile:
    """Exactly linear, linear up to a period > 1, arbitrary, or failed
    (empty exponents) profiles at n = 2..6."""
    n = draw(st.integers(2, 6))
    m = factorial(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.arange(m)
    kind = draw(st.sampled_from(["linear", "period", "arbitrary", "failed"]))
    if kind == "failed":
        return _profile(n, (), failure="x=1: tokens did not return to their home wires")
    if kind == "linear":
        return _profile(n, x * int(rng.integers(m)) % m)
    if kind == "period":
        k = draw(st.sampled_from([d for d in range(2, m + 1) if m % d == 0]))
        return _profile(n, (x * int(rng.integers(m)) + m // k * rng.integers(k, size=m)) % m)
    return _profile(n, rng.integers(m, size=m))


def _views(profile: PhaseProfile, ys) -> list:
    return [(r.solved_y, r.passed) for r in (solve_profile(profile, y) for y in ys)]


def _vector(profile: PhaseProfile, ys) -> list:
    solved, passed = readout(profile, ys)
    assert solved.dtype == np.int64 and passed.dtype == bool
    return [(s if s >= 0 else None, ok) for s, ok in zip(solved.tolist(), passed.tolist())]


@settings(max_examples=80, deadline=None)
@given(drawn_profiles(), st.data())
def test_vector_readout_matches_views(profile, data):
    m = profile.modulus
    assert _vector(profile, range(m)) == _views(profile, range(m))
    sample = sorted(data.draw(st.sets(st.integers(0, m - 1), max_size=12)))
    assert _vector(profile, sample) == _views(profile, sample)


@settings(max_examples=80, deadline=None)
@given(drawn_profiles())
def test_int64_readout_rule_matches_python_ints(profile):
    assert profile.readout_period == _oracle_period(profile)
    assert type(profile.readout_period) is int
    assert profile.slope is None or type(profile.slope) is int
    for y in range(profile.modulus):
        view = solve_profile(profile, y)
        assert type(view.solved_y) in (int, type(None))
        assert type(view.passed) is bool and type(view.phase_linear) is bool
        assert view.passed == (view.solved_y == y)


@settings(max_examples=40, deadline=None)
@given(drawn_profiles())
def test_exponents_read_only_and_pickled_profile_equal(profile):
    assert profile.exponents.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        profile.exponents[:1] = 1
    copy = pickle.loads(pickle.dumps(profile))
    assert copy == profile and copy is not profile
    assert not copy.exponents.flags.writeable
    assert copy.readout_period == profile.readout_period
    assert _views(copy, range(copy.modulus)) == _views(profile, range(profile.modulus))


def test_profile_copies_a_writable_array_it_is_given():
    exponents = np.arange(6)
    profile = _profile(3, exponents)
    exponents[1] = 5
    assert profile.exponents.tolist() == list(range(6)) and profile.slope == 1


def test_profile_equality_compares_exponents():
    a, b = _profile(3, range(6)), _profile(3, [0, 1, 2, 3, 4, 5])
    assert (a == b) is True and (a != b) is False
    assert (a == _profile(3, [0, 1, 2, 3, 5, 4])) is False
    assert (a == replace(a, family="other")) is False


def test_profile_rejects_exponents_outside_the_modulus():
    for exponents in ([0, 1, 2, 3, 4, 6], [0, -1, 2, 3, 4, 5], [0, 2**70, 0, 0, 0, 0]):
        with pytest.raises(DomainError, match=r"exponents must lie in \[0, 6\)"):
            _profile(3, exponents)


def test_int64_readout_guard_admits_n12_only():
    # x*p(1) < n!^2 must fit int64: 12!^2 < 2^63 <= 13!^2
    assert factorial(12) ** 2 < 2**63 <= factorial(13) ** 2
    assert _profile(12, (), failure="x=1: failed").readout_period == 1
    with pytest.raises(UnsupportedError, match="n <= 12"):
        _profile(13, (), failure="x=1: failed")
    # the bound itself, on moduli that are not factorials
    largest = isqrt(2**63 - 1)
    assert replace(_profile(2, ()), modulus=largest).modulus == largest
    with pytest.raises(UnsupportedError, match="n <= 12"):
        replace(_profile(2, ()), modulus=largest + 1)
    # phase_profile refuses n=13 before validating or sweeping 13! states
    with pytest.raises(UnsupportedError, match="n <= 12"):
        phase_profile(nlogn_circuit(13), FactoradicLabeling(13))


def test_from_json_refuses_large_n_before_forming_n_factorial():
    # 2000! has 5 736 digits, past what int() formats by default
    payload = json.loads(solve_profile(_linear(), 1).to_json())
    for n in (13, 2000):
        payload["n"] = n
        with pytest.raises(UnsupportedError, match=f"n={n}: .*n <= 12"):
            VerificationReport.from_json(json.dumps(payload))


def test_nonlinear_witness_names_first_x():
    fac = FactoradicLabeling(5)
    profile = phase_profile(sqrt_circuit(5, relabeled(fac, (1, 0, 2, 3, 4))), fac)
    assert profile.residuals_ok and profile.readout_period == 30
    p = profile.exponents.tolist()
    first = next(x for x in range(120) if p[x] != x * p[1] % 120)
    assert profile.nonlinear_witness == (first, p[first], first * p[1] % 120) == (2, 2, 118)
    assert all(type(v) is int for v in profile.nonlinear_witness)
    assert _linear().nonlinear_witness is None and _failing().nonlinear_witness is None


@settings(max_examples=80, deadline=None)
@given(drawn_profiles())
def test_readout_rule_over_small_chunks(profile):
    # the deviations in chunks of 3, 6, then 8 states: the running gcd and
    # the first nonzero deviation give the whole-array values
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(perms, "_FIRST_CHUNK", 3)
        patched.setattr(perms, "_CHUNK_BYTES", 64)
        period, witness = profile.readout_period, profile.nonlinear_witness
    assert period == _oracle_period(profile)
    p, m = profile.exponents.tolist(), profile.modulus
    first = next((x for x, e in enumerate(p) if e != x * p[1] % m), None)
    if first is None or not profile.residuals_ok:
        assert witness is None
    else:
        assert witness == (first, p[first], first * p[1] % m)


def test_readout_rejects_y_outside_the_modulus():
    for ys in ([0, 24], [-1]):
        with pytest.raises(DomainError, match=f"y={ys[-1]} outside"):
            readout(_linear(), ys)
