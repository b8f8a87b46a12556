"""Golden digests of phase profiles, validation results and sweep tables.

One line of ``golden/profile_digests.txt`` per (family, n, labeling): every
family at n = 2..9 under the factoradic labeling and, from n = 3, under one
renamed labeling, and every family at n = 3 under each of the 24
enumerated labelings.  Each line holds a sha256 over

- the :func:`~fpp.algorithms.phase_profile` fields: the exponents' bytes,
  the failure, the residuals and the query count;
- the same fields for every single-gate deletion of the circuit at n <= 5;
- the labeling's validation result;
- the bytes of the sweep's checks, pair tables and block tables (for the
  circuit and, at n <= 5, each deletion).

An error raised by fpp is digested by its type and text; any other error
fails the test.  The file pins all of these bit for bit, so a refactor of
the sweep or of validation that changes none of them leaves it unchanged.
Run as a program, the module prints the file:

    PYTHONPATH=src python tests/test_profile_digests.py > tests/golden/profile_digests.txt
"""

import hashlib
import pathlib
from dataclasses import replace

from fpp import algorithms
from fpp.algorithms import FAMILIES, ReferenceSwitch, phase_profile
from fpp.errors import FppError
from fpp.perms import FactoradicLabeling, enumerate_valid_labelings, relabeled

GOLDEN = pathlib.Path(__file__).parent / "golden" / "profile_digests.txt"
DELETIONS_UP_TO = 5


def _labelings():
    """(n, labeling): factoradic at n = 2..9, renamed from n = 3 by the
    rotation U_i -> U_{i+1 mod n}, then the 24 enumerated n=3 labelings."""
    for n in range(2, 10):
        yield n, FactoradicLabeling(n)
        if n >= 3:
            yield n, relabeled(FactoradicLabeling(n), [(i + 1) % n for i in range(n)])
    for lab in enumerate_valid_labelings(3):
        yield 3, lab


def _feed(h, *parts) -> None:
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")


def _outcome(h, fn, *args):
    """fn(*args), or None after digesting an fpp error's type and text."""
    try:
        return fn(*args)
    except FppError as exc:
        _feed(h, "error", type(exc).__name__, str(exc))
        return None


def _feed_profile(h, target, lab) -> None:
    profile = _outcome(h, phase_profile, target, lab)
    if profile is not None:
        _feed(h, "profile", profile.exponents.dtype.str, profile.exponents.tobytes(),
              profile.failure, sorted(profile.residuals.items()), profile.query_count)


def _feed_tables(h, circuit, table) -> None:
    sweep = _outcome(h, algorithms._Sweep, circuit, table)
    if sweep is None or sweep.checks is None:
        _feed(h, "no tables")
        return
    for g, ok in sweep.checks:
        _feed(h, "check", g, ok.dtype.str, ok.tobytes())
    for g, p, w in sweep.pair_sum.pairs:
        _feed(h, "pair", g, p, w.dtype.str, w.tobytes())
    for b, c, t in sweep.pair_sum.blocks:
        _feed(h, "block", b, c, t.dtype.str, t.tobytes())


def digest(family: str, n: int, lab) -> str:
    h = hashlib.sha256()
    validation = lab.validate()
    table = validation.table
    _feed(h, "validation", validation.status, validation.witness,
          None if table is None else sorted(table.entries.items()))
    target = FAMILIES[family].build(n, lab)
    _feed_profile(h, target, lab)
    if isinstance(target, ReferenceSwitch):
        return h.hexdigest()
    _feed_tables(h, target, table)
    if n <= DELETIONS_UP_TO:
        gates = target.gates
        for j in range(len(gates)):
            mutant = replace(target, gates=gates[:j] + gates[j + 1 :])
            _feed(h, "deletion", j)
            _feed_profile(h, mutant, lab)
            _feed_tables(h, mutant, table)
    return h.hexdigest()


def digest_lines() -> str:
    lines = []
    for n, lab in _labelings():
        for family, entry in FAMILIES.items():
            if not entry.sizes or n in entry.sizes:
                lines.append(f"{family} {n} {lab.name} {digest(family, n, lab)}\n")
    return "".join(lines)


def test_profiles_and_tables_match_golden_digests():
    assert digest_lines() == GOLDEN.read_text()


if __name__ == "__main__":
    print(digest_lines(), end="")
