"""Command-line surface: run, queries, enumerate-labelings, export, dense.

The ``--alg`` choices, the supported ``--n`` per family and the families
``dense`` accepts all come from :data:`fpp.algorithms.FAMILIES`.

Exit codes: 0 on success, 1 on verification/cross-check failure, 2 on usage
errors, including malformed integers in ``--y``, ``--labeling`` and
labeling files.  Output ordering is deterministic (ascending x / y).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from math import factorial
from typing import Sequence

import numpy as np

from . import densesim
from .algorithms import (
    FAMILIES,
    PhaseProfile,
    nlogn_query_bound,
    nlogn_query_count,
    phase_profile,
    readout,
    require_readout_n,
    solve_profile,
    sqrt_bound_holds,
    sqrt_query_count,
)
from .circuit import Circuit, export_circuit
from .errors import DomainError, FppError
from .perms import (
    FactoradicLabeling,
    Labeling,
    enumerate_valid_labelings,
    labeling_from_text,
)


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FppError(f"{what} must be an integer, got {text!r}") from None


def _load_labeling(spec: str, n: int) -> Labeling:
    if spec == "factoradic":
        return FactoradicLabeling(n)
    if spec.startswith("file:"):
        path = spec[len("file:") :]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read labeling file {path!r}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise DomainError(f"labeling file {path!r} is not UTF-8 text") from None
        labeling = labeling_from_text(text, name=spec)
        if labeling.n != n:
            raise FppError(f"labeling file has n={labeling.n}, expected n={n}")
        return labeling
    if spec.startswith("enumerate-index:"):
        if n != 3:
            raise FppError("enumerate-index labelings exist only for n=3")
        index = _parse_int(spec[len("enumerate-index:") :], "enumerate-index")
        labelings = enumerate_valid_labelings(3)
        if not 0 <= index < len(labelings):
            raise FppError(f"enumerate-index must be in [0, {len(labelings) - 1}]")
        return labelings[index]
    raise FppError(f"unknown labeling spec {spec!r}")


def _parse_ys(spec: str, m: int, seed: int) -> Sequence[int]:
    if spec == "all":
        return range(m)
    if spec.startswith("sample:"):
        count = _parse_int(spec[len("sample:") :], "sample count")
        if count < 1:
            raise FppError("sample count must be positive")
        rng = random.Random(seed)
        return sorted(rng.sample(range(m), min(count, m)))
    y = _parse_int(spec, "--y")
    if not 0 <= y < m:
        raise FppError(f"y={y} outside [0, {m - 1}]")
    return [y]


# ys read out and printed per block: one vector readout and one write each.
# A block's temporaries (about 0.5 MB each at n=10) stay small enough for
# the allocator to reuse them across blocks; at 2**16 ys they were handed
# back to the OS and faulted in again on every block.
_READOUT_BLOCK = 2**14


def _ascii(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


def _put_decimal(rows: np.ndarray, values: np.ndarray) -> None:
    """Write each value (>= 0) in decimal down its column of ``rows``,
    right-aligned; the rows above its leading digit keep their NULs."""
    v = values.copy()
    for row in rows[::-1]:
        np.add(v % 10, ord("0"), out=row, where=v > 0, casting="unsafe")
        v //= 10
    rows[-1, values == 0] = ord("0")


def _readout_lines(ys: np.ndarray, solved: np.ndarray, passed: np.ndarray, width: int) -> str:
    """The lines ``y=<y>: solved=<solved_y> PASS|FAIL`` of a block, with
    ``None`` where solved is -1.  Each line is one column of NUL-padded
    ASCII with numbers ``width`` digits wide; the NULs are dropped at the
    end."""
    text = np.zeros((2 * width + 17, len(ys)), dtype=np.uint8)
    text[:2] = _ascii("y=")[:, None]
    _put_decimal(text[2 : 2 + width], ys)
    text[2 + width : 11 + width] = _ascii(": solved=")[:, None]
    field = text[11 + width : 11 + 2 * width]
    _put_decimal(field, np.maximum(solved, 0))
    field[-4:, solved < 0] = _ascii("None")[:, None]  # over the one digit of 0 put for -1
    text[-6:] = np.where(passed, _ascii(" PASS\n")[:, None], _ascii(" FAIL\n")[:, None])
    flat = text.T.ravel()
    return flat[flat != 0].tobytes().decode("ascii")


def _print_readout(profile: PhaseProfile, ys: Sequence[int]) -> int:
    """Print one line per y, ``y=<y>: solved=<solved_y> PASS|FAIL``, and
    return the number that passed."""
    width = max(len(str(profile.modulus - 1)), len("None"))
    passes = 0
    for lo in range(0, len(ys), _READOUT_BLOCK):
        block = ys[lo : lo + _READOUT_BLOCK]
        # np.asarray would walk a range element by element
        block = np.arange(block.start, block.stop) if isinstance(block, range) else np.asarray(block)
        solved, passed = readout(profile, block)
        passes += int(passed.sum())
        sys.stdout.write(_readout_lines(block, solved, passed, width))
    return passes


def _cmd_run(args: argparse.Namespace) -> int:
    require_readout_n(args.n)  # before building anything or forming n!
    labeling = _load_labeling(args.labeling, args.n)
    target = FAMILIES[args.alg].build(args.n, labeling)
    m = factorial(args.n)
    ys = _parse_ys(args.y, m, args.seed)
    profile = phase_profile(target, labeling)
    counts_ok = profile.counts_match

    if args.format == "structured":
        reports = [solve_profile(profile, y) for y in ys]
        passes = sum(r.passed for r in reports)
        print(json.dumps(
            {
                "algorithm": args.alg,
                "n": args.n,
                "labeling": labeling.name,
                "query_count": profile.query_count,
                "expected_queries": profile.expected_queries,
                "counts_match": counts_ok,
                "reports": [json.loads(r.to_json()) for r in reports],
            },
            sort_keys=True,
        ))
    else:
        expected = profile.expected_queries
        suffix = f" (expected {expected})" if expected is not None else ""
        print(f"{args.alg} n={args.n} labeling={labeling.name} "
              f"queries={profile.query_count}{suffix}")
        print(f"residuals x-independent: {'yes' if profile.residuals_ok else 'no'}")
        if profile.nonlinear_witness is not None:
            x, px, linear = profile.nonlinear_witness
            print(f"phase not linear: p({x})={px}, but {x}*p(1)={linear} mod {m}")
        if profile.failure:
            print(f"failure: {profile.failure}")
        passes = _print_readout(profile, ys)
        print(f"RESULT: {'PASS' if passes == len(ys) and counts_ok else 'FAIL'} "
              f"({passes}/{len(ys)})")
    return 0 if passes == len(ys) and counts_ok else 1


def _cmd_queries(args: argparse.Namespace) -> int:
    if not 2 <= args.n_max <= 10**6:
        raise FppError("--n-max must be between 2 and 1000000")
    header = ("n", "switch", "sim", "nlogn", "nlogn-bound", "sqrt", "sqrt-bound")
    rows = []
    ok = True
    for n in range(2, args.n_max + 1):
        nl = nlogn_query_count(n)
        nl_bound = nlogn_query_bound(n)
        sq = sqrt_query_count(n)
        sq_bound = (5 * n**0.5 + 1) * n
        if nl >= nl_bound or not sqrt_bound_holds(n):
            ok = False
        special = " six-query=6" if n == 3 else ""
        rows.append(
            f"{n} {n} {n * n} {nl} {nl_bound:.2f} {sq} {sq_bound:.2f}{special}"
        )
    print(" ".join(header))
    for row in rows:
        print(row)
    print(f"bounds hold for all n <= {args.n_max}: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    labelings = enumerate_valid_labelings(3)
    if args.dump is not None:
        if not 0 <= args.dump < len(labelings):
            raise FppError(f"--dump index must be in [0, {len(labelings) - 1}]")
        from .perms import labeling_to_text

        sys.stdout.write(labeling_to_text(labelings[args.dump]))
        return 0
    print(f"{len(labelings)} valid labelings")
    if args.verbose:
        for idx, labeling in enumerate(labelings):
            words = " | ".join(
                ",".join(map(str, labeling.word(x).order)) for x in range(6)
            )
            print(f"[{idx}] {words}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    labeling = _load_labeling(args.labeling, args.n)
    target = FAMILIES[args.alg].build(args.n, labeling)
    if not isinstance(target, Circuit):
        raise FppError("the reference switch is not a gate-list circuit; nothing to export")
    sys.stdout.write(export_circuit(target))
    return 0


def _cmd_dense(args: argparse.Namespace) -> int:
    densesim.require_supported_n(args.n)
    labeling = _load_labeling(args.labeling, args.n)
    validation = labeling.validate()
    if not validation.consistent:
        raise FppError(f"labeling {labeling.name!r} is inconsistent")
    circuit = FAMILIES[args.alg].build(args.n, labeling)
    m = factorial(args.n)
    ys = _parse_ys(args.y, m, args.seed)
    profile = phase_profile(circuit, labeling)
    failures = 0
    for y in ys:
        units = densesim.build_promise_unitaries(args.n, y, validation.table)
        result = densesim.run_dense(circuit, units, seed=args.state_seed)
        symbolic = solve_profile(profile, y).solved_y
        ok = (
            result.measured_y == symbolic == y
            and result.peak_probability >= 1 - densesim.PROBABILITY_TOL
        )
        failures += not ok
        print(
            f"y={y}: measured={result.measured_y} symbolic={symbolic} "
            f"peak={result.peak_probability:.12f} {'PASS' if ok else 'FAIL'}"
        )
    print(f"RESULT: {'PASS' if failures == 0 else 'FAIL'}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpp",
        description="Exact verification of causal circuits for Fourier promise problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="build a circuit and verify it for chosen y values")
    run.add_argument("--alg", required=True, choices=tuple(FAMILIES))
    run.add_argument("--n", required=True, type=int)
    run.add_argument("--labeling", default="factoradic")
    run.add_argument("--y", default="all")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--format", choices=("text", "structured"), default="text")
    run.set_defaults(func=_cmd_run)

    queries = sub.add_parser("queries", help="query-count table and bound checks")
    queries.add_argument("--n-max", type=int, default=16)
    queries.set_defaults(func=_cmd_queries)

    enum = sub.add_parser("enumerate-labelings", help="count consistent n=3 labelings")
    enum.add_argument("--verbose", action="store_true")
    enum.add_argument("--dump", type=int, default=None,
                      help="print labeling #INDEX in the labeling-file format")
    enum.set_defaults(func=_cmd_enumerate)

    export = sub.add_parser("export", help="print the stable circuit description")
    export.add_argument("--alg", required=True, choices=tuple(FAMILIES))
    export.add_argument("--n", required=True, type=int)
    export.add_argument("--labeling", default="factoradic")
    export.set_defaults(func=_cmd_export)

    dense = sub.add_parser("dense", help="dense numerical cross-check (n <= 4)")
    dense.add_argument(
        "--alg", required=True, choices=tuple(f.name for f in FAMILIES.values() if f.dense)
    )
    dense.add_argument("--n", required=True, type=int)
    dense.add_argument("--labeling", default="factoradic")
    dense.add_argument("--y", default="all")
    dense.add_argument("--seed", type=int, default=0)
    dense.add_argument("--state-seed", type=int, default=None,
                       help="seed for random initial states (default: |0> states)")
    dense.set_defaults(func=_cmd_dense)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "alg"):
        sizes = FAMILIES[args.alg].sizes
        if sizes and args.n not in sizes:
            parser.error(f"{args.alg} requires " + " or ".join(f"--n {k}" for k in sizes))
        if args.n < 2:
            parser.error("--n must be at least 2")
    try:
        return args.func(args)
    except FppError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
