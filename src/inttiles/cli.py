"""Command-line front end.

All reports are UTF-8 JSON on stdout (one envelope per invocation, or one
JSON line per set for `corpus`); diagnostics go to stderr. Exit codes:
0 computed result (including "does not tile"), 2 usage error,
3 inconclusive (budget exhausted), 4 internal-consistency fault or any
other unexpected error (one line on stderr). A reader that closes stdout
early, such as `head`, ends the run quietly with exit 0: main lets the
BrokenPipeError through and entrypoint absorbs it.

`search`, `cmcheck` and `constructions` are imported inside the handlers
that run them: `min-period` loads `search`, `analyze` loads `cmcheck`,
`corpus` loads both, `construct` and `counterexample` load
`constructions`, and `check-tiling` loads none of the three.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from collections import deque
from collections.abc import Iterator
from itertools import islice

from .faults import InternalFaultError
from .schemas import SCHEMA_VERSION
from .tilingset import ELEMENT_SAFETY_LIMIT, IntegerSet, is_tiling

CORPUS_SAFETY_LIMIT = 14
# check-tiling's bitmask route peaks near 1.5 bytes per residue (tracemalloc
# at M = 1,002,001 on a near miss; 0.65 on a tiling), so this limit keeps one
# run within a few hundred MB
MODULUS_SAFETY_LIMIT = 10**8
# sets per corpus task: with one per task, --jobs 2 ran about twice as long
CORPUS_CHUNK = 16
# one compact encoder for every line written, rather than a new encoder per
# json.dumps call
_encode_compact = json.JSONEncoder(separators=(",", ":")).encode


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}") from exc


def _parse_set(text: str) -> IntegerSet:
    return IntegerSet.from_iterable(_parse_int_list(text, "set"))


def _int_array(value, what: str) -> list[int]:
    # type() rather than isinstance: JSON true would pass as the integer 1
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise ValueError(f"{what}: expected a JSON array of integers")
    return value


def _read_json(path: str):
    with open(path, encoding="utf-8") as file:
        text = file.read()
    try:
        return json.loads(text)
    except RecursionError:
        # the decoder recurses once per level of nesting
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_set(path: str) -> IntegerSet:
    return IntegerSet.from_iterable(_int_array(_read_json(path), path))


def _parse_fraction(text: str | None, what: str) -> Fraction | None:
    if text is None:
        return None
    # here, not at the top: only construct theorem2 reads a fraction
    from fractions import Fraction

    # an exponent such as 1e-99999999 would make Fraction build 10**99999999
    if "e" in text.lower():
        raise ValueError(f"{what} must be a fraction like 11/10 or 0.1, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"{what} has a zero denominator: {text!r}") from exc


def _guard_size(powers: list[tuple[int, int]], limit: int, what: str) -> None:
    """Raise ValueError if the product of b**e over powers exceeds limit.

    The product grows one factor at a time and stops once past the limit,
    so a huge exponent costs nothing. Bases below 2 are skipped; the
    construction's own validation rejects them.
    """
    product = 1
    for base, exp in powers:
        for _ in range(exp if base > 1 else 0):
            product *= base
            if product > limit:
                raise ValueError(f"{what} exceeds the safety limit {limit}")


def _input_set(args) -> IntegerSet:
    return _load_set(args.input) if args.input else _parse_set(args.set)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises its errors instead of printing usage,
    so main reports them in one stderr line like every other usage error.
    add_subparsers builds each subparser from this class as well."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="inttiles",
        description="Analyze translational tilings of the integers.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_set_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--set", help="inline set, comma-separated nonnegative integers")
        group.add_argument("--input", help="path to a JSON array of nonnegative integers")

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("analyze", help="spectrum, (T1)/(T2), and diameter bounds")
    add_set_source(p)
    add_format(p)

    p = sub.add_parser("check-tiling", help="verify tile + complement = Z_M")
    p.add_argument("--tile", help="inline tile set")
    p.add_argument("--complement", help="inline complement set")
    p.add_argument("--modulus", type=int, help="modulus M")
    p.add_argument("--input", help='path to JSON {"tile": [...], "complement": [...], "modulus": M}')
    p.add_argument(
        "--force",
        action="store_true",
        help=f"allow a modulus beyond the safety limit of {MODULUS_SAFETY_LIMIT}",
    )
    add_format(p)

    p = sub.add_parser("min-period", help="minimal tiling period by exhaustive search")
    add_set_source(p)
    add_format(p)
    p.add_argument("--mode", choices=("restricted", "unrestricted"), default="restricted")
    p.add_argument("--cap", type=int, help="override the candidate-modulus cap")
    p.add_argument("--node-budget", type=int, help="abort search beyond this many nodes")

    p = sub.add_parser("construct", help="generate explicit tilings")
    kinds = p.add_subparsers(dest="kind", required=True)
    t2 = kinds.add_parser("theorem2", help="long-period column-shift tiling")
    t2.add_argument("--p", required=True, help="three primes p1,p2,p3 with p1<p2<p3<2*p1")
    t2.add_argument("--n", required=True, type=int, help="exponent n >= 2")
    t2.add_argument("--beta", help="target exponent in (0, 3/2)")
    t2.add_argument("--epsilon", help="slack in (0, 3) for the exponent report")
    add_format(t2)
    box = kinds.add_parser("box", help="complete-residue box tile")
    box.add_argument("--powers", required=True, help="prime powers like 2^2,3^1")
    add_format(box)

    p = sub.add_parser("counterexample", help="diameter counterexample at primes p < q < 2p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    add_format(p)

    p = sub.add_parser("corpus", help="enumerate sets up to a diameter, one JSON line each")
    p.add_argument("--max-diameter", type=int, required=True)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (0 = one per CPU, never more than the CPU count)",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help=f"allow max-diameter beyond the safety limit of {CORPUS_SAFETY_LIMIT}",
    )
    return parser


def _run_analyze(args):
    from .cmcheck import cm_report

    given = _input_set(args)
    tile = given.normalize()
    offset = given.elements[0]
    return cm_report(tile).to_json_dict(), 0, {"offset": offset}


def _run_check_tiling(args):
    if args.input:
        if args.tile or args.complement or args.modulus is not None:
            raise ValueError("--input excludes --tile/--complement/--modulus")
        data = _read_json(args.input)
        if not isinstance(data, dict):
            raise ValueError(f"{args.input}: expected a JSON object")
        for key in ("tile", "complement", "modulus"):
            if key not in data:
                raise ValueError(f"{args.input}: missing key {key!r}")
        tile = IntegerSet.from_iterable(_int_array(data["tile"], "tile"))
        complement = IntegerSet.from_iterable(_int_array(data["complement"], "complement"))
        modulus = data["modulus"]
        if type(modulus) is not int:
            raise ValueError(f"modulus must be a JSON integer, got {json.dumps(modulus)}")
    else:
        if not (args.tile and args.complement and args.modulus is not None):
            raise ValueError("need --tile, --complement and --modulus (or --input)")
        tile = _parse_set(args.tile)
        complement = _parse_set(args.complement)
        modulus = args.modulus
    # no residue bitmask can be indexed past sys.maxsize, so --force stops there
    if modulus > sys.maxsize:
        raise ValueError(f"modulus {modulus} exceeds sys.maxsize {sys.maxsize}, even with --force")
    if modulus > MODULUS_SAFETY_LIMIT and not args.force:
        raise ValueError(
            f"modulus {modulus} exceeds the safety limit "
            f"{MODULUS_SAFETY_LIMIT}; pass --force to override"
        )
    return is_tiling(tile, complement, modulus).to_json_dict(), 0, None


def _run_min_period(args):
    from .search import minimal_tiling_period

    given = _input_set(args)
    tile = given.normalize()
    offset = given.elements[0]
    result = minimal_tiling_period(
        tile, mode=args.mode, cap=args.cap, node_budget=args.node_budget
    )
    code = 3 if result.status == "inconclusive" else 0
    return result.to_json_dict(), code, {"offset": offset}


def _run_construct(args):
    from .constructions import Theorem2Params, standard_tile, theorem2_generate

    if args.kind == "theorem2":
        primes = _parse_int_list(args.p, "--p")
        if len(primes) != 3:
            raise ValueError("--p needs exactly three primes")
        # before Theorem2Params, whose primality test is trial division
        _guard_size(
            [(p, args.n) for p in primes], MODULUS_SAFETY_LIMIT, "modulus (p1*p2*p3)^n"
        )
        params = Theorem2Params(
            p1=primes[0],
            p2=primes[1],
            p3=primes[2],
            n=args.n,
            target_beta=_parse_fraction(args.beta, "--beta"),
            epsilon=_parse_fraction(args.epsilon, "--epsilon"),
        )
        return theorem2_generate(params).to_json_dict(), 0, None
    spec = []
    for part in args.powers.split(","):
        if "^" in part:
            base, _, exp = part.partition("^")
        else:
            base, exp = part, "1"
        spec.append((int(base), int(exp)))
    _guard_size(spec, ELEMENT_SAFETY_LIMIT, "modulus")
    tile = standard_tile(spec)
    # a complete residue system mod N has N elements
    return {"set": list(tile.elements), "modulus": len(tile)}, 0, None


def _run_counterexample(args):
    from .constructions import diameter_counterexample

    _guard_size([(args.p, 1), (args.q, 1)], ELEMENT_SAFETY_LIMIT, "p*q")
    tile, report = diameter_counterexample(args.p, args.q)
    payload = {"set": list(tile.elements)}
    payload.update(report.to_json_dict())
    return payload, 0, None


def _corpus_sets(max_diameter: int):
    """Every set {0} | S with S within {1..max_diameter}, in bitmask order."""
    for mask in range(1 << max_diameter):
        yield (0,) + tuple(
            i + 1 for i in range(max_diameter) if mask >> i & 1
        )


def _corpus_record(cm_report, minimal_tiling_period, elements: tuple[int, ...]) -> str:
    tile = IntegerSet(elements)
    period = minimal_tiling_period(tile)
    analysis = cm_report(tile)
    record = {
        "set": list(elements),
        "period": period.to_json_dict(),
        "analysis": analysis.to_json_dict(),
    }
    return _encode_compact(record)


def worker_count(jobs: int) -> int:
    """Processes for a request of jobs: 0 means one per CPU, never more than the CPUs."""
    if jobs < 0:
        raise ValueError(f"worker count must be nonnegative, got {jobs}")
    cpus = os.cpu_count() or 1
    return min(jobs, cpus) if jobs else cpus


def _map_chunk(fn, chunk: list) -> list:
    return [fn(item) for item in chunk]


def ordered_map(fn, items, jobs: int) -> Iterator:
    """fn over items, yielding results in input order.

    The one place that runs work on a process pool, so `corpus` prints the
    same stream at any worker count. One job is map(fn, items). More run
    CORPUS_CHUNK items per task with at most 2 * jobs tasks in flight, and
    cancel the tasks not yet started when the stream is closed.
    """
    if jobs == 1:
        yield from map(fn, items)
        return
    # imported here: serial runs never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    items = iter(items)
    pending: deque = deque()
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        try:
            while chunk := list(islice(items, CORPUS_CHUNK)):
                pending.append(pool.submit(_map_chunk, fn, chunk))
                if len(pending) == 2 * jobs:
                    yield from pending.popleft().result()
            while pending:
                yield from pending.popleft().result()
        finally:
            for fut in pending:
                fut.cancel()


def _run_corpus(args, out) -> int:
    if args.max_diameter < 0:
        raise ValueError("--max-diameter must be nonnegative")
    if args.max_diameter > CORPUS_SAFETY_LIMIT and not args.force:
        raise ValueError(
            f"--max-diameter {args.max_diameter} exceeds the safety limit "
            f"{CORPUS_SAFETY_LIMIT}; pass --force to override"
        )
    from .cmcheck import cm_report
    from .search import minimal_tiling_period

    jobs = worker_count(args.jobs)
    # the functions are bound once per run, and positionally: an import per
    # line would cost about 1% of the run, and a keyword partial about 0.2%
    record = functools.partial(_corpus_record, cm_report, minimal_tiling_period)
    for line in ordered_map(record, _corpus_sets(args.max_diameter), jobs):
        print(line, file=out)
    return 0


def _render_text(payload: dict, out, prefix: str = "") -> None:
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{prefix}{key}:", file=out)
            _render_text(value, out, prefix + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], list):
            body = " ".join(f"{m}={o}" for m, o in value)
            print(f"{prefix}{key}: {body}", file=out)
        elif isinstance(value, list):
            print(f"{prefix}{key}: {','.join(str(v) for v in value)}", file=out)
        else:
            print(f"{prefix}{key}: {value}", file=out)


_HANDLERS = {
    "analyze": _run_analyze,
    "check-tiling": _run_check_tiling,
    "min-period": _run_min_period,
    "construct": _run_construct,
    "counterexample": _run_counterexample,
}


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        # argparse prints --help to sys.stdout
        with contextlib.redirect_stdout(out):
            args = build_parser().parse_args(argv)
        started = time.perf_counter()
        if args.subcommand == "corpus":
            return _run_corpus(args, out)
        payload, code, normalization = _HANDLERS[args.subcommand](args)
    except SystemExit as exc:
        # only --help and its kin exit inside argparse; the text is printed
        return exc.code
    except BrokenPipeError:
        # the reader closed stdout; an OSError, but not a usage error
        raise
    except InternalFaultError as exc:
        print(f"internal-consistency fault: {exc}", file=err)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except Exception as exc:
        # Last resort: an unexpected exception still ends in a documented
        # exit code with one line on stderr, never a traceback.
        detail = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {detail}", file=err)
        return 4

    subcommand = args.subcommand
    if subcommand == "construct":
        subcommand = f"construct-{args.kind}"
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
    }
    if normalization is not None:
        envelope["normalization"] = normalization
    envelope["payload"] = payload
    envelope["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    if getattr(args, "format", "json") == "text":
        print(f"subcommand: {subcommand}", file=out)
        if normalization is not None:
            _render_text({"normalization": normalization}, out)
        _render_text(payload, out)
        print(f"timing_ms: {envelope['timing_ms']}", file=out)
    else:
        print(_encode_compact(envelope), file=out)
    return code


def entrypoint() -> None:
    try:
        code = main()
    except BrokenPipeError:
        # A reader such as head closed stdout early: end quietly. fd 1 now
        # points at devnull, so the interpreter's final flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
