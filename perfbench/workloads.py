"""The four benchmark workloads: inputs, one timed pass, and the output gate.

A workload holds a fixed op set made from the seed. ``run_pass`` runs every
op once and returns, in op order, the (start, end) clock readings of each op
(None where the op raised, which is counted in ``failures`` by exception
type), and its outputs, which are hashable so that passes share them.
``check`` runs after the timed phase; it returns why an output fails the
gate, or None, and a failing output counts ``ops_per_output`` failed ops.

Per-op cost in period-search and verify-mixed is heavy-tailed: one set of
diameter <= 40 can take a fifth of a pass, so a fresh draw per seed moves
the timings far more than the run-to-run noise does. So what fixes the cost
(the sets of period-search; the kind, modulus and shape of each
verify-mixed instance) is drawn once from MASTER_SEED, and the seed draws
the rest: the order of the sets, and the elements and translates of the
verify-mixed instances.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import time
from collections import Counter

import jsonschema

MASTER_SEED = 2406_14824

clock = time.perf_counter_ns


class Sink:
    """Text stream for cli.main that timestamps each completed line."""

    def __init__(self):
        self.parts: list[str] = []
        self.stamps: list[int] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        if text.endswith("\n"):
            self.stamps.append(clock())
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)

    def nbytes(self) -> int:
        # cli output is json.dumps with ensure_ascii, so characters are bytes
        return sum(map(len, self.parts))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _validator(schema):
    return jsonschema.Draft202012Validator(schema)


class _CliWorkload:
    argv: list[str]
    ops_per_output = 1

    def __init__(self):
        from inttiles import cli

        self.cli = cli

    def _call(self, failures: Counter) -> tuple[int | None, Sink, int]:
        out = Sink()
        start = clock()
        try:
            code = self.cli.main(self.argv, out=out, err=Sink())
        except Exception as exc:
            failures[type(exc).__name__] += 1
            code = None
        return code, out, start


class Theorem2(_CliWorkload):
    """The paper's headline construction, M = (7*11*13)^2, through the CLI."""

    def __init__(self, seed: int, size: str, pins: dict):
        super().__init__()
        # (7, 11, 13) is the smallest admissible prime triple and n = 2 the
        # smallest exponent, so the tiny size runs the same op
        self.argv = ["construct", "theorem2", "--p", "7,11,13", "--n", "2",
                     "--beta", "11/10", "--epsilon", "1/10"]
        self.ops_per_pass = 1
        self.pins = pins["theorem2-n2"]

    def run_pass(self, failures: Counter, tracer=None):
        code, out, start = self._call(failures)
        span = (start, clock())
        if code is None:
            return [None], []
        return [span], [(code, out.text())]

    def check(self, output) -> str | None:
        from inttiles import schemas

        code, text = output
        if code != 0:
            return f"exit code {code}"
        lines = text.splitlines()
        if len(lines) != 1:
            return f"{len(lines)} output lines"
        env = json.loads(lines[0])
        if not _validator(schemas.ENVELOPE).is_valid(env):
            return "envelope fails schemas.ENVELOPE"
        if env["subcommand"] != "construct-theorem2":
            return f"subcommand {env['subcommand']}"
        payload = env["payload"]
        if not _validator(schemas.PAYLOAD_SCHEMAS["construct-theorem2"]).is_valid(payload):
            return "payload fails its schema"
        checks = payload["checks"]
        if not all(v is True for v in checks.values() if isinstance(v, bool)):
            return "a construction check is false"
        if checks["shifted_least_period"] != payload["M"]:
            return "shifted least period differs from M"
        for key in ("M", "diam_A"):
            if payload[key] != self.pins[key]:
                return f"{key} = {payload[key]}"
        for key in ("A", "B0", "B"):
            if sha256(json.dumps(payload[key])) != self.pins[key]:
                return f"{key} differs from its pinned digest"
        return None


class Corpus(_CliWorkload):
    """`corpus --max-diameter 12 --jobs 1`: one op per JSONL line."""

    def __init__(self, seed: int, size: str, pins: dict):
        super().__init__()
        diameter = 12 if size == "full" else 6
        self.argv = ["corpus", "--max-diameter", str(diameter), "--jobs", "1"]
        self.ops_per_pass = 1 << diameter
        # a digest cannot say which line is wrong, so a wrong pass fails every op
        self.ops_per_output = self.ops_per_pass
        self.digest = pins["corpus-d12"][size]

    def run_pass(self, failures: Counter, tracer=None):
        code, out, start = self._call(failures)
        stamps = [start] + out.stamps
        intervals = list(zip(stamps, stamps[1:]))
        intervals += [None] * (self.ops_per_pass - len(intervals))
        if code is None:
            # the exception is one failed op; the rest of the pass is lost
            failures["PassAborted"] += self.ops_per_pass - 1
            return intervals, []
        return intervals, [(code, out.text())]

    def check(self, output) -> str | None:
        from inttiles import schemas

        code, text = output
        if code != 0:
            return f"exit code {code}"
        lines = text.splitlines()
        if len(lines) != self.ops_per_pass:
            return f"{len(lines)} lines written"
        record_ok = _validator(schemas.CORPUS_RECORD)
        if not all(record_ok.is_valid(json.loads(line)) for line in lines):
            return "a line fails schemas.CORPUS_RECORD"
        if sha256(text) != self.digest:
            return "output differs from its pinned digest"
        return None


def _period_population(n: int) -> list[tuple[int, ...]]:
    """Normalized sets: diameter D uniform in [16, 40], size uniform in
    [2, min(8, D + 1)], always containing 0 and D."""
    rng = random.Random(MASTER_SEED)
    sets = []
    for _ in range(n):
        d = rng.randint(16, 40)
        k = rng.randint(2, min(8, d + 1))
        sets.append((0, *sorted(rng.sample(range(1, d), k - 2)), d))
    return sets


class PeriodSearch:
    """`minimal_tiling_period(tile)` with the default SearchConfig."""

    ops_per_output = 1

    def __init__(self, seed: int, size: str, pins: dict):
        from inttiles import IntegerSet, search

        self.search = search
        population = _period_population(1000 if size == "full" else 24)
        order = list(range(len(population)))
        random.Random(seed).shuffle(order)
        self.items = [(i, IntegerSet(population[i])) for i in order]
        self.ops_per_pass = len(self.items)
        self.expected = pins["period-search"][size]

    def run_pass(self, failures: Counter, tracer=None):
        intervals, outputs = [], []
        for n, (index, tile) in enumerate(self.items):
            if tracer is not None:
                tracer.op = n
            start = clock()
            try:
                result = self.search.minimal_tiling_period(tile)
            except Exception as exc:
                failures[type(exc).__name__] += 1
                intervals.append(None)
                continue
            intervals.append((start, clock()))
            outputs.append((index, tile, result))
        return intervals, outputs

    def check(self, output) -> str | None:
        from inttiles import is_tiling

        index, tile, result = output
        if period_label(result) != self.expected[index]:
            return "(status, period) differs from its pin"
        if result.status == "tiles" and not is_tiling(tile, result.complement, result.period):
            return "complement does not tile at the period"
        return None


def period_label(result) -> str:
    return f"{result.status}:{result.period}" if result.period else result.status


def _prime_factors(m: int) -> list[int]:
    out, d = [], 2
    while d * d <= m:
        while m % d == 0:
            out.append(d)
            m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _divisors(m: int) -> list[int]:
    divs = [1]
    for p, e in Counter(_prime_factors(m)).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def verify_instances(seed: int, n: int) -> list[tuple[str, list[int], list[int], int]]:
    """(kind, A, B, M) with M log-uniform in [1, 2*10^4].

    kinds: 40% "mismatch" (|A||B| != M, at most 8 elements each), 20%
    "matched" (|A||B| = M, elements uniform in [0, M)), 40% "box" (the
    mixed-radix digits of Z_M split between A and B, then each translated).
    The kind, M and the shape (sizes; radix order and split) come from
    MASTER_SEED, the elements and translates from the seed.
    """
    plan, rng = random.Random(MASTER_SEED), random.Random(seed)
    out = []
    for _ in range(n):
        m = max(1, round(math.exp(plan.uniform(0.0, math.log(20000)))))
        u = plan.random()
        if u < 0.4:
            ka, kb = plan.randint(1, 8), plan.randint(1, 8)
            if ka * kb == m:
                kb += 1
            a, b = rng.sample(range(3 * m + 8), ka), rng.sample(range(3 * m + 8), kb)
            out.append(("mismatch", a, b, m))
        elif u < 0.6:
            ka = plan.choice(_divisors(m))
            a, b = rng.sample(range(m), ka), rng.sample(range(m), m // ka)
            out.append(("matched", a, b, m))
        else:
            radices = _prime_factors(m)
            plan.shuffle(radices)
            a, b, weight = [0], [0], 1
            for r in radices:
                if plan.random() < 0.5:
                    a = [x + j * weight for x in a for j in range(r)]
                else:
                    b = [x + j * weight for x in b for j in range(r)]
                weight *= r
            ta, tb = rng.randrange(m), rng.randrange(m)
            out.append(("box", [x + ta for x in a], [x + tb for x in b], m))
    return out


def tiles_oracle(a, b, m: int) -> bool:
    """A + B = Z_M by counting residues, independent of inttiles."""
    return len(a) * len(b) == m and len({(x + y) % m for x in a for y in b}) == m


class VerifyMixed:
    """`is_tiling(A, B, M)` on a mix of early-exit and full-sweep instances."""

    ops_per_output = 1

    def __init__(self, seed: int, size: str, pins: dict):
        from inttiles import IntegerSet, tilingset

        self.tilingset = tilingset
        self.items = [
            (kind, IntegerSet.from_iterable(a), IntegerSet.from_iterable(b), m)
            for kind, a, b, m in verify_instances(seed, 1500 if size == "full" else 60)
        ]
        self.ops_per_pass = len(self.items)
        self.tally = pins["verify-mixed"][size].get(str(seed))

    def run_pass(self, failures: Counter, tracer=None):
        intervals, outputs = [], []
        for n, (_, a, b, m) in enumerate(self.items):
            if tracer is not None:
                tracer.op = n
            start = clock()
            try:
                verdict = self.tilingset.is_tiling(a, b, m)
            except Exception as exc:
                failures[type(exc).__name__] += 1
                intervals.append(None)
                continue
            intervals.append((start, clock()))
            outputs.append((n, verdict.tiles))
        return intervals, outputs

    @functools.cached_property
    def expected(self) -> list[bool]:
        return [tiles_oracle(a.elements, b.elements, m) for _, a, b, m in self.items]

    def check(self, output) -> str | None:
        n, tiles = output
        if self.items[n][0] == "box" and not tiles:
            return "a box tiling was rejected"
        if tiles != self.expected[n]:
            return "verdict differs from the residue-count oracle"
        if self.tally is not None and sum(self.expected) != self.tally:
            return "inputs differ from the pinned tiling tally for this seed"
        return None

WORKLOADS = {
    "theorem2-n2": Theorem2,
    "corpus-d12": Corpus,
    "period-search": PeriodSearch,
    "verify-mixed": VerifyMixed,
}
