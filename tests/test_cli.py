import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from collections import Counter

import jsonschema
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import inttiles
from conftest import subprocess_env
from inttiles import cli, cmcheck, constructions, search, tilingset
from inttiles.cli import CORPUS_CHUNK, worker_count
from inttiles.faults import InconsistentRoutesError, InvalidShiftError
from inttiles.schemas import CORPUS_RECORD, ENVELOPE, PAYLOAD_SCHEMAS
from inttiles.tilingset import IntegerSet


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv)
    assert code in (0, 3), err
    envelope = json.loads(out)
    jsonschema.validate(envelope, ENVELOPE)
    jsonschema.validate(envelope["payload"], PAYLOAD_SCHEMAS[envelope["subcommand"]])
    return code, envelope


# --- happy paths -----------------------------------------------------------------


def test_min_period_inline_set():
    code, env = run_json("min-period", "--set", "0,2")
    assert code == 0
    assert env["payload"]["status"] == "tiles"
    assert env["payload"]["period"] == 4
    assert env["payload"]["complement"] == [0, 1]


def test_min_period_does_not_tile_is_success():
    code, env = run_json("min-period", "--set", "0,1,3")
    assert code == 0
    assert env["payload"]["status"] == "does_not_tile"


def test_min_period_deep_search():
    # the complement search places 2048 translates, one level each
    code, env = run_json("min-period", "--set", "0,2048")
    assert code == 0
    assert env["payload"]["status"] == "tiles"
    assert env["payload"]["period"] == 4096
    assert env["payload"]["complement"] == list(range(2048))


def test_min_period_normalization_echo():
    code, env = run_json("min-period", "--set", "5,7")
    assert env["normalization"] == {"offset": 5}
    assert env["payload"]["period"] == 4


def test_analyze():
    code, env = run_json("analyze", "--set", "0,1,2,3")
    payload = env["payload"]
    assert payload["spectrum"] == [2, 4]
    assert payload["t1"] and payload["t2"]
    assert payload["lcm_sa"] == 4


def test_analyze_from_file(tmp_path):
    path = tmp_path / "set.json"
    path.write_text("[3, 4, 5, 6]")
    code, env = run_json("analyze", "--input", str(path))
    assert env["normalization"] == {"offset": 3}
    assert env["payload"]["spectrum"] == [2, 4]


@pytest.mark.parametrize(
    "elements,spectrum,t1", [("0,100000000000", [4096], True), ("0,1,100000000000", [], False)]
)
def test_analyze_huge_diameter(elements, spectrum, t1):
    # only the primes of |A| can enter the spectrum, so nothing here
    # scales with the diameter 10^11
    started = time.perf_counter()
    code, env = run_json("analyze", "--set", elements)
    assert time.perf_counter() - started < 1.0
    assert code == 0
    assert env["payload"]["spectrum"] == spectrum
    assert env["payload"]["t1"] is t1


def test_analyze_prime_power_tower():
    # 1 + X^(2^k) = Phi_(2^(k+1)): the kernel peels the whole tower 2^(k+1) in
    # one level, where it once recursed past the recursion limit for k >= 990
    k = 1100
    code, env = run_json("analyze", "--set", f"0,{2**k}")
    assert code == 0
    assert env["payload"]["spectrum"] == [2 ** (k + 1)]
    assert env["payload"]["t1"] is True


def test_check_tiling_inline():
    code, env = run_json(
        "check-tiling", "--tile", "0,1", "--complement", "0,2", "--modulus", "4"
    )
    assert env["payload"]["tiles"] is True
    code, env = run_json(
        "check-tiling", "--tile", "0,1", "--complement", "0,1", "--modulus", "4"
    )
    assert code == 0  # a negative verdict is still a computed result
    assert env["payload"]["tiles"] is False
    assert env["payload"]["first_overcovered"] == 1


def test_check_tiling_record_file(tmp_path):
    path = tmp_path / "tiling.json"
    path.write_text(json.dumps({"tile": [0, 1], "complement": [0, 2], "modulus": 4}))
    code, env = run_json("check-tiling", "--input", str(path))
    assert env["payload"]["tiles"] is True


def test_check_tiling_modulus_guard(tmp_path, monkeypatch):
    def forbidden(*args):
        raise AssertionError("is_tiling reached past the modulus guard")

    monkeypatch.setattr(cli, "is_tiling", forbidden)
    huge = cli.MODULUS_SAFETY_LIMIT + 1
    path = tmp_path / "tiling.json"
    path.write_text(json.dumps({"tile": [0], "complement": [0], "modulus": huge}))
    inline = ("--tile", "0", "--complement", "0", "--modulus", "1000000000000")
    for source in (inline, ("--input", str(path))):
        code, out, err = run_cli("check-tiling", *source)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--force" in err


def test_check_tiling_forced_modulus_stops_at_maxsize(tmp_path, monkeypatch):
    # no residue bitmask can be indexed past sys.maxsize: a forced modulus
    # there was an OverflowError or an empty MemoryError (exit 4), and is now
    # refused before is_tiling runs, inline or from --input
    def forbidden(*args):
        raise AssertionError("is_tiling reached past sys.maxsize")

    monkeypatch.setattr(cli, "is_tiling", forbidden)
    path = tmp_path / "tiling.json"
    for modulus in (sys.maxsize + 1, 99999999999999999999999):
        path.write_text(json.dumps({"tile": [0, 1], "complement": [0, 2], "modulus": modulus}))
        inline = ("--tile", "0,1", "--complement", "0,2", "--modulus", str(modulus))
        for source in (inline, ("--input", str(path))):
            code, out, err = run_cli("check-tiling", *source, "--force")
            assert code == 2
            assert out == ""
            refusal = f"modulus {modulus} exceeds sys.maxsize {sys.maxsize}, even with --force"
            assert err == f"error: {refusal}\n"


@pytest.mark.parametrize(
    "modulus", [("--modulus", "0"), ("--modulus=-4",)], ids=["zero", "negative"]
)
def test_check_tiling_nonpositive_modulus_is_usage_error(modulus):
    # refused by is_tiling's own check, which no other test reaches
    code, out, err = run_cli("check-tiling", "--tile", "0", "--complement", "0", *modulus)
    assert (code, out) == (2, "")
    assert err == "error: modulus must be positive\n"


def test_construct_box():
    code, env = run_json("construct", "box", "--powers", "2^1,3^1")
    assert env["payload"] == {"set": [0, 2, 3, 4, 5, 7], "modulus": 6}


def test_construct_theorem2():
    code, env = run_json(
        "construct", "theorem2", "--p", "7,11,13", "--n", "2",
        "--beta", "11/10", "--epsilon", "1/10",
    )
    payload = env["payload"]
    assert payload["M"] == 1002001
    assert payload["diam_A"] == 276652
    assert all(
        payload["checks"][key]
        for key in ("tiling_base", "tiling_shifted", "shifted_period_is_modulus",
                    "base_period_proper", "prime_set_match", "diam_within_bound")
    )
    assert payload["alpha"] == "29/25"
    assert payload["exponent_report"]["beta_below_alpha"] is True


def test_theorem2_schema_rejects_missing_and_stray_fields(desk_instance):
    # the payload construct theorem2 prints, without --beta and --epsilon;
    # the broken copies cut its three 1,001-element sets to one element,
    # since validating them takes about 36 ms a payload
    validator = jsonschema.Draft202012Validator(PAYLOAD_SCHEMAS["construct-theorem2"])
    assert validator.is_valid(desk_instance.to_json_dict())
    payload = desk_instance.to_json_dict() | {"A": [0], "B0": [0], "B": [0]}
    assert validator.is_valid(payload)

    def edited(obj, key, value=None):
        bad = json.loads(json.dumps(payload))
        if value is None:
            del bad[obj][key]
        else:
            bad[obj][key] = value
        return bad

    broken = [edited("checks", key) for key in payload["checks"]]
    broken += [edited("exponent_report", key) for key in payload["exponent_report"]]
    broken += [edited(obj, "stray", 1) for obj in ("params", "checks", "exponent_report")]
    broken.append(edited("checks", "tiling_base", "true"))
    assert len(broken) == 8 + 4 + 3 + 1
    assert [bad for bad in broken if validator.is_valid(bad)] == []


def test_counterexample():
    code, env = run_json("counterexample", "--p", "7", "--q", "11")
    payload = env["payload"]
    assert payload["modulus"] == 5929
    assert payload["diam"] == 152
    assert payload["eq3_threshold"] == 5082
    assert payload["eq3_holds"] is False


def test_text_format():
    code, out, err = run_cli("min-period", "--set", "0,2", "--format", "text")
    assert code == 0
    assert "status: tiles" in out
    assert "period: 4" in out
    # the normalization shows as in the JSON envelope: {7,8} is {0,1} + 7
    code, out, err = run_cli("min-period", "--set", "7,8", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[1:3] == ["normalization:", "  offset: 7"]
    assert "complement: 0" in lines
    # a report with no normalization in its envelope shows none
    _, out, _ = run_cli("construct", "box", "--powers", "2^2", "--format", "text")
    assert "normalization" not in out


def test_json_payload_roundtrip():
    _, out, _ = run_cli("analyze", "--set", "0,1,2,3")
    envelope = json.loads(out)
    assert json.loads(json.dumps(envelope)) == envelope


# One run per report kind; each sha256 covers the whole output except the
# timing, so a change in key order, an omitted field or a value format shows.
GOLDEN_RUNS = [
    pytest.param(
        ("analyze", "--set", "2,3,5,6"),
        "896051e186120bb80fd021a261ff8f4cbde187e011ea258fcef443ebcbba3f74",
        id="analyze",
    ),
    pytest.param(
        ("check-tiling", "--tile", "0,1", "--complement", "0,2", "--modulus", "4"),
        "dd2ffc53772d1f88b6a22d14b4a0cd34fdb3f3bb8716a07054324a4a1b8939ba",
        id="check-tiling-tiles",
    ),
    pytest.param(  # --force below the modulus limit changes nothing
        ("check-tiling", "--tile", "0,1", "--complement", "0,2", "--modulus", "4",
         "--force"),
        "dd2ffc53772d1f88b6a22d14b4a0cd34fdb3f3bb8716a07054324a4a1b8939ba",
        id="check-tiling-forced",
    ),
    pytest.param(  # reports first_undercovered, first_overcovered, failing_divisor
        ("check-tiling", "--tile", "0,1", "--complement", "0,1", "--modulus", "4"),
        "245aab2517c0b1091ae347e25143ca4c1ed328a2240b73fb7f6ee95e8a39203d",
        id="check-tiling-fails",
    ),
    pytest.param(
        ("min-period", "--set", "5,7"),
        "9b035a883bb6b982fb1125852bfe17419f540fd2ff1e2054169f52119a6a29aa",
        id="min-period-tiles",
    ),
    pytest.param(
        ("min-period", "--set", "0,1,3"),
        "a60fd508b56ace5893e0284d0c002fd5d4eb447a5770a56e2058dfd90eac2ac9",
        id="min-period-does-not-tile",
    ),
    pytest.param(
        ("min-period", "--set", "0,1,4,5", "--node-budget", "1"),
        "63f1e6a19b2ba789315506722d18dd9eb1a3a95587af68080f22d7d5efaf9f22",
        id="min-period-inconclusive",
    ),
    pytest.param(
        ("construct", "box", "--powers", "2^2,3^1"),
        "b1e6670568b07c042d3f3a768fb8d407318ab1da8d83bac520d7fef06f3fa492",
        id="construct-box",
    ),
    pytest.param(
        ("construct", "box", "--powers", "2^3,3^2,5^1"),
        "d7f57abfa7096306b6460175d6e562fef55b1de873983b1816f61cefe5ac5fc6",
        id="construct-box-three-primes",
    ),
    pytest.param(  # with no target the report has no verdict keys
        ("construct", "theorem2", "--p", "7,11,13", "--n", "2"),
        "7e7bdf5c0a091192a2d897bd0f4a8239a5aa3b724011fc3ada89334996150b39",
        id="construct-theorem2-no-targets",
    ),
    pytest.param(  # alpha and prime_growth_ok, no beta_below_alpha
        ("construct", "theorem2", "--p", "7,11,13", "--n", "2", "--epsilon", "1/10"),
        "b6f55d57f84fd0416c8495610f02bada2c8fbcd35e1c250284c89de570db33bd",
        id="construct-theorem2-epsilon",
    ),
    pytest.param(  # beta alone sets no verdict
        ("construct", "theorem2", "--p", "7,11,13", "--n", "2", "--beta", "11/10"),
        "51f7ace71ebc77bc3657f1a108eb991c4692005fd6e4f06080d7080ea65a8a52",
        id="construct-theorem2-beta",
    ),
    pytest.param(
        ("construct", "theorem2", "--p", "7,11,13", "--n", "2",
         "--beta", "11/10", "--epsilon", "1/10"),
        "4b38929fa6eaca57bbc252d10a5e3f54cccf8ecd090c170776b174751decc980",
        id="construct-theorem2",
    ),
    pytest.param(
        ("counterexample", "--p", "7", "--q", "11"),
        "f3b85e633f5572388cd1f550625ae9b3eb68e7703fdb98738a56c12c9e337f08",
        id="counterexample",
    ),
    pytest.param(
        ("counterexample", "--p", "5", "--q", "7"),
        "805099ef7628ee2ed5a3cd988bd5fc1c5e69571ca31d8284abf1b19f7c87307b",
        id="counterexample-5-7",
    ),
    pytest.param(
        ("counterexample", "--p", "11", "--q", "13"),
        "4cec231fb0c29f6dcf1c40e609f283815572c8795c1908c1b351bf6e7c7f142b",
        id="counterexample-11-13",
    ),
    pytest.param(
        ("min-period", "--set", "0,1,4,5", "--format", "text"),
        "490def0f272b475c4a958b6425bc0483886b4e5bd77dec4a614c38b6f07581c6",
        id="min-period-text",
    ),
]


def _pinned_bytes(out: str) -> bytes:
    """The output without its timing_ms, the only part that varies per run."""
    if out.startswith("{"):
        head, sep, tail = out.rpartition(',"timing_ms":')
        assert sep and tail.endswith("}\n"), out[-80:]
        return (head + "}\n").encode("utf-8")
    *lines, last = out.splitlines(keepends=True)
    assert last.startswith("timing_ms: "), last
    return "".join(lines).encode("utf-8")


@pytest.mark.parametrize("argv,digest", GOLDEN_RUNS)
def test_output_is_pinned(argv, digest):
    code, out, err = run_cli(*argv)
    assert code in (0, 3), err
    assert hashlib.sha256(_pinned_bytes(out)).hexdigest() == digest


# --- corpus ----------------------------------------------------------------------


def test_corpus_enumeration_order_and_count():
    code, out, err = run_cli("corpus", "--max-diameter", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    records = [json.loads(line) for line in lines]
    assert [r["set"] for r in records] == [[0], [0, 1], [0, 2], [0, 1, 2]]
    for record in records:
        jsonschema.validate(record, CORPUS_RECORD)
    assert records[2]["period"]["period"] == 4
    assert records[2]["period"]["status"] == "tiles"


def test_corpus_deterministic_across_jobs():
    outputs = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli("corpus", "--max-diameter", "5", "--jobs", jobs)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_corpus_output_is_pinned():
    # sha256 of the d <= 10 corpus JSONL; any change to a record changes it
    code, out, _ = run_cli("corpus", "--max-diameter", "10", "--jobs", "1")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "f0b78a198a3ef5ac0bc3922a4e3d027ade969bdf5bb540a6349d91e6c6475f70"
    )


def test_corpus_respects_safety_limit():
    code, out, err = run_cli("corpus", "--max-diameter", "15")
    assert code == 2
    assert "safety limit" in err
    assert out == ""


def test_corpus_jobs_auto():
    code, out, _ = run_cli("corpus", "--max-diameter", "3", "--jobs", "0")
    assert code == 0
    _, serial, _ = run_cli("corpus", "--max-diameter", "3", "--jobs", "1")
    assert out == serial


def test_parallel_corpus_draws_within_window(monkeypatch):
    # at most 2 * workers tasks of 16 sets are in flight before the first line
    drawn = [0]
    real = cli._corpus_sets

    def counting(max_diameter):
        for elements in real(max_diameter):
            drawn[0] += 1
            yield elements

    monkeypatch.setattr(cli, "_corpus_sets", counting)
    drawn_at_first_write = []

    class Out(io.StringIO):
        def write(self, text):
            if not drawn_at_first_write:
                drawn_at_first_write.append(drawn[0])
            return super().write(text)

    out = Out()
    code = cli.main(["corpus", "--max-diameter", "10", "--jobs", "2"], out=out, err=io.StringIO())
    assert code == 0
    assert drawn_at_first_write[0] <= 2 * worker_count(2) * CORPUS_CHUNK
    assert drawn == [1024] and out.getvalue().count("\n") == 1024


# --- failure modes ---------------------------------------------------------------


def test_usage_error_bad_set():
    code, out, err = run_cli("analyze", "--set", "zebra")
    assert code == 2
    assert "error" in err
    assert out == ""


def test_usage_error_duplicate_elements():
    code, _, err = run_cli("analyze", "--set", "0,2,2")
    assert code == 2
    assert "duplicate" in err


def test_usage_error_missing_arguments():
    code, _, _ = run_cli("analyze")
    assert code == 2


def test_usage_error_unknown_subcommand():
    code, _, _ = run_cli("frobnicate")
    assert code == 2


def test_usage_error_set_and_input_conflict(tmp_path):
    path = tmp_path / "set.json"
    path.write_text("[0, 1]")
    code, _, _ = run_cli("analyze", "--set", "0,1", "--input", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze",),
        ("construct", "theorem2", "--p", "7,11,13", "--n", "abc"),
        ("frobnicate",),
        ("analyze", "--set", "0,1", "--input", "set.json"),
        # parsed, then refused by minimal_tiling_period, which names its keyword
        ("min-period", "--set", "0,1", "--cap", "0"),
    ],
    ids=["missing-set", "n-not-int", "unknown-subcommand", "set-and-input", "cap-zero"],
)
def test_argparse_error_is_one_line(argv):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert stderr.getvalue() == ""  # argparse prints no usage of its own
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    if "--cap" in argv:
        assert err == "error: cap must be positive\n"


def test_help_exits_0(capsys):
    for argv in (("--help",), ("analyze", "--help")):
        code, out, err = run_cli(*argv)
        assert code == 0
        assert out.startswith("usage: inttiles")
        assert err == ""
        assert capsys.readouterr() == ("", "")  # nothing on sys.stdout or sys.stderr


def test_check_tiling_input_excludes_inline_arguments(tmp_path):
    path = tmp_path / "tiling.json"
    path.write_text(json.dumps({"tile": [0], "complement": [0], "modulus": 1}))
    code, out, err = run_cli("check-tiling", "--input", str(path), "--tile", "0")
    assert code == 2
    assert out == ""
    assert err == "error: --input excludes --tile/--complement/--modulus\n"


def test_usage_error_check_tiling_needs_full_triple():
    code, _, err = run_cli("check-tiling", "--tile", "0,1")
    assert code == 2


def test_usage_error_missing_input_file():
    code, _, err = run_cli("analyze", "--input", "/nonexistent/set.json")
    assert code == 2
    assert err == "error: [Errno 2] No such file or directory: '/nonexistent/set.json'\n"


def test_usage_error_bad_construct_params():
    code, _, err = run_cli("construct", "theorem2", "--p", "7,11", "--n", "2")
    assert code == 2
    code, _, err = run_cli("construct", "theorem2", "--p", "7,11,17", "--n", "2")
    assert code == 2


def test_inconclusive_exit_code_with_report():
    code, out, err = run_cli("min-period", "--set", "0,1,4,5", "--node-budget", "1")
    assert code == 3
    envelope = json.loads(out)  # report still emitted
    assert envelope["payload"]["status"] == "inconclusive"


def test_internal_fault_exit_code(monkeypatch):
    # is_tiling itself detects the disagreement: the cyclotomic route's
    # verdict is flipped, and the direct route's is not
    route = tilingset._cyclotomic_route

    def flipped(tile, complement, modulus):
        verdict, divisor = route(tile, complement, modulus)
        return not verdict, divisor

    monkeypatch.setattr(tilingset, "_cyclotomic_route", flipped)
    with pytest.raises(InconsistentRoutesError):
        tilingset.is_tiling(IntegerSet.of(0, 1), IntegerSet.of(0, 2), 4)
    code, out, err = run_cli("check-tiling", "--tile", "0,1", "--complement", "0,2", "--modulus", "4")
    assert code == 4
    assert out == ""
    assert err.startswith("internal-consistency fault: ") and err.count("\n") == 1, err


def test_invalid_shift_is_internal_fault(monkeypatch):
    # residues counted twice leave coefficients of 2 after the column shifts
    class Doubled(Counter):
        def __init__(self, elements):
            super().__init__(elements)
            self.update(elements)

    monkeypatch.setattr(constructions, "Counter", Doubled)
    with pytest.raises(InvalidShiftError):
        constructions.theorem2_generate(constructions.Theorem2Params(7, 11, 13, 2))
    code, out, err = run_cli("construct", "theorem2", "--p", "7,11,13", "--n", "2")
    assert code == 4
    assert out == ""
    assert err.startswith("internal-consistency fault: ") and err.count("\n") == 1, err


def test_library_key_error_is_internal_fault(monkeypatch):
    # check-tiling --input checks its own keys, so a KeyError from the
    # library is a bug, not bad input
    def explode(args):
        raise KeyError("x")

    monkeypatch.setitem(cli._HANDLERS, "analyze", explode)
    code, out, err = run_cli("analyze", "--set", "0,1")
    assert code == 4
    assert out == ""
    assert err == "internal error: KeyError: 'x'\n"


def test_unexpected_exception_is_one_line_exit_4(monkeypatch):
    # an exception no handler expects is reported in one line, not a traceback
    def explode(args):
        raise RecursionError("maximum recursion depth exceeded\nin comparison")

    monkeypatch.setitem(cli._HANDLERS, "min-period", explode)
    code, out, err = run_cli("min-period", "--set", "0,2")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("corpus", "--max-diameter", "3", "--jobs", "-1"),
        # the period search runs in one process: corpus --jobs is the one
        # worker setting, and min-period has no --jobs
        ("min-period", "--set", "0,1", "--jobs", "2"),
    ],
)
def test_negative_jobs_is_usage_error(argv):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if argv[0] == "corpus":
        assert err == "error: worker count must be nonnegative, got -1\n"


# Each of these once hung, ran out of memory, exited 4 or misread its input.
# Every generator is patched to fail if reached, so the refusal must come first.
REFUSED = [
    pytest.param(("construct", "theorem2", "--p", "7,11,13", "--n", n), None, id=f"theorem2-n{n}")
    for n in ("3", "100", "1000000000")
] + [
    pytest.param(("construct", "box", "--powers", "2^40"), None, id="box-2^40"),
    pytest.param(  # 1031 * 1033 > 2^20, and both are primes with q < 2p
        ("counterexample", "--p", "1031", "--q", "1033"), None, id="counterexample-pq"
    ),
    pytest.param(
        ("construct", "theorem2", "--p", "7,11,13", "--n", "2", "--epsilon", "1000000000"),
        None,
        id="epsilon-large",
    ),
    pytest.param(
        ("construct", "theorem2", "--p", "7,11,13", "--n", "2", "--epsilon", "1/1000000000"),
        None,
        id="epsilon-small",
    ),
    pytest.param(
        ("construct", "theorem2", "--p", "7,11,13", "--n", "2", "--epsilon", "1e-100000000"),
        None,
        id="epsilon-exponent",
    ),
    pytest.param(
        ("construct", "theorem2", "--p", "7,11,13", "--n", "2", "--beta", "1/0"),
        None,
        id="beta-zero-denominator",
    ),
    pytest.param(("analyze",), [0, 1.5], id="analyze-float"),
    pytest.param(("analyze",), ["0", "1"], id="analyze-strings"),
    pytest.param(("analyze",), [0, True], id="analyze-bool"),
    pytest.param(("min-period",), [0, 2.0], id="min-period-float"),
    pytest.param(
        ("check-tiling",),
        {"tile": [0, 1.0], "complement": [0, 2], "modulus": 4},
        id="check-tiling-float-element",
    ),
    pytest.param(("check-tiling",), [0, 1], id="check-tiling-array"),
    pytest.param(
        ("check-tiling",),
        {"tile": [0, 1], "complement": [0, 2], "modulus": 4.7},
        id="check-tiling-float-modulus",
    ),
    pytest.param(
        ("check-tiling",),
        {"tile": [0, 1], "complement": [0, 2], "modulus": True},
        id="check-tiling-bool-modulus",
    ),
] + [
    # raw text, which json.dumps cannot write: the decoder hits the
    # recursion limit
    pytest.param((sub,), "[" * 100000 + "]" * 100000, id=f"{sub}-nested")
    for sub in ("analyze", "min-period", "check-tiling")
]


@pytest.mark.parametrize("argv,document", REFUSED)
def test_refused_inputs_exit_2_at_once(argv, document, tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("reached past the input checks")

    # each name is patched where its handler reads it: search, cmcheck and
    # constructions are imported inside the handlers that run them
    for module, name in [
        (constructions, "theorem2_generate"),
        (constructions, "standard_tile"),
        (constructions, "diameter_counterexample"),
        (cli, "is_tiling"),
        (cmcheck, "cm_report"),
        (search, "minimal_tiling_period"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    if document is not None:
        path = tmp_path / "input.json"
        path.write_text(document if type(document) is str else json.dumps(document))
        argv = (*argv, "--input", str(path))
    started = time.perf_counter()
    code, out, err = run_cli(*argv)
    assert time.perf_counter() - started < 1.0
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["tile", "complement", "modulus"])
def test_check_tiling_input_names_missing_key(key, tmp_path):
    document = {"tile": [0, 1], "complement": [0, 2], "modulus": 4}
    del document[key]
    path = tmp_path / "record.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli("check-tiling", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: missing key '{key}'\n"


# --- argv fuzz -------------------------------------------------------------------


def _csv(values):
    return ",".join(str(v) for v in values)


_SMALL_INTS = st.one_of(
    st.sets(st.integers(0, 40), min_size=1, max_size=6).map(sorted),
    st.lists(st.integers(-2, 40), max_size=6),
)
# analyze costs log(diameter) kernel calls per prime of |A|, so its
# elements can be huge; min-period's search still grows with the diameter
_HUGE_INTS = st.sets(st.integers(0, 10**12), min_size=1, max_size=6).map(sorted)
_SMALL_PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23])
_JSON_SCALARS = st.one_of(
    st.integers(-2, 40), st.floats(-50, 50), st.booleans(), st.text(max_size=3), st.none()
)
_JSON_ARRAYS = st.one_of(_SMALL_INTS, st.lists(_JSON_SCALARS, max_size=4))
_TILING_DOCS = st.fixed_dictionaries(
    {},
    optional={
        "tile": _JSON_ARRAYS,
        "complement": _JSON_ARRAYS,
        "modulus": st.one_of(st.integers(-3, 10**4), _JSON_SCALARS),
    },
)
_FRACTIONS = st.one_of(
    st.builds("{}/{}".format, st.integers(-3, 10**9), st.integers(0, 10**9)),
    st.sampled_from(["0.1", "3", "1/0", "1e-5", "abc", "inf", ""]),
)


@st.composite
def cli_runs(draw):
    """An argv for one subcommand and the JSON document its --input names,
    if any. Values stay small: moduli up to 10^4, --n in {1, 2, 3}, corpus
    diameters up to 4 and corpus --jobs absent or 1, so no run is slow, allocates
    much or starts a process; only analyze takes elements up to 10^12.
    Each value goes in one --flag=value token, so argparse reads a negative
    number as a value. Some argvs lose a required token or gain an unknown
    option."""
    kind = draw(st.sampled_from(
        ["analyze", "check-tiling", "min-period", "theorem2", "box", "counterexample",
         "corpus"]
    ))
    document = None
    if kind in ("analyze", "min-period"):
        argv = [kind]
        if draw(st.booleans()):
            ints = _HUGE_INTS if kind == "analyze" and draw(st.booleans()) else _SMALL_INTS
            argv.append(f"--set={_csv(draw(ints))}")
        else:
            argv.append("--input={input}")
            document = draw(st.one_of(_JSON_ARRAYS, _TILING_DOCS))
        if kind == "min-period":
            # the unrestricted default cap can take seconds, so it gets a cap
            unrestricted = draw(st.booleans())
            if unrestricted or draw(st.booleans()):
                argv.append(f"--cap={draw(st.integers(-2, 100))}")
            if unrestricted or draw(st.booleans()):
                argv.append(f"--mode={'unrestricted' if unrestricted else 'restricted'}")
            if draw(st.booleans()):
                argv.append(f"--node-budget={draw(st.integers(-1, 500))}")
    elif kind == "check-tiling":
        argv = [kind]
        if draw(st.booleans()):
            argv.append("--input={input}")
            document = draw(st.one_of(_TILING_DOCS, _JSON_ARRAYS))
        else:
            for flag in ("--tile", "--complement"):
                if draw(st.integers(0, 5)):
                    argv.append(f"{flag}={_csv(draw(_SMALL_INTS))}")
            if draw(st.integers(0, 5)):
                argv.append(f"--modulus={draw(st.integers(-3, 10**4))}")
        if draw(st.booleans()):
            argv.append("--force")
    elif kind == "theorem2":
        # (7, 11, 13) is the only valid triple up to 13; at n = 2 it builds
        # M = 1001^2 in about 0.25 s, and the pinned outputs cover it
        size = draw(st.sampled_from([2, 3, 3, 3, 4]))  # mostly three primes
        primes = draw(st.lists(st.one_of(st.sampled_from([2, 3, 5, 7, 11, 13]),
                                         st.integers(-1, 13)), min_size=size, max_size=size))
        n = draw(st.sampled_from([1, 2, 3]))
        assume((primes, n) != ([7, 11, 13], 2))
        argv = ["construct", "theorem2", f"--p={_csv(primes)}", f"--n={n}"]
        for flag in ("--beta", "--epsilon"):
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(_FRACTIONS)}")
    elif kind == "box":
        base = st.one_of(_SMALL_PRIMES, st.integers(-1, 13))
        powers = draw(st.lists(st.tuples(base, st.integers(-1, 4)), min_size=1, max_size=3))
        size = math.prod(b**e for b, e in powers if b > 1 and e > 0)
        assume(not 10**4 < size <= cli.ELEMENT_SAFETY_LIMIT)
        spec = _csv(f"{b}^{e}" if e != 1 or draw(st.booleans()) else b for b, e in powers)
        argv = ["construct", "box", f"--powers={spec}"]
    elif kind == "counterexample":
        p, q = (draw(st.one_of(_SMALL_PRIMES, st.integers(-1, 100))) for _ in "pq")
        argv = [kind, f"--p={p}", f"--q={q}"]
    else:
        argv = [kind, f"--max-diameter={draw(st.integers(-2, 4))}"]
        if draw(st.booleans()):
            argv.append("--jobs=1")
        if draw(st.booleans()):
            argv.append("--force")
    if kind != "corpus" and draw(st.booleans()):
        argv.append("--format=json")
    # about one argv in ten each; hypothesis draws 0 far more often than
    # 1 in 10, so the test is for 5
    if draw(st.integers(0, 9)) == 5:
        # the subcommand or the token after it, which every subcommand
        # but check-tiling requires (dropping min-period's --cap instead
        # could make a run slow)
        del argv[draw(st.integers(0, min(1, len(argv) - 1)))]
    if draw(st.integers(0, 9)) == 5:
        argv.append("--bogus=1")
    return argv, document


@settings(max_examples=300, deadline=None)
@given(run=cli_runs())
def test_argv_fuzz(run, tmp_path_factory):
    argv, document = run
    if document is not None:
        path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
        path.write_text(json.dumps(document))
        argv = [arg.replace("{input}", str(path)) for arg in argv]
    stderr = io.StringIO()  # nothing may bypass main's err stream either
    with contextlib.redirect_stderr(stderr):
        code, out, err = run_cli(*argv)
    err += stderr.getvalue()
    # exit 4 is a fault of the program, never the answer to user input
    assert code in (0, 2, 3), err
    if code == 2:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n"), err
        return
    assert err == ""
    if argv[0] == "corpus":
        for line in out.splitlines():
            jsonschema.validate(json.loads(line), CORPUS_RECORD)
    else:
        envelope = json.loads(out)
        jsonschema.validate(envelope, ENVELOPE)
        jsonschema.validate(envelope["payload"], PAYLOAD_SCHEMAS[envelope["subcommand"]])


# --- import cost -----------------------------------------------------------------


def _loaded_after(script: str, prefixes: tuple[str, ...]) -> list[str]:
    """The prefixes that name a module a fresh Python holds after running
    script, sorted.

    The child runs with -S: a site .pth file may load typing or pathlib at
    start-up, which would hide the package's own imports. PYTHONPATH still
    reaches this inttiles."""
    probe = (
        f"{script}\nimport json, sys\n"
        f"print(json.dumps(sorted({{p for m in sys.modules for p in {prefixes!r} if m.startswith(p)}})))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=subprocess_env(), capture_output=True,
        text=True, check=True,
    )
    return json.loads(result.stdout)


def _cli_script(argv: list[str]) -> str:
    return f"import io\nfrom inttiles import cli\nassert cli.main({argv!r}, out=io.StringIO()) == 0"


_LAZY_MODULES = ("inttiles.search", "inttiles.cmcheck", "inttiles.constructions")
_POOLS = ("concurrent", "multiprocessing")
_FRACTION_MODULES = ("fractions", "decimal", "numbers")
_COMPILERS = ("dataclasses", "typing", "inspect", "ast")
_WATCHED = (*_POOLS, *_LAZY_MODULES, *_COMPILERS, *_FRACTION_MODULES, "pathlib")

# The module-loading contract: script -> (the script, the watched modules it
# loads beyond those `python -S -c pass` holds). Serial runs start no process
# pool. search, cmcheck and constructions load only in the commands that run
# them. The value classes derive from polyring.Record, so nothing loads
# dataclasses (which loads inspect, ast, dis and tokenize) or typing, and
# Record compiles each constructor with exec from its field names, so no row
# loads inspect or ast either. Only
# constructions makes a Fraction, so only its commands load fractions (with
# decimal and numbers), and --input is read with open(), so none loads pathlib.
_LOADS = {
    "import": ("import inttiles, inttiles.cli", ()),
    "analyze": (_cli_script(["analyze", "--set", "0,1,3"]), ("inttiles.cmcheck",)),
    "check-tiling": (
        _cli_script(["check-tiling", "--tile", "0,1", "--complement", "0,2", "--modulus", "4"]),
        (),
    ),
    "min-period": (_cli_script(["min-period", "--set", "0,1,3"]), ("inttiles.search",)),
    "theorem2": (
        _cli_script(["construct", "theorem2", "--p", "7,11,13", "--n", "2", "--beta", "11/10"]),
        ("inttiles.constructions", *_FRACTION_MODULES),
    ),
    "box": (
        _cli_script(["construct", "box", "--powers", "2^2,3"]),
        ("inttiles.constructions", *_FRACTION_MODULES),
    ),
    "counterexample": (
        _cli_script(["counterexample", "--p", "5", "--q", "7"]),
        ("inttiles.constructions", *_FRACTION_MODULES),
    ),
    "corpus": (
        _cli_script(["corpus", "--max-diameter", "3"]),
        ("inttiles.search", "inttiles.cmcheck"),
    ),
}


@pytest.fixture(scope="module")
def watched_loads():
    """name -> the watched modules its _LOADS script leaves loaded that
    `pass` does not: one child Python per script and one for `pass`."""
    baseline = set(_loaded_after("pass", _WATCHED))
    return {
        name: set(_loaded_after(script, _WATCHED)) - baseline
        for name, (script, _) in _LOADS.items()
    }


def _assert_loads(watched_loads, name: str, columns: tuple[str, ...]) -> None:
    """The columns of one _LOADS row: loaded exactly where the table says."""
    allowed = set(_LOADS[name][1])
    assert watched_loads[name] & set(columns) == allowed & set(columns), name


def test_cli_import_leaves_out_process_pools(watched_loads):
    _assert_loads(watched_loads, "import", _POOLS + _LAZY_MODULES)
    for name in _LOADS:
        _assert_loads(watched_loads, name, _POOLS)


@pytest.mark.parametrize(
    "name",
    [name for name in _LOADS if name != "import"],
    ids=lambda name: f"construct-{name}" if name in ("theorem2", "box") else name,
)
def test_subcommand_loads_only_its_modules(watched_loads, name):
    _assert_loads(watched_loads, name, _LAZY_MODULES)


@pytest.mark.parametrize("name", list(_LOADS))
def test_no_dataclasses_or_typing(watched_loads, name):
    # nor inspect or ast, which a compiled constructor could pull in
    _assert_loads(watched_loads, name, _COMPILERS)


@pytest.mark.parametrize("name", list(_LOADS))
def test_no_fractions_or_pathlib(watched_loads, name):
    # the construct and counterexample rows allow fractions, and no row pathlib
    _assert_loads(watched_loads, name, (*_FRACTION_MODULES, "pathlib"))


def test_every_public_name_resolves():
    star: dict = {}
    exec("from inttiles import *", star)
    listed = dir(inttiles)
    for name in inttiles.__all__:
        value = getattr(inttiles, name)
        assert name in listed
        assert star[name] is value
    # a lazy name is read from its submodule on every access, never cached
    assert "cm_report" not in vars(inttiles)
    assert "minimal_tiling_period" not in vars(inttiles)
    assert inttiles.cm_report is cmcheck.cm_report
    assert inttiles.minimal_tiling_period is search.minimal_tiling_period
    with pytest.raises(AttributeError, match="no_such_name"):
        inttiles.no_such_name
    # a submodule is an attribute after a bare `import inttiles`, and loads alone
    script = "import inttiles\nassert inttiles.cmcheck.cm_report"
    assert _loaded_after(script, _LAZY_MODULES) == ["inttiles.cmcheck"]


# --- closed stdout ---------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "box", "--powers", "2^16"],
        ["corpus", "--max-diameter", "10", "--jobs", "1"],
        ["corpus", "--max-diameter", "10", "--jobs", "2"],
    ],
)
def test_closed_stdout_ends_quietly(argv):
    # like `inttiles ... | head -c 10`: each run writes far more than a pipe
    # buffer holds, so it is still writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-c", "from inttiles.cli import entrypoint; entrypoint()", *argv],
        env=subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
