"""Published JSON schemas for every CLI report payload.

The envelope carries schema_version "1"; payloads validate against the
per-subcommand schema below. Every object but the envelope's payload and
normalization is closed: it lists each key its record writes, and a key it
does not list fails. Kept as plain dicts so downstream tooling can import
them without extra dependencies.
"""

SCHEMA_VERSION = "1"

_INT_ARRAY = {"type": "array", "items": {"type": "integer", "minimum": 0}}
_BOOLEAN = {"type": "boolean"}
_INTEGER = {"type": "integer"}
_POSITIVE = {"type": "integer", "minimum": 1}


def _closed(properties: dict, *optional: str) -> dict:
    """An object with exactly these keys, each required unless named optional."""
    return {
        "type": "object",
        "properties": properties,
        "required": [key for key in properties if key not in optional],
        "additionalProperties": False,
    }


PERIOD_PAYLOAD = _closed(
    {
        "status": {"enum": ["tiles", "does_not_tile", "inconclusive"]},
        "period": _POSITIVE,
        "complement": _INT_ARRAY,
        "cap_used": {"type": "integer", "minimum": 0},
        "explored": {
            "type": "array",
            "items": {
                "type": "array",
                "prefixItems": [_INTEGER, {"type": "string"}],
                "minItems": 2,
                "maxItems": 2,
            },
        },
    },
    "period", "complement",
)

ANALYZE_PAYLOAD = _closed(
    {
        "spectrum": _INT_ARRAY,
        "t1": _BOOLEAN,
        "t2": _BOOLEAN,
        "lcm_sa": _POSITIVE,
        "phi_lcm_divides": _BOOLEAN,
        "diam": {"type": "integer", "minimum": 0},
        "half_bound_holds": _BOOLEAN,
        "eq3_holds": _BOOLEAN,
    },
    "half_bound_holds", "eq3_holds",
)

CHECK_TILING_PAYLOAD = _closed(
    {
        "tiles": _BOOLEAN,
        "direct_route": _BOOLEAN,
        "cyclotomic_route": _BOOLEAN,
        "first_undercovered": _INTEGER,
        "first_overcovered": _INTEGER,
        "failing_divisor": _INTEGER,
    },
    "first_undercovered", "first_overcovered", "failing_divisor",
)

THEOREM2_PAYLOAD = _closed(
    {
        "params": _closed(
            {
                "p1": _INTEGER,
                "p2": _INTEGER,
                "p3": _INTEGER,
                "n": _INTEGER,
                "target_beta": {"type": "string"},
                "epsilon": {"type": "string"},
            },
            "target_beta", "epsilon",
        ),
        "M": _INTEGER,
        "a": _INTEGER,
        "b": _INTEGER,
        "A": _INT_ARRAY,
        "B0": _INT_ARRAY,
        "B": _INT_ARRAY,
        "diam_A": _INTEGER,
        "log_ratio": {"type": "number"},
        "alpha": {"type": "string"},
        "checks": _closed(
            {
                "tiling_base": _BOOLEAN,
                "tiling_shifted": _BOOLEAN,
                "shifted_least_period": _POSITIVE,
                "shifted_period_is_modulus": _BOOLEAN,
                "base_least_period": _POSITIVE,
                "base_period_proper": _BOOLEAN,
                "prime_set_match": _BOOLEAN,
                "diam_within_bound": _BOOLEAN,
            }
        ),
        "exponent_report": _closed(
            {
                "diam": _INTEGER,
                "diam_upper_bound": _INTEGER,
                "diam_within_bound": _BOOLEAN,
                "exponent": {"type": "number"},
                "alpha": {"type": "string"},
                "beta_below_alpha": _BOOLEAN,
                "prime_growth_ok": _BOOLEAN,
            },
            "alpha", "beta_below_alpha", "prime_growth_ok",
        ),
    },
    "log_ratio", "alpha", "exponent_report",
)

BOX_PAYLOAD = _closed({"set": _INT_ARRAY, "modulus": _POSITIVE})

COUNTEREXAMPLE_PAYLOAD = _closed(
    {
        "set": _INT_ARRAY,
        "p": _INTEGER,
        "q": _INTEGER,
        "modulus": _INTEGER,
        "diam": _INTEGER,
        "eq3_threshold": _INTEGER,
        "eq3_holds": _BOOLEAN,
    }
)

CORPUS_RECORD = _closed({"set": _INT_ARRAY, "period": PERIOD_PAYLOAD, "analysis": ANALYZE_PAYLOAD})

ENVELOPE = _closed(
    {
        "schema_version": {"const": SCHEMA_VERSION},
        "subcommand": {"type": "string"},
        "normalization": {
            "type": "object",
            "properties": {"offset": {"type": "integer", "minimum": 0}},
            "required": ["offset"],
        },
        "payload": {"type": "object"},
        "timing_ms": {"type": "number"},
    },
    "normalization",
)

PAYLOAD_SCHEMAS = {
    "analyze": ANALYZE_PAYLOAD,
    "check-tiling": CHECK_TILING_PAYLOAD,
    "min-period": PERIOD_PAYLOAD,
    "construct-theorem2": THEOREM2_PAYLOAD,
    "construct-box": BOX_PAYLOAD,
    "counterexample": COUNTEREXAMPLE_PAYLOAD,
    "corpus": CORPUS_RECORD,
}
