"""The shared CLI flag layer: every verb's parsed defaults, pinned.

`--workers`, `--cache-dir`/`--no-cache`, `--resume` and
`--trace`/`--metrics` are each declared once and attached to verbs as
argparse parent parsers.  This table pins, per verb, which of those
flags it accepts and their parsed defaults, so moving a declaration
cannot silently add, drop or change one.
"""

import pytest

from repro.cli import build_parser

WORKERS = {"workers": 1}
CACHE = {"no_cache": False, "cache_dir": ".vega-cache"}
RESUME = {"resume": False}
TRACE = {"trace": None, "metrics": False}
TRACED = {**WORKERS, **CACHE, **RESUME, **TRACE}
SHARED = set(TRACED)

VERB_DEFAULTS = [
    (["run"], TRACED),
    (["campaign", "run"], TRACED),
    (["attack", "search"], TRACED),
    (["attack", "run"], TRACED),
    (["respond"], TRACED),
    (["profile"], {**WORKERS, **CACHE}),
    (["lift"], WORKERS),
    (["surrogate", "train"], {**WORKERS, **CACHE}),
    (["surrogate", "validate", "--model", "m.json"], {**WORKERS, **CACHE}),
    (["serve"], {**CACHE, **RESUME}),
    (["schedule"], CACHE),
    (["surrogate", "triage", "--model", "m.json"], {}),
    (["campaign", "report", "r.json"], {}),
    (["sta"], {}),
    (["integrate"], {}),
]


@pytest.mark.parametrize(
    "argv, expected", VERB_DEFAULTS, ids=[" ".join(v[:2]) for v, _ in
                                         VERB_DEFAULTS]
)
def test_shared_flag_defaults(argv, expected):
    parsed = vars(build_parser().parse_args(argv))
    assert {k: v for k, v in parsed.items() if k in SHARED} == expected
