"""Fuzz test of the CLI exit-code contract.

Every verb that reads a file gets random text, random bytes, JSON documents
and small generated maps through the in-process `cli.run_command`.  Each
call must return one of the documented exit codes 0-3, let no exception
escape, and print no traceback.  The examples are derandomized, so every
run draws the same inputs.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from nilmap import cli, generators
from nilmap.parsing import format_map

FILE_VERBS = [
    ["jacobian"],
    ["nilpotent"],
    ["rank"],
    ["depend"],
    ["conjugate"],
    ["classify"],
    ["build-canonical"],
    ["invert"],
    ["decompose"],
    ["keller4d"],
]

fuzz_settings = settings(max_examples=150, derandomize=True, deadline=None)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv


def check_every_verb(content, matrix, as_json=False):
    """Run every file verb on one input file; `conjugate` gets `matrix`."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        for verb in FILE_VERBS:
            argv = verb + ["-f", str(path)]
            if verb == ["conjugate"]:
                argv += ["-m", matrix]
            if as_json:
                argv.append("--json")
            run(argv)


# A run of digits just past the parser's bound, and past CPython's limit
# for converting an int to or from text.
LONG_DIGITS = "7" * 4301

# Map-like text: tokens of the map grammar, so that many inputs parse, with
# exponents kept small so that no input is merely slow.
map_tokens = st.sampled_from(
    ["x", "y", "z", "w", "t", "+", "-", "*", "^", "^2", "^3", "(", ")", ";",
     "0", "1", "2", "3/2", "1/0", "1.5", " ", ",", "\n", "{", "}",
     LONG_DIGITS, "x" + LONG_DIGITS, "1/" + LONG_DIGITS]
)
map_text = st.lists(map_tokens, max_size=16).map("".join)

# Powers of map-like bases in x, which every dimension has: exponents either
# small, or far past the parser's size cap, so that every input is parsed,
# refused, or fails fast.  A base with 3^5000 gives results with numbers
# too long to print.
power_exponents = st.sampled_from(["2", "3", "20000000"])
power_bases = st.lists(
    st.sampled_from(["x", "-x", "2*x", "x*x", "1", "3", "3/2", "x + ", "3^5000*x"]),
    min_size=1,
    max_size=4,
).map(" + ".join)
power_text = st.lists(
    st.tuples(power_bases, power_exponents).map(lambda t: f"({t[0]})^{t[1]}"),
    min_size=1,
    max_size=3,
).map("; ".join)

keys = st.sampled_from(["n", "components", "a1", "h"]) | st.text(max_size=3)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | map_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(keys, inner, max_size=4),
    max_leaves=8,
)
map_documents = st.fixed_dictionaries(
    {
        "n": st.integers(-1, 4) | json_values,
        "components": st.lists(map_text, max_size=4) | json_values,
    }
)
canonical_documents = st.fixed_dictionaries(
    {name: map_text | json_values for name in ("a1", "a2", "c1", "c2", "h")}
)
# JSON integers too long for int(), written out by hand: json.dumps would
# itself refuse to convert them.
long_json = st.sampled_from(
    [
        f'{{"n": {LONG_DIGITS}, "components": ["x"]}}',
        f'{{"n": 1, "components": ["x"], "note": -{LONG_DIGITS}}}',
        f'{{"a1": "1", "a2": {LONG_DIGITS}}}',
        f"[{LONG_DIGITS}]",
    ]
)
json_text = (json_values | map_documents | canonical_documents).map(json.dumps) | long_json

# Matrix entries: integers, fractions, and strings that Fraction() would
# read but the matrix grammar refuses, such as exponent notation.
matrix_entries = st.integers(-2, 2) | st.sampled_from(
    ["1/2", "-3", "x", "1/0", "1e1000000", "1e5000", "-2.5e3", "1_0", " 3 ",
     LONG_DIGITS, "1/" + LONG_DIGITS]
)
matrices = (
    st.integers(1, 3)
    .flatmap(
        lambda n: st.lists(
            st.lists(matrix_entries, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    .map(json.dumps)
    | st.text(max_size=12)
    | st.sampled_from([f"[[{LONG_DIGITS},0],[0,1]]", f"[[-{LONG_DIGITS}]]"])
)


@fuzz_settings
@given(st.text(max_size=40) | st.binary(max_size=40) | map_text | power_text, matrices)
def test_random_text(content, matrix):
    check_every_verb(content, matrix)


@fuzz_settings
@given(json_text, matrices)
def test_json_documents(content, matrix):
    check_every_verb(content, matrix)


@fuzz_settings
@given(
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(0, 2**32),
    st.booleans(),
    st.sampled_from(["text", "document"]),
)
def test_generated_maps(n, degree, seed, as_json, form):
    rng = random.Random(seed)
    H = generators.random_map(rng, n, degree, terms=rng.randint(1, 3))
    if form == "text":
        content = format_map(H)
    else:
        content = json.dumps({"n": n, "components": format_map(H).split("; ")})
    matrix = json.dumps(generators.random_invertible(rng, n).matrix.to_json())
    check_every_verb(content, matrix, as_json)
