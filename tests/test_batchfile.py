"""The batch-file reader reads a text as PyYAML's ``safe_load`` does, or refuses it.

PyYAML is the reference here; the program does not import it.  Every batch
text ``tests/test_cli.py`` loads is compared with it as well, by a fixture
there.
"""

import re
import sys
from pathlib import Path
from random import Random

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from strangedual.batchfile import CliConfigError, read_batch_text
from strangedual.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def _agrees(text):
    doc = read_batch_text(text, "text")
    assert repr(doc) == repr(yaml.safe_load(text))
    return doc


@pytest.mark.parametrize("name", ["acceptance_batch.yaml", "strata_batch.yaml"])
def test_the_committed_batches(name):
    assert _agrees((ROOT / "tests" / "data" / name).read_text(encoding="utf-8"))["instances"]


def test_the_readme_batch_format_block():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("### Batch file format", 1)[1]
    block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    assert len(_agrees(block)["instances"]) == 2


@pytest.mark.parametrize("seed", range(1, 31))
def test_the_benchmark_strata_batches(seed):
    batch = workloads.strata_batch(Random(seed))
    assert len(_agrees(batch.text)["instances"]) == len(batch.expected)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# a comment only\n\n",
        "- a: 1\n  b: [2, 3]\n-\n  c: ~\n- - x\n  - 'y'\n",
        "a:\n- 1\n- -2\nb:\n",  # a key's sequence at the key's indent
        "a : 1\n'b c': \"d # e\"\nf: g#h  # comment\n",
        "n: [+0, -0, 1_000, 0, 07.5, 1., 1.5e+3, 1.0e5, -0.25]\n",
        "b: [true, False, YES, no, On, off, yes_no]\nz: [null, ~, Null, NULL]\n",
        "k: {\"a\":1, b:, c: , d: {}, e: [], f: [1, ],}\n",
        "s: [-, -x, a b , 'it''s', 0:30x]\nv: 2:1,0:-2\n",  # in a block, a plain scalar runs past ","
        "2: two\n1.5: one and a half\n~: none\ntrue: yes\n",
        "k" * 1024 + ": 1\n",
        "{" + "k" * 1024 + ": 1}\n",
        "top:\n    deep:\n        - 1\n    other: 2\n",
    ],
)
def test_texts_in_the_subset(text):
    _agrees(text)


# (text, line of the error, words the message holds)
REFUSED = {
    "anchor": ("a: &x 1\n", 1, "an anchor"),
    "alias": ("a: 1\nb: *x\n", 2, "an alias"),
    "tag": ("a: !!str 5\n", 1, "a tag"),
    "literal block scalar": ("a: |\n  text\n", 1, "a block scalar"),
    "folded block scalar": ("a: >\n  text\n", 1, "a block scalar"),
    "document start": ("---\na: 1\n", 1, "document markers"),
    "document end": ("a: 1\n...\n", 2, "document markers"),
    "tab indentation": ("a:\n\tb: 1\n", 2, "'\\t'"),
    "octal": ("a: 017\n", 1, "'017'"),
    "hex": ("a: [0x1f]\n", 1, "'0x1f'"),
    "binary": ("a: 0b101\n", 1, "'0b101'"),
    "sexagesimal in a flow mapping": ("params: {v: 2:1,0:-2}\n", 1, "'2:1'"),
    "sexagesimal float": ("a: 1:30.5\n", 1, "'1:30.5'"),
    "inf": ("a: -.inf\n", 1, "'-.inf'"),
    "nan": ("a: [.NaN]\n", 1, "'.NaN'"),
    "date": ("a: 2001-12-14\n", 1, "'2001-12-14'"),
    "timestamp": ("a: 2001-12-14 21:59:43.10\n", 1, "2001-12-14 21:59:43.10"),
    "merge key": ("<<: {a: 1}\n", 1, "'<<'"),
    "value key": ("a: =\n", 1, "'='"),
    "duplicate key": ("a: 1\nb: 2\na: 3\n", 3, "duplicate key 'a'"),
    "duplicate flow key": ("a: {1: x, 1.0: y}\n", 1, "duplicate key 1.0"),
    "multi-line flow": ("a: [1,\n  2]\n", 1, "the line ends where a node should be"),
    "multi-line plain scalar": ("a: one\n  two\n", 2, "unexpected indentation"),
    "backslash escape": ('a: "x\\ty"\n', 1, "backslash"),
    "unterminated quote": ("a: 'x\n", 1, "does not end on its line"),
    "flow key without a value": ("a: {b}\n", 1, "no ': value'"),
    "pair in a flow sequence": ("a: [b: 1]\n", 1, "expected ',' or ']'"),
    "complex key": ("? a\n: 1\n", 1, "'?'"),
    "directive": ("%YAML 1.1\n", 1, "'%'"),
    "long key": ("k" * 1025 + ": 1\n", 1, "longer than 1024"),
    "control character": ("a: x\x07\n", 1, "'\\x07'"),
    "sequence item in a mapping": ("a: 1\n- b\n", 2, "expected 'key: value'"),
    "two top-level nodes": ("  a: 1\nb: 2\n", 2, "after the end of the document"),
    "huge int": ("a: " + "1" * 5000 + "\n", 1, "too long"),
    # deeper than the interpreter's recursion limit lets a recursive reader go
    "deep flow nesting": ("a: " + "[" * 600 + "]" * 600 + "\n", 1, "nested more than 64 deep"),
    "deep block nesting": ("- " * 600 + "x\n", 1, "nested more than 64 deep"),
}


@pytest.mark.parametrize("name", list(REFUSED))
def test_a_text_outside_the_subset_exits_two(tmp_path, capsys, name):
    text, line, words = REFUSED[name]
    path = tmp_path / "b.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["batch", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}, line {line}: ")
    assert words in err
    assert len(err.strip().splitlines()) == 1


def test_nesting_up_to_the_bound_is_read():
    # the mapping and 63 sequences around the innermost value: 64 collections
    assert _agrees("a: " + "[" * 63 + "x" + "]" * 63 + "\n")
    assert _agrees("- " * 63 + "{x: 1}\n")


def test_a_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "b.yaml"
    path.write_bytes("name: caf\u00e9\n".encode("latin-1"))
    assert main(["batch", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ")
    assert len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

WORDS = ("nu", "tower", "strata-audit", "elliptic-k3", "case-study", "r_max", "x")
KEYS = st.sampled_from(("name", "surface", "kind", "params", "checks", "bounds", "grid", "r", "v", 1, 2))
SPELLINGS = {
    None: ("null", "~", "Null", "NULL"),
    True: ("true", "True", "TRUE", "yes", "Yes", "on", "ON"),
    False: ("false", "False", "no", "NO", "off", "Off"),
}
SCALARS = st.one_of(
    st.integers(-10**6, 10**6),
    st.integers(-4000, 4000).map(lambda n: n / 8),  # each repr has a dot and no exponent
    st.booleans(),
    st.none(),
    st.sampled_from(WORDS),
    st.text(alphabet="ab :,#'\"-[]{}019", max_size=8),
)
VALUES = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(KEYS, kids, max_size=4),
    max_leaves=16,
)
SPECS = st.fixed_dictionaries({
    "version": st.just(1),
    "instances": st.lists(st.dictionaries(KEYS, VALUES, max_size=5), max_size=3),
})


def _scalar(draw, x):
    if x is None or isinstance(x, bool):
        return draw(st.sampled_from(SPELLINGS[x]))
    if isinstance(x, int):
        digits = str(abs(x))
        if len(digits) > 1 and draw(st.booleans()):
            digits = f"{digits[0]}_{digits[1:]}"
        return ("-" if x < 0 else draw(st.sampled_from(("", "+")))) + digits
    if isinstance(x, float):
        return repr(x)
    styles = ["single"] + (['double'] if '"' not in x else []) + (["plain"] if x in WORDS else [])
    style = draw(st.sampled_from(styles))
    if style == "plain":
        return x
    return f'"{x}"' if style == "double" else "'" + x.replace("'", "''") + "'"


def _flow(draw, x):
    if isinstance(x, (dict, list)):
        sep = draw(st.sampled_from((", ", ",", " , ")))
        if isinstance(x, list):
            return "[" + sep.join(_flow(draw, v) for v in x) + "]"
        return "{" + sep.join(f"{_scalar(draw, k)}: {_flow(draw, v)}" for k, v in x.items()) + "}"
    return _scalar(draw, x)


def _comment(draw):
    return draw(st.sampled_from(("", "", "  # note")))


def _lines(draw, x, col):
    """x, a non-empty mapping or sequence, as block lines at column col."""
    pad = " " * col
    out = []
    if isinstance(x, dict):
        for key, value in x.items():
            out.append(f"{pad}{_scalar(draw, key)}:" + _after(draw, value, col, after_key=True))
    else:
        for value in x:
            if isinstance(value, dict) and value and draw(st.booleans()):
                # the item's mapping starts on the dash line
                out.append(f"{pad}- " + _lines(draw, value, col + 2)[col + 2:])
            else:
                out.append(f"{pad}-" + _after(draw, value, col, after_key=False))
    return "\n".join(out)


def _after(draw, x, col, after_key):
    """What follows 'key:' or '-' at column col to write x."""
    if isinstance(x, (dict, list)) and x and draw(st.booleans()):
        indentless = after_key and isinstance(x, list) and draw(st.booleans())
        inner = col if indentless else col + draw(st.sampled_from((1, 2, 4)))
        return _comment(draw) + "\n" + _lines(draw, x, inner)
    if x is None and draw(st.booleans()):
        return _comment(draw)
    return " " + _flow(draw, x) + _comment(draw)


@settings(max_examples=150, deadline=None)
@given(spec=SPECS, data=st.data())
def test_generated_specs_read_as_pyyaml_reads_them(spec, data):
    block = data.draw(st.booleans())
    text = (_lines(data.draw, spec, 0) if block else _flow(data.draw, spec)) + "\n"
    doc = read_batch_text(text, "generated")
    assert repr(doc) == repr(yaml.safe_load(text)) == repr(spec)


# pieces of text in and out of the subset, for texts the reader must either
# read as PyYAML does or refuse
PIECES = (
    "a", "b", "1", "-2", "0", "1.5", "x y", ":", ": ", " ", "\n", "\n  ", "\n    ", "- ", "-",
    "#", " #c", "[", "]", "{", "}", ",", ", ", "'", "''", '"', "?", "~", "null", "yes", "On",
    "1_0", "017", "2:1", "0x1", ".", "&", "*", "!", "|", ">", "=", "<<", "2001-01-01", "\u00e9",
    "1.0e+3", "+", "k: v", "- k: v",
)


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(PIECES), min_size=1, max_size=14))
def test_any_text_is_read_as_pyyaml_reads_it_or_refused(pieces):
    text = "".join(pieces)
    try:
        doc = read_batch_text(text, "text")
    except CliConfigError:
        return
    assert repr(doc) == repr(yaml.safe_load(text))
