"""Reader of the batch-file subset of YAML.

``read_batch_text`` gives what PyYAML's ``safe_load`` gives on the same text,
with the same types and key order, or raises ``CliConfigError`` naming the
line.  The subset is what batch files need:

- block mappings and block sequences; an item's mapping may start on the
  item's dash line, and a key's sequence may sit at the key's own indent;
- flow ``{...}`` and ``[...]`` collections that close on their line;
- plain, single-quoted and double-quoted scalars on one line, without
  backslash escapes;
- comments and blank lines.

Plain scalars resolve as YAML 1.1 does for null (``~``, ``null``, empty),
the bool words (``true``/``false``, ``yes``/``no``, ``on``/``off``), decimal
ints (sign and ``_`` allowed) and floats with a dot.  Any other plain scalar
is a string, unless YAML 1.1 reads it as another type: octal, hex, binary
and sexagesimal numbers, ``.inf``/``.nan``, timestamps, ``<<`` and ``=`` are
refused, and quoting one makes it a string.  Anchors, aliases, tags, block
scalars, document markers, tabs, duplicate keys and collections nested more
than 64 deep are refused too.
"""

from __future__ import annotations

import re


class CliConfigError(ValueError):
    """A spec file or flag set could not be parsed into instances."""


_NULLS = ("~", "null", "Null", "NULL")
_BOOLS = {
    word: value
    for value, bases in ((True, ("yes", "true", "on")), (False, ("no", "false", "off")))
    for base in bases
    for word in (base, base.title(), base.upper())
}
_INT = re.compile(r"[-+]?(?:0|[1-9][0-9_]*)")
_FLOAT = re.compile(r"[-+]?[0-9][0-9_]*\.[0-9_]*(?:[eE][-+][0-9]+)?")
# plain scalars YAML 1.1 may read as a type this reader does not take: octal,
# hex and binary ints, sexagesimal numbers, .inf/.nan and anything else that
# starts with a dot, timestamps, and the merge and value keys
_REFUSED = re.compile(
    r"[-+]?(?:0[0-9bx_]|\.)|[0-9]{4}-[0-9]"
    r"|(?:[-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+(?:\.[0-9_]*)?|<<|=)\Z"
)
# a plain scalar is words split by spaces; a comment starts at " #", and a
# ':' ends the scalar before a space (and, in a flow collection, before a
# flow indicator, which also ends it)
_WORD = {False: r"(?:[^ :]|:(?=[^ ]))+", True: r"(?:[^ :,?\[\]{}]|:(?=[^ ,\[\]{}]))+"}
_PLAIN = {flow: re.compile(rf"{word}(?: +(?!#){word})*") for flow, word in _WORD.items()}
# characters no plain scalar starts with ('-' may, before a non-space)
_NOT_PLAIN = "-?:,[]{}#&*!|>'\"%@`"
_CONSTRUCTS = {"&": "an anchor", "*": "an alias", "!": "a tag", "|": "a block scalar", ">": "a block scalar"}
# PyYAML refuses a mapping key longer than this, counted up to its ':'
_KEY_SPAN = 1024
# collections nest at most this deep: a batch file needs 4, recursion allows ~500
_DEPTH = 64


def read_batch_text(text: str, source: str):
    """The value of ``text``, the contents of the batch file ``source``."""
    reader = _Reader(text, source)
    if not reader.lines:
        return None
    doc = reader.block()
    if reader.i < len(reader.lines):
        raise reader.error(reader.lines[reader.i][0], "content after the end of the document")
    return doc


def _skip(text: str, pos: int) -> int:
    while text[pos:pos + 1] == " ":
        pos += 1
    return pos


def _is_item(text: str) -> bool:
    return text[0] == "-" and text[1:2] in ("", " ")


class _Reader:
    def __init__(self, text: str, source: str):
        self.source = source
        self.lines = []  # [number, indent, content] of each line that holds a node
        for number, line in enumerate(text.split("\n"), 1):
            if not line.isprintable():
                bad = next(ch for ch in line if not ch.isprintable())
                raise self.error(number, f"character {bad!r} is not in the batch-file subset")
            content = line.lstrip(" ")
            if content and content[0] != "#":
                if line.startswith(("---", "...")):
                    raise self.error(number, "document markers are not in the batch-file subset")
                self.lines.append([number, len(line) - len(content), content])
        self.i = 0
        self.depth = 0  # the collections open around the node being read

    def error(self, number: int, message: str) -> CliConfigError:
        return CliConfigError(f"{self.source}, line {number}: {message}")

    def enter(self, number: int) -> None:
        """Open one more collection; callers close it by ``self.depth -= 1``."""
        self.depth += 1
        if self.depth > _DEPTH:
            raise self.error(number, f"collections nested more than {_DEPTH} deep")

    def indent(self) -> int:
        """The indent of the next line, -1 past the last."""
        return self.lines[self.i][1] if self.i < len(self.lines) else -1

    def block(self):
        """The block node that starts on the next line."""
        number, indent, text = self.lines[self.i]
        if _is_item(text):
            return self.sequence(indent)
        if self.entry(text, number):
            return self.mapping(indent)
        self.i += 1
        return self.inline(text, 0, number)

    def sequence(self, indent: int) -> list:
        self.enter(self.lines[self.i][0])
        out = []
        while self.indent() == indent and _is_item(self.lines[self.i][2]):
            number, _, text = self.lines[self.i]
            pos = _skip(text, 1)
            if pos < len(text) and text[pos] != "#":
                # the item's node starts on the dash line, at its own column
                self.lines[self.i] = [number, indent + pos, text[pos:]]
                out.append(self.block())
            else:
                self.i += 1
                out.append(self.block() if self.indent() > indent else None)
            self.end_of_node(indent)
        self.depth -= 1
        return out

    def mapping(self, indent: int) -> dict:
        self.enter(self.lines[self.i][0])
        out = {}
        while self.indent() == indent:
            number, _, text = self.lines[self.i]
            found = None if _is_item(text) else self.entry(text, number)
            if found is None:
                raise self.error(number, "expected 'key: value'")
            key, pos = found
            self.check_key(out, key, pos - 1, number)
            self.i += 1
            pos = _skip(text, pos)
            if pos < len(text) and text[pos] != "#":
                out[key] = self.inline(text, pos, number)
            elif self.indent() > indent or (
                self.indent() == indent and _is_item(self.lines[self.i][2])
            ):
                out[key] = self.block()
            else:
                out[key] = None
            self.end_of_node(indent)
        self.depth -= 1
        return out

    def end_of_node(self, indent: int) -> None:
        if self.indent() > indent:
            raise self.error(self.lines[self.i][0], "unexpected indentation")

    def entry(self, text: str, number: int):
        """(key, index after its ':') when ``text`` opens with 'key:', else None."""
        if text[0] in "[{":
            return None
        key, end = self.scalar(text, 0, number, flow=False)
        colon = _skip(text, end)
        if text[colon:colon + 1] != ":" or text[colon + 1:colon + 2] not in ("", " "):
            return None
        return key, colon + 1

    def check_key(self, out: dict, key, span: int, number: int) -> None:
        """Refuse a key that ``out`` holds, or that runs ``span`` characters to its ':'."""
        if span > _KEY_SPAN:
            raise self.error(number, f"a key longer than {_KEY_SPAN} characters")
        if key in out:
            raise self.error(number, f"duplicate key {key!r}")

    def inline(self, text: str, pos: int, number: int):
        """The node at text[pos:], which must end the line."""
        value, end = self.node(text, pos, number, flow=False)
        end = _skip(text, end)
        if end < len(text) and text[end] != "#":
            raise self.error(number, f"unexpected {text[end:]!r} after a node")
        return value

    def node(self, text: str, pos: int, number: int, flow: bool):
        if text[pos:pos + 1] in ("[", "{"):
            return self.flow(text, pos, number)
        return self.scalar(text, pos, number, flow)

    def flow(self, text: str, pos: int, number: int):
        """The flow collection opening at text[pos] and the index after it."""
        self.enter(number)
        close = "]" if text[pos] == "[" else "}"
        out = [] if close == "]" else {}
        pos = _skip(text, pos + 1)
        while text[pos:pos + 1] != close:
            if close == "]":
                value, pos = self.node(text, pos, number, flow=True)
                out.append(value)
            else:
                key, end = self.scalar(text, pos, number, flow=True)
                colon = _skip(text, end)
                if text[colon:colon + 1] != ":":
                    raise self.error(number, f"flow mapping key {key!r} has no ': value'")
                self.check_key(out, key, colon - pos, number)
                pos = _skip(text, colon + 1)
                value = None
                if text[pos:pos + 1] not in (",", "}"):
                    value, pos = self.node(text, pos, number, flow=True)
                out[key] = value
            pos = _skip(text, pos)
            if text[pos:pos + 1] == ",":
                pos = _skip(text, pos + 1)
            elif text[pos:pos + 1] != close:
                raise self.error(number, f"expected ',' or {close!r} in a flow collection")
        self.depth -= 1
        return out, pos + 1

    def scalar(self, text: str, pos: int, number: int, flow: bool):
        """The scalar at text[pos:] and the index after it."""
        first = text[pos:pos + 1]
        if first in ("'", '"'):
            end = pos
            while True:
                end = text.find(first, end + 1)
                if end < 0:
                    raise self.error(number, "a quoted scalar that does not end on its line")
                if first == '"' or text[end + 1:end + 2] != "'":
                    break
                end += 1  # '' stands for ' in a single-quoted scalar
            body = text[pos + 1:end]
            if first == '"' and "\\" in body:
                raise self.error(number, "backslash escapes are not in the batch-file subset")
            return (body.replace("''", "'") if first == "'" else body), end + 1
        if not first:
            raise self.error(number, "the line ends where a node should be")
        if first in _NOT_PLAIN and not (first == "-" and text[pos + 1:pos + 2].strip()):
            what = _CONSTRUCTS.get(first, f"a node starting with {first!r}")
            raise self.error(number, f"{what} is not in the batch-file subset")
        end = _PLAIN[flow].match(text, pos).end()
        return self.resolve(text[pos:end], number), end

    def resolve(self, plain: str, number: int):
        """A plain scalar's value, by YAML 1.1's rules for the types taken."""
        if plain in _NULLS:
            return None
        if plain in _BOOLS:
            return _BOOLS[plain]
        try:
            if _INT.fullmatch(plain):
                return int(plain.replace("_", ""))
            if _FLOAT.fullmatch(plain):
                return float(plain.replace("_", ""))
        except ValueError:  # an int beyond Python's digit limit
            raise self.error(number, f"the number {plain[:20]}... is too long") from None
        if _REFUSED.match(plain):
            raise self.error(number, f"YAML 1.1 does not read {plain!r} as a string; quote it")
        return plain
