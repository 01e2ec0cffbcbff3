"""Graph and coloring serialization: graph6, edge lists and the coloring JSON document.

Every reader takes ``str``; callers decode bytes themselves.
``coloring_to_json`` and ``coloring_from_json`` are the document's one
writer and one reader.

A graph6 body holds n(n-1)/2 bits, so only C-level ``bytes`` passes
scan it whole: one ``translate`` deletes the valid characters to
validate it, another maps every nonzero character to ``~``, and
``find`` then jumps from one nonzero character to the next.  Python
code runs once per nonzero character and once per column of the upper
triangle.  On a 2-vCPU Intel Xeon VM under Python 3.11.7, a densest
non-cubic line decodes in about 0.8 ms at n = 1000 and 35 ms at
n = 10^4 (an 8.3 MB line).
"""
from __future__ import annotations

import json
import re

from .graph import Graph, build_graph
from .verify import ColorClass, PackingColoring


class FormatError(ValueError):
    pass


class MalformedHeaderError(FormatError):
    pass


class BadCharError(FormatError):
    pass


class TrailingBitsError(FormatError):
    pass


class EdgeListError(FormatError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ColoringDocumentError(FormatError):
    pass


GRAPH6_HEADER = ">>graph6<<"
_BAD_CHAR = re.compile("[^?-~]")  # graph6 characters run from "?" (0) to "~" (63)
_GRAPH6_DIGITS = bytes(range(63, 127))  # the characters of the 6-bit values 0 to 63
# bytes.translate table sending each 6-bit value v to the character v + 63
_GRAPH6_CHARS = _GRAPH6_DIGITS + bytes(192)
# bytes.translate table sending every nonzero digit, "@" to "~", to "~";
# "?" encodes six zero bits and stays put
_NONZERO_TO_TILDE = bytes.maketrans(_GRAPH6_DIGITS[1:], b"~" * 63)
# Offsets of the set bits of a 6-bit value, most significant first.
_SET_BITS = tuple(tuple(b for b in range(6) if value & (32 >> b)) for value in range(64))
_MAX_GRAPH6_N = (1 << 36) - 1


def _size_prefix(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        chunks = [(n >> 12) & 63, (n >> 6) & 63, n & 63]
        return "~" + "".join(chr(c + 63) for c in chunks)
    if n <= _MAX_GRAPH6_N:
        chunks = [(n >> shift) & 63 for shift in range(30, -6, -6)]
        return "~~" + "".join(chr(c + 63) for c in chunks)
    raise FormatError(f"graph6 cannot encode n={n}")


def _parse_size(text: str) -> tuple[int, str]:
    if not text:
        raise MalformedHeaderError("empty graph6 data")

    def chunk(s: str, count: int, what: str) -> int:
        if len(s) < count:
            raise MalformedHeaderError(f"truncated {what} size field")
        value = 0
        for ch in s[:count]:
            value = (value << 6) | _char_value(ch)
        return value

    if text[0] != "~":
        return _char_value(text[0]), text[1:]
    if len(text) >= 2 and text[1] == "~":
        return chunk(text[2:], 6, "8-byte"), text[8:]
    return chunk(text[1:], 3, "4-byte"), text[4:]


def _char_value(ch: str) -> int:
    value = ord(ch) - 63
    if value < 0 or value > 63:
        raise BadCharError(f"character {ch!r} out of graph6 range")
    return value


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line of text (optionally prefixed with its header)."""
    text = text.strip()
    if text.startswith(GRAPH6_HEADER):
        text = text[len(GRAPH6_HEADER) :]
    n, body = _parse_size(text)
    total_bits = n * (n - 1) // 2
    need = (total_bits + 5) // 6
    if len(body) != need:
        raise TrailingBitsError(
            f"n={n} needs {need} body bytes, got {len(body)}"
        )
    data = body.encode("ascii") if body.isascii() else None
    if data is None or data.translate(None, _GRAPH6_DIGITS):
        # raises, naming the first character out of range
        _char_value(_BAD_CHAR.search(body).group())
    # Bits arrive column by column, so appending both ends of each edge
    # leaves every list sorted, duplicate-free and loop-free: v gains its
    # smaller neighbours during column v, before any larger one.
    adj: list[list[int]] = [[] for _ in range(n)]
    find = data.translate(_NONZERO_TO_TILDE).find
    # bit k of the upper triangle, column by column, is (u, v) with
    # k = v(v-1)/2 + u and 0 <= u < v; column v starts at bit lo = v(v-1)/2
    v, lo = 1, 0
    i = find(b"~")
    while i >= 0:
        base = 6 * i
        for bit in _SET_BITS[data[i] - 63]:
            k = base + bit
            if k >= total_bits:
                raise TrailingBitsError("nonzero padding bits")
            while k >= lo + v:
                lo += v
                v += 1
            u = k - lo
            adj[u].append(v)
            adj[v].append(u)
        i = find(b"~", i + 1)
    return Graph(n, tuple(map(tuple, adj)))


def encode_graph6(g: Graph) -> str:
    """Canonical graph6 line (shortest size form, no optional header)."""
    body = bytearray((g.n * (g.n - 1) // 2 + 5) // 6)
    for v, row in enumerate(g.adj):
        base = v * (v - 1) // 2  # the bit of (u, v), u < v, is base + u, as in parse_graph6
        for u in row:
            if u >= v:
                break
            body[(base + u) // 6] |= 32 >> ((base + u) % 6)
    return _size_prefix(g.n) + body.translate(_GRAPH6_CHARS).decode("ascii")


def parse_edge_list(text: str) -> Graph:
    """Parse "u v" lines; '#' starts a comment.

    A first line "a b" counts as an "n m" header exactly when b equals
    the number of remaining data lines; otherwise it is an edge and n is
    inferred as max vertex + 1.
    """
    rows: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(f"expected two integers, got {line!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"expected two integers, got {line!r}", lineno) from None
        if a < 0 or b < 0:
            raise EdgeListError(f"negative vertex in {line!r}", lineno)
        rows.append((lineno, a, b))
    if not rows:
        return build_graph(0, [])
    _, first_a, first_b = rows[0]
    if first_b == len(rows) - 1:
        n = first_a
        body = rows[1:]
        for lineno, u, v in body:
            if u >= n or v >= n:
                raise EdgeListError(f"vertex out of range for n={n}", lineno)
        return build_graph(n, [(u, v) for _, u, v in body])
    n = 1 + max(max(u, v) for _, u, v in rows)
    return build_graph(n, [(u, v) for _, u, v in rows])


def encode_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def coloring_to_json(coloring: PackingColoring) -> str:
    doc = {
        "n": coloring.n,
        "classes": [
            {
                "label": c.label,
                "radius": c.radius,
                "vertices": sorted(c.vertices),
            }
            for c in coloring.classes
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def coloring_from_json(text: str) -> PackingColoring:
    """Read a coloring document.

    Raises ColoringDocumentError on a malformed document, a class that
    lists one vertex twice included: a class is a set, and collapsing
    the repeat would hide the error.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ColoringDocumentError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ColoringDocumentError("coloring document must be an object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ColoringDocumentError("'n' must be a non-negative integer")
    raw_classes = doc.get("classes")
    if not isinstance(raw_classes, list):
        raise ColoringDocumentError("'classes' must be a list")
    classes = []
    for i, entry in enumerate(raw_classes):
        if not isinstance(entry, dict):
            raise ColoringDocumentError(f"class {i} must be an object")
        label = entry.get("label")
        radius = entry.get("radius")
        vertices = entry.get("vertices")
        if not isinstance(label, str):
            raise ColoringDocumentError(f"class {i}: 'label' must be a string")
        if not isinstance(radius, int) or isinstance(radius, bool) or radius < 1:
            raise ColoringDocumentError(f"class {i}: 'radius' must be a positive integer")
        if not isinstance(vertices, list) or any(
            not isinstance(v, int) or isinstance(v, bool) for v in vertices
        ):
            raise ColoringDocumentError(f"class {i}: 'vertices' must be a list of ints")
        members = frozenset(vertices)
        if len(members) != len(vertices):
            seen: set[int] = set()
            for v in vertices:
                if v in seen:
                    raise ColoringDocumentError(f"class {i}: vertex {v} is listed twice")
                seen.add(v)
        classes.append(ColorClass(label, radius, members))
    return PackingColoring(n, tuple(classes))
