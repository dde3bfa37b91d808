"""Text formats: the edge-list graph file and DOT export.

A graph file starts with a header line ``n m`` (order and edge count)
followed by ``m`` edge lines ``u v s`` where ``0 <= u < v < n`` and the sign
token ``s`` is ``+`` or ``-``.  Lines starting with ``#`` and blank lines
are ignored.  Parsing then serializing is the identity on normalized files.
A file may announce at most :data:`MAX_FILE_ORDER` vertices: the rank
kernel works on a dense n x n matrix, so a larger header is refused before
anything is built.
"""

from __future__ import annotations

from .graphs import SignedGraph, build_graph


class GraphFormatError(ValueError):
    """Malformed graph file, with the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_SIGN_TOKENS = {"+": 1, "-": -1}
MAX_FILE_ORDER = 2000  # a dense matrix of this order holds 4 million entries


def parse_graph(document: str) -> SignedGraph:
    """Parse a graph file into a normalized SignedGraph."""
    content = [
        (number, line.strip())
        for number, line in enumerate(document.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not content:
        raise GraphFormatError("missing header line 'n m'", 1)
    header_line, header = content[0]
    fields = header.split()
    if len(fields) != 2:
        raise GraphFormatError(f"header must be 'n m', got {header!r}", header_line)
    try:
        order, edge_count = int(fields[0]), int(fields[1])
    except ValueError:
        raise GraphFormatError(f"header must be two integers, got {header!r}", header_line) from None
    if order < 0 or edge_count < 0:
        raise GraphFormatError("order and edge count must be non-negative", header_line)
    if order > MAX_FILE_ORDER:
        raise GraphFormatError(
            f"order {order} exceeds the supported maximum of {MAX_FILE_ORDER}", header_line
        )
    if len(content) - 1 != edge_count:
        raise GraphFormatError(
            f"header announces {edge_count} edges but file has {len(content) - 1} edge lines",
            header_line,
        )
    edges = []
    for number, line in content[1:]:
        fields = line.split()
        if len(fields) != 3:
            raise GraphFormatError(f"edge line must be 'u v s', got {line!r}", number)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(f"edge endpoints must be integers, got {line!r}", number) from None
        sign = _SIGN_TOKENS.get(fields[2])
        if sign is None:
            raise GraphFormatError(f"sign token must be '+' or '-', got {fields[2]!r}", number)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", number)
        if not (0 <= u < order and 0 <= v < order):
            raise GraphFormatError(f"vertex id out of range in {line!r}", number)
        edges.append((u, v, sign, number))
    seen: dict[tuple[int, int], int] = {}
    for u, v, _, number in edges:
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise GraphFormatError(
                f"duplicate edge ({pair[0]},{pair[1]}), first seen at line {seen[pair]}", number
            )
        seen[pair] = number
    return build_graph(order, [(u, v, s) for u, v, s, _ in edges])


def serialize_graph(g: SignedGraph) -> str:
    """Canonical graph-file text (sorted edges, '+'/'-' sign tokens)."""
    lines = [f"{g.order} {len(g.edges)}"]
    lines.extend(f"{u} {v} {'+' if s == 1 else '-'}" for u, v, s in g.edges)
    return "\n".join(lines) + "\n"


def to_dot(g: SignedGraph) -> str:
    """DOT text; negative edges are dashed, signs appear as edge attributes."""
    lines = ["graph {"]
    lines.extend(f"  {v};" for v in range(g.order))
    for u, v, s in g.edges:
        token = "+" if s == 1 else "-"
        style = "solid" if s == 1 else "dashed"
        lines.append(f'  {u} -- {v} [sign="{token}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
