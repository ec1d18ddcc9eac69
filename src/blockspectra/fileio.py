"""Edge-list, DOT and JSON serialization.

The interchange format is a plain text edge list: a header line "n m" followed
by m lines "u v" or "u v w" (w a positive finite weight; omitted means 1.0).  Output
is deterministic: edges sorted lexicographically, weights printed with repr so
parsing them back reproduces the exact Graph.

JSON reports are written by `format_json`, which reproduces
`json.dumps(obj, sort_keys=True, indent=2)` without its pure-Python encoder:
that encoder's nested closures refer to one another, so every call leaves a
reference cycle for the garbage collector.
"""

import math
from json.encoder import encode_basestring_ascii

from .graph import Graph, build_graph


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    for (u, v), w in zip(g.edges, g.weights):
        if w == 1.0:
            lines.append(f"{u} {v}")
        else:
            lines.append(f"{u} {v} {w!r}")
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; raises ValueError with a line number on
    malformed input."""
    rows = [
        (i, line.strip())
        for i, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not rows:
        raise ValueError("empty input: expected a header line 'n m'")
    header_no, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"line {header_no}: header must be 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"line {header_no}: header must contain two integers") from None
    body = rows[1:]
    if len(body) != m:
        raise ValueError(f"header declares {m} edges but {len(body)} edge lines found")
    edges = []
    weights = {}
    for line_no, line in body:
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"line {line_no}: expected 'u v' or 'u v w', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {line_no}: vertex labels must be integers") from None
        edges.append((u, v))
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise ValueError(f"line {line_no}: weight must be a number") from None
            weights[(u, v)] = w
    try:
        return build_graph(n, edges, weights)
    except ValueError as exc:
        raise ValueError(f"invalid graph: {exc}") from None


def format_dot(g: Graph) -> str:
    """Graphviz DOT rendering; vertex labels are used as node ids."""
    lines = ["graph blockspectra {"]
    for v in g.vertices():
        lines.append(f"  {v};")
    for (u, v), w in zip(g.edges, g.weights):
        if w == 1.0:
            lines.append(f"  {u} -- {v};")
        else:
            lines.append(f'  {u} -- {v} [label="{w!r}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_json(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, byte for byte, for
    nested dicts, lists and tuples of str, int, float, bool and None."""
    parts: list[str] = []
    _write_json(obj, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _json_scalar(obj) -> str | None:
    """The JSON text of a scalar (json's float spelling included), else None."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    return None


def _write_json(obj, parts: list[str], newline: str) -> None:
    text = _json_scalar(obj)
    if text is not None:
        parts.append(text)
        return
    if isinstance(obj, (list, tuple)):
        # a flat list of scalars (a spectrum, an eigenvector) in one join
        texts = [_json_scalar(value) for value in obj]
        if texts and None not in texts:
            inner = newline + "  "
            parts.append("[" + inner + ("," + inner).join(texts) + newline + "]")
            return
        brackets, items = "[]", [("", value) for value in obj]
    elif isinstance(obj, dict):
        brackets, items = "{}", [(_json_key(key) + ": ", value)
                                 for key, value in sorted(obj.items())]
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        parts.append(brackets)
        return
    inner = newline + "  "
    separator = brackets[0] + inner
    for prefix, value in items:
        parts.append(separator + prefix)
        _write_json(value, parts, inner)
        separator = "," + inner
    parts.append(newline + brackets[1])


def _json_key(key) -> str:
    name = _json_scalar(key)
    if name is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return name if isinstance(key, str) else encode_basestring_ascii(name)
