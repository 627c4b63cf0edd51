"""graph6 and plain edge-list codecs, bit-exact and round-trip safe."""

from __future__ import annotations

from .errors import GraphFormatError
from .graph import Graph, MAX_VERTICES

_PREFIX = ">>graph6<<"


def _header(n: int) -> str:
    """Short header for n <= 62, the 4-character long form for 63..64."""
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))


def emit_graph6(g: Graph) -> str:
    """Canonical graph6 string: short header for n <= 62, the 4-character
    long form for 63..64; upper-triangle bits column-major, 6 per char."""
    n = g.n
    head = _header(n)
    chunks = []
    val = 0
    nbits = 0
    for v in range(1, n):
        for u in range(v):
            val = val << 1 | (1 if g.adj(u, v) else 0)
            nbits += 1
            if nbits == 6:
                chunks.append(chr(val + 63))
                val = 0
                nbits = 0
    if nbits:
        chunks.append(chr((val << (6 - nbits)) + 63))
    return head + "".join(chunks)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_PREFIX):
        s = s[len(_PREFIX):]
    if not s:
        raise GraphFormatError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise GraphFormatError(f"character {ch!r} outside graph6 range")
    if s[0] != "~":
        n = ord(s[0]) - 63
        i = 1
    else:
        if len(s) > 1 and s[1] == "~":
            raise GraphFormatError("graph6 orders above 258047 are not supported")
        if len(s) < 4:
            raise GraphFormatError("truncated graph6 long-form header")
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        i = 4
    if n > MAX_VERTICES:
        raise GraphFormatError(f"graph6 order {n} exceeds supported maximum {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    data = s[i:]
    if len(data) < nchars:
        raise GraphFormatError(f"graph6 data truncated: need {nchars} characters, got {len(data)}")
    if len(data) > nchars:
        raise GraphFormatError(f"trailing garbage after graph6 data for n={n}")
    vals = [ord(ch) - 63 for ch in data]
    rows = [0] * n
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if vals[idx // 6] >> (5 - idx % 6) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            idx += 1
    if nbits % 6 and vals[-1] & ((1 << (6 - nbits % 6)) - 1):
        raise GraphFormatError("nonzero padding bits in graph6 data")
    return Graph(n, rows)


def emit_edgelist(g: Graph) -> str:
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Graph:
    """Parse "n\\nu v\\n..."; blank lines are skipped, anything else must be
    exactly two vertex labels per line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError("empty edge list")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphFormatError(f"bad vertex count line {lines[0]!r}") from None
    if not 0 <= n <= MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} outside supported range 0..{MAX_VERTICES}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"bad edge line {ln!r}") from None
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u},{v}) invalid for n={n}")
        edges.append((u, v))
    return Graph.from_edges(n, edges)
