"""parse_edge_list against a reference parser that makes every check itself.

The reference is the former parse_edge_list, which checked vertex range,
self-loops and duplicates with its own set before building the Graph. The
current parser leaves those checks to Graph; both must give an equal Graph,
or a ParseError with the same message and line, on any edge list.
"""

import random

from onejdom import Graph, ParseError, gnp, parse_edge_list, write_edge_list
from onejdom.graph import numbered_lines


def reference_parse(text):
    numbered = numbered_lines(text)
    if not numbered:
        raise ParseError("empty input, expected header 'n m'")
    hline, header = numbered[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError("header must be two integers 'n m'", hline)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("header must be two integers 'n m'", hline) from None
    if n < 0 or m < 0:
        raise ParseError("header counts must be nonnegative", hline)
    body = numbered[1:]
    if len(body) < m:
        raise ParseError(f"expected {m} edge lines, found {len(body)}")
    if len(body) > m:
        raise ParseError("unexpected extra line", body[m][0])

    seen = set()
    edges = []
    for lineno, ln in body:
        toks = ln.split()
        if len(toks) != 2:
            raise ParseError(f"malformed edge line {ln!r}", lineno)
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise ParseError(f"malformed edge line {ln!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex id out of range in edge ({u}, {v})", lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"duplicate edge ({u}, {v})", lineno)
        seen.add(key)
        edges.append((u, v))
    return Graph(n, edges)


JUNK = ["x y", "0 1 2", "7", "1.0 2", "0x1 2", "- 3", "1,2", "3 ٣", "+1 -0", "1_0 2"]


def mutate(rng, n, lines):
    """Apply one random edit to the edge lines (a list of strings)."""
    kind = rng.choice(["swap", "duplicate", "reverse", "reversed_copy",
                       "out_of_range", "self_loop", "junk", "blank"])
    i = rng.randrange(len(lines)) if lines else 0
    if kind == "swap" and len(lines) >= 2:
        k = rng.randrange(len(lines))
        lines[i], lines[k] = lines[k], lines[i]
    elif kind == "duplicate" and lines:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif kind == "reverse" and lines:
        toks = lines[i].split()
        lines[i] = " ".join(reversed(toks))
    elif kind == "reversed_copy" and lines:
        toks = lines[i].split()
        lines.insert(rng.randrange(len(lines) + 1), " ".join(reversed(toks)))
    elif kind == "out_of_range":
        bad = rng.choice([n, n + 3, -1, 10**20])
        other = rng.randrange(max(n, 1))
        pair = (bad, other) if rng.random() < 0.5 else (other, bad)
        lines.insert(rng.randrange(len(lines) + 1), f"{pair[0]} {pair[1]}")
    elif kind == "self_loop":
        w = rng.randrange(max(n, 1))
        lines.insert(rng.randrange(len(lines) + 1), f"{w} {w}")
    elif kind == "junk":
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(JUNK))
    elif kind == "blank":
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "   ", "\t"]))


def outcome(parse, text):
    try:
        g = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("graph", g)


def mutated_inputs(seed, count):
    yield from ["", "1 0", "2 1\n1 0", b"3 1\n\n  2   0  \n"]
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(0, 12)
        g = gnp(n, rng.random(), rng.randrange(10**6))
        header, *lines = write_edge_list(g).splitlines()
        for _ in range(rng.randrange(0, 4)):
            mutate(rng, n, lines)
        m = sum(1 for ln in lines if ln.strip())
        if rng.random() < 0.15:  # sometimes let the line-count check fire first
            m += rng.choice([-1, 1])
        text = "\n".join([f"{n} {max(m, 0)}", *lines]) + rng.choice(["", "\n"])
        yield text if rng.random() < 0.5 else text.encode("utf-8")


def test_parser_matches_reference_on_mutated_edge_lists():
    graphs, messages = 0, []
    for text in mutated_inputs(seed=20141, count=600):
        expected = outcome(reference_parse, text)
        assert outcome(parse_edge_list, text) == expected, text
        if expected[0] == "graph":
            graphs += 1
        else:
            messages.append(expected[1])
    # the sample reaches valid graphs and every fault the parser can name
    assert graphs >= 50 and len(messages) >= 200, (graphs, len(messages))
    for fault in ("duplicate edge", "self-loop", "out of range", "malformed edge line",
                  "extra line", "expected"):
        assert any(fault in msg for msg in messages), fault
