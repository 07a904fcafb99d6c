"""parse_edge_list against a reference parser that makes every check itself.

The reference is the former parse_edge_list, which checked vertex range,
self-loops and duplicates with its own set before building the Graph. The
current parser leaves those checks to Graph; both must give an equal Graph,
or a ParseError with the same message and line, on any edge list.
"""

import random

import pytest

from onejdom import Graph, ParseError, gnp, parse_edge_list, random_tree, write_edge_list
from onejdom.graph import _scan_bytes, numbered_lines


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


# Layout and token edits that send input down one tokenizer or the other:
# the array tokenizer takes ASCII digits, space, tab, "\n" and "\r\n" with
# tokens of at most 18 digits; anything else goes to the line reader.
LAYOUT = {
    "tabs": lambda rng, ln: ln.replace(" ", rng.choice(["\t", " \t ", "\t\t"])),
    "trailing_spaces": lambda rng, ln: ln + rng.choice([" ", "   ", "\t "]),
    "leading_spaces": lambda rng, ln: rng.choice([" ", "\t"]) + ln,
    "leading_zeros": lambda rng, ln: " ".join("0" * rng.randrange(1, 4) + t for t in ln.split()),
    "long_token": lambda rng, ln: " ".join(("0" * 18 + t) if rng.random() < 0.5 else t
                                           for t in ln.split()),
    "huge_token": lambda rng, ln: f"{ln.split()[0] if ln.split() else 0} {10**19 + 7}",
    "plus": lambda rng, ln: " ".join("+" + t for t in ln.split()),
    "underscore": lambda rng, ln: " ".join(t[0] + "_" + t[1:] if len(t) > 1 else "1_0"
                                           for t in ln.split()),
    "arabic_digit": lambda rng, ln: ln.replace("1", "١"),
    "lone_cr": lambda rng, ln: ln.replace(" ", "\r", 1),
    "vt_ff": lambda rng, ln: ln.replace(" ", rng.choice(["\x0b", "\x0c", " \x0c"]), 1),
    "reversed": lambda rng, ln: " ".join(reversed(ln.split())),
}


def takes_array_path(data):
    try:
        return _scan_bytes(data) is not None
    except ParseError:  # found a fault: the array tokenizer took the input
        return True


def layout_inputs(seed, count):
    """Seeded edge lists with layout edits, some faults and a chosen line end."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(0, 30)
        header, *lines = write_edge_list(gnp(n, rng.random(), rng.randrange(10**6))).splitlines()
        rng.shuffle(lines)
        if lines and rng.random() < 0.3:  # a duplicate given reversed
            u, v = rng.choice(lines).split()
            lines.insert(rng.randrange(len(lines) + 1), f"{v} {u}")
        if rng.random() < 0.3:
            mutate(rng, n, lines)
        for kind in rng.sample(sorted(LAYOUT), rng.randrange(0, 3)):
            for i in rng.sample(range(len(lines)), min(len(lines), rng.randrange(1, 3))):
                lines[i] = LAYOUT[kind](rng, lines[i])
        for _ in range(rng.randrange(0, 3)):  # blank lines between edges
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", " ", "\t \t"]))
        m = len(numbered_lines("\n".join(lines)))
        if rng.random() < 0.1:
            m += rng.choice([-1, 1])
        end = rng.choice(["\n", "\r\n"])
        yield end.join([f"{n} {max(m, 0)}", *lines]) + rng.choice(["", end])


def test_parser_matches_reference_on_layouts_and_tokens():
    graphs, messages, routes = 0, [], set()
    big = write_edge_list(random_tree(10**4, 41))  # one fault-free 1e4-vertex graph
    for text in [*layout_inputs(seed=31, count=500), big, big.replace("\n", "\r\n")]:
        routes.add(takes_array_path(text.encode("utf-8")))
        for given in (text, text.encode("utf-8")):
            expected = outcome(reference_parse, given)
            assert outcome(parse_edge_list, given) == expected, given
        if expected[0] == "graph":
            graphs += 1
        else:
            messages.append(expected[1])
    assert routes == {True, False}
    assert graphs >= 100 and len(messages) >= 150, (graphs, len(messages))
    for fault in ("duplicate edge", "self-loop", "out of range", "malformed edge line",
                  "extra line", "expected"):
        assert any(fault in msg for msg in messages), fault


@pytest.mark.parametrize("text,array_path", [
    ("2 1\n0\t1 \n", True),
    ("2 1\r\n\r\n  00 0001\r\n", True),
    ("2 1\n" + "0" * 17 + "1 0\n", True),
    ("2 1\n" + "0" * 18 + "1 0\n", False),
    ("2 1\n+1 0\n", False),
    ("2 1\n1_0 0\n", False),
    ("2 1\n١ 0\n", False),
    ("2 1\n0\r1\n", False),
    ("2 1\n0 1\r", False),
    ("2 1\n0\x0b1\n", False),
    ("2 1\n0\x0c1\n", False),
])
def test_byte_alphabet_routes_input(text, array_path):
    assert takes_array_path(text.encode("utf-8")) == array_path
    assert outcome(parse_edge_list, text) == outcome(reference_parse, text)
