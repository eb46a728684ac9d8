"""Seeded C-source generators for the call-scaling and daemon-warm
workloads.

Every generator takes a ``random.Random`` drawn from the benchmark's
``--seed`` and returns plain C text: the system under test only ever
receives the generated source.  The seed varies *which* globals,
targets and call orders a program uses, never its size, so the cost
of one input is the same on every seed and the run-to-run spread
stays small.

Each family is in the call-scaling sweep for a stated reason (see the
comment above each generator).  The deep families are sized past
today's recursion-depth limits on purpose: they fail with
``RecursionError`` now and must keep counting as failures until the
frontend and analysis stop recursing per nesting level.
"""

from __future__ import annotations

import random

LABEL = "OUT"


def _main(body: list[str], locals_: list[str] = ()) -> str:
    lines = ["int main() {"]
    lines.extend(f"    {decl}" for decl in locals_)
    lines.extend(f"    {stmt}" for stmt in body)
    lines.append(f"    {LABEL}: return 0;")
    lines.append("}")
    return "\n".join(lines)


# Wide fan-out: ``main`` calls n leaves, each touching two of n
# globals.  Every call maps and unmaps the whole global set, so the
# call-boundary cost (Figure 3's map/unmap, the invocation-graph memo
# of Figure 4) grows with n per call and quadratically overall while
# the frontend stays a few percent of the time.
def wide_fanout(n: int, rng: random.Random) -> str:
    parts = [f"int g{i};" for i in range(n)]
    parts.extend(f"int *p{i};" for i in range(n))
    for i in range(n):
        a, b = rng.randrange(n), rng.randrange(n)
        parts.append(f"void leaf{i}(void) {{\n    p{a} = &g{b};\n}}")
    order = list(range(n))
    rng.shuffle(order)
    body = [f"leaf{i}();" for i in order]
    parts.append(_main(body))
    return "\n".join(parts) + "\n"


# Straight call chains: f0 -> f1 -> ... -> f(k-1), each forwarding a
# pointer-to-pointer formal.  The invocation graph is one path k deep,
# so any per-level recursion in the analysis shows here first; chains
# of 75 and more functions are past today's depth cliff.
def call_chain(k: int, rng: random.Random) -> str:
    m = 8
    parts = [f"int g{i};" for i in range(m)]
    parts.append("int *top;")
    parts.append(f"void f{k - 1}(int **pp) {{\n    *pp = &g{rng.randrange(m)};\n}}")
    for i in range(k - 2, -1, -1):
        parts.append(
            f"void f{i}(int **pp) {{\n"
            f"    *pp = &g{rng.randrange(m)};\n"
            f"    f{i + 1}(pp);\n"
            f"}}"
        )
    parts.append(_main(["f0(&top);"]))
    return "\n".join(parts) + "\n"


# Function-pointer dispatch tables: a table of m handlers called
# through one pointer in a loop.  Each indirect call resolves to every
# table entry, so the invocation graph grows one node per handler and
# site (Section 4's function-pointer resolution) while the program
# stays small.
def fnptr_table(m: int, rng: random.Random) -> str:
    n_globals = 8
    parts = [f"int g{i};" for i in range(n_globals)]
    parts.append("int *cur;")
    for i in range(m):
        parts.append(
            f"void h{i}(int **pp) {{\n"
            f"    *pp = &g{rng.randrange(n_globals)};\n"
            f"    cur = *pp;\n"
            f"}}"
        )
    entries = [f"h{i}" for i in range(m)]
    rng.shuffle(entries)
    parts.append(
        f"void (*table[{m}])(int **) = {{ {', '.join(entries)} }};"
    )
    body = [
        f"for (i = 0; i < {m}; i++) {{",
        "    fn = table[i];",
        "    fn(&p);",
        "}",
    ]
    parts.append(_main(body, ["int i;", "int *p;", "void (*fn)(int **);"]))
    return "\n".join(parts) + "\n"


# Recursion nests: d groups of w mutually recursive functions, each
# group entering the next.  Recursive invocation-graph nodes iterate
# to a fixed point (Figure 4's approximate/recursive node pairs), so
# this family carries the memo and fixpoint-iteration cost.
def recursion_nest(size: tuple[int, int], rng: random.Random) -> str:
    d, w = size
    n_globals = 6
    parts = [f"int g{i};" for i in range(n_globals)]
    parts.append("int *q;")
    for j in range(d):
        for i in range(w):
            parts.append(f"void r{j}_{i}(int n, int **pp);")
    for j in range(d):
        for i in range(w):
            nxt = f"r{j}_{(i + 1) % w}"
            lines = [
                f"void r{j}_{i}(int n, int **pp) {{",
                f"    *pp = &g{rng.randrange(n_globals)};",
                "    if (n > 0) {",
                f"        {nxt}(n - 1, pp);",
            ]
            if i == 0 and j + 1 < d:
                lines.append(f"        r{j + 1}_0(n - 1, pp);")
            lines.extend(["    }", "}"])
            parts.append("\n".join(lines))
    parts.append(_main(["r0_0(4, &q);"]))
    return "\n".join(parts) + "\n"


# Deep nesting and long expressions: valid, small sources whose parse
# and SIMPLE lowering recurse once per nesting level or operator.
# 300 nested parentheses, 500 nested ifs and a 5,000-term sum die with
# RecursionError today; they stay in the sweep so a fix shows.
def nested_parens(depth: int, rng: random.Random) -> str:
    value = rng.randrange(1, 9)
    expr = "(" * depth + str(value) + ")" * depth
    return (
        "int x;\nint *p;\n"
        + _main([f"x = {expr};", "p = &x;"])
        + "\n"
    )


def nested_ifs(depth: int, rng: random.Random) -> str:
    body = []
    for level in range(depth):
        body.append(f"if (x > {rng.randrange(-5, 0)}) {{")
    body.append("p = &x;")
    body.extend("}" for _ in range(depth))
    return "int x;\nint *p;\n" + _main(["x = 1;"] + body) + "\n"


def long_sum(terms: int, rng: random.Random) -> str:
    expr = "+".join(str(rng.randrange(1, 4)) for _ in range(terms))
    return "int x;\nint *p;\n" + _main([f"x = {expr};", "p = &x;"]) + "\n"


GENERATORS = {
    "wide": wide_fanout,
    "chain": call_chain,
    "fnptr": fnptr_table,
    "recursion": recursion_nest,
    "parens": nested_parens,
    "ifs": nested_ifs,
    "sum": long_sum,
}

#: The call-scaling sweep: (family, size, copies).  Sizes are fixed;
#: the seed varies program content only.  Small sizes come in ten
#: seeded copies so that a round holds 133 programs and the up to
#: seven failing ones (deep chains, deep nesting, and the recursion
#: nests whose results fail the soundness oracle today) stay near 5%
#: of the cold operations, below the p90 the workload reports.
SWEEP = (
    ("wide", 25, 10), ("wide", 50, 10), ("wide", 100, 1),
    ("wide", 200, 1), ("wide", 400, 1),
    ("chain", 10, 10), ("chain", 25, 10), ("chain", 50, 1),
    ("chain", 75, 1), ("chain", 100, 1),
    ("fnptr", 4, 10), ("fnptr", 8, 10), ("fnptr", 16, 10),
    ("fnptr", 32, 1), ("fnptr", 64, 1),
    ("recursion", (1, 2), 10), ("recursion", (1, 4), 10),
    ("recursion", (2, 2), 1), ("recursion", (3, 3), 1),
    ("parens", 20, 10), ("parens", 300, 1),
    ("ifs", 20, 10), ("ifs", 500, 1),
    ("sum", 100, 10), ("sum", 5000, 1),
)

#: The smoke sweep: ten small passing programs and one failing one.
SMOKE_SWEEP = (("wide", 25, 5), ("fnptr", 4, 5), ("parens", 300, 1))


def call_scaling_programs(
    seed: int, smoke: bool = False
) -> list[tuple[str, str, bool]]:
    """(name, source, editable) for every program of the sweep.  The
    first five copies of each small size are edited once per round;
    the large sizes are not, so edits stay a small share of the round."""
    programs = []
    for family, size, copies in SMOKE_SWEEP if smoke else SWEEP:
        label = "x".join(map(str, size)) if isinstance(size, tuple) else size
        for copy in range(copies):
            name = f"{family}_{label}.{copy}"
            rng = random.Random(f"{seed}:{name}")
            source = GENERATORS[family](size, rng)
            programs.append((name, source, copy < 5 and copies > 1))
    return programs


# Daemon misses: small random pointer programs, fresh per request
# index, so every one is a store miss that runs the full cold path
# inside the worker.
def miss_program(index: int, seed: int) -> str:
    rng = random.Random(f"{seed}:miss:{index}")
    n = 6
    parts = [f"int g{i};" for i in range(n)]
    parts.extend(f"int *p{i};" for i in range(n))
    parts.append(f"int **pp{index};")
    for i in range(4):
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        parts.append(
            f"void m{i}(int **x) {{\n"
            f"    *x = &g{a};\n"
            f"    p{b} = *x;\n"
            f"    p{c} = p{b};\n"
            f"}}"
        )
    body = [f"pp{index} = &p{rng.randrange(n)};"]
    body.extend(f"m{rng.randrange(4)}(pp{index});" for _ in range(6))
    parts.append(_main(body))
    return "\n".join(parts) + "\n"
