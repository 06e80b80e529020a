"""The per-rule Boolean chains of ``rules._CHAINS``.

A chain computes a rule at every cell of a packed word w from a = w,
b = w >> 1 and c = w >> 2 with AND, OR, XOR and NOT.  Its cost counts each
operation and each shift it uses as one; the constants are free.  The
exhaustive search below finds the minimum cost of all 256 rules (minimal
Boolean chains: Knuth, TAOCP Vol. 4A, section 7.1.2).  Run this file as a
script to print the table that ``rules._CHAINS`` holds.
"""

import ast
from functools import cache

from eca_emulation import rule_from_wolfram
from eca_emulation.rules import _CHAINS, _chain_step

# Truth tables of the three inputs: bit i is the value at neighbourhood
# i = 4*a + 2*b + c, so the truth table of a rule is its Wolfram number.
A, B, C = 0xF0, 0xCC, 0xAA


@cache
def minimal_programs() -> dict[int, list[tuple]]:
    """Every non-constant truth table mapped to the minimum-cost programs
    that compute it, one for each set of values computed on the way.

    A program is a tuple of steps (value, op, operands...).  The search is
    breadth-first over the sets of values computed so far: a set of d + 1
    values costs d, and a chain never needs a constant or a value twice.
    """
    found: dict[int, list[tuple]] = {A: [()]}
    layer = {frozenset([A]): ()}
    for d in range(1, 8):
        nxt = {}
        for values, program in layer.items():
            vals = sorted(values)
            steps = [(B, ">>", A, 1), (C, ">>", A, 2)]
            for i, x in enumerate(vals):
                steps.append((x ^ 0xFF, "~", x))
                for y in vals[i + 1:]:
                    steps += [(x & y, "&", x, y), (x | y, "|", x, y), (x ^ y, "^", x, y)]
            for step in steps:
                v = step[0]
                if v in values or v in (0, 0xFF):
                    continue
                longer = program + (step,)
                if v not in found or len(found[v][0]) == d:
                    found.setdefault(v, []).append(longer)
                if d < 7:
                    nxt.setdefault(values | {v}, longer)
        layer = nxt
    return found


def render(program: tuple) -> str:
    """A program as chain text: a value used twice gets a temporary, the
    others are inlined, and the last expression is the result."""
    expr = {A: "a", B: "b", C: "c"}
    uses: dict[int, int] = {}
    for step in program:
        if step[1] != ">>":
            for x in step[2:]:
                uses[x] = uses.get(x, 0) + 1
    statements, temps = [], iter("tuvw")
    for v, op, *args in program:
        if op == ">>":
            continue
        atoms = [e if e.isidentifier() or e[0] == "~" else f"({e})"
                 for e in (expr[x] for x in args)]
        if op == "~":
            text = "~" + atoms[0]
        else:
            text = f" {op} ".join(sorted(atoms, key=lambda e: (not e.isidentifier(), e)))
        if uses.get(v, 0) > 1:
            statements.append(f"{next(temps)} = {text}")
            text = statements[-1][0]
        expr[v] = text
    return "; ".join(statements + [expr[program[-1][0]] if program else "a"])


def chain_table() -> list[str]:
    """One chain per rule: the shortest text among the fewest temporaries."""
    found = minimal_programs()
    table = ["0"] + [""] * 254 + ["~0"]
    for n in range(1, 255):
        table[n] = min((render(p) for p in found[n]),
                       key=lambda s: (s.count(";"), len(s), s))
    return table


def cost(chain: str) -> int:
    """Operations of a chain, counting each shift it uses; an operation on
    constants alone is folded when the chain is compiled, so it is free."""
    tree = ast.parse(chain.replace("; ", "\n"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    ops = sum(isinstance(node, (ast.BinOp, ast.UnaryOp))
              and any(isinstance(leaf, ast.Name) for leaf in ast.walk(node))
              for node in ast.walk(tree))
    return ops + len(names & {"b", "c"})


def test_chain_equals_local_rule_on_every_neighbourhood():
    for n in range(256):
        rule, step = rule_from_wolfram(n), _chain_step(n)
        for i in range(8):
            b1, b2, b3 = (i >> 2) & 1, (i >> 1) & 1, i & 1
            assert step(b1 | b2 << 1 | b3 << 2) & 1 == rule(b1, b2, b3), (n, i)


def test_chains_have_minimum_cost():
    found = minimal_programs()
    minimum = {n: len(found[n][0]) if n in found else 0 for n in range(256)}
    assert [cost(chain) for chain in _CHAINS] == [minimum[n] for n in range(256)]
    histogram = [sum(c == d for c in minimum.values()) for d in range(8)]
    assert histogram == [3, 3, 8, 17, 28, 112, 73, 12]


def test_chain_text_is_the_search_result():
    # The checked-in table is what the generator prints.
    assert list(_CHAINS) == chain_table()


if __name__ == "__main__":
    table = chain_table()
    for n in range(0, 256, 4):
        row = ", ".join(f'"{chain}"' for chain in table[n:n + 4])
        print(f"    {row},  # {n}")
