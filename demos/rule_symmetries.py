"""Tour of the rule space: truth tables, duals, mirrors, linearity.

Every elementary CA rule is an 8-entry truth table identified by its
Wolfram number.  Swapping the roles of the 0/1 states gives the dual rule,
swapping left and right neighbors the mirror rule; both are involutions
and they commute.  The 256 rules fall into 136 duality classes, and a rule
emulates exactly what its dual emulates, which is why the hierarchy is
computed per class representative.
"""

from eca_emulation import (
    dual,
    is_affine,
    is_linear,
    mirror,
    rep_of,
    rule_from_wolfram,
)

r110 = rule_from_wolfram(110)
print("rule 110 truth table (b1 b2 b3 -> out):")
for i in reversed(range(8)):
    print(f"  {(i >> 2) & 1} {(i >> 1) & 1} {i & 1}  ->  {r110.table[i]}")

print("\ndual(110) =", dual(r110).wolfram, "   dual(dual(110)) =",
      dual(dual(r110)).wolfram)
print("mirror(30) =", mirror(rule_from_wolfram(30)).wolfram)
print("mirror(dual(45)) =", mirror(dual(rule_from_wolfram(45))).wolfram)

linear = [n for n in range(256) if is_linear(rule_from_wolfram(n))]
affine = [n for n in range(256) if is_affine(rule_from_wolfram(n))]
print("\nstrictly linear rules:", linear)
print("affine-only additions:", sorted(set(affine) - set(linear)))

# a class is {r, dual(r)}, represented by its smaller rule
classes = {r: tuple(sorted({r, dual(rule_from_wolfram(r)).wolfram}))
           for r in sorted({rep_of(n) for n in range(256)})}
print(f"\n{len(classes)} duality classes; the first ten:")
for r, members in list(classes.items())[:10]:
    print(f"  rep {r:3d}  members {members}")
selfdual = sum(1 for members in classes.values() if len(members) == 1)
print(f"{selfdual} rules are self-dual")
