"""How a local rule acts on k-cell supercells.

Unravelling applies the rule to every 3-cell window of an open word,
shrinking it by two.  Doing that k times to a 3k-cell word leaves k cells,
so blocks of k cells form an automaton of their own whose ternary local
operation is the k-fold unravelling.  This script walks one evaluation by
hand and cross-checks the packed implementation.
"""

from eca_emulation import Word, rule_from_wolfram, supercell_step, unravel

xor3 = rule_from_wolfram(150)  # out = b1 xor b2 xor b3

w = Word.from_text("100110")
print("word:      ", w.text)
steps = [w]
while len(steps[-1]) >= 3:
    steps.append(unravel(xor3, steps[-1], 1))
    pad = "  " * (len(steps) - 1)
    print("unravelled:", pad + steps[-1].text)

u, v, x = Word.from_text("10"), Word.from_text("01"), Word.from_text("10")
print("\nas supercells of 2:", u.text, v.text, x.text,
      "->", supercell_step(xor3, 2, u, v, x).text)
assert supercell_step(xor3, 2, u, v, x) == unravel(xor3, w, 2)

# size 1 recovers the plain local rule
for i in range(8):
    b1, b2, b3 = (i >> 2) & 1, (i >> 1) & 1, i & 1
    assert supercell_step(xor3, 1, Word(b1, 1), Word(b2, 1), Word(b3, 1)).bits \
        == xor3(b1, b2, b3)
print("size-1 supercells coincide with the local rule on all 8 neighborhoods")

# the supercell operation of the identity rule projects onto the middle block
ident = rule_from_wolfram(204)
print("identity rule on supercells:",
      supercell_step(ident, 3, Word.from_text("101"), Word.from_text("011"),
                     Word.from_text("110")).text, "(middle block)")
