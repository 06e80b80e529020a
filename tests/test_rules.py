import random

import pytest

import eca_emulation
from eca_emulation import (
    EcaRule,
    Word,
    dual,
    global_step,
    is_affine,
    is_linear,
    mirror,
    rule_from_wolfram,
    trajectory,
)


def brute_table(n):
    """Independent expansion of a Wolfram number: bit i is the output for
    the neighborhood read as the integer 4*b1 + 2*b2 + b3."""
    return {(b1, b2, b3): (n >> (4 * b1 + 2 * b2 + b3)) & 1
            for b1 in (0, 1) for b2 in (0, 1) for b3 in (0, 1)}


def test_wolfram_roundtrip_all_rules():
    for n in range(256):
        r = rule_from_wolfram(n)
        assert r.wolfram == sum(bit << i for i, bit in enumerate(r.table))
        assert brute_table(n) == {(a, b, c): r(a, b, c)
                                  for a in (0, 1) for b in (0, 1) for c in (0, 1)}


def test_rule_from_wolfram_examples():
    r110 = rule_from_wolfram(110)
    ones = {(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert {nb for nb, out in brute_table(110).items() if out} == ones
    assert all(r110(*nb) == (nb in ones) for nb in brute_table(110))
    assert rule_from_wolfram(0).table == (0,) * 8
    assert repr(r110) == "EcaRule(110)"
    # rule 204 is the identity on the middle cell
    r204 = rule_from_wolfram(204)
    assert all(r204(a, b, c) == b for (a, b, c) in brute_table(204))


def test_rule_from_wolfram_rejects():
    for bad in (-1, 256, 3.5, "110"):
        with pytest.raises(ValueError):
            rule_from_wolfram(bad)
    with pytest.raises(ValueError):
        EcaRule(999)


def test_rule_call_examples():
    assert rule_from_wolfram(110)(1, 1, 1) == 0
    assert rule_from_wolfram(204)(0, 1, 0) == 1
    assert rule_from_wolfram(184)(1, 0, 0) == 1
    with pytest.raises(ValueError):
        rule_from_wolfram(110)(2, 0, 0)


def test_dual_examples():
    assert dual(rule_from_wolfram(110)).wolfram == 137
    assert dual(rule_from_wolfram(51)).wolfram == 51
    assert dual(rule_from_wolfram(30)).wolfram == 135


def test_mirror_examples():
    assert mirror(rule_from_wolfram(30)).wolfram == 86
    assert mirror(dual(rule_from_wolfram(45))).wolfram == 89
    assert mirror(rule_from_wolfram(204)).wolfram == 204


def test_dual_definition_exhaustive():
    for n in range(256):
        r, d = rule_from_wolfram(n), dual(rule_from_wolfram(n))
        assert all(d(a, b, c) == 1 - r(1 - a, 1 - b, 1 - c)
                   for a in (0, 1) for b in (0, 1) for c in (0, 1))


def test_mirror_definition_exhaustive():
    for n in range(256):
        r, m = rule_from_wolfram(n), mirror(rule_from_wolfram(n))
        assert all(m(a, b, c) == r(c, b, a)
                   for a in (0, 1) for b in (0, 1) for c in (0, 1))


def test_dual_mirror_commuting_involutions():
    for n in range(256):
        r = rule_from_wolfram(n)
        assert dual(dual(r)) == r
        assert mirror(mirror(r)) == r
        assert dual(mirror(r)) == mirror(dual(r))


def test_linear_rules_exact_set():
    def xor_oracle(r):
        # f(x ^ y) == f(x) ^ f(y) over all 64 neighborhood pairs
        nbs = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        return all(
            r(x[0] ^ y[0], x[1] ^ y[1], x[2] ^ y[2]) == r(*x) ^ r(*y)
            for x in nbs for y in nbs)

    linear = {n for n in range(256) if is_linear(rule_from_wolfram(n))}
    assert linear == {n for n in range(256) if xor_oracle(rule_from_wolfram(n))}
    assert linear == {0, 60, 90, 102, 150, 170, 204, 240}


def test_affine_examples():
    assert is_linear(rule_from_wolfram(150))
    assert is_linear(rule_from_wolfram(0))
    assert not is_linear(rule_from_wolfram(105))
    assert is_affine(rule_from_wolfram(105))
    affine = {n for n in range(256) if is_affine(rule_from_wolfram(n))}
    assert affine == {0, 60, 90, 102, 150, 170, 204, 240,
                      255, 195, 165, 153, 105, 85, 51, 15}


def step_oracle(r, cells):
    n = len(cells)
    return [r(cells[(i - 1) % n], cells[i], cells[(i + 1) % n]) for i in range(n)]


def test_global_step_examples():
    w = Word.from_text("10110")
    assert global_step(rule_from_wolfram(204), w) == w
    assert global_step(rule_from_wolfram(0), w) == Word(0, 5)
    assert global_step(rule_from_wolfram(184), Word.from_text("1100")) \
        == Word.from_text("1010")


def test_global_step_matches_cellwise_oracle():
    # Every rule on all eight grids of the smallest size and on one larger
    # grid, against the cell-by-cell definition.
    rng = random.Random(5)
    for n in range(256):
        rule = rule_from_wolfram(n)
        grids = [[(i >> j) & 1 for j in range(3)] for i in range(8)]
        grids.append([rng.randrange(2) for _ in range(rng.randrange(4, 80))])
        for cells in grids:
            stepped = global_step(rule, Word.from_text("".join(map(str, cells))))
            assert list(stepped) == step_oracle(rule, cells)


def test_global_step_rejects():
    with pytest.raises(ValueError):
        global_step(rule_from_wolfram(110), Word.from_text("11"))


def test_homogeneous_configurations():
    for n in range(256):
        r = rule_from_wolfram(n)
        zeros, ones = Word.from_text("0" * 7), Word.from_text("1" * 7)
        assert global_step(r, zeros) == (ones if r(0, 0, 0) else zeros)
        assert global_step(r, ones) == (ones if r(1, 1, 1) else zeros)


def test_trajectory_examples():
    g = Word.from_text("1100")
    assert [x.text for x in trajectory(rule_from_wolfram(184), g, 2)] \
        == ["1100", "1010", "0101"]
    assert trajectory(rule_from_wolfram(110), g, 0) == [g]
    t = trajectory(rule_from_wolfram(0), g, 2)
    assert [x.text for x in t] == ["1100", "0000", "0000"]
    with pytest.raises(ValueError):
        trajectory(rule_from_wolfram(110), g, -1)
    # a cyclic configuration needs 3 cells even when nothing steps
    with pytest.raises(ValueError):
        trajectory(rule_from_wolfram(30), Word(0, 2), 0)


def test_linear_rules_respect_superposition():
    rng = random.Random(9)
    for n in (0, 60, 90, 102, 150, 170, 204, 240):
        r = rule_from_wolfram(n)
        for _ in range(25):
            length = rng.randrange(3, 30)
            x = rng.getrandbits(length)
            y = rng.getrandbits(length)
            fx = global_step(r, Word(x, length)).bits
            fy = global_step(r, Word(y, length)).bits
            fxy = global_step(r, Word(x ^ y, length)).bits
            assert fxy == fx ^ fy


def test_every_public_name_resolves():
    # `from eca_emulation import *` fails on a name __all__ lists that the
    # package does not define.
    missing = [name for name in eca_emulation.__all__ if not hasattr(eca_emulation, name)]
    assert missing == []
    assert len(set(eca_emulation.__all__)) == len(eca_emulation.__all__)
