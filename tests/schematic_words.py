"""A seeded generator of schematic words, modelled on perfbench's
``random_word``: one to five components, and every word holds an omega
tower or a poly_module, so no word is effective."""

from __future__ import annotations

import random

EFFECTIVE = ("Z", "Q", "Zloc({q})", "real(1, pi)")
TOWER = "omega_tower(start={s})"
POLY = "poly_module(Zloc({q}), pi)"


def random_schematic_word(rng: random.Random) -> str:
    kinds = [rng.choice(EFFECTIVE + (TOWER, POLY)) for _ in range(rng.randint(1, 5))]
    if TOWER not in kinds and POLY not in kinds:
        kinds[rng.randrange(len(kinds))] = rng.choice((TOWER, POLY))
    comps = [k.format(q=rng.choice((2, 3, 5, 7)), s=rng.randint(0, 3)) for k in kinds]
    return "lex(" + ", ".join(comps) + ")"


def schematic_words(seed: int, count: int) -> list[str]:
    rng = random.Random(f"schematic-words:{seed}")
    return [random_schematic_word(rng) for _ in range(count)]
