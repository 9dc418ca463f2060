"""Workload inputs for the benchmark: `.actr` texts and their known answers.

Every workload draws its models from the seeded generator, as
``print_model(random_model(random.Random(i)))``.  The corpus is fixed, so
the work is the same at every seed; ``--seed`` picks a relabelling of
that text instead: every identifier is renamed consistently (chunks,
types, slots, buffers, rules, variables) and the chunk and rule
declarations are shuffled.  The program therefore sees text it has not
seen before, while the state spaces stay isomorphic and every count is
known in advance.  Seed 0 is the identity, the corpus of ROADMAP.md.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass

CHECK = "check"
EXPLORE = "explore"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # CHECK or EXPLORE
    model_seeds: tuple[int, ...]
    depth: int
    why: str


CORPUS = tuple(range(200))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus-check", CHECK, CORPUS, 4,
            "200 small models checked at depth 4: a modeller's regression run,"
            " where per-model fixed costs and CHR steps on small stores weigh",
        ),
        Workload(
            "corpus-explore", EXPLORE, CORPUS, 8,
            "the same 200 models through explore at depth 8, no CHR at all: the"
            " bypass for chr/translate changes, where successors and canonical_key work",
        ),
    )
}

# Totals per pass, (pairs, transitions) for check and (states, edges) for
# explore, identical at every seed.
EXPECTED_TOTALS = {
    "corpus-check": (2302, 8266),
    "corpus-explore": (12140, 31090),
}

COUNTING_SRC = """
type g { current }
type number {}
type succ { number, successor }
chunk 1 : number {}
chunk 2 : number {}
chunk 3 : number {}
chunk b : succ { number: 1, successor: 2 }
chunk c : succ { number: 2, successor: 3 }
chunk goal0 : g { current: 1 }
dm { 1, 2, 3, b, c }
buffer goal = goal0
buffer retrieval = b pending
rule inc {
  goal: g { current: X }
  retrieval: succ { number: X, successor: Y }
  ==>
  modify goal { current: Y }
  request retrieval succ { number: Y }
}
"""

# A rule whose only effect restates its buffers; a translation that drops
# those pass-throughs must fail the check with a backward counterexample.
PASSTHROUGH_SRC = """
type g { current }
type k { key }
chunk a : k { key: a }
chunk g0 : g { current: a }
buffer goal = g0
buffer context = a
rule step {
  goal: g { current: X }
  context: k { key: X }
  ==>
  modify goal { current: X }
}
"""

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RESERVED = frozenset(
    ["type", "chunk", "dm", "buffer", "rule", "modify", "request", "pending", "nil"]
)


def relabel(text: str, rng: random.Random) -> str:
    """Rename every identifier of a printed model and shuffle its chunk and
    rule declarations.  The result is the same model up to isomorphism."""
    names: dict[str, str] = {}
    taken = set(_RESERVED)

    def rename(m: re.Match) -> str:
        word = m.group()
        if word in _RESERVED:
            return word
        if word not in names:
            new = ""
            while not new or new in taken:
                new = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
                if word[0].isupper():
                    new = new.capitalize()
            taken.add(new)
            names[word] = new
        return names[word]

    renamed = _WORD.sub(rename, text)
    blocks = renamed.strip("\n").split("\n\n")
    chunk_blocks = [i for i, b in enumerate(blocks) if b.startswith("chunk ")]
    for i in chunk_blocks:
        lines = blocks[i].split("\n")
        rng.shuffle(lines)
        blocks[i] = "\n".join(lines)
    rule_at = [i for i, b in enumerate(blocks) if b.startswith("rule ")]
    rules = [blocks[i] for i in rule_at]
    rng.shuffle(rules)
    for i, b in zip(rule_at, rules):
        blocks[i] = b
    return "\n\n".join(blocks) + "\n"


def model_texts(workload: Workload, seed: int) -> list[str]:
    """The workload's `.actr` texts; seed 0 leaves the printed corpus as is."""
    from actrchr.modelgen import random_model
    from actrchr.parser import print_model

    texts = [print_model(random_model(random.Random(i))) for i in workload.model_seeds]
    if seed == 0:
        return texts
    rng = random.Random(f"relabel-{seed}")
    return [relabel(t, rng) for t in texts]
