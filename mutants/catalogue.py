"""The mutation catalogue: small faults that the tier-1 tests must detect.

Each entry names one file (relative to the repository root), an exact piece
of its text, the text that replaces it, and the fault that models. The old
text must occur exactly once, so a refactor that moves or rewrites the code
makes ``mutants/run.py`` refuse the entry instead of testing nothing.

Rules:

* a change that adds an engine path adds a mutant for it;
* a survivor is a test gap: close it with a test, or record it as FOUND in
  CHANGES.md;
* removing or weakening an entry is a change to a check, and is argued in
  CHANGES.md.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    fault: str


MINER = "src/aopmine/miner.py"
PATTERNS = "src/aopmine/patterns.py"

CATALOGUE = (
    # faults that once survived every tier-1 test
    Mutant(
        "fuse-tie-loses-tail-child-from-length-9",
        PATTERNS,
        "    if head <= tail:\n",
        "    if head < tail or (head == tail and len(p) < 8):\n",
        "a tie pair fused into length 9 or more emits only its head-wins child",
    ),
    Mutant(
        "shape-key-drops-end-sign-from-length-9",
        MINER,
        "key = (shorter[x], shorter[x + 1], (first > last) - (first < last))",
        "key = (shorter[x], shorter[x + 1], (first > last) - (first < last) if m < 9 else 0)",
        "two windows whose shorter shapes are equal and whose ends are in opposite "
        "order share a composition key from length 9",
    ),
    Mutant(
        "sign-path-accepts-equal-ends-from-length-8",
        MINER,
        "map(gt if t[0] > t[-1] else lt, firsts, lasts)",
        "map(gt if t[0] > t[-1] else (lt if m < 8 else lambda a, b: a <= b), firsts, lasts)",
        "the exact sign path accepts a window whose first and last samples are equal",
    ),
    # faults that earlier changes checked by hand on copies of the tree
    Mutant(
        "fit-strict-gamma-from-length-8",
        MINER,
        "sum(map(getitem, rows, r)) <= params.gamma for r in shapes",
        "sum(map(getitem, rows, r)) <= params.gamma - (m >= 8) for r in shapes",
        "a window at exactly γ no longer fits from length 8",
    ),
    Mutant(
        "cost-table-narrows-delta-from-length-9",
        MINER,
        "abs(r - v) if abs(r - v) <= delta else gamma + 1",
        "abs(r - v) if abs(r - v) <= delta - (m >= 9) else gamma + 1",
        "the cost table's δ band is one narrower from length 9",
    ),
    Mutant(
        "no-pruning-from-length-8",
        MINER,
        "if prune and len(positions) < params.minsup:",
        "if prune and m < 8 and len(positions) < params.minsup:",
        "aop and em stop pruning from length 8, so the counters change",
    ),
    Mutant(
        "em-drops-last-window",
        MINER,
        "bisect_right(fp.occurrences, n - len(fp.pattern))",
        "bisect_right(fp.occurrences, n - len(fp.pattern) - 1)",
        "em never tries a prefix occurrence at the last window of the next length",
    ),
    Mutant(
        "screen-drops-last-position-on-long-lists",
        MINER,
        "return tuple(compress(a_p, _gather(a_q, a_p)))",
        "return tuple(compress(a_p, _gather(a_q, a_p)))[: -1 if len(a_p) > 1000 else None]",
        "screening a list of more than 1,000 positions loses its last survivor",
    ),
    Mutant(
        "gather-drops-last-of-a-range",
        MINER,
        "tuple(islice(seq, keys.start, keys.stop, keys.step))",
        "tuple(islice(seq, keys.start, keys.stop - 1, keys.step))",
        "a memo read over a range misses its last slot",
    ),
    Mutant(
        "gather-drops-last-key-of-a-long-list",
        MINER,
        "return itemgetter(*keys)(seq)",
        "return itemgetter(*keys)(seq)[: -1 if len(keys) > 1000 else None]",
        "a probe or memo read over more than 1,000 listed positions loses its last one",
    ),
    Mutant(
        "mark-one-slot-short",
        MINER,
        "marked = bytearray(n + 2)",
        "marked = bytearray(n + 1)",
        "the marked array ends one slot before the last position it must hold",
    ),
    Mutant(
        "memo-not-read-again-after-filling",
        MINER,
        "            shapes[x] = r\n        at = _gather(shapes, candidates)\n",
        "            shapes[x] = r\n",
        "the shapes of empty slots are composed but never read back",
    ),
    Mutant(
        "refusal-after-the-candidate-charge",
        MINER,
        "    _require_windows(positions, m, len(series))\n"
        "    stats.candidates_generated[m] = stats.candidates_generated.get(m, 0) + len(children)\n",
        "    stats.candidates_generated[m] = stats.candidates_generated.get(m, 0) + len(children)\n"
        "    _require_windows(positions, m, len(series))\n",
        "a refused candidate group is charged as candidates before it is refused",
    ),
    # occurrence lists share their position objects
    Mutant(
        "range-shared-by-children-not-made-a-tuple",
        MINER,
        "        if isinstance(positions, range) and len(children) > 1:\n"
        "            positions = tuple(positions)\n",
        "",
        "each child of a range group builds its own tuple and int object per window",
    ),
    Mutant(
        "matching-returns-all-when-any-shape-fits",
        MINER,
        "if all(fits.values()):",
        "if any(fits.values()):",
        "matching keeps every candidate when only some distinct shapes fit",
    ),
)
