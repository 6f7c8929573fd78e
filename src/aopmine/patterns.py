"""Pattern algebra: one-step subpatterns and the two ways to grow a pattern.

A length-m pattern grows rightward either by fusing two overlapping patterns
whose shared interior agrees, or by enumerating every possible rank for one
new trailing element. Fusion emits far fewer candidates, which is the whole
point of preferring it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import Pattern, RankVector


@dataclass(frozen=True)
class FusionResult:
    """Superpatterns produced by fusing one ordered pattern pair: one when the
    left pattern's head and the right pattern's tail differ, two (head-wins
    first) when they tie."""

    produced: tuple[Pattern, ...]


def prefixorder(p: Pattern) -> RankVector:
    """Rank vector of the pattern with its last element dropped.

    ``p`` must be a rank vector as ``compute_ranks`` gives (ties allowed;
    anything else gives a wrong result, unchecked): dropping an element then
    lowers exactly the ranks above it by one (the second fact in
    docs/lemmas.md), so no sort is needed. For a length-2 pattern the result
    is the degenerate vector ``(1,)``; it is not a pattern itself but makes
    fusibility checks work from length 2 upward.
    """
    if len(p) < 2:
        raise ValueError(f"pattern too short for a prefix: {p!r}")
    return tuple([v - (v > p[-1]) for v in p[:-1]])


def suffixorder(p: Pattern) -> RankVector:
    """Rank vector of the pattern with its first element dropped; ``p`` must
    be a rank vector, as for ``prefixorder``."""
    if len(p) < 2:
        raise ValueError(f"pattern too short for a suffix: {p!r}")
    return tuple([v - (v > p[0]) for v in p[1:]])


def fusible(p: Pattern, q: Pattern) -> bool:
    """True when p's suffix shape equals q's prefix shape."""
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return suffixorder(p) == prefixorder(q)


def fuse(p: Pattern, q: Pattern) -> FusionResult:
    """Fuse two fusible length-m patterns into length-(m+1) superpatterns.

    Read p as the ranks of positions 1..m and q as the ranks of positions
    2..m+1 of one longer window; the overlap agrees by fusibility, so only
    the relative order of p's head and q's tail is open:

    * head > tail: bump the head by one and every q rank above it by one,
      then prepend. One superpattern.
    * head = tail: their order is ambiguous, so both resolutions are emitted
      (head-wins first, tail-wins second). Two superpatterns.
    * head < tail: mirror construction around the tail. One superpattern.

    Every produced vector is a permutation of 1..m+1 whose prefix and suffix
    shapes recover p and q.
    """
    if not fusible(p, q):
        raise ValueError(f"patterns are not fusible: {p!r} and {q!r}")
    head, tail = p[0], q[-1]
    produced = []
    if head >= tail:
        produced.append((head + 1, *[v + 1 if v > head else v for v in q]))
    if head <= tail:
        produced.append((*[v + 1 if v > tail else v for v in p], tail + 1))
    return FusionResult(tuple(produced))


def enumerate_extensions(p: Pattern) -> tuple[Pattern, ...]:
    """All m+1 superpatterns that append one element to the pattern.

    The new trailing element takes every possible rank v in 1..m+1; existing
    ranks at or above v shift up by one. Results are in ascending order of v
    and are pairwise distinct.
    """
    out = []
    for v in range(1, len(p) + 2):
        out.append(tuple(r + 1 if r >= v else r for r in p) + (v,))
    return tuple(out)


def fusion_pairs(patterns: Iterable[Pattern]) -> Iterator[tuple[Pattern, Pattern]]:
    """Every fusible ordered pair of equal-length patterns, self-pairs included.

    The pairs come in the order of a nested loop over the sorted patterns
    (``p`` outer, ``q`` inner) that keeps the pairs with ``fusible(p, q)``.
    Instead of testing all k² pairs, the patterns are grouped once by prefix
    shape and each ``p`` looks up the group of its suffix shape, so a level
    costs O(k) shape computations. Mixed lengths raise, as ``fusible`` does.
    """
    pats = sorted(patterns)
    lengths = {len(p) for p in pats}
    if len(lengths) > 1:
        raise ValueError(f"length mismatch among patterns: {sorted(lengths)}")
    by_prefix: dict[RankVector, list[Pattern]] = {}
    for q in pats:
        by_prefix.setdefault(prefixorder(q), []).append(q)
    for p in pats:
        for q in by_prefix.get(suffixorder(p), ()):
            yield p, q


def fusion_candidates(patterns: Iterable[Pattern]) -> tuple[Pattern, ...]:
    """Superpattern candidates from fusing every fusible ordered pair.

    The pairs are those of ``fusion_pairs``: p in sorted order, and for each p
    its fusible partners q in sorted order, self-pairs included; each pair's
    superpatterns follow in ``fuse`` order. Distinct pairs can never produce
    the same superpattern (its prefix and suffix shapes pin down the
    parents), so the result is duplicate-free.
    """
    return tuple(t for p, q in fusion_pairs(patterns) for t in fuse(p, q).produced)


def enumeration_candidates(patterns: Iterable[Pattern]) -> tuple[Pattern, ...]:
    """Superpattern candidates from extending each pattern every possible way."""
    out: list[Pattern] = []
    for p in sorted(patterns):
        out.extend(enumerate_extensions(p))
    return tuple(out)
