"""Memoization of single-witness homomorphism checks.

The chase re-asks the same questions constantly: the entailment race of
:mod:`repro.query.entailment` re-runs deterministic chases per candidate
tuple (:mod:`repro.query.certain`), and every such run repeats the same
satisfaction and core checks against the same instances.  All of those
reduce to :func:`repro.logic.homomorphism.find_homomorphism`, whose
result is a pure function of its arguments — so the library keeps one
process-global memo of ``(source, target, partial, forbidden, injective)
→ witness-or-None``.

Atomsets are mutable, so they cannot key the memo directly; instead the
key holds their :meth:`~repro.logic.atomset.AtomSet.fingerprint` — an
order-independent O(1) summary maintained incrementally by the atomset
itself.  A mutation changes the fingerprint, so entries for a stale state
are simply never hit again.  *Retractions* additionally call
:meth:`HomomorphismCache.invalidate` with the fingerprint of the instance
they fold away (see :mod:`repro.logic.cores` and the chase engine): a
retracted instance is gone for good, and dropping its entries eagerly
keeps the memo from filling up with dead states.

The cache is bounded (FIFO eviction of the oldest entries) and reports
hits/misses as ``hom_memo_lookup`` events (:mod:`repro.obs`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from .substitution import Substitution

__all__ = ["HomomorphismCache", "get_cache", "set_cache"]

#: Sentinel distinguishing "not cached" from a cached negative result.
_MISSING = object()


class HomomorphismCache:
    """A bounded memo of single-witness homomorphism search results.

    Parameters
    ----------
    max_entries:
        Eviction threshold; when exceeded, the oldest entries are dropped
        (insertion order) until the cache is back at half capacity.
    """

    __slots__ = ("max_entries", "_entries", "_by_fingerprint", "hits", "misses", "invalidations")

    def __init__(self, max_entries: int = 65536):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: dict = {}
        #: fingerprint -> set of keys mentioning it (source or target).
        self._by_fingerprint: dict = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------

    def lookup(self, key: tuple) -> Tuple[bool, Optional[Substitution]]:
        """Return ``(hit, value)``; *value* is only meaningful on a hit."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def store(self, key: tuple, value: Optional[Substitution]) -> None:
        """Record the result of a search (*value* may be None: a cached
        refutation is as valuable as a cached witness)."""
        if key not in self._entries and len(self._entries) >= self.max_entries:
            self._evict()
        self._entries[key] = value
        source_fp, target_fp = key[0], key[1]
        self._by_fingerprint.setdefault(source_fp, set()).add(key)
        if target_fp != source_fp:
            self._by_fingerprint.setdefault(target_fp, set()).add(key)

    def invalidate(self, fingerprint: tuple) -> int:
        """Drop every entry whose source or target carries *fingerprint*.

        Called when an instance is retracted away (core/frugal
        simplification): that exact atom content ceases to exist, so its
        entries would only ever occupy space.  Returns how many entries
        were dropped.
        """
        keys = self._by_fingerprint.pop(fingerprint, None)
        if not keys:
            return 0
        dropped = 0
        for key in keys:
            if self._entries.pop(key, _MISSING) is not _MISSING:
                dropped += 1
            other = key[1] if key[0] == fingerprint else key[0]
            bucket = self._by_fingerprint.get(other)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_fingerprint[other]
        self.invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._entries.clear()
        self._by_fingerprint.clear()

    def snapshot(self) -> dict:
        """Counters + size, ready for logs and metric dumps."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }

    # ------------------------------------------------------------------

    def _evict(self) -> None:
        """Drop the oldest half of the entries (dict preserves insertion
        order, so a plain prefix slice is FIFO)."""
        keep_from = len(self._entries) - self.max_entries // 2
        doomed = [key for index, key in enumerate(self._entries) if index < keep_from]
        for key in doomed:
            del self._entries[key]
            for fp in (key[0], key[1]):
                bucket = self._by_fingerprint.get(fp)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del self._by_fingerprint[fp]


#: The process-global memo consulted by ``find_homomorphism`` (subject to
#: :func:`repro.logic.indexing.hom_memo_enabled`).
_cache = HomomorphismCache()


def get_cache() -> HomomorphismCache:
    """The process-global homomorphism memo."""
    return _cache


def set_cache(cache: HomomorphismCache) -> HomomorphismCache:
    """Replace the process-global memo; returns the previous one (tests
    install a fresh bounded cache to observe eviction/invalidation)."""
    global _cache
    previous = _cache
    _cache = cache
    return previous
