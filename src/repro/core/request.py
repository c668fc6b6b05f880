"""Request sequences and multicore workloads.

A :class:`RequestSequence` is one core's page-request stream ``R_j``; a
:class:`Workload` is the multiset ``R = {R_1, ..., R_p}`` of the paper.
Both are immutable value types with the derived quantities the proofs and
algorithms need (page universe, next-occurrence tables, disjointness).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property

from repro._util import pairwise_disjoint
from repro.core.types import Page


class RequestSequence(Sequence[Page]):
    """An immutable sequence of page requests for a single core."""

    __slots__ = ("_pages", "__dict__")

    def __init__(self, pages: Iterable[Page]):
        self._pages: tuple[Page, ...] = tuple(pages)

    # -- Sequence protocol -------------------------------------------------
    def __getitem__(self, index):
        if isinstance(index, slice):
            return RequestSequence(self._pages[index])
        return self._pages[index]

    def __len__(self) -> int:
        return len(self._pages)

    def __iter__(self) -> Iterator[Page]:
        return iter(self._pages)

    def __eq__(self, other) -> bool:
        if isinstance(other, RequestSequence):
            return self._pages == other._pages
        if isinstance(other, (tuple, list)):
            return self._pages == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._pages)

    def __repr__(self) -> str:
        if len(self._pages) <= 8:
            return f"RequestSequence({list(self._pages)!r})"
        head = ", ".join(repr(x) for x in self._pages[:4])
        return f"RequestSequence([{head}, ...] len={len(self._pages)})"

    # -- derived data ------------------------------------------------------
    @cached_property
    def pages(self) -> frozenset[Page]:
        """The set of distinct pages requested."""
        return frozenset(self._pages)

    @cached_property
    def distinct_count(self) -> int:
        return len(self.pages)

    def as_tuple(self) -> tuple[Page, ...]:
        return self._pages

    @cached_property
    def next_occurrence(self) -> tuple[int, ...]:
        """``next_occurrence[i]`` is the smallest ``i' > i`` with
        ``self[i'] == self[i]``, or ``len(self)`` if the page never recurs.

        This is the standard table behind Belady/FITF computations.
        """
        n = len(self._pages)
        nxt = [n] * n
        last: dict[Page, int] = {}
        for i in range(n - 1, -1, -1):
            page = self._pages[i]
            nxt[i] = last.get(page, n)
            last[page] = i
        return tuple(nxt)

    def first_occurrence_from(self, page: Page, start: int) -> int:
        """Index of the first request to ``page`` at position >= ``start``,
        or ``len(self)`` if there is none."""
        occ = self._occurrence_index.get(page)
        if occ is None:
            return len(self._pages)
        # Binary search over the sorted occurrence list.
        lo, hi = 0, len(occ)
        while lo < hi:
            mid = (lo + hi) // 2
            if occ[mid] < start:
                lo = mid + 1
            else:
                hi = mid
        return occ[lo] if lo < len(occ) else len(self._pages)

    @cached_property
    def _occurrence_index(self) -> dict[Page, tuple[int, ...]]:
        index: dict[Page, list[int]] = {}
        for i, page in enumerate(self._pages):
            index.setdefault(page, []).append(i)
        return {page: tuple(positions) for page, positions in index.items()}


class Workload:
    """The multiset ``R = {R_1, ..., R_p}`` of per-core request sequences."""

    __slots__ = ("_sequences", "__dict__")

    def __init__(self, sequences: Iterable[Iterable[Page]]):
        seqs = []
        for s in sequences:
            seqs.append(s if isinstance(s, RequestSequence) else RequestSequence(s))
        if not seqs:
            raise ValueError("a workload needs at least one sequence")
        self._sequences: tuple[RequestSequence, ...] = tuple(seqs)

    # -- container protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self._sequences)

    def __getitem__(self, core: int) -> RequestSequence:
        return self._sequences[core]

    def __iter__(self) -> Iterator[RequestSequence]:
        return iter(self._sequences)

    def __eq__(self, other) -> bool:
        if isinstance(other, Workload):
            return self._sequences == other._sequences
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._sequences)

    def __repr__(self) -> str:
        lens = [len(s) for s in self._sequences]
        return f"Workload(p={len(self)}, lengths={lens})"

    # -- derived data ------------------------------------------------------
    @property
    def num_cores(self) -> int:
        """``p``, the number of cores / sequences."""
        return len(self._sequences)

    @cached_property
    def total_requests(self) -> int:
        """``n``, the total number of requests across all sequences."""
        return sum(len(s) for s in self._sequences)

    @cached_property
    def universe(self) -> frozenset[Page]:
        """``N``: all distinct pages appearing anywhere in the workload."""
        pages: set[Page] = set()
        for s in self._sequences:
            pages |= s.pages
        return frozenset(pages)

    @cached_property
    def is_disjoint(self) -> bool:
        """True iff the sequences request pairwise-disjoint page sets.

        Every separation proof in the paper uses disjoint workloads; several
        structural results (Lemma 3, Theorems 4 and 5) are stated only for
        this case.
        """
        return pairwise_disjoint([set(s.pages) for s in self._sequences])

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self._sequences)

    def as_lists(self) -> list[list[Page]]:
        """A plain-list copy, convenient for serialisation."""
        return [list(s) for s in self._sequences]

    def attach_dense_page_ids(self, width: int, ids) -> None:
        """Attach a generator-provided dense integer encoding of pages.

        ``ids[j][i]`` must be an integer in ``[0, width)`` equal across
        any two (core, position) pairs **iff** the requested pages are
        equal — i.e. an exact bijection of this workload's pages onto a
        subset of ``range(width)``.  Workload generators that construct
        pages from integers they already hold (e.g. ``(core, rank)``
        tuples) attach this so the compiled shared-cache kernel
        (:mod:`repro.core.kernels.compiled`) reads the ids instead of
        interning every request's page; int64 numpy arrays are copied
        in one block.  The metadata is advisory: equality, hashing,
        serialisation and the python simulation paths ignore it, and
        workloads rebuilt from ``as_lists()`` simply lose it.
        """
        ids = tuple(ids)
        if len(ids) != len(self._sequences) or any(
            len(a) != len(s) for a, s in zip(ids, self._sequences)
        ):
            raise ValueError("dense page ids must mirror the sequences")
        self.__dict__["_dense_page_ids"] = (int(width), ids)

    def validate_against_cache(self, cache_size: int) -> None:
        """Raise if the workload/cache combination is degenerate.

        The paper assumes ``K >= p`` (indeed ``K >= p^2``, the multicore
        tall-cache assumption); below ``K = p`` a parallel step could need
        more fetch cells than exist.
        """
        if cache_size < self.num_cores:
            raise ValueError(
                f"cache of size {cache_size} cannot serve {self.num_cores} "
                "cores (need K >= p so every core can hold a fetching cell)"
            )
