"""The simulated disk: a flat address space of pages.

:class:`DiskManager` owns every page of one storage stack and hands out
new page ids.  All *reads must go through a buffer pool*, which adds LRU
caching and the read counters on top.
"""

from __future__ import annotations

from repro.storage.page import DEFAULT_PAGE_SIZE, Page


class DiskManager:
    """Allocates and serves fixed-size pages."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= 0:
            raise ValueError(f"page size must be positive, got {page_size}")
        self._page_size = page_size
        self._pages: dict[int, Page] = {}
        self._next_id = 0

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def page_count(self) -> int:
        return len(self._pages)

    def allocate(self) -> Page:
        """Create a fresh empty page and return it."""
        page = Page(page_id=self._next_id, capacity=self._page_size)
        self._pages[self._next_id] = page
        self._next_id += 1
        return page

    def read(self, page_id: int) -> Page:
        """Fetch a page from 'disk'."""
        try:
            return self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(f"no page with id {page_id}") from None


class PageNotFoundError(KeyError):
    """Raised when a page id does not exist on the simulated disk."""
