"""Seeded blocking-call-under-lock violation."""

import threading
import time


class BadServer:
    def __init__(self):
        self._lock = threading.Lock()

    def tick(self, engine, sources, targets):
        with self._lock:
            time.sleep(0.5)  # EXPECT: REPRO-LOCK03
            return engine.distances(sources, targets)  # EXPECT: REPRO-LOCK03
