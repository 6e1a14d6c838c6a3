"""Per-layer self-time accounting for the traced run.

The benchmark wraps the public functions each layer of the program
exposes, from the outside: a :class:`Patch` swaps a module or class
attribute for a timing wrapper and restores it on exit. Nested wrapped
calls are charged to the innermost layer only, so the self times of
all layers inside one wrapped outer call add up to its wall time.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class LayerClock:
    """Self time, inclusive time and call count per layer name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable,
             on_return: Optional[Callable[[Any, float], None]] = None
             ) -> Callable:
        """``fn`` timed as ``layer``; ``on_return(result, seconds)`` is
        called after each call (outside the timed interval)."""
        def timed(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with self._lock:
                    self.self_s[layer] += dt - child
                    self.incl_s[layer] += dt
                    self.calls[layer] += 1
            if on_return is not None:
                on_return(result, dt)
            return result

        timed.__wrapped__ = fn
        return timed

    def reset(self) -> None:
        with self._lock:
            self.self_s.clear()
            self.incl_s.clear()
            self.calls.clear()


class Patch:
    """Context manager installing timing wrappers on attributes.

    ``targets`` are ``(owner, attribute, layer)`` triples, optionally
    with a fourth ``on_return`` hook (see :meth:`LayerClock.wrap`);
    ``owner`` is a module or class whose attribute callers look up at
    call time.
    """

    def __init__(self, clock: LayerClock, targets: List[tuple]) -> None:
        self.clock = clock
        self.targets = targets
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Patch":
        for owner, attr, layer, *hook in self.targets:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.clock.wrap(layer, original, *hook))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
