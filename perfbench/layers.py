"""Self-time accounting for the traced run, installed from outside the program.

The benchmark wraps the public entry points of each layer (``train``,
``core``, ``models``, ``optim``, ``parallel``, ``serve``) on the objects a
workload builds.  A wrapper records calls, inclusive seconds and *self*
seconds: its own duration minus the time spent in wrapped calls it made
on the same thread.  The program's own instrumentation (``profile=``,
``metrics=``, ``tracer=``) stays off.

Wrappers are installed once and toggled with :attr:`LayerTracer.enabled`,
so a traced run can alternate traced and untraced slices of the same
process and report the tracing overhead from their difference.  A
disabled wrapper costs one attribute read and one extra call.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

Observer = Callable[[tuple, dict, Any], None]


class Account:
    """Totals of one wrapped entry point."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class LayerTracer:
    """Owns the wrappers of one workload process and their totals."""

    def __init__(self) -> None:
        self.enabled = False
        self.accounts: dict[str, Account] = {}
        #: Work counts observers add (e.g. candidates scored).
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    def account(self, name: str) -> Account:
        if name not in self.accounts:
            self.accounts[name] = Account()
        return self.accounts[name]

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def _wrap(
        self,
        fn: Callable,
        name: str | None,
        observe: Observer | None,
        always: bool,
    ) -> Callable:
        tracer = self
        account = self.account(name) if name is not None else None

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not (tracer.enabled or always):
                return fn(*args, **kwargs)
            if account is None:  # observe-only: no span, no timing
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    account.calls += 1
                    account.total_s += elapsed
                    account.self_s += elapsed - children
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def wrap_instance(
        self,
        obj: object,
        attr: str,
        name: str | None,
        observe: Observer | None = None,
    ) -> None:
        """Shadow ``obj.attr`` with a wrapper stored on the instance.

        ``name=None`` makes an observe-only wrapper: ``observe(args,
        kwargs, result)`` runs, but no time is recorded.
        """
        had_own = attr in vars(obj)
        original = vars(obj).get(attr)
        setattr(obj, attr, self._wrap(getattr(obj, attr), name, observe, False))

        def undo() -> None:
            if had_own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)

        self._undo.append(undo)

    def wrap_class(
        self,
        cls: type,
        attr: str,
        name: str | None,
        observe: Observer | None = None,
        *,
        always: bool = False,
    ) -> None:
        """Replace ``cls.attr`` for every instance (restored by :meth:`remove`).

        ``always=True`` times the call even while tracing is disabled (used
        for set-up steps that run before the timed window).
        """
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(original, name, observe, always))
        self._undo.append(lambda: setattr(cls, attr, original))

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            self._undo.pop()()
        self.enabled = False

    def self_s(self, name: str) -> float:
        return self.accounts[name].self_s if name in self.accounts else 0.0

    def total_s(self, name: str) -> float:
        return self.accounts[name].total_s if name in self.accounts else 0.0

    def calls(self, name: str) -> int:
        return self.accounts[name].calls if name in self.accounts else 0
