"""The fault layer: one seeded transport that fails or delays requests.

:class:`FaultTransport` wraps any inner
:class:`~repro.rpc.transport.Transport` and injects four kinds of fabric
fault, each reconfigurable live while traffic flows: one-shot rules
("crash the daemon when *this* RPC arrives", for deterministic
crash-consistency scenarios), a partition, a seeded per-daemon drop rate
and a per-daemon delay (a thrashing node, a congested link).  A request
is checked in that order and the first fault that applies wins; a
request failed by a rule or a partition never draws from the drop RNG,
so a seed fixes the drop schedule.

:func:`splice_faults` puts the layer directly above a network's base
transport — below retries, breaker and instrumentation, where a real
fabric fault would occur — once per network.  ``send_async`` never
raises: injected failures surface through the returned future.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Dict, Optional

from repro.rpc.future import RpcFuture, defer
from repro.rpc.message import RpcRequest
from repro.rpc.transport import Transport

__all__ = ["FaultTransport", "splice_faults"]


class FaultTransport(Transport):
    """Fail or delay requests by rule, partition, drop rate and delay.

    A failed request raises ``ConnectionError`` (a rule may supply its
    own exception) — retriable by the client's retry layer.  A delayed
    request is delivered at once and its *completion* is held: a fan-out
    still leaves the client at full speed and the slow daemon's leg lands
    late, the future being the inner transport's own.

    :param seed: seeds the drop RNG, so a fault plan drops the same
        requests on every run.
    :param sleep: injectable sleep used to hold delayed completions.
    """

    def __init__(
        self,
        inner: Transport,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.inner = inner
        self._sleep = sleep
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.delays: Dict[int, float] = {}
        self.drop_rates: Dict[int, float] = {}
        self.blocked: set[int] = set()
        self._rules: list[tuple] = []
        self.fired = 0
        self.blocked_sends = 0
        self.drops = 0
        self.delayed_sends = 0

    # -- configuration --------------------------------------------------------

    def set_delay(self, address: int, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"delay must be >= 0, got {seconds}")
        self.delays[address] = seconds

    def clear_delay(self, address: int) -> None:
        self.delays.pop(address, None)

    def set_drop_rate(self, address: int, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"drop rate must be in [0, 1], got {rate}")
        self.drop_rates[address] = rate

    def clear_drop_rate(self, address: int) -> None:
        self.drop_rates.pop(address, None)

    def partition(self, addresses) -> None:
        """Block every request to ``addresses`` until healed; unlike a
        crash the daemons keep all their state."""
        self.blocked.update(addresses)

    def heal(self, addresses=None) -> list[int]:
        """Unblock ``addresses`` (all when ``None``); returns the addresses
        actually lifted, sorted."""
        blocked = self.blocked
        lifted = sorted(blocked if addresses is None else blocked & set(addresses))
        blocked.difference_update(lifted)
        return lifted

    def arm(
        self,
        predicate: Callable[[RpcRequest], bool],
        callback: Optional[Callable[[RpcRequest], None]] = None,
        exc_factory: Optional[Callable[[RpcRequest], Exception]] = None,
    ) -> None:
        """Queue a one-shot rule: the first matching request runs
        ``callback`` and then fails with ``exc_factory(request)``
        (default ``ConnectionError``).  Rules fire in arm order."""
        with self._lock:
            self._rules.append((predicate, callback, exc_factory))

    # -- delivery -------------------------------------------------------------

    def _take_rule(self, request: RpcRequest):
        with self._lock:
            for i, rule in enumerate(self._rules):
                if rule[0](request):
                    del self._rules[i]
                    self.fired += 1
                    return rule
        return None

    def _dropped(self, request: RpcRequest) -> bool:
        rate = self.drop_rates.get(request.target, 0.0)
        if rate <= 0.0:
            return False
        with self._lock:
            hit = self._rng.random() < rate
            if hit:
                self.drops += 1
        return hit

    def _failure(self, request: RpcRequest) -> Optional[Exception]:
        """The exception this request is failed with, or ``None``."""
        rule = self._take_rule(request)
        if rule is not None:
            _predicate, callback, exc_factory = rule
            if callback is not None:
                callback(request)
            if exc_factory is not None:
                return exc_factory(request)
            return ConnectionError(
                f"triggered fault: {request.handler} -> daemon {request.target}"
            )
        if request.target in self.blocked:
            self.blocked_sends += 1
            return ConnectionError(
                f"network partition: daemon {request.target} unreachable "
                f"({request.handler})"
            )
        if self._dropped(request):
            return ConnectionError(
                f"injected drop: {request.handler} -> daemon {request.target}"
            )
        return None

    def send_async(self, request: RpcRequest) -> RpcFuture:
        failure = self._failure(request)
        if failure is not None:
            return self.failed(request, failure)
        return self.inner.send_async(request if request.chain else self.dressed(request))

    def stage(self, future: RpcFuture, value, exc) -> bool:
        """Latency: hold a delivery to a delayed daemon, then let it go on."""
        delay = self.delays.get(future.request.target, 0.0) if self.delays else 0.0
        if delay <= 0:
            return False
        self.delayed_sends += 1
        defer(future, delay, lambda: future.resume(value, exc), self._sleep)
        return True


def splice_faults(network, seed: int = 0) -> FaultTransport:
    """The network's fault layer, spliced directly above its base transport.

    Idempotent: when the chain already holds a :class:`FaultTransport`,
    that layer is returned (and ``seed`` is ignored), so every controller
    on one network configures the same faults.
    """
    parent, node = None, network.transport
    while getattr(node, "inner", None) is not None:
        if isinstance(node, FaultTransport):
            return node
        parent, node = node, node.inner
    faults = FaultTransport(node, seed=seed)
    if parent is None:
        network.transport = faults
    else:
        parent.inner = faults
        network.compose()  # the chain gains the layer's stage
    return faults
