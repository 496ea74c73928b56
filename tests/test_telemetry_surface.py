"""Guard: TRACED_METHODS must track the public GekkoFSClient surface.

Adding a public client method without deciding how it's traced silently
creates a blind spot in every histogram and trace.  This test forces the
decision: each public method is either in ``TRACED_METHODS`` or listed
in ``TRACE_EXEMPT`` with its reason — never neither, never both.  The
client's two forwarding paths are decided the same way: each of their
public methods is listed in ``PATH_METHODS`` (untraced, for the reason
given there).
"""

import inspect

from repro.core.client import GekkoFSClient
from repro.core.datapath import DataPath
from repro.core.metapath import MetadataPath
from repro.telemetry.tracer import PATH_METHODS, TRACE_EXEMPT, TRACED_METHODS


def public_methods(cls) -> set:
    return {
        name
        for name, member in inspect.getmembers(cls)
        if not name.startswith("_") and inspect.isfunction(member)
    }


def public_client_methods() -> set:
    return public_methods(GekkoFSClient)


class TestTracedSurface:
    def test_every_public_method_has_a_tracing_decision(self):
        public = public_client_methods()
        decided = set(TRACED_METHODS) | TRACE_EXEMPT
        missing = public - decided
        assert not missing, (
            f"public client methods with no tracing decision: {sorted(missing)}; "
            f"add them to TRACED_METHODS or TRACE_EXEMPT (with a reason)"
        )

    def test_no_stale_entries(self):
        public = public_client_methods()
        stale = (set(TRACED_METHODS) | TRACE_EXEMPT) - public
        assert not stale, f"tracer lists methods the client no longer has: {sorted(stale)}"

    def test_traced_and_exempt_are_disjoint(self):
        overlap = set(TRACED_METHODS) & TRACE_EXEMPT
        assert not overlap, f"methods both traced and exempted: {sorted(overlap)}"

    def test_traced_methods_exist_and_are_wrappable(self):
        for name in TRACED_METHODS:
            assert callable(getattr(GekkoFSClient, name))

    def test_every_public_path_method_has_a_tracing_decision(self):
        public = public_methods(DataPath) | public_methods(MetadataPath)
        assert not public - PATH_METHODS, (
            f"public path methods with no tracing decision: "
            f"{sorted(public - PATH_METHODS)}; add them to PATH_METHODS"
        )
        assert not PATH_METHODS - public, (
            f"PATH_METHODS lists methods no path has: {sorted(PATH_METHODS - public)}"
        )
