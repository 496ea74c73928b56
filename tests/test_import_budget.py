"""What a process loads before its first RPC, by count of modules and lines.

GekkoFS is a temporary file system: its daemons start with the job and its
client library is loaded into every application process, so start-up is
paid once per process.  Without a bytecode cache every module a process
imports is compiled from source, so the code it loads is the code it pays
for.  Each row runs in a fresh interpreter and reads ``sys.modules``: the
``repro`` modules loaded and the source lines they hold.  A row fails when
a plane its configuration leaves off is loaded, or when it loads more
modules or lines than its budget.  No timing.

The rows are the benchmark's client process under both of its configs
(``bench/deploy.py``'s imports, then one ``stat`` on a two-daemon socket
cluster), a daemon process up to the moment it binds its socket
(``python -m repro serve``, which is how ``ProcessCluster`` and the
supervisor start one), and a bare ``import repro``.

A second gate holds the package surface: every name in every package's
``__all__`` resolves, through attribute access and ``import *``, to the
submodule's own object.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Prepended to every row; a row ends by calling ``_report()``.
_PRELUDE = """
import json as _json, sys as _sys

def _report():
    loaded = sorted(m for m in _sys.modules if m == "repro" or m.startswith("repro."))
    print("LOADED " + _json.dumps(loaded), flush=True)
"""

_BENCH = """
from repro.net import LocalSocketCluster
from repro.net.serve import config_to_json
from repro.core.config import FSConfig

config = FSConfig(kv_dir={root} + "/kv", data_dir={root} + "/data", **{planes})
cluster = LocalSocketCluster(2, config=config)
cluster.client(0).stat("/")
_report()
cluster.shutdown()
"""

_SERVE = """
import json, os, runpy, socket, sys

def bind(self, address):
    _report()
    os._exit(0)

socket.socket.bind = bind
config = {"kv_dir": {root} + "/kv", "data_dir": {root} + "/data"}
sys.argv = ["repro", "serve", "--daemon-id", "0", "--addr", "127.0.0.1:0",
            "--config-json", json.dumps(config)]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""

FULL = dict(rpc_retries=2, breaker_enabled=True, qos_enabled=True, integrity_enabled=True)

#: Planes no row may load: the offline models and simulator, the fault and
#: self-healing planes, the drivers, and the cold halves of telemetry,
#: the metadata cache and storage.
_NEVER = (
    "repro.analysis", "repro.simulator", "repro.models", "repro.faults",
    "repro.selfheal", "repro.trace", "repro.workloads", "repro.experiments",
    "repro.rpc.sim", "repro.telemetry.spans", "repro.telemetry.slo",
    "repro.telemetry.observer", "repro.telemetry.flightrecorder",
    "repro.telemetry.tracer", "repro.telemetry.windows", "repro.core.resize",
    "repro.core.posix", "repro.core.fileobj", "repro.core.datacache",
    "repro.metacache.client", "repro.metacache.hotkeys", "repro.storage.memory",
    "repro.storage.ssd_model",
)
#: The planes ``full`` switches on and ``paper`` leaves off.
_FULL_ONLY = ("repro.qos", "repro.rpc.health")


def _bench(planes: dict) -> str:
    return _BENCH.replace("{planes}", repr(planes))


#: name -> (code, forbidden prefixes, required modules, max modules, max lines)
ROWS = {
    "bench_paper": (_bench({}), _NEVER + _FULL_ONLY, (), 50, 12_000),
    "bench_full": (_bench(FULL), _NEVER, ("repro.qos.pool", "repro.qos.window", "repro.rpc.health"),
                   56, 13_200),
    "serve": (_SERVE, _NEVER + _FULL_ONLY + ("repro.core.client", "repro.core.cluster",
                                             "repro.net.client"), (), 41, 9_200),
    "import_repro": ("import repro\n_report()\n", ("repro.core", "repro.net", "repro.rpc"), (), 2, 100),
}


def loaded(code: str) -> dict[str, int]:
    """``{module: source lines}`` of the ``repro`` modules ``code`` loads
    in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _PRELUDE + code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC), check=True,
    ).stdout
    names = json.loads(next(line for line in out.splitlines() if line.startswith("LOADED "))[7:])
    lines = {}
    for name in names:
        spec = importlib.util.find_spec(name)
        with open(spec.origin, encoding="utf-8") as fh:
            lines[name] = sum(1 for _ in fh)
    return lines


@pytest.mark.parametrize("row", sorted(ROWS))
def test_a_process_loads_only_the_planes_it_runs(row, tmp_path):
    code, forbidden, required, max_modules, max_lines = ROWS[row]
    modules = loaded(code.replace("{root}", repr(str(tmp_path))))
    assert not [m for m in modules if m.startswith(forbidden)]
    assert set(required) <= set(modules)
    assert len(modules) <= max_modules, sorted(modules)
    assert sum(modules.values()) <= max_lines


PACKAGES = ["repro"] + [
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves_to_its_submodules_object(package):
    module = importlib.import_module(package)
    star: dict = {}
    exec(f"from {package} import *", star)
    for name in module.__all__:
        value = getattr(module, name)
        assert star[name] is value
        assert name in dir(module)
        if name != "__version__":
            assert any(
                vars(owner).get(name, star) is value
                for key, owner in list(sys.modules.items())
                if key.startswith(package + ".") and owner is not None
            ), name
    for info in pkgutil.iter_modules(module.__path__):
        if not info.name.startswith("_"):
            attribute = getattr(module, info.name)
            assert attribute is importlib.import_module(f"{package}.{info.name}")
    assert not hasattr(module, "no_such_name")
