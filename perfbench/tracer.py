"""Run one cfmimo CLI command with every layer-boundary call timed.

    python3 perfbench/tracer.py SPANS_OUT -- compare --config cfg.txt --algorithms a,b

The tracer replaces each public function of the modules topology, mobility,
channel, selection, evaluation, harness and cli with a timing wrapper, under
every module attribute a caller looks it up by (``cfmimo.channel.snapshot``
and the ``estimate_variance_matrix`` that ``cfmimo.evaluation`` imported by
name are the same wrapper). A few methods and the CLI command functions are
wrapped the same way. Nothing under ``src/`` changes.

A span is ``(name, start, end, parent, algorithm, block, attrs)``: times are
``perf_counter`` seconds, ``parent`` is the index of the enclosing span or
-1, ``algorithm`` the one ``run_experiment`` is running, and ``block`` the
index of its current block (each ``channel.snapshot`` under
``run_experiment`` opens the next block). Spans stay in memory and are
written to SPANS_OUT as JSON when the command ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("topology", "mobility", "channel", "selection", "evaluation", "harness", "cli")
METHODS = {
    "channel": ("LogDistanceProvider.__init__", "LogDistanceProvider.pathloss_db", "PathLossMap.pathloss_db"),
    "selection": ("ApSelectionEnv.step",),
    "evaluation": ("PrecodingContext.from_matrix",),
    "cli": ("_cmd_compare", "_cmd_export_cdf"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._algorithm = None
        self._block = -1

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "harness.run_experiment":
                cfg = args[0] if args else kwargs["cfg"]
                algo = kwargs.get("algorithm") or (args[1] if len(args) > 1 else None)
                self._algorithm, self._block = algo or cfg.algorithm, -1
            elif name == "channel.snapshot" and self._algorithm is not None:
                self._block += 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            algorithm, block = self._algorithm, self._block
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = [name, start, end, parent, algorithm, block, None]
                if name == "harness.run_experiment":
                    self._algorithm, self._block = None, -1
            if name == "selection.run_algorithm":
                spans[sid][6] = _serving_shape(result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        modules = {layer: importlib.import_module(f"cfmimo.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("cfmimo")]
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(ns, attr, wrappers[id(obj)][1])
        for layer, names in METHODS.items():
            mod = modules[layer]
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                raw = inspect.getattr_static(owner, attr)
                label = f"{layer}.{dotted.lstrip('_').replace('.__init__', '')}"
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(label, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(label, raw))

    def dump(self, path: str) -> None:
        """Write every span; one still open (the command was interrupted) is
        null, so that parent indices stay valid."""
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f, separators=(",", ":"))


def _serving_shape(coop) -> dict:
    """Serving-set size G_k and co-served set size |S_k| per UE of one D."""
    import numpy as np

    d = np.asarray(coop.d, dtype=np.int64)
    share = (d.T @ d) > 0
    np.fill_diagonal(share, True)
    return {"g": d.sum(axis=0).tolist(), "s": share.sum(axis=1).tolist()}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS_OUT -- <cfmimo command and options>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from cfmimo import cli

    try:
        return cli.main(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
