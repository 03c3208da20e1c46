"""Run one qhewalk report in a fresh interpreter and time its phases.

usage: python3 perfbench/child.py META_PATH TRACED ARGV...

Times ``import qhewalk.cli``, then calls ``qhewalk.cli.main(ARGV)``; the
report goes to stdout untouched. With TRACED=1 the public functions of every
qhewalk layer are wrapped after the import, so each call becomes a span
(name, start, end, parent span, attributes) kept in memory. The import time,
the exit code and the spans are written as JSON to META_PATH when the report
ends.
"""
import sys
import time

# this directory is sys.path[0]; drop it so its module names cannot shadow
# anything the program imports
sys.path.pop(0)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _bits(plaintext):
    return [int(b) for b in plaintext]


def _permanent(args, kwargs, result):
    return {"n": len(_arg(args, kwargs, 0, "matrix"))}


def _law(kind):
    def describe(args, kwargs, result):
        import numpy as np
        U = np.ascontiguousarray(_arg(args, kwargs, 0, "U"), dtype=complex)
        return {"kind": kind, "device": hash(U.tobytes()),
                "source": [int(c) for c in _arg(args, kwargs, 1, "input_occupation")],
                "outcomes": len(result)}
    return describe


def _walk_call(args, kwargs, result):
    # walkers ride the plaintext's 0 bits; a law of any other source is discarded
    return {"walkers": [1 - b for b in _bits(_arg(args, kwargs, 1, "plaintext"))]}


def _rotations(args, kwargs, result):
    return {"keys": result.size // 4}


def _density(args, kwargs, result):
    ensemble = _arg(args, kwargs, 1, "ensemble")
    x = "".join(str(b) for b in _bits(_arg(args, kwargs, 0, "x")))
    return {"pair": f"{x} {ensemble.label}", "keys": int(ensemble.size), "bytes": int(result.nbytes)}


def _attack(args, kwargs, result):
    return {"trials": int(_arg(args, kwargs, 3, "trials"))}


def _lm(args, kwargs, result):
    return {"nfev": int(result.nfev)}


# (defining module, attribute, span name, attributes from (args, kwargs, result))
TARGETS = (
    ("qhewalk.cli", "load_device", "cli.load_device", None),
    ("qhewalk.numerics", "permanent", "numerics.permanent", _permanent),
    ("qhewalk.numerics", "hermitian_eig", "numerics.hermitian_eig", None),
    ("qhewalk.numerics", "unitarize", "numerics.unitarize", None),
    ("qhewalk.polarization", "rotation_matrices", "polarization.rotation_matrices", _rotations),
    ("qhewalk.walk", "output_distribution", "walk.exact_law", _law("quantum")),
    ("qhewalk.walk", "classical_output_distribution", "walk.exact_law", _law("classical")),
    ("qhewalk.walk", "run_protocol", "walk.run_protocol", _walk_call),
    ("qhewalk.walk", "protocol_distribution", "walk.protocol_distribution", _walk_call),
    ("qhewalk.security", "encrypted_density", "security.encrypted_density", _density),
    ("qhewalk.security", "von_neumann_entropy", "security.entropy_trace", None),
    ("qhewalk.security", "trace_distance", "security.entropy_trace", None),
    ("qhewalk.security", "simulate_attack", "security.simulate_attack", _attack),
    ("qhewalk.reconstruct", "synthesize_measurements", "reconstruct.synthesize_measurements", None),
    ("qhewalk.reconstruct", "reconstruct_unitary", "reconstruct.reconstruct_unitary", None),
    ("scipy.optimize", "least_squares", "reconstruct.lm_solve", _lm),
)


class Tracer:
    """Spans of one report, in memory: [name, start, end, parent index, attributes]."""

    def __init__(self):
        import threading
        self.spans = []
        self.missing = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, describe, args, kwargs):
        stack = self._stack()
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
        if describe is not None:
            record[4] = describe(args, kwargs, result)
        return result

    def wrap(self, name, fn, describe):
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, describe, args, kwargs)
        return wrapper

    def patch(self, module, attribute, name, describe):
        """Wrap module.attribute and rebind it in every qhewalk namespace that bound it."""
        original = getattr(module, attribute, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attribute}")
            return
        wrapper = self.wrap(name, original, describe)
        setattr(module, attribute, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qhewalk" or mod_name.startswith("qhewalk.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def install(self):
        pending = {}
        for module_name, attribute, name, describe in TARGETS:
            if module_name in sys.modules:
                self.patch(sys.modules[module_name], attribute, name, describe)
            else:
                pending.setdefault(module_name, []).append((attribute, name, describe))
        # modules the program imports lazily are patched once they load
        for module_name, targets in pending.items():
            sys.meta_path.insert(0, _PatchOnImport(self, module_name, targets))


class _PatchOnImport:
    """Meta-path finder that patches one module right after its first import."""

    def __init__(self, tracer, module_name, targets):
        self.tracer = tracer
        self.module_name = module_name
        self.targets = targets

    def find_spec(self, fullname, path, target=None):
        if fullname != self.module_name:
            return None
        import importlib.util
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            for target in self.targets:
                self.tracer.patch(module, *target)
        spec.loader.exec_module = exec_and_patch
        return spec


def main():
    meta_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = time.perf_counter()
    import qhewalk.cli
    import_s = time.perf_counter() - t0

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        rc = qhewalk.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code if isinstance(exc.code, int) else 2
    end = time.perf_counter()
    sys.stdout.flush()

    import json
    meta = {"import_s": import_s, "rc": rc}
    if tracer is not None:
        meta["spans"] = [["cli.main", start, end, -1, None]] + [
            [s[0], s[1], s[2], s[3] + 1, s[4]] for s in tracer.spans]
        meta["missing"] = tracer.missing
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
