"""Set-up time of one fresh interpreter: `import termalg` plus
`load_algebra` of the given algebra files. Prints one JSON object.

    python3 perfbench/setup_probe.py [--lane python] FILE...

`--lane python` blocks the compiled kernels so that termalg falls back to
its pure-Python lane; run.py uses the same switch for its own process.
"""

import importlib.abc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class _BlockCompiled(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "termalg._kernels":
            raise ImportError("compiled kernels blocked by the benchmark")
        return None


def block_compiled_lane():
    sys.meta_path.insert(0, _BlockCompiled())


def main(argv):
    if argv[:2] == ["--lane", "python"]:
        block_compiled_lane()
        argv = argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import termalg

    for path in argv:
        termalg.load_algebra(path)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "backend": termalg.BACKEND, "module": termalg.__file__}))


if __name__ == "__main__":
    main(sys.argv[1:])
