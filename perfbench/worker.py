"""Run one step of the benchmark in a fresh interpreter.

Usage: python3 perfbench/worker.py REQUEST RESULT

REQUEST holds a pickled ``(name, args)``; the worker calls
``workloads.<name>(*args)`` and writes the pickled return value to RESULT.
Both files are written by ``run.py`` in its own work directory.
"""

import pickle
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]


def main() -> None:
    request, result = sys.argv[1:]
    import workloads

    name, args = pickle.loads(Path(request).read_bytes())
    Path(result).write_bytes(pickle.dumps(getattr(workloads, name)(*args)))


if __name__ == "__main__":
    main()
