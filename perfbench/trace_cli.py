"""Run the nlkpp command line with spans recorded around its module functions.

Usage: python3 perfbench/trace_cli.py SPAN_DIR <nlkpp arguments...>

Behaves like ``python -m nlkpp.cli <arguments>`` (same exit status, same
output files) and additionally writes one span file per process into SPAN_DIR.
The import of nlkpp is timed first, before any other module is loaded.
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import nlkpp.cli
    import_s = time.perf_counter() - start

    from spans import Recorder

    recorder = Recorder(sys.argv[1])
    recorder.install()
    recorder.follow_forks()
    code = 1
    try:
        code = nlkpp.cli.main(sys.argv[2:])
    finally:
        recorder.dump(import_s=import_s)
    sys.exit(code)
