"""Print the time taken to import jsoniqml and compile one program.

Run in a fresh interpreter by perfbench/run.py. The program text comes on
stdin; when it is empty, only the import is timed. Prints two numbers: the
time in reference seconds (see calibration.py), then in seconds as timed.
"""

import sys
from pathlib import Path
from time import perf_counter_ns

import calibration


def main() -> None:
    program = sys.stdin.read()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    before = calibration.calibrate()
    start = perf_counter_ns()
    import jsoniqml

    if program:
        jsoniqml.compile_query(program)
    elapsed = perf_counter_ns() - start
    factor = calibration.scale(before, calibration.calibrate())
    print(elapsed * factor / 1e9, elapsed / 1e9)


if __name__ == "__main__":
    main()
