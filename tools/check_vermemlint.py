#!/usr/bin/env python3
"""ctest cli_vermemlint: the linter's exit code on the example traces.

vermemlint exits 1 iff a warning-severity rule fired.
1. `vermemlint --text lint_findings.txt` (the all-rules example) must
   exit 1.
2. `vermemlint lint_clean.txt` must exit 0.

Usage: check_vermemlint.py --vermemlint PATH --traces DIR
Exit 0 on success, 1 with the first failed assertion otherwise.
"""

import argparse
import os
import subprocess
import sys

# (arguments before the trace, trace file, expected exit code)
CASES = (
    (['--text'], 'lint_findings.txt', 1),
    ([], 'lint_clean.txt', 0),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--vermemlint', required=True)
    parser.add_argument('--traces', required=True)
    args = parser.parse_args()

    for flags, name, expected in CASES:
        command = [args.vermemlint, *flags, os.path.join(args.traces, name)]
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=300)
        print(f'{" ".join(flags + [name])}: exit {done.returncode}')
        if done.returncode != expected:
            print(f'FAIL {name}: vermemlint exits {done.returncode}, '
                  f'expected {expected}')
            print('stdout:', done.stdout)
            print('stderr:', done.stderr)
            return 1
    print(f'{len(CASES)} vermemlint exit codes as expected')
    return 0


if __name__ == '__main__':
    sys.exit(main())
