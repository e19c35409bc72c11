#!/usr/bin/env python3
"""ctest bench_e2e_serializer_parity: vermem_bench's verdict lines match
vermemd's.

Runs vermemd and `vermem_bench --serialize` on the same traces/*.txt
files and checks that each trace's verdict line has the same fields with
the same values, apart from the timing- and run-specific queue_us,
run_us, and flight_id. This keeps the bench's copy of vermemd's
print_response from drifting.

Usage: parity.py --bench PATH --vermemd PATH --traces DIR
"""

import argparse
import glob
import json
import os
import subprocess
import sys

IGNORED = ('queue_us', 'run_us', 'flight_id')


def verdict_lines(command):
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=120)
    # vermemd exits 1 when a trace is incoherent; that is a verdict, not a
    # failure.
    if run.returncode not in (0, 1):
        raise RuntimeError(f'{command[0]} exited with {run.returncode}')
    lines = [json.loads(line) for line in run.stdout.splitlines() if line]
    for line in lines:
        for key in IGNORED:
            line.pop(key, None)
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--bench', required=True)
    parser.add_argument('--vermemd', required=True)
    parser.add_argument('--traces', required=True)
    args = parser.parse_args()
    traces = sorted(glob.glob(os.path.join(args.traces, '*.txt')))
    if not traces:
        print(f'no traces in {args.traces}')
        return 1
    daemon = verdict_lines([args.vermemd] + traces)
    bench = verdict_lines([args.bench, '--serialize'] + traces)
    if len(daemon) != len(bench):
        print(f'vermemd printed {len(daemon)} lines, vermem_bench {len(bench)}')
        return 1
    mismatches = 0
    for expected, actual in zip(daemon, bench):
        if expected != actual:
            mismatches += 1
            print(f'{expected.get("trace")}:\n  vermemd      {json.dumps(expected)}'
                  f'\n  vermem_bench {json.dumps(actual)}')
    print(f'{len(daemon)} verdict lines compared, {mismatches} differ')
    return 1 if mismatches else 0


if __name__ == '__main__':
    sys.exit(main())
