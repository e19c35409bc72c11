#!/usr/bin/env python3
"""ctest cli_worker_parity: vermemd prints the same bytes at any worker
count.

For each of the six modes, with and without --certify, all traces/*.txt
examples are submitted in one vermemd run: once at --workers=1, then
--repeat times at --workers=4, where the requests run concurrently. Two
assertions:
1. After masking queue_us, run_us and flight_id (timing and a
   per-process record id), every --workers=4 run prints exactly the
   --workers=1 bytes and exits with the same code.
2. A trace --mode=coherence calls incoherent is never vscc-coherent:
   an execution that is not coherent is not sequentially consistent.

Usage: check_worker_parity.py --vermemd PATH --traces DIR [--repeat N]
Exit 0 on success, 1 with the first difference otherwise.
"""

import argparse
import difflib
import glob
import json
import os
import re
import subprocess
import sys

MODES = ('coherence', 'vscc', 'sc', 'tso', 'pso', 'coherence-only')
MASKED = re.compile(r'"(queue_us|run_us|flight_id)":[0-9.e+-]+')


def run(vermemd, workers, flags, traces):
    """(exit code, masked stdout lines) of one vermemd run."""
    done = subprocess.run([vermemd, f'--workers={workers}', *flags, *traces],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=300)
    return done.returncode, [MASKED.sub(r'"\1":0', line)
                             for line in done.stdout.splitlines()]


def verdicts(lines):
    """trace tag -> verdict of each verdict line."""
    return {line['trace']: line['verdict'] for line in map(json.loads, lines)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--vermemd', required=True)
    parser.add_argument('--traces', required=True)
    parser.add_argument('--repeat', type=int, default=5,
                        help='--workers=4 runs per mode and flag set')
    args = parser.parse_args()
    traces = sorted(glob.glob(os.path.join(args.traces, '*.txt')))
    if not traces:
        print(f'no traces in {args.traces}')
        return 1

    sequential = {}
    for mode in MODES:
        for certify in ((), ('--certify',)):
            flags = (f'--mode={mode}', *certify)
            label = ' '.join(flags)
            expected = run(args.vermemd, 1, flags, traces)
            if len(expected[1]) != len(traces):
                print(f'{label}: --workers=1 printed {len(expected[1])} lines '
                      f'for {len(traces)} traces (exit {expected[0]})')
                return 1
            sequential[flags] = expected[1]
            for attempt in range(args.repeat):
                got = run(args.vermemd, 4, flags, traces)
                if got != expected:
                    print(f'{label}: --workers=4 run {attempt + 1} exits '
                          f'{got[0]}, --workers=1 exits {expected[0]}')
                    print('\n'.join(difflib.unified_diff(
                        expected[1], got[1], 'workers=1', 'workers=4',
                        lineterm='')))
                    return 1

    for certify in ((), ('--certify',)):
        coherence = verdicts(sequential[('--mode=coherence', *certify)])
        vscc = verdicts(sequential[('--mode=vscc', *certify)])
        for trace, verdict in coherence.items():
            if verdict == 'incoherent' and vscc.get(trace) == 'coherent':
                print(f'{trace}{" --certify" if certify else ""}: '
                      f'--mode=coherence says incoherent, --mode=vscc coherent')
                return 1
    print(f'{len(traces)} traces x {len(MODES)} modes x 2: --workers=4 '
          f'matches --workers=1 in {args.repeat} runs each')
    return 0


if __name__ == '__main__':
    sys.exit(main())
