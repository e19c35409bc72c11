#!/usr/bin/env python3
"""ctest cli_binary_parity: text/binary verdict parity on traces/.

Every traces/*.txt and its committed .bin counterpart must get the same
verdict line from vermemd (verdict, reason, ops, addresses, effort); only
the trace tag, the fingerprint and the timing fields may differ. The .bin
side runs the streaming ingester's complete mode, so this also catches a
stale .bin that no longer encodes its .txt.

Usage: check_binary_parity.py --vermemd PATH --traces DIR
Exit 0 on success, 1 with the first difference otherwise.
"""

import argparse
import difflib
import glob
import os
import re
import subprocess
import sys

TAGS = re.compile(r'"(trace|fingerprint)":"[^"]*"')
TIMING = re.compile(r'"(queue_us|run_us|flight_id)":[0-9.e+-]+')


def mask(line):
    """Trace tag, fingerprint and timing fields to X."""
    return TIMING.sub(r'"\1":X', TAGS.sub(r'"\1":X', line))


def run(vermemd, trace):
    """vermemd's masked stdout lines; exit 1 (a violation) is a verdict
    too, so the exit code is not checked."""
    done = subprocess.run([vermemd, trace], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    return [mask(line) for line in done.stdout.splitlines()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--vermemd', required=True)
    parser.add_argument('--traces', required=True)
    args = parser.parse_args()
    traces = sorted(glob.glob(os.path.join(args.traces, '*.txt')))
    if not traces:
        print(f'no traces in {args.traces}')
        return 1

    for text in traces:
        binary = text[:-len('.txt')] + '.bin'
        if not os.path.exists(binary):
            print(f'{os.path.basename(text)}: no {os.path.basename(binary)}')
            return 1
        want = run(args.vermemd, text)
        got = run(args.vermemd, binary)
        if want != got:
            print(f'{os.path.basename(binary)}: verdict line differs from '
                  f'{os.path.basename(text)}')
            print('\n'.join(difflib.unified_diff(
                want, got, 'text', 'binary', lineterm='')))
            return 1
    print(f'text and binary agree on {len(traces)} traces')
    return 0


if __name__ == '__main__':
    sys.exit(main())
