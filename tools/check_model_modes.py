#!/usr/bin/env python3
"""ctest cli_model_modes: every traces/*.txt example under the four
operational models, end to end through vermemd.

For each trace, `vermemd --mode=M TRACE` runs for M = sc, tso, pso,
coherence-only in that order (each model weaker than the one before).
Two assertions per trace:
1. No verdict is unknown: each line says "coherent" or "incoherent".
2. Acceptance is monotone (SC => TSO => PSO => coherence-only): once a
   model accepts the trace, every weaker one accepts it too.

vermemd's exit code is a verdict (1 on an incoherent trace), so it is
not checked; a run that prints no verdict line fails assertion 1.

Usage: check_model_modes.py --vermemd PATH --traces DIR
Exit 0 on success, 1 with the first failed assertion otherwise.
"""

import argparse
import glob
import json
import os
import subprocess
import sys

MODELS = ('sc', 'tso', 'pso', 'coherence-only')


def verdict(vermemd, mode, trace):
    """The verdict of `vermemd --mode=MODE TRACE`, or None if it printed
    no verdict line."""
    done = subprocess.run([vermemd, f'--mode={mode}', trace],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=300)
    lines = done.stdout.splitlines()
    print(f'{mode} {lines[0] if lines else ""}')
    if len(lines) != 1:
        return None
    return json.loads(lines[0]).get('verdict')


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--vermemd', required=True)
    parser.add_argument('--traces', required=True)
    args = parser.parse_args()
    traces = sorted(glob.glob(os.path.join(args.traces, '*.txt')))
    if not traces:
        print(f'no traces in {args.traces}')
        return 1

    for trace in traces:
        name = os.path.basename(trace)
        accepted_by = None
        for mode in MODELS:
            got = verdict(args.vermemd, mode, trace)
            if got not in ('coherent', 'incoherent'):
                print(f'FAIL {name} --mode={mode}: verdict {got!r}, expected '
                      f'coherent or incoherent')
                return 1
            if accepted_by and got != 'coherent':
                print(f'FAIL {name}: --mode={accepted_by} accepts it but the '
                      f'weaker --mode={mode} does not')
                return 1
            if got == 'coherent' and accepted_by is None:
                accepted_by = mode
    print(f'{len(traces)} traces decided and monotone under {", ".join(MODELS)}')
    return 0


if __name__ == '__main__':
    sys.exit(main())
