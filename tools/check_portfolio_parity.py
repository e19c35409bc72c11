#!/usr/bin/env python3
"""ctest cli_portfolio_parity: --solver=portfolio against --solver=auto on
every traces/*.txt example.

The staged portfolio runs the frontier search (vmc::check_exact) alone
first and races engines only past its state budget, which no example
reaches. So in both modes, with and without certificates,
--solver=portfolio must print --solver=auto's verdict lines once the
timing fields are masked and the "portfolio" object is dropped, and
every "portfolio" object must report "wasted_states":0 (nothing raced).

Usage: check_portfolio_parity.py --vermemd PATH --traces DIR
Exit 0 on success, 1 with the first difference otherwise.
"""

import argparse
import difflib
import glob
import os
import re
import subprocess
import sys

TIMING = re.compile(r'"(queue_us|run_us|flight_id)":[0-9.e+-]+')
PORTFOLIO = re.compile(r',"portfolio":\{"races":[0-9]+,"wins":\{[^}]*\},'
                       r'"wasted_states":[0-9]+,"wasted_transitions":[0-9]+\}')
WASTED = re.compile(r'"portfolio":\{"races":[0-9]+,"wins":\{[^}]*\},'
                    r'"wasted_states":([0-9]+)')


def mask(line):
    """The CI mask: timing fields to X, then the first portfolio object
    of the line dropped."""
    return PORTFOLIO.sub('', TIMING.sub(r'"\1":X', line), count=1)


def run(vermemd, *args):
    """vermemd's stdout lines; exit 1 (a violation) is a verdict too."""
    done = subprocess.run([vermemd, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    return done.stdout.splitlines()


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
        for mode in ('coherence', 'vscc'):
            for certify in ((), ('--certify',)):
                flags = (f'--mode={mode}', *certify)
                auto = [mask(line) for line in
                        run(args.vermemd, *flags, '--solver=auto', trace)]
                raw = run(args.vermemd, *flags, '--solver=portfolio', trace)
                portfolio = [mask(line) for line in raw]
                label = f'{os.path.basename(trace)} {" ".join(flags)}'
                if auto != portfolio:
                    print(f'{label}: portfolio differs from auto')
                    print('\n'.join(difflib.unified_diff(
                        auto, portfolio, 'auto', 'portfolio', lineterm='')))
                    return 1
                wasted = [int(n) for line in raw for n in WASTED.findall(line)]
                if any(wasted):
                    print(f'{label}: the portfolio raced (wasted_states '
                          f'{wasted})')
                    return 1
    print(f'portfolio agrees with auto on {len(traces)} traces')
    return 0


if __name__ == '__main__':
    sys.exit(main())
