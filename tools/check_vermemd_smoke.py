#!/usr/bin/env python3
"""ctest cli_vermemd_smoke: vermemd end to end on the example traces.

1. coherent_basic.txt and faulty_stale_read.txt on stdin, split by a
   "---" line, with --stats: the exit code must be 1 (incoherent
   dominates; a 3 would mean an unexpected unknown/timeout) and both a
   coherent and an incoherent verdict must be printed.
2. --analyze on coherent_basic.txt must exit 0 and print an "analysis"
   object.
3. Parse errors name the line of the input, not of the execution or
   write-order text split out of it: a bad token below a "wo" line, and
   a bad write-order reference below execution lines, each exit 2 with
   "at line N" for the input line N, from a file and from a stdin trace.

Usage: check_vermemd_smoke.py --vermemd PATH --traces DIR
Exit 0 on success, 1 with the first failed assertion otherwise.
"""

import argparse
import os
import subprocess
import sys
import tempfile

# (trace text, expected stderr fragment): the bad line is line 4.
PARSE_ERRORS = (
    ('wo 1 0:0 0:1\ninit 0 0\nP: W(1,1)\nP: W(1,2) banana\n',
     'parse error at line 4: malformed operation: banana'),
    ('init 0 0\nP: W(0,1) W(0,2)\nwo 0 0:0 0:1\nwo 1 frog\n',
     'write-order parse error at line 4: bad op reference: frog'),
)


def run(vermemd, args, stdin=b''):
    return subprocess.run([vermemd, *args], input=stdin,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=300)


def check(condition, message, done=None):
    if condition:
        return True
    print(message)
    if done is not None:
        print('stdout:', done.stdout.decode(errors='replace'))
        print('stderr:', done.stderr.decode(errors='replace'))
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--vermemd', required=True)
    parser.add_argument('--traces', required=True)
    args = parser.parse_args()

    def read(name):
        with open(os.path.join(args.traces, name), 'rb') as handle:
            return handle.read()

    stream = read('coherent_basic.txt') + b'---\n' + read('faulty_stale_read.txt')
    done = run(args.vermemd, ['--stats'], stream)
    if not (check(done.returncode == 1,
                  f'--stats on the two-trace stream: exit {done.returncode}, '
                  'want 1', done)
            and check(b'"verdict":"coherent"' in done.stdout,
                      'no coherent verdict on the two-trace stream', done)
            and check(b'"verdict":"incoherent"' in done.stdout,
                      'no incoherent verdict on the two-trace stream', done)):
        return 1

    done = run(args.vermemd,
               ['--analyze', os.path.join(args.traces, 'coherent_basic.txt')])
    if not (check(done.returncode == 0,
                  f'--analyze: exit {done.returncode}, want 0', done)
            and check(b'"analysis":{' in done.stdout,
                      '--analyze printed no analysis object', done)):
        return 1

    with tempfile.TemporaryDirectory() as scratch:
        for index, (text, want) in enumerate(PARSE_ERRORS):
            path = os.path.join(scratch, f'bad{index}.txt')
            with open(path, 'w', encoding='utf-8') as handle:
                handle.write(text)
            for label, done, prefix in (
                    ('file', run(args.vermemd, [path]), path),
                    ('stdin', run(args.vermemd, [],
                                  b'P: W(0,1)\n---\n' + text.encode()),
                     'stdin[1]')):
                expected = f'{prefix}: {want}'.encode()
                if not (check(done.returncode == 2,
                              f'{label} parse error case {index}: exit '
                              f'{done.returncode}, want 2', done)
                        and check(expected in done.stderr,
                                  f'{label} parse error case {index}: want '
                                  f'"{expected.decode()}" on stderr', done)):
                    return 1
    print('vermemd smoke passed')
    return 0


if __name__ == '__main__':
    sys.exit(main())
