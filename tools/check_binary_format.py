#!/usr/bin/env python3
"""ctest cli_binary_format: text <-> VMTB round trips and binary inputs.

1. For every traces/*.txt: canonical text (vermemconv --to-text) must be
   byte-identical after text -> VMTB -> text (the committed .txt carry
   comments, so both sides go through the canonical serializer first);
   the fresh VMTB encode must equal the committed .bin (regenerate with
   vermemconv if this fails); and the .bin header must pass
   check_trace.py --binary. Every command must exit 0.
2. vermemd must auto-detect binary inputs on argv with the text path's
   verdicts and exit code (1: one trace is incoherent), and on stdin
   (exit 0 for a coherent trace).

Usage: check_binary_format.py --vermemd PATH --vermemconv PATH --traces DIR
Exit 0 on success, 1 with the first failed assertion otherwise.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys
import tempfile

CHECK_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           'check_trace.py')


def run(command, stdin=b''):
    return subprocess.run(command, input=stdin, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=300)


def ran(command, done):
    """True when the command exited 0; prints it and its output if not."""
    if done.returncode == 0:
        return True
    print(f'{" ".join(command)}: exit {done.returncode}')
    print(done.stdout.decode(errors='replace'))
    print(done.stderr.decode(errors='replace'))
    return False


def round_trips(conv, traces, scratch):
    """Step 1 for every trace; False after printing the first failure."""
    rt_bin = os.path.join(scratch, 'rt.bin')
    for text in traces:
        binary = text[:-len('.txt')] + '.bin'
        name = os.path.basename(text)
        outputs = []
        for command in ([conv, '--to-text', text], [conv, '--to-binary', text],
                        [conv, '--to-text', rt_bin]):
            done = run(command)
            if not ran(command, done):
                return False
            outputs.append(done.stdout)
            if command[1] == '--to-binary':
                with open(rt_bin, 'wb') as handle:
                    handle.write(done.stdout)
        canon, encoded, round_tripped = outputs
        if round_tripped != canon:
            print(f'{name}: text -> VMTB -> text differs from the canonical text')
            return False
        with open(binary, 'rb') as handle:
            if handle.read() != encoded:
                print(f'{os.path.basename(binary)}: differs from a fresh encode '
                      f'of {name} (regenerate it with vermemconv)')
                return False
        command = [sys.executable, CHECK_TRACE, binary, '--binary']
        if not ran(command, run(command)):
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--vermemd', required=True)
    parser.add_argument('--vermemconv', required=True)
    parser.add_argument('--traces', required=True)
    args = parser.parse_args()
    traces = sorted(glob.glob(os.path.join(args.traces, '*.txt')))
    if not traces:
        print(f'no traces in {args.traces}')
        return 1

    conv = args.vermemconv
    scratch = tempfile.mkdtemp()
    try:
        if not round_trips(conv, traces, scratch):
            return 1
    finally:
        shutil.rmtree(scratch)

    pair = [os.path.join(args.traces, 'coherent_basic.bin'),
            os.path.join(args.traces, 'faulty_stale_read.bin')]
    done = run([args.vermemd, *pair])
    if done.returncode != 1:
        print(f'vermemd on two .bin traces: exit {done.returncode}, want 1')
        print(done.stdout.decode(errors='replace'))
        return 1
    for verdict in (b'"verdict":"coherent"', b'"verdict":"incoherent"'):
        if verdict not in done.stdout:
            print(f'vermemd on two .bin traces: no {verdict.decode()}')
            print(done.stdout.decode(errors='replace'))
            return 1
    with open(pair[0], 'rb') as handle:
        done = run([args.vermemd], handle.read())
    if done.returncode != 0:
        print(f'vermemd < coherent_basic.bin: exit {done.returncode}, want 0')
        print(done.stderr.decode(errors='replace'))
        return 1
    print(f'text and VMTB round-trip on {len(traces)} traces')
    return 0


if __name__ == '__main__':
    sys.exit(main())
