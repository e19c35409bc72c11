#!/usr/bin/env python3
"""ctest cli_vermemcert: vermemd's certificates re-validated out of
process by vermemcert.

1. Every traces/*.txt through `vermemd --certify` and through
   `vermemd --certify --mode=vscc`, piped into `vermemcert TRACE`: every
   certificate must re-validate against the raw trace, so vermemcert
   must exit 0 (it fails on any bad certificate and on an empty
   certificate set). vermemd's own exit code is a verdict (1 on an
   incoherent example) and is not checked.
2. Write-order binding. Order-kind evidence only proves "incoherent
   under the embedded write order". With its "wo" lines stripped,
   lint_findings.txt is coherent, so the original's order-read-window
   certificate for a2, retagged to the stripped copy, must FAIL against
   it: vermemcert exits 1 and prints "a2 incoherent): FAIL".

Usage: check_vermemcert.py --vermemd PATH --vermemcert PATH --traces DIR
Exit 0 on success, 1 with the first failed assertion otherwise.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile


def run(command, stdin=''):
    return subprocess.run(command, input=stdin, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def report(message, done):
    print(message)
    print('stdout:', done.stdout)
    print('stderr:', done.stderr)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--vermemd', required=True)
    parser.add_argument('--vermemcert', required=True)
    parser.add_argument('--traces', required=True)
    args = parser.parse_args()
    traces = sorted(glob.glob(os.path.join(args.traces, '*.txt')))
    if not traces:
        print(f'no traces in {args.traces}')
        return 1

    for trace in traces:
        name = os.path.basename(trace)
        for flags in ([], ['--mode=vscc']):
            certs = run([args.vermemd, '--certify', *flags, trace]).stdout
            checked = run([args.vermemcert, trace], certs)
            label = ' '.join(['--certify', *flags, name])
            summary = checked.stdout.strip().splitlines()
            print(f'{label}: {summary[-1] if summary else "(no output)"}')
            if checked.returncode != 0:
                return report(f'FAIL {label}: vermemcert exits '
                              f'{checked.returncode}, expected 0', checked)

    original = os.path.join(args.traces, 'lint_findings.txt')
    with tempfile.TemporaryDirectory() as scratch:
        stripped = os.path.join(scratch, 'stripped.txt')
        with open(original, encoding='utf-8') as source, \
                open(stripped, 'w', encoding='utf-8') as sink:
            sink.writelines(line for line in source
                            if not line.startswith('wo '))
        certs = run([args.vermemd, '--certify', original]).stdout
        certs = certs.replace(f'"trace":{json.dumps(original)}',
                              f'"trace":{json.dumps(stripped)}')
        bound = run([args.vermemcert, stripped], certs)
        print(bound.stdout, end='')
        if bound.returncode != 1:
            return report(f'FAIL write-order binding: vermemcert exits '
                          f'{bound.returncode}, expected 1', bound)
        if 'a2 incoherent): FAIL' not in bound.stdout:
            return report('FAIL write-order binding: no "a2 incoherent): '
                          'FAIL" line', bound)
    print(f'{len(traces)} traces certified in coherence and vscc modes; '
          f'order-kind certificates bind to the trace\'s write-order log')
    return 0


if __name__ == '__main__':
    sys.exit(main())
