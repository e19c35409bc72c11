#!/usr/bin/env python3
"""ctest bench_e2e_smoke: a one-second pass of every workload.

Runs `vermem_bench --seconds=1` (all five workloads untraced, then their
traced passes) in the working directory and checks that:
  - it exits 0;
  - every workload of BENCHMARK.json ran;
  - every end_to_end metric of BENCHMARK.json is reported for every
    workload's untraced run, and every per_layer metric for its traced
    run, including vscc_sessions, which vermem_bench runs but
    BENCHMARK.json does not list;
  - no run reports a wrong verdict or a rejected certificate;
  - tools/check_trace.py accepts every span file it wrote.

Usage: smoke.py --bench PATH --benchmark-json PATH --check-trace PATH
"""

import argparse
import json
import subprocess
import sys

RESULTS = 'bench_e2e_smoke.json'


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--bench', required=True)
    parser.add_argument('--benchmark-json', required=True)
    parser.add_argument('--check-trace', required=True)
    args = parser.parse_args()
    with open(args.benchmark_json, encoding='utf-8') as handle:
        benchmark = json.load(handle)

    run = subprocess.run([args.bench, '--seed=1', '--seconds=1',
                          f'--out={RESULTS}'], timeout=600)
    if run.returncode != 0:
        print(f'vermem_bench exited with {run.returncode}')
        return 1
    with open(RESULTS, encoding='utf-8') as handle:
        results = json.load(handle)['results']

    failures = []
    names = {r['workload'] for r in results}
    names |= {workload['name'] for workload in benchmark['workloads']}
    for name in sorted(names):
        for traced, section in ((False, 'end_to_end'), (True, 'per_layer')):
            runs = [r for r in results
                    if r['workload'] == name and r['traced'] == traced]
            if not runs:
                failures.append(f'{name}: no {"traced" if traced else "untraced"} run')
                continue
            for result in runs:
                for metric in benchmark[section]:
                    if metric['name'] not in result['metrics']:
                        failures.append(f'{name}: missing {metric["name"]}')
                if result['wrong_verdicts'] or result['certify_rejected']:
                    failures.append(f'{name}: {result["wrong_verdicts"]} wrong '
                                    f'verdicts, {result["certify_rejected"]} '
                                    'rejected certificates')
        check = subprocess.run([sys.executable, args.check_trace,
                                f'bench_e2e.{name}.trace.json'])
        if check.returncode != 0:
            failures.append(f'{name}: check_trace.py rejected its span file')

    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == '__main__':
    sys.exit(main())
