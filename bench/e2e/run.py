#!/usr/bin/env python3
"""Benchmark entry point: one run of one workload, result as a JSON line.

Usage, from the root of a checkout:
  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds bench/e2e (a standalone CMake project over the checkout's own
sources) into $CARGO_TARGET_DIR/vermem_bench_e2e, or
.bench_build/vermem_bench_e2e when the variable is unset, then runs
vermem_bench for the workload there. Its metric lines pass through to
stdout, and the last stdout line is

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1, the traced pass). "correct" is false when a
verdict contradicts the generator's known answer or a certificate is
rejected. A failed build or run, or a missing metric, exits non-zero
without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170
WRONG_OUTPUT_EXIT = 1  # vermem_bench: wrong verdict or rejected certificate


def build(build_dir: str) -> None:
    if not os.path.exists(os.path.join(build_dir, 'CMakeCache.txt')):
        subprocess.run(['cmake', '-S', HERE, '-B', build_dir,
                        '-DCMAKE_BUILD_TYPE=RelWithDebInfo'],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(['cmake', '--build', build_dir, '--target', 'vermem_bench',
                    '-j', jobs], stdout=sys.stderr, check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, 'BENCHMARK.json'), encoding='utf-8') as handle:
        benchmark = json.load(handle)
    wanted = benchmark['per_layer' if args.trace else 'end_to_end']

    target = os.environ.get('CARGO_TARGET_DIR', '.bench_build')
    build_dir = os.path.abspath(os.path.join(target, 'vermem_bench_e2e'))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f'build failed: {err}', file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, 'vermem_bench'),
               f'--workload={args.workload}', f'--seed={args.seed}',
               f'--seconds={args.seconds:g}']
    if args.trace:
        command.append('--traced')
    try:
        run = subprocess.run(command, cwd=build_dir, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f'run failed: {err}', file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode not in (0, WRONG_OUTPUT_EXIT) or not lines:
        print(f'vermem_bench exited with {run.returncode}', file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics = {}
    for metric in wanted:
        name = metric['name']
        if name not in result['metrics']:
            print(f'vermem_bench did not report {name}', file=sys.stderr)
            return 1
        metrics[name] = result['metrics'][name]
    if not result['valid']:
        print('warning: a benchmark validity check failed (see stderr above)',
              file=sys.stderr)
    for line in lines[:-1]:
        print(line)
    print(json.dumps({
        'correct': run.returncode == 0,
        'attempted': result['attempted'],
        'failed': result['failed'],
        'metrics': metrics,
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main())
