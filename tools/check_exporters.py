#!/usr/bin/env python3
"""ctest cli_observability_exporters: vermemd's four exporters on every
traces/*.txt example.

Runs every example through `vermemd --analyze` with the metrics, trace,
log and flight exporters on, then hard-checks each file with the sibling
check_*.py scripts: the Prometheus schema (with the required families,
SLO families and exemplars), Chrome trace-event validity (monotonic ts
per thread, all spans closed, parent links resolvable), the JSONL log
schema, and the flight-recorder dump (every record self-contained).
--flight-slow-us=1 makes every request trip the slow-capture policy, so
the dump must retain one record per trace. Each trace is then also
traced on its own. See docs/OBSERVABILITY.md.

Usage: check_exporters.py --vermemd PATH --vermemlint PATH --traces DIR
Exit 0 on success, 1 with the failing step's output otherwise.
"""

import argparse
import glob
import os
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))

REQUIRED_METRICS = (
    'vermem_traces_parsed_total', 'vermem_fragments_total',
    'vermem_poly_routed_total', 'vermem_portfolio_races_total',
    'vermem_service_submitted_total', 'vermem_service_latency_nanos',
    'vermem_service_kind_latency_nanos', 'vermem_slo_error_budget_remaining',
    'vermem_service_flight_retained', 'vermem_obs_dropped_total')


def run(command, ok_codes=(0,), env=None):
    """Runs one step; returns its failure message, or None. ok_codes=None
    accepts any exit code."""
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, env=env,
                          timeout=300)
    if ok_codes is None or done.returncode in ok_codes:
        return None
    return (f'{" ".join(command)} exited with {done.returncode}\n'
            f'{done.stdout}')


def check(script, *args):
    return run([sys.executable, os.path.join(TOOLS, script), *args])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--vermemd', required=True)
    parser.add_argument('--vermemlint', required=True)
    parser.add_argument('--traces', required=True)
    args = parser.parse_args()
    traces = sorted(glob.glob(os.path.join(args.traces, '*.txt')))
    if not traces:
        print(f'no traces in {args.traces}')
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        out = {name: os.path.join(tmp, name) for name in
               ('metrics.prom', 'trace.json', 'log.jsonl', 'flight.json',
                't.json')}
        env = dict(os.environ, VERMEM_LOG='debug')
        # vermemd exits 1 when a trace is incoherent; that is a verdict.
        steps = [
            lambda: run([args.vermemd, '--version']),
            lambda: run([args.vermemlint, '--version']),
            lambda: run([args.vermemd, '--analyze',
                         f'--metrics-out={out["metrics.prom"]}',
                         f'--trace-out={out["trace.json"]}',
                         f'--log-out={out["log.jsonl"]}',
                         f'--flight-out={out["flight.json"]}',
                         '--flight-slow-us=1', *traces], (0, 1), env),
            lambda: check('check_metrics.py', out['metrics.prom'],
                          '--require', *REQUIRED_METRICS),
            lambda: check('check_trace.py', out['trace.json'],
                          '--min-events', '10'),
            lambda: check('check_log.py', '--min-lines', '2',
                          '--log', out['log.jsonl']),
            lambda: check('check_log.py', '--min-records', str(len(traces)),
                          '--flight', out['flight.json']),
        ]
        for trace in traces:
            # Only the trace file is checked here, not the verdict.
            steps.append(lambda trace=trace: run(
                [args.vermemd, f'--trace-out={out["t.json"]}', trace], None))
            steps.append(lambda: check('check_trace.py', out['t.json'],
                                       '--min-events', '3'))
        for step in steps:
            failure = step()
            if failure:
                print(failure)
                return 1
    print(f'exporters OK on {len(traces)} traces')
    return 0


if __name__ == '__main__':
    sys.exit(main())
