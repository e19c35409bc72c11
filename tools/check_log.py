#!/usr/bin/env python3
"""Schema check for vermemd's structured diagnostics outputs.

Validates (normative field tables in docs/OBSERVABILITY.md):
  --log FILE     JSONL log from --log-out: one JSON object per line with
                 ts_ns/level/site/tid/msg/suppressed/fields, levels in
                 {warn,info,debug}, fields an object of numbers/strings
  --flight FILE  flight-recorder dump from --flight-out: policy object,
                 retained_total, records[] with identity/trigger/effort/
                 bounded events[] and spans[]; every span's parent must
                 resolve within its own record (0 = root), so each
                 retained span tree is self-contained
  --crash FILE   black-box crash dump (FILE.crash from the signal
                 handler): crash:true, the signal number, ring events,
                 and a counters object

Options: --min-records N (flight: require at least N retained records),
--min-lines N (log: require at least N events).
Exit 0 on success, 1 with a diagnostic on the first violation.
"""

import json
import sys

LOG_LEVELS = {'warn', 'info', 'debug'}
EVENT_KINDS = {
    'request_begin', 'request_end', 'tier_enter', 'tier_verdict',
    'cancelled', 'deadline', 'solver_restart', 'arena_high_water',
}
FLIGHT_TRIGGERS = {'slow', 'unknown', 'incoherent', 'cancelled', 'deadline'}
POLICY_KEYS = {'latency_threshold_nanos'}
EFFORT_KEYS = {'states', 'transitions', 'max_frontier', 'prunes',
               'oracle_prunes', 'arena_reserved', 'arena_high_water',
               'arena_allocations', 'saturate_ran', 'saturate_decided',
               'saturate_edges', 'portfolio_races',
               'portfolio_wasted_states', 'portfolio_wasted_transitions'}


def fail(where, message):
    print(f'{where}: {message}')
    return 1


def expect(obj, key, kinds, where):
    """Returns an error string, or None when obj[key] is one of kinds."""
    if key not in obj:
        return f'missing field {key!r}'
    if not isinstance(obj[key], kinds):
        return f'field {key!r} has type {type(obj[key]).__name__}'
    if kinds is int and isinstance(obj[key], bool):
        return f'field {key!r} is a bool, expected an integer'
    return None


def check_counter(obj, key, where):
    err = expect(obj, key, int, where)
    if err is None and obj[key] < 0:
        err = f'field {key!r} is negative'
    return err


def check_log(path, min_lines):
    count = 0
    with open(path, encoding='utf-8') as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line:
                continue
            where = f'{path}:{lineno}'
            try:
                event = json.loads(line)
            except json.JSONDecodeError as err:
                return fail(where, f'not valid JSON: {err}')
            if not isinstance(event, dict):
                return fail(where, 'log line is not a JSON object')
            for key, kinds in (('ts_ns', int), ('level', str), ('site', str),
                               ('tid', int), ('msg', str),
                               ('suppressed', int), ('fields', dict)):
                err = expect(event, key, kinds, where)
                if err:
                    return fail(where, err)
            if event['level'] not in LOG_LEVELS:
                return fail(where, f'unknown level {event["level"]!r}')
            if event['suppressed'] < 0:
                return fail(where, 'negative suppressed count')
            for key, value in event['fields'].items():
                if not isinstance(key, str):
                    return fail(where, 'non-string field key')
                if isinstance(value, bool) or \
                        not isinstance(value, (int, float, str)):
                    return fail(
                        where, f'field {key!r} is not a number or string')
            count += 1
    if count < min_lines:
        return fail(path, f'{count} log events, expected at least {min_lines}')
    print(f'{path}: OK ({count} log events)')
    return 0


def check_event(event, where):
    for key, kinds in (('ts_ns', int), ('request_id', int), ('kind', str),
                       ('detail', str), ('a', int), ('b', int)):
        err = expect(event, key, kinds, where)
        if err:
            return err
    if event['kind'] not in EVENT_KINDS:
        return f'unknown event kind {event["kind"]!r}'
    return None


def check_flight(path, min_records):
    with open(path, encoding='utf-8') as handle:
        try:
            dump = json.load(handle)
        except json.JSONDecodeError as err:
            return fail(path, f'not valid JSON: {err}')
    if not isinstance(dump, dict):
        return fail(path, 'flight dump is not a JSON object')
    policy = dump.get('policy')
    if not isinstance(policy, dict) or set(policy) != POLICY_KEYS:
        return fail(path, f'policy object malformed: {policy!r}')
    err = check_counter(dump, 'retained_total', path)
    if err:
        return fail(path, err)
    records = dump.get('records')
    if not isinstance(records, list):
        return fail(path, 'records is not a list')
    for index, record in enumerate(records):
        where = f'{path}: records[{index}]'
        if not isinstance(record, dict):
            return fail(where, 'record is not a JSON object')
        for key, kinds in (('id', int), ('tag', str), ('kind', str),
                           ('trigger', str), ('verdict', str),
                           ('start_ns', int), ('latency_nanos', int),
                           ('timed_out', bool), ('cancelled', bool),
                           ('effort', dict),
                           ('events', list), ('spans', list)):
            err = expect(record, key, kinds, where)
            if err:
                return fail(where, err)
        if record['id'] <= 0:
            return fail(where, 'record id must be positive')
        if record['trigger'] not in FLIGHT_TRIGGERS:
            return fail(where, f'unknown trigger {record["trigger"]!r}')
        if set(record['effort']) != EFFORT_KEYS:
            return fail(where, f'effort keys malformed: {record["effort"]!r}')
        for key in ('dropped_events', 'dropped_spans'):
            err = check_counter(record, key, where)
            if err:
                return fail(where, err)
        if len(record['events']) == 0:
            return fail(where, 'record retained no events')
        for pos, event in enumerate(record['events']):
            err = check_event(event, where)
            if err:
                return fail(f'{where}.events[{pos}]', err)
        span_ids = set()
        for pos, span in enumerate(record['spans']):
            span_where = f'{where}.spans[{pos}]'
            for key, kinds in (('name', str), ('start_ns', int),
                               ('dur_ns', int), ('id', int),
                               ('parent', int)):
                err = expect(span, key, kinds, span_where)
                if err:
                    return fail(span_where, err)
            if span['id'] <= 0:
                return fail(span_where, 'span id must be positive')
            span_ids.add(span['id'])
        for pos, span in enumerate(record['spans']):
            if span['parent'] != 0 and span['parent'] not in span_ids:
                return fail(f'{where}.spans[{pos}]',
                            f'parent {span["parent"]} not in this record')
    if len(records) < min_records:
        return fail(
            path, f'{len(records)} records, expected at least {min_records}')
    print(f'{path}: OK ({len(records)} flight records)')
    return 0


def check_crash(path):
    with open(path, encoding='utf-8') as handle:
        try:
            dump = json.load(handle)
        except json.JSONDecodeError as err:
            return fail(path, f'not valid JSON: {err}')
    if dump.get('crash') is not True:
        return fail(path, 'crash dump missing "crash": true')
    err = expect(dump, 'signal', int, path)
    if err:
        return fail(path, err)
    events = dump.get('events')
    if not isinstance(events, list):
        return fail(path, 'events is not a list')
    for pos, event in enumerate(events):
        err = expect(event, 'ring', int, path)
        if err is None:
            err = check_event(event, path)
        if err:
            return fail(f'{path}: events[{pos}]', err)
    counters = dump.get('counters')
    if not isinstance(counters, dict):
        return fail(path, 'counters is not a JSON object')
    for name, value in counters.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            return fail(path, f'counter {name!r} is not a non-negative int')
    print(f'{path}: OK (crash dump, signal {dump["signal"]}, '
          f'{len(events)} events, {len(counters)} counters)')
    return 0


def main(argv):
    args = argv[1:]
    if not args:
        print(__doc__)
        return 1
    status = 0
    ran = False
    min_records = 0
    min_lines = 0
    if '--min-records' in args:
        at = args.index('--min-records')
        min_records = int(args[at + 1])
        del args[at:at + 2]
    if '--min-lines' in args:
        at = args.index('--min-lines')
        min_lines = int(args[at + 1])
        del args[at:at + 2]
    while args:
        flag = args.pop(0)
        if flag == '--log':
            status |= check_log(args.pop(0), min_lines)
        elif flag == '--flight':
            status |= check_flight(args.pop(0), min_records)
        elif flag == '--crash':
            status |= check_crash(args.pop(0))
        else:
            print(f'unknown argument {flag!r}')
            return 1
        ran = True
    if not ran:
        print(__doc__)
        return 1
    return status


if __name__ == '__main__':
    sys.exit(main(sys.argv))
