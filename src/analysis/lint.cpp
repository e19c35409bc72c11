#include "analysis/lint.hpp"

#include <algorithm>
#include <unordered_map>

#include "analysis/poly/write_order.hpp"

namespace vermem::analysis {

namespace {

std::string op_at(const OpRecord& record) {
  std::string out = "P";
  out += std::to_string(record.ref.process);
  out += '#';
  out += std::to_string(record.ref.index);
  out += ' ';
  out += to_string(record.op);
  return out;
}

}  // namespace

void lint_view(const ProjectedView& view, const FragmentProfile& profile,
               const std::vector<OpRef>* write_order,
               const saturate::Result* saturation,
               std::vector<Diagnostic>& out) {
  const Addr addr = view.addr();
  auto emit = [&](RuleId rule, std::optional<OpRef> location,
                  std::string message) {
    out.push_back({rule, rule_severity(rule), addr, location,
                   std::move(message)});
  };

  // W001/W002 need per-value locations; one scan shared by both, run
  // only when the classifier's counters say either rule fires.
  if (profile.values_written_thrice > 0 || profile.unread_values > 0) {
    struct ValueSite {
      std::uint32_t writes = 0;
      bool read = false;
      bool last_write = false;  ///< written by some history's last write
      OpRecord first_write;     ///< location for W002
      OpRecord third_write;     ///< location for W001
    };
    std::unordered_map<Value, ValueSite> sites;
    for (const OpRecord& record : view.records()) {
      const Operation& op = record.op;
      if (op.reads_memory()) sites[op.value_read].read = true;
      if (op.writes_memory()) {
        ValueSite& site = sites[op.value_written];
        ++site.writes;
        if (site.writes == 1) site.first_write = record;
        if (site.writes == 3) site.third_write = record;
      }
    }
    for (std::size_t h = 0; h < view.num_histories(); ++h) {
      const auto run = view.history(h);
      for (std::size_t i = run.size(); i-- > 0;) {
        const Operation& op = run[i].op;
        if (!op.writes_memory()) continue;
        sites[op.value_written].last_write = true;
        break;
      }
    }
    std::vector<Value> ordered;
    ordered.reserve(sites.size());
    for (const auto& [value, site] : sites)
      if (site.writes > 0) ordered.push_back(value);
    std::sort(ordered.begin(), ordered.end());
    const auto fin = view.final_value();
    for (const Value value : ordered) {
      const ValueSite& site = sites[value];
      if (site.writes > 2) {
        emit(RuleId::kDuplicateValueWrite, site.third_write.ref,
             "value " + std::to_string(value) + " written " +
                 std::to_string(site.writes) +
                 " times (third write at " + op_at(site.third_write) +
                 "); exceeds the 2-writes-per-value cap of the restricted "
                 "fragment, exact verification may go exponential");
      }
      // A value is a final-section candidate when it matches the recorded
      // final value or, with no final recorded, when some history's last
      // write produces it (it may legitimately be the trace's end state).
      const bool final_candidate = fin ? *fin == value : site.last_write;
      if (!site.read && !final_candidate) {
        emit(RuleId::kUnreadWrite, site.first_write.ref,
             "value " + std::to_string(value) + " written at " +
                 op_at(site.first_write) +
                 " is never read on address " + std::to_string(addr) +
                 (fin ? " and is not its final value"
                      : " and is overwritten before every history ends"));
      }
    }
  }

  if (profile.rmw_candidate_pairs > 0) {
    for (std::size_t h = 0; h < view.num_histories(); ++h) {
      const auto run = view.history(h);
      for (std::size_t i = 1; i < run.size(); ++i) {
        if (run[i - 1].op.kind == OpKind::kRead &&
            run[i].op.kind == OpKind::kWrite) {
          emit(RuleId::kRmwAtomicityCandidate, run[i - 1].ref,
               "read-then-write pair " + op_at(run[i - 1]) + " ; " +
                   op_at(run[i]) +
                   " on address " + std::to_string(addr) +
                   " is not atomic; consider a read-modify-write");
        }
      }
    }
  }

  std::optional<poly::WriteOrderLogCheck> log_check;
  if (write_order) {
    log_check = poly::validate_write_order_log(view, *write_order);
    if (!log_check->ok) {
      emit(RuleId::kInconsistentWriteOrderLog, log_check->entry,
           "write-order log for address " + std::to_string(addr) +
               " does not validate: " + log_check->problem);
    }
  }

  // Saturation node n, rendered from the view's record.
  const auto write_at = [&](std::uint32_t n) {
    return op_at(view.record(saturation->writes_local[n]));
  };

  // W005: the saturation tier left concurrent writes genuinely
  // unordered on an exact-search-bound fragment — the contention
  // hotspot that makes the frontier search branch.
  if (saturation && saturation->branch_points > 0 &&
      (profile.fragment == Fragment::kBoundedProcesses ||
       profile.fragment == Fragment::kGeneral)) {
    const auto [a, b] = std::minmax(saturation->unordered_example.first,
                                    saturation->unordered_example.second);
    emit(RuleId::kUnorderedWritePair, saturation->writes[a],
         "writes " + write_at(a) + " and " + write_at(b) + " on address " +
             std::to_string(addr) + " stay unordered after saturation (" +
             std::to_string(saturation->branch_points) +
             " branch points, peak " +
             std::to_string(saturation->max_concurrent) +
             " concurrent writes); contended hotspot, exact search must "
             "branch here");
  }

  // W006: the log passed shape validation, yet it orders some write
  // pair against a must-precede edge the trace alone already implies —
  // the log records a serialization no coherent run can have.
  if (write_order && log_check && log_check->ok && saturation &&
      !saturation->edges.empty()) {
    std::unordered_map<std::uint64_t, std::size_t> log_pos;
    log_pos.reserve(write_order->size());
    const auto key = [](OpRef ref) {
      return (static_cast<std::uint64_t>(ref.process) << 32) | ref.index;
    };
    for (std::size_t i = 0; i < write_order->size(); ++i)
      log_pos.emplace(key((*write_order)[i]), i);
    for (const auto& [before, after] : saturation->edges) {
      const auto pb = log_pos.find(key(saturation->writes[before]));
      const auto pa = log_pos.find(key(saturation->writes[after]));
      if (pb == log_pos.end() || pa == log_pos.end()) continue;
      if (pa->second < pb->second) {
        emit(RuleId::kSaturationContradictedLog,
             saturation->writes[after],
             "write-order log for address " + std::to_string(addr) +
                 " places " + write_at(after) + " before " + write_at(before) +
                 ", but the trace itself forces the opposite order; the "
                 "log cannot describe a coherent run");
        break;  // one representative contradiction per address
      }
    }
  }

  emit(RuleId::kFragmentClassification, std::nullopt, profile.summary());
}

}  // namespace vermem::analysis
