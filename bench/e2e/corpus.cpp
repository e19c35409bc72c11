#include "corpus.hpp"

#include <optional>

#include "trace/binary_io.hpp"
#include "trace/text_io.hpp"
#include "workload/random.hpp"

namespace vermem::bench_e2e {

namespace {

using service::CheckMode;
using service::SolverChoice;
using std::chrono::milliseconds;

constexpr double kFabricatedShare = 0.1;

std::string text_request(const Execution& exec, const WriteOrderLog* orders) {
  std::string out = serialize_execution(exec);
  if (orders != nullptr) out += serialize_write_orders(*orders);
  return out;
}

Execution with_histories(std::vector<std::vector<Operation>> histories,
                         const Execution& env) {
  Execution out;
  for (auto& ops : histories) out.add_history(ProcessHistory{std::move(ops)});
  for (const auto& [addr, value] : env.initial_values())
    out.set_initial_value(addr, value);
  for (const auto& [addr, value] : env.final_values())
    out.set_final_value(addr, value);
  return out;
}

/// The execution with one pure read rewritten to a never-written value,
/// or nullopt when it has no pure read.
std::optional<Execution> with_fabricated_read(const Execution& exec,
                                              Xoshiro256ss& rng) {
  std::vector<OpRef> reads;
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p)
    for (std::uint32_t i = 0; i < exec.history(p).size(); ++i)
      if (exec.op({p, i}).kind == OpKind::kRead) reads.push_back({p, i});
  if (reads.empty()) return std::nullopt;
  const OpRef target = reads[rng.below(reads.size())];
  std::vector<std::vector<Operation>> histories;
  for (const ProcessHistory& history : exec.histories())
    histories.push_back(history.ops());
  histories[target.process][target.index].value_read =
      -1 - static_cast<Value>(rng.below(1000));
  return with_histories(std::move(histories), exec);
}

/// Appends one request, fabricating a read in `share` of them.
void add_text(std::vector<Request>& out, const workload::GeneratedMultiTrace& trace,
              bool with_log, double share, Xoshiro256ss& rng) {
  Request request;
  request.ops = trace.execution.num_operations();
  const WriteOrderLog* log = with_log ? &trace.write_orders : nullptr;
  std::optional<Execution> faulty;
  if (rng.chance(share)) faulty = with_fabricated_read(trace.execution, rng);
  request.coherent = !faulty;
  request.bytes = text_request(faulty ? *faulty : trace.execution, log);
  out.push_back(std::move(request));
}

/// 4096 small traces rotating through three shapes: fresh values (the
/// write-once fragment), 6 values with a recorded write order (§5.2),
/// and 6 values without one (saturation plus small exact searches).
std::vector<Request> fleet(Xoshiro256ss& rng) {
  std::vector<Request> out;
  for (std::size_t i = 0; i < 4096; ++i) {
    workload::MultiAddressParams params;
    params.num_processes = static_cast<std::size_t>(rng.range(2, 4));
    params.ops_per_process = static_cast<std::size_t>(rng.range(32, 80));
    params.num_addresses = static_cast<std::size_t>(rng.range(4, 8));
    params.num_values = i % 3 == 0 ? 0 : 6;
    const auto trace = workload::generate_sc(params, rng);
    add_text(out, trace, i % 3 == 1, kFabricatedShare, rng);
  }
  return out;
}

/// 2304 traces of 4 processes x 48 ops on 3 addresses with 2 values:
/// nearly every address goes through saturation to the exact search. The
/// shape keeps search effort light-tailed. Effort grows exponentially in
/// the process count: with 5-7 processes x 24 ops on 2 addresses, the
/// costliest 1% of traces carry half the corpus's search work, and the
/// total varies by a quarter between seeds. Here they carry about 7%, and
/// the total varies by about 1%. Longer per-address subtraces would slow
/// portfolio_race, whose CDCL arm encodes each address in O(n^3).
std::vector<Request> contended(Xoshiro256ss& rng) {
  std::vector<Request> out;
  for (std::size_t i = 0; i < 2304; ++i) {
    workload::MultiAddressParams params;
    params.num_processes = 4;
    params.ops_per_process = 48;
    params.num_addresses = 3;
    params.num_values = 2;
    add_text(out, workload::generate_sc(params, rng), false, kFabricatedShare,
             rng);
  }
  return out;
}

/// Eight executions of 16 processes x 4096 ops over 1024 addresses with
/// fresh values. Every fourth is encoded canonically (complete mode), the
/// rest with the ordered flag over their witness (online mode). A
/// complete-mode trace takes about four times as long as an ordered one,
/// so at one in four the latency median sits inside the ordered mode and
/// the 90th and 99th percentiles inside the complete mode; an even mix
/// would put the median in the gap between the two.
std::vector<Request> stream(Xoshiro256ss& rng) {
  std::vector<Request> out;
  for (std::size_t i = 0; i < 8; ++i) {
    workload::MultiAddressParams params;
    params.num_processes = 16;
    params.ops_per_process = 4096;
    params.num_addresses = 1024;
    params.num_values = 0;
    const auto trace = workload::generate_sc(params, rng);
    std::string bytes =
        i % 4 == 3 ? encode_binary(trace.execution)
                   : encode_binary_ordered(trace.execution, trace.witness);
    out.push_back({std::move(bytes), true, trace.execution.num_operations()});
  }
  return out;
}

/// The first `length` operations of the trace's witness schedule: an SC
/// execution whose histories are prefixes of the full trace's, so each
/// longer prefix is a suffix extension of the shorter one.
Execution witness_prefix(const workload::GeneratedMultiTrace& trace,
                         std::size_t length) {
  std::vector<std::vector<Operation>> histories(trace.execution.num_processes());
  for (std::size_t s = 0; s < length; ++s) {
    const OpRef ref = trace.witness[s];
    histories[ref.process].push_back(trace.execution.op(ref));
  }
  return with_histories(std::move(histories), trace.execution);
}

/// 320 sessions x 7 requests: witness prefixes of 12, 18, ..., 48 ops of
/// one 3-process x 3-address SC trace. The last request of 10% of the
/// sessions carries a fabricated read.
std::vector<Request> sessions(Xoshiro256ss& rng) {
  std::vector<Request> out;
  for (std::size_t s = 0; s < 320; ++s) {
    workload::MultiAddressParams params;
    params.num_processes = 3;
    params.ops_per_process = 16;
    params.num_addresses = 3;
    params.num_values = 3;
    params.record_final_values = false;
    const auto trace = workload::generate_sc(params, rng);
    const bool fabricate = rng.chance(kFabricatedShare);
    for (std::size_t length = 12; length <= 48; length += 6) {
      Execution exec = witness_prefix(trace, length);
      std::optional<Execution> faulty;
      if (fabricate && length == 48) faulty = with_fabricated_read(exec, rng);
      out.push_back({text_request(faulty ? *faulty : exec, nullptr), !faulty,
                     length});
    }
  }
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> table = {
      {"fleet_text", CorpusKind::kFleet, false, CheckMode::kCoherence,
       SolverChoice::kAuto, 6, milliseconds(1000), 256, 0.1, 2000},
      {"contended_exact", CorpusKind::kContended, false, CheckMode::kCoherence,
       SolverChoice::kAuto, 6, milliseconds(2000), 256, 0, 2000},
      {"portfolio_race", CorpusKind::kContended, false, CheckMode::kCoherence,
       SolverChoice::kPortfolio, 6, milliseconds(2000), 256, 0, 2000},
      {"vmtb_stream", CorpusKind::kStream, true, CheckMode::kCoherence,
       SolverChoice::kAuto, 1, milliseconds(5000), 8, 0, 16},
      {"vscc_sessions", CorpusKind::kSessions, false, CheckMode::kVscc,
       SolverChoice::kAuto, 1, milliseconds(2000), 256, 0, 2000},
  };
  return table;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : all_workloads())
    if (name == spec.name) return &spec;
  return nullptr;
}

std::vector<Request> generate_corpus(const WorkloadSpec& spec,
                                     std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  switch (spec.corpus) {
    case CorpusKind::kFleet: return fleet(rng);
    case CorpusKind::kContended: return contended(rng);
    case CorpusKind::kStream: return stream(rng);
    case CorpusKind::kSessions: return sessions(rng);
  }
  return {};
}

RequestSchedule::RequestSchedule(const WorkloadSpec& spec,
                                 std::size_t corpus_size, std::uint64_t seed)
    : corpus_size_(corpus_size),
      duplicate_share_(spec.duplicate_share),
      rng_(seed ^ 0x5c4e'd01e'0000'0001ULL) {}

RequestSchedule::Pick RequestSchedule::next() {
  Pick pick;
  if (duplicate_share_ > 0 && sent_ >= kRecent && rng_.chance(duplicate_share_)) {
    const std::uint64_t back =
        kMinDistance + rng_.below(kRecent - kMinDistance + 1);
    pick = {recent_[(sent_ - back) % kRecent], true};
  } else {
    pick = {cursor_, false};
    cursor_ = (cursor_ + 1) % corpus_size_;
  }
  recent_[sent_ % kRecent] = pick.entry;
  ++sent_;
  return pick;
}

}  // namespace vermem::bench_e2e
