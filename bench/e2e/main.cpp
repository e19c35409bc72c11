// vermem_bench: the end-to-end benchmark driver (README.md).
//
// Usage:
//   vermem_bench [--seed=N] [--seconds=S] [--runs=N] [--workload=NAME]
//                [--traced] [--out=FILE]
//   vermem_bench --serialize FILE...
//
// With --workload, runs that one workload in this process: untraced
// (end-to-end metrics) or, with --traced, the traced pass (per-layer
// metrics, span file bench_e2e.<workload>.trace.json in the working
// directory). Without --workload, runs every workload in its own child
// process — so peak_rss_mb is per workload — interleaving --runs rounds
// over the workloads (round r uses seed N + r), then the traced pass of
// each workload at seed N (only the traced passes with --traced).
//
// Every metric is printed as "workload metric value unit"; the last
// stdout line is one JSON object, and --out writes the same results with
// an environment block (cores, build type, compiler, git SHA).
//
// --serialize verifies each text trace FILE through a default-configured
// service and prints its verdict line, the same input handling and
// output vermemd has (the serializer parity test compares the two).
//
// Exit codes: 0 ok; 1 a wrong verdict or a rejected certificate; 2 usage,
// I/O, or child-process failure.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "corpus.hpp"
#include "serve.hpp"
#include "support/json.hpp"
#include "traced.hpp"
#include "verdict_line.hpp"

namespace {

using namespace vermem;
using namespace vermem::bench_e2e;

struct Options {
  std::uint64_t seed = 1;
  double seconds = 20;
  std::uint64_t runs = 1;
  std::string workload;
  bool traced = false;
  std::string out;
  std::vector<std::string> serialize;
};

int usage() {
  std::fprintf(stderr,
               "usage: vermem_bench [--seed=N] [--seconds=S] [--runs=N] "
               "[--workload=NAME] [--traced] [--out=FILE]\n"
               "       vermem_bench --serialize FILE...\n"
               "workloads:");
  for (const WorkloadSpec& spec : all_workloads())
    std::fprintf(stderr, " %s", spec.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() && out >= 0;
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* prefix) {
      return arg.rfind(prefix, 0) == 0 ? arg.substr(std::string(prefix).size())
                                       : std::string();
    };
    double number = 0;
    if (arg == "--serialize") {
      for (++i; i < argc; ++i) options.serialize.push_back(argv[i]);
      return !options.serialize.empty();
    } else if (arg == "--traced") {
      options.traced = true;
    } else if (arg.rfind("--workload=", 0) == 0) {
      options.workload = value("--workload=");
      if (find_workload(options.workload) == nullptr) return false;
    } else if (arg.rfind("--out=", 0) == 0) {
      options.out = value("--out=");
    } else if (arg.rfind("--seed=", 0) == 0 &&
               parse_number(value("--seed="), number)) {
      options.seed = static_cast<std::uint64_t>(number);
    } else if (arg.rfind("--seconds=", 0) == 0 &&
               parse_number(value("--seconds="), number) && number > 0) {
      options.seconds = number;
    } else if (arg.rfind("--runs=", 0) == 0 &&
               parse_number(value("--runs="), number) && number >= 1) {
      options.runs = static_cast<std::uint64_t>(number);
    } else {
      return false;
    }
  }
  return true;
}

std::string environment_json(const Options& options) {
  std::ostringstream out;
  const service::ServiceOptions service = service_options();
  out << "{\"cores\":" << std::thread::hardware_concurrency()
      << ",\"build_type\":\"" << VERMEM_BENCH_BUILD_TYPE << "\",\"compiler\":\""
      << json_escape(__VERSION__) << "\",\"git_sha\":\"" << VERMEM_BENCH_GIT_SHA
      << "\",\"seed\":" << options.seed << ",\"seconds\":" << options.seconds
      << ",\"service_workers\":" << service.workers
      << ",\"max_batch\":" << service.max_batch << "}";
  return out.str();
}

std::string result_json(const RunResult& result) {
  std::string out = "{\"workload\":\"" + result.workload +
                    "\",\"seed\":" + std::to_string(result.seed) +
                    ",\"traced\":" + (result.traced ? "true" : "false") +
                    ",\"valid\":" + (result.valid ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(result.attempted) +
                    ",\"failed\":" + std::to_string(result.failed) +
                    ",\"wrong_verdicts\":" + std::to_string(result.wrong_verdicts) +
                    ",\"certify_rejected\":" +
                    std::to_string(result.certify_rejected) + ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    out += (i == 0 ? "\"" : ",\"") + metric.name + "\":{\"value\":" + value +
           ",\"unit\":\"" + metric.unit + "\"}";
  }
  return out + "}}";
}

bool write_results(const Options& options,
                   const std::vector<std::string>& results) {
  if (options.out.empty()) return true;
  std::ofstream out(options.out);
  out << "{\"env\":" << environment_json(options) << ",\"results\":[";
  for (std::size_t i = 0; i < results.size(); ++i)
    out << (i == 0 ? "\n" : ",\n") << results[i];
  out << "\n]}\n";
  out.flush();
  if (!out) std::fprintf(stderr, "cannot write %s\n", options.out.c_str());
  return static_cast<bool>(out);
}

int run_one(const Options& options) {
  const WorkloadSpec& spec = *find_workload(options.workload);
  const RunResult result =
      options.traced
          ? run_traced(spec, options.seed, options.seconds,
                       std::string("bench_e2e.") + spec.name + ".trace.json")
          : run_untraced(spec, options.seed, options.seconds);
  for (const Metric& metric : result.metrics)
    std::printf("%s %s %.6g %s\n", spec.name, metric.name.c_str(), metric.value,
                metric.unit.c_str());
  if (!result.valid)
    std::fprintf(stderr,
                 "%s: benchmark validity check failed (driver busy share or "
                 "trace coverage); this run measures the bench, not vermem\n",
                 spec.name);
  const std::string json = result_json(result);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  if (!write_results(options, {json})) return 2;
  const bool wrong = result.wrong_verdicts != 0 || result.certify_rejected != 0;
  if (wrong)
    std::fprintf(stderr, "%s: %llu wrong verdicts, %llu rejected certificates\n",
                 spec.name, static_cast<unsigned long long>(result.wrong_verdicts),
                 static_cast<unsigned long long>(result.certify_rejected));
  return wrong ? 1 : 0;
}

std::string self_path(const char* argv0) {
  char buffer[4096];
  const ssize_t length = readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (length <= 0) return argv0;
  return std::string(buffer, static_cast<std::size_t>(length));
}

std::string shell_quote(const std::string& text) {
  std::string out = "'";
  for (const char c : text) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  return out + "'";
}

/// Runs one workload in a child process, forwarding its metric lines and
/// returning its result JSON (empty on failure). Updates `status`.
std::string run_child(const std::string& self, const Options& options,
                      const WorkloadSpec& spec, std::uint64_t seed, bool traced,
                      int& status) {
  char seconds[32];
  std::snprintf(seconds, sizeof seconds, "%g", options.seconds);
  const std::string command = shell_quote(self) + " --workload=" + spec.name +
                              " --seed=" + std::to_string(seed) +
                              " --seconds=" + seconds + (traced ? " --traced" : "");
  std::fflush(stdout);
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    status = 2;
    return {};
  }
  std::string line;
  std::string json;
  char chunk[4096];
  while (std::fgets(chunk, sizeof chunk, pipe) != nullptr) {
    line += chunk;
    if (line.empty() || line.back() != '\n') continue;
    if (line.front() == '{')
      json = line.substr(0, line.size() - 1);
    else
      std::fputs(line.c_str(), stdout);
    line.clear();
  }
  const int code = pclose(pipe);
  const int exit_code = WIFEXITED(code) ? WEXITSTATUS(code) : 2;
  if (exit_code != 0 || json.empty()) {
    std::fprintf(stderr, "%s: child exited with %d\n", spec.name, exit_code);
    status = std::max(status, json.empty() ? 2 : exit_code);
  }
  return json;
}

int run_all(const Options& options, const char* argv0) {
  const std::string self = self_path(argv0);
  std::vector<std::string> results;
  int status = 0;
  if (!options.traced)
    for (std::uint64_t round = 0; round < options.runs; ++round)
      for (const WorkloadSpec& spec : all_workloads())
        results.push_back(
            run_child(self, options, spec, options.seed + round, false, status));
  for (const WorkloadSpec& spec : all_workloads())
    results.push_back(run_child(self, options, spec, options.seed, true, status));
  std::erase(results, std::string());
  std::printf("{\"env\":%s,\"runs\":%zu,\"status\":%d}\n",
              environment_json(options).c_str(), results.size(), status);
  if (!write_results(options, results)) return 2;
  return status;
}

int serialize_files(const std::vector<std::string>& paths) {
  service::VerificationService svc;
  std::vector<service::VerificationService::Ticket> tickets;
  for (const std::string& path : paths) {
    std::ifstream file(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    service::VerificationRequest request;
    const std::string error =
        file ? parse_text_request(buffer.str(), request) : "cannot open";
    if (!error.empty()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
      return 2;
    }
    request.tag = path;
    tickets.push_back(svc.submit(std::move(request)));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i)
    std::printf("%s\n", verdict_line(paths[i], tickets[i].response.get()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) return usage();
  if (!options.serialize.empty()) return serialize_files(options.serialize);
  if (!options.workload.empty()) return run_one(options);
  return run_all(options, argv[0]);
}
