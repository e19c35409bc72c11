#pragma once
// Shared input plumbing for the deployable CLIs (vermemd, vermemlint,
// vermemcert, vermemconv): reading files and stdin, splitting a
// multi-trace stdin stream (traces separated by "---" lines), splitting
// out "wo " write-order lines, and minimal JSON string escaping for the
// one-line-per-trace output format. Each splitter is one forward scan
// over the bytes.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hpp"

namespace vermem::tools {

// JSON string helpers now live in support/json.hpp, shared with
// vermemcert; re-exported here for the emitters in this layer.
using vermem::json_escape;

/// One trace's text, split into execution directives and write-order
/// ("wo ...") lines, plus a display tag (file name or stdin[i]).
struct TraceSource {
  std::string tag;
  std::string execution_text;
  std::string write_order_text;
};

/// Splits `text` into its column-0 write-order lines ("wo" alone or
/// "wo " onward, ending in "\n", "\r\n" or neither) and everything
/// else, keeping input line numbers: line k
/// of either output is line k of `text`, or blank when it went to the
/// other one (both parsers skip blank lines). An output ends at its last
/// routed line, so `write_order_text` stays empty when no line is "wo",
/// and each routed line ends in '\n'.
inline void split_wo_lines(std::string_view text, TraceSource& out) {
  std::string& execution = out.execution_text;
  std::string& write_order = out.write_order_text;
  execution.clear();
  write_order.clear();
  execution.reserve(text.size() + 1);
  std::size_t execution_lines = 0;   // lines `execution` holds
  std::size_t write_order_lines = 0;  // lines `write_order` holds
  // Appends input lines first..last, whose bytes are `lines`, to `to`.
  const auto route = [](std::string& to, std::size_t& held, std::size_t first,
                        std::size_t last, std::string_view lines) {
    to.append(first - 1 - held, '\n');
    to.append(lines);
    if (lines.back() != '\n') to += '\n';
    held = last;
  };
  std::size_t line_no = 0;
  // The execution lines not yet routed start at byte run_begin and at
  // line run_first.
  std::size_t run_begin = 0;
  std::size_t run_first = 1;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t newline = text.find('\n', pos);
    const std::size_t end =
        newline == std::string_view::npos ? text.size() : newline + 1;
    const std::string_view line = text.substr(pos, end - pos);
    ++line_no;
    std::string_view body = line;  // without its "\n" or "\r\n"
    if (body.ends_with('\n')) body.remove_suffix(1);
    if (body.ends_with('\r')) body.remove_suffix(1);
    if (body.starts_with("wo ") || body == "wo") {
      if (run_begin < pos)
        route(execution, execution_lines, run_first, line_no - 1,
              text.substr(run_begin, pos - run_begin));
      if (write_order.empty()) write_order.reserve(line_no + text.size() - pos);
      route(write_order, write_order_lines, line_no, line_no, line);
      run_begin = end;
      run_first = line_no + 1;
    }
    pos = end;
  }
  if (run_begin < text.size())
    route(execution, execution_lines, run_first, line_no,
          text.substr(run_begin));
}

/// Splits an already-read multi-trace text stream into sources tagged
/// "<tag_prefix>[i]". A separator line is three or more '-' and nothing
/// else but an optional trailing '\r'; whitespace-only traces are
/// skipped and take no number. Line
/// numbers in a source count from the line after its separator.
inline void split_concatenated_sources(std::string_view all,
                                       const std::string& tag_prefix,
                                       std::vector<TraceSource>& sources) {
  std::size_t count = 0;
  const auto flush = [&](std::string_view chunk) {
    if (chunk.find_first_not_of(" \t\r\n") == std::string_view::npos) return;
    TraceSource& current = sources.emplace_back();
    current.tag = tag_prefix + "[" + std::to_string(count++) + "]";
    split_wo_lines(chunk, current);
  };
  std::size_t chunk_begin = 0;
  for (std::size_t pos = 0; pos < all.size();) {
    const std::size_t end = std::min(all.find('\n', pos), all.size());
    std::string_view line = all.substr(pos, end - pos);
    if (line.ends_with('\r')) line.remove_suffix(1);
    const std::size_t next = end + 1;
    if (line.size() >= 3 && line.find_first_not_of('-') == std::string_view::npos) {
      flush(all.substr(chunk_begin, pos - chunk_begin));
      chunk_begin = next;
    }
    pos = next;
  }
  flush(all.substr(std::min(chunk_begin, all.size())));
}

/// Reads the rest of `in` into `out`.
inline void read_all(std::istream& in, std::string& out) {
  out.clear();
  std::streambuf* buffer = in.rdbuf();
  std::size_t filled = 0;
  while (true) {
    out.resize(filled + (std::size_t{1} << 16));
    const std::streamsize got = buffer->sgetn(
        out.data() + filled, static_cast<std::streamsize>(out.size() - filled));
    filled += static_cast<std::size_t>(got);
    if (filled < out.size()) break;
  }
  out.resize(filled);
}

/// Reads the file at `path` into `out`; false if it cannot be opened.
inline bool read_file(const std::string& path, std::string& out) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return false;
  read_all(file, out);
  return true;
}

/// Loads one source per path, tagged with the path. On an unreadable
/// file prints a message to stderr and returns false.
inline bool load_trace_sources(const std::vector<std::string>& paths,
                               std::vector<TraceSource>& sources) {
  std::string bytes;
  for (const std::string& path : paths) {
    if (!read_file(path, bytes)) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return false;
    }
    TraceSource& source = sources.emplace_back();
    source.tag = path;
    split_wo_lines(bytes, source);
  }
  return true;
}

inline bool parse_size_arg(const std::string& arg, std::size_t prefix_len,
                           std::size_t& out) {
  try {
    out = static_cast<std::size_t>(std::stoull(arg.substr(prefix_len)));
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace vermem::tools
