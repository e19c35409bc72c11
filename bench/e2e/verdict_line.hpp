#pragma once
// The verdict JSON line vermemd prints per trace, as a string. A copy of
// print_response in tools/vermemd.cpp without the --analyze/--certify
// members (the bench requests neither); the serializer parity test
// (parity.py) pins the two to the same fields and values.

#include <string>

#include "service/request.hpp"

namespace vermem::bench_e2e {

[[nodiscard]] std::string verdict_line(
    const std::string& tag, const service::VerificationResponse& response);

}  // namespace vermem::bench_e2e
