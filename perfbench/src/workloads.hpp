// The three workloads. Each owns its cosoftd child, its client apps and its
// seeded op stream, and checks its own outputs (see README.md).
#pragma once

#include <memory>
#include <string>

#include "harness.hpp"

namespace perfbench {

std::unique_ptr<Workload> make_classroom(const std::string& run_dir, std::uint64_t seed, Tracer& tracer);
std::unique_ptr<Workload> make_fanout(const std::string& run_dir, std::uint64_t seed, Tracer& tracer);
std::unique_ptr<Workload> make_tori(const std::string& run_dir, std::uint64_t seed, Tracer& tracer);

}  // namespace perfbench
