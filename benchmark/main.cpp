// The benchmark binary: one workload of the end-to-end benchmark per run
// (benchmark/README.md). benchmark/run.sh builds it and runs one process
// per workload:
//
//   namecoh_benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//                     [--scale full|smoke] [--corrupt]
//
// Prints the per-lookup layer table (traced in-sim runs) and, as its last
// line, one JSON object with every metric it measured. A traced run writes
// its spans to trace-<workload>.json in the working directory. Exits 1 when
// any answer failed the oracle, 2 on bad arguments.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"

namespace namecoh::bm {
namespace {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

const char* clock_name(Clock clock) {
  switch (clock) {
    case Clock::kWall:
      return "wall";
    case Clock::kHost:
      return "host";
    case Clock::kSim:
      break;
  }
  return "sim";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string to_json(const Args& args, const Report& r) {
  std::ostringstream out;
  out << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"scale\":\"" << (args.smoke ? "smoke" : "full")
      << "\",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"correct\":" << (r.correct ? "true" : "false")
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"stale\":" << r.stale << ",\"digests\":{\"queries\":\""
      << hex(r.query_digest) << "\",\"counters\":\"" << hex(r.counter_digest)
      << "\"},\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    out << (i ? "," : "") << '"' << escape(r.errors[i]) << '"';
  }
  out << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out << (first ? "" : ",") << '"' << name << "\":{\"value\":"
        << number(m.value) << ",\"unit\":\"" << m.unit << "\",\"clock\":\""
        << clock_name(m.clock) << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      args.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "smoke") return false;
      args.smoke = value == "smoke";
    } else {
      return false;
    }
  }
  return args.workload == "fabric_wire" || args.workload == "cache_rebind" ||
         args.workload == "churn" || args.workload == "local_walk";
}

}  // namespace
}  // namespace namecoh::bm

int main(int argc, char** argv) {
  using namespace namecoh::bm;
  Args args;
  try {
    if (!parse(argc, argv, args)) {
      std::cerr << "usage: namecoh_benchmark --workload "
                   "fabric_wire|cache_rebind|churn|local_walk [--seed N] "
                   "[--seconds S] [--trace 0|1] [--scale full|smoke] "
                   "[--corrupt]\n";
      return 2;
    }
  } catch (const std::exception&) {
    std::cerr << "bad numeric argument\n";
    return 2;
  }

  const Scale scale = scale_for(args.smoke);
  Spans spans(args.trace);
  Report report = args.workload == "local_walk"
                      ? run_local_walk(args, scale, spans)
                      : run_insim(args, scale, spans);
  report.set("peak_rss_mb", peak_rss_mb(), "MB", Clock::kHost);

  if (args.trace) {
    const std::string path = "trace-" + args.workload + ".json";
    spans.write_chrome(path);
    report.table.push_back("trace: " + std::to_string(spans.size()) +
                           " spans written to " + path);
  }
  for (const std::string& line : report.table) std::cout << line << '\n';
  std::cout << to_json(args, report) << std::endl;
  return report.correct ? 0 : 1;
}
