#include "common.h"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace rfidbench {

void WorkloadResult::Fail(const std::string& what) {
  ++failed;
  if (failure_samples.size() < 8) failure_samples.push_back(what);
}

void WorkloadResult::AddLatency(double ms, std::string label, bool was_traced) {
  latencies_ms.push_back(ms);
  labels.push_back(std::move(label));
  traced.push_back(was_traced);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

namespace {
constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void Fnv(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

uint64_t HashRow(const rfid::Row& row) {
  uint64_t h = kFnvOffset;
  for (const rfid::Value& v : row) {
    const auto tag = static_cast<uint8_t>(v.type());
    Fnv(&h, &tag, 1);
    switch (v.type()) {
      case rfid::DataType::kNull:
        break;
      case rfid::DataType::kDouble: {
        const double d = v.double_value();
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        Fnv(&h, &bits, sizeof(bits));
        break;
      }
      case rfid::DataType::kString: {
        const std::string& s = v.string_value();
        const uint64_t n = s.size();
        Fnv(&h, &n, sizeof(n));
        Fnv(&h, s.data(), s.size());
        break;
      }
      default: {
        const int64_t i = v.int64_value();
        Fnv(&h, &i, sizeof(i));
      }
    }
  }
  return h;
}
}  // namespace

uint64_t HashRows(const std::vector<rfid::Row>& rows) {
  std::vector<uint64_t> hashes;
  hashes.reserve(rows.size());
  for (const rfid::Row& r : rows) hashes.push_back(HashRow(r));
  std::sort(hashes.begin(), hashes.end());
  uint64_t h = kFnvOffset;
  const uint64_t n = hashes.size();
  Fnv(&h, &n, sizeof(n));
  Fnv(&h, hashes.data(), hashes.size() * sizeof(uint64_t));
  return h;
}

std::map<std::string, uint64_t> NaiveReferences(
    const RunConfig& config, const std::string& inputs,
    const std::function<std::map<std::string, uint64_t>()>& compute) {
  uint64_t key = kFnvOffset;
  std::ifstream exe("/proc/self/exe", std::ios::binary);
  std::vector<char> buf(1 << 16);
  while (exe.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         exe.gcount() > 0) {
    Fnv(&key, buf.data(), static_cast<size_t>(exe.gcount()));
  }
  const std::string what =
      config.workload + (config.smoke ? " smoke\n" : "\n") + inputs;
  Fnv(&key, what.data(), what.size());
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx",
                static_cast<unsigned long long>(key));
  const std::filesystem::path dir =
      std::filesystem::path(config.work_dir) / "refs";
  const std::filesystem::path path =
      dir / (config.workload + "-" + name + ".txt");

  std::map<std::string, uint64_t> refs;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t tab = line.rfind('\t');
    if (tab == std::string::npos) continue;
    refs[line.substr(0, tab)] =
        std::strtoull(line.c_str() + tab + 1, nullptr, 16);
  }
  if (!refs.empty()) return refs;

  refs = compute();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp);
    for (const auto& [k, h] : refs) {
      char hex[24];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(h));
      out << k << '\t' << hex << '\n';
    }
  }
  std::filesystem::rename(tmp, path, ec);
  return refs;
}

std::vector<double> PoissonArrivals(std::mt19937_64* rng, size_t count,
                                    double span) {
  std::uniform_real_distribution<double> uniform(0.0, span);
  std::vector<double> out(count);
  for (double& t : out) t = uniform(*rng);
  std::sort(out.begin(), out.end());
  return out;
}

ZipfSampler::ZipfSampler(size_t n) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Next(std::mt19937_64* rng) const {
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), uniform(*rng));
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

void ResetPeakRss() {
  malloc_trim(0);
  // "5" resets the peak-RSS mark (VmHWM) to the current RSS (Linux 4.0+).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string FilesystemName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x65735546: return "fuse";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

void CountOperator(const std::string& name, uint64_t rows, int dop,
                   uint64_t mem_bytes, Tracer* tracer) {
  const auto r = static_cast<double>(rows);
  if (name == "TableScan" || name == "ParallelTableScan" ||
      name == "IndexRangeScan" || name == "FragmentScan") {
    tracer->Add("exec.scan_rows", r);
  } else if (name == "Sort") {
    tracer->Add("exec.sort_rows", r);
  } else if (name == "Window") {
    tracer->Add("exec.window_rows", r);
  } else if (name == "HashJoin" || name == "HashSemiJoin") {
    tracer->Add("exec.join_rows", r);
  }
  tracer->Max("plan.max_dop", dop);
  tracer->Max("exec.op_peak_mem_mb",
              static_cast<double>(mem_bytes) / (1 << 20));
}

void Die(const std::string& what) {
  std::fprintf(stderr, "rfidbench: %s\n", what.c_str());
  std::fflush(nullptr);
  // _Exit: server and client threads may still be running; static
  // destructors must not race them.
  std::_Exit(1);
}

}  // namespace rfidbench
