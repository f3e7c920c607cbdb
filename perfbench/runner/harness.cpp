#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <exception>
#include <thread>

#include "netlist/simulator.hpp"

namespace perfbench {

namespace {
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt,
                          std::uint64_t index) {
  return mix(mix(mix(seed) ^ salt) ^ index);
}

void Trace::add(const std::string& name, double value) {
  if (!on_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  sums_[name] += value;
}

double Trace::get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sums_.find(name);
  return it == sums_.end() ? 0.0 : it->second;
}

void Trace::sample(const std::string& name, double value) {
  if (!on_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  samples_[name].push_back(value);
}

std::vector<double> Trace::samples(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = samples_.find(name);
  return it == samples_.end() ? std::vector<double>{} : it->second;
}

Span::Span(Trace& trace, const char* name) : trace_(trace), name_(name) {
  if (trace_.on()) t0_ = Clock::now();
}

Span::~Span() {
  if (trace_.on()) trace_.add(name_, seconds_since(t0_));
}

LoopResult run_closed_loop(
    unsigned clients, double seconds, double guard_seconds,
    const std::function<OpResult(const OpContext&)>& op) {
  struct ClientState {
    std::atomic<std::int64_t> op_start_ns{0};  // 0 = between ops
    std::atomic<bool> cancel{false};
    LoopResult result;
  };
  std::vector<ClientState> state(clients);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  const double cpu0 = process_cpu_seconds();
  std::atomic<unsigned> running{clients};

  // Hang guard: raises an op's cancel flag once it overruns the guard.
  std::thread watchdog([&] {
    const auto guard_ns = static_cast<std::int64_t>(guard_seconds * 1e9);
    while (running.load() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const std::int64_t now = now_ns();
      for (ClientState& c : state) {
        const std::int64_t t = c.op_start_ns.load();
        if (t != 0 && now - t > guard_ns) c.cancel.store(true);
      }
    }
  });

  std::vector<std::thread> threads;
  for (unsigned k = 0; k < clients; ++k) {
    threads.emplace_back([&, k] {
      ClientState& c = state[k];
      for (std::size_t i = 0; i == 0 || Clock::now() < deadline; ++i) {
        OpContext ctx{k, i, &c.cancel, guard_seconds};
        c.cancel.store(false);
        const auto t0 = Clock::now();
        c.op_start_ns.store(now_ns());
        OpResult r;
        try {
          r = op(ctx);
        } catch (const std::exception& e) {
          r.ok = false;
          r.error = e.what();
        }
        c.op_start_ns.store(0);
        if (c.cancel.load() && r.ok) {
          r.ok = false;
          r.error = "op overran the hang guard";
        }
        c.result.latencies.push_back(r.latency >= 0 ? r.latency
                                                    : seconds_since(t0));
        ++c.result.attempted;
        const std::string key =
            "c" + std::to_string(k) + "#" + std::to_string(i);
        c.result.work.emplace_back(key, r.work);
        if (!r.ok) {
          ++c.result.failed;
          c.result.errors.push_back(key + ": " + r.error);
        }
      }
      running.fetch_sub(1);
    });
  }
  for (std::thread& t : threads) t.join();
  watchdog.join();

  LoopResult total;
  total.wall_seconds = seconds_since(start);
  total.cpu_seconds = process_cpu_seconds() - cpu0;
  for (ClientState& c : state) {
    LoopResult& r = c.result;
    total.latencies.insert(total.latencies.end(), r.latencies.begin(),
                           r.latencies.end());
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.work.insert(total.work.end(), r.work.begin(), r.work.end());
    total.errors.insert(total.errors.end(), r.errors.begin(),
                        r.errors.end());
  }
  return total;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail(std::vector<double> values) {
  Tail t;
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t idx = n > 10 ? n - 11 : n - 1;
  t.value = values[idx];
  t.beyond = n - idx - 1;
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool simulation_matches(const ril::netlist::Netlist& host,
                        const ril::netlist::Netlist& locked,
                        const std::vector<bool>& key, std::uint64_t seed,
                        unsigned words) {
  const auto host_inputs = host.data_inputs();
  const auto locked_inputs = locked.data_inputs();
  if (host_inputs.size() != locked_inputs.size() ||
      host.outputs().size() != locked.outputs().size() ||
      locked.key_inputs().size() != key.size()) {
    return false;
  }
  ril::netlist::Simulator hs(host);
  ril::netlist::Simulator ls(locked);
  for (std::size_t i = 0; i < key.size(); ++i) {
    ls.set_input_all(locked.key_inputs()[i], key[i]);
  }
  for (unsigned w = 0; w < words; ++w) {
    for (std::size_t i = 0; i < host_inputs.size(); ++i) {
      const std::uint64_t pattern = derive_seed(seed, w, i);
      hs.set_input(host_inputs[i], pattern);
      ls.set_input(locked_inputs[i], pattern);
    }
    hs.evaluate();
    ls.evaluate();
    if (hs.output_words() != ls.output_words()) return false;
  }
  return true;
}

std::string key_bits(const std::vector<bool>& key) {
  std::string out;
  out.reserve(key.size());
  for (bool b : key) out += b ? '1' : '0';
  return out;
}

}  // namespace perfbench
