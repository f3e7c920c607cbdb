#include "sca/power_trace.hpp"

#include "device/mram_lut.hpp"
#include "device/params.hpp"
#include "device/sram_lut.hpp"

namespace ril::sca {

TraceSet generate_traces(const TraceOptions& options) {
  std::mt19937_64 rng(options.seed);
  device::ZeroMeanNormal noise(options.noise_sigma);
  TraceSet set;
  set.technology = options.technology;
  set.true_mask = options.mask & 0xF;
  set.inputs.reserve(options.traces);
  set.power.reserve(options.traces);

  if (options.technology == LutTechnology::kSram) {
    device::SramLut2 lut(options.cmos, options.variation, rng);
    lut.configure(set.true_mask);
    for (std::size_t i = 0; i < options.traces; ++i) {
      const bool a = rng() & 1;
      const bool b = rng() & 1;
      const auto r = lut.read_output(a, b);
      set.inputs.emplace_back(a, b);
      set.power.push_back(r.energy + noise(rng));
    }
  } else {
    device::MramLut2 lut(options.mtj, options.cmos, options.variation, rng);
    lut.configure(set.true_mask);
    for (std::size_t i = 0; i < options.traces; ++i) {
      const bool a = rng() & 1;
      const bool b = rng() & 1;
      const auto r = lut.read_output(a, b, /*scan_enable=*/false);
      set.inputs.emplace_back(a, b);
      set.power.push_back(r.energy + noise(rng));
    }
  }
  return set;
}

}  // namespace ril::sca
