#include "device/params.hpp"

namespace ril::device {

ProcessVariation sample_variation(const VariationSpec& spec,
                                  const CmosParams& cmos,
                                  std::mt19937_64& rng) {
  ZeroMeanNormal mtj(spec.mtj_dim_sigma);
  ZeroMeanNormal vth(spec.vth_sigma);
  ZeroMeanNormal wl(spec.wl_sigma);
  ZeroMeanNormal offset(cmos.sense_offset_sigma);
  ProcessVariation v;
  v.mtj_dim_delta = mtj(rng);
  v.vth_delta = vth(rng);
  v.wl_delta = wl(rng);
  v.sense_offset = offset(rng);
  return v;
}

}  // namespace ril::device
