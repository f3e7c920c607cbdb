// Device parameters and process-variation sampling for the MRAM-LUT model.
//
// Replaces the paper's HSPICE + 45nm CMOS + STT-MRAM SPICE model [20] flow
// with an analytic compact model (see DESIGN.md substitution table).
// Nominal values are calibrated so the nominal instance reproduces the
// Table IV operating point (read ~12.48 fJ, write ~34.69 fJ, standby
// ~36.9 aJ) while keeping the mechanisms (complementary divider sensing,
// STT switching asymmetry, leakage floor) physical.
#pragma once

#include <cstdint>
#include <random>

namespace ril::device {

/// Normal(0, sigma) sampler that also accepts sigma == 0, which
/// std::normal_distribution rejects (a zero-variation or noise-free model
/// must draw exact zeros). It scales a unit draw by sigma: libstdc++
/// computes z * stddev + mean from the same unit draw, so for sigma > 0 the
/// values and the RNG state consumed are identical to
/// std::normal_distribution<double>(0, sigma).
class ZeroMeanNormal {
 public:
  explicit ZeroMeanNormal(double sigma) : sigma_(sigma) {}
  double operator()(std::mt19937_64& rng) { return unit_(rng) * sigma_; }

 private:
  double sigma_;
  std::normal_distribution<double> unit_;
};

struct MtjParams {
  double r_p = 3.0e3;        ///< parallel-state resistance [ohm]
  double tmr = 1.0;          ///< R_ap = r_p * (1 + tmr)
  double length = 60e-9;     ///< free-layer length [m]
  double width = 30e-9;      ///< free-layer width [m]
  double tox = 1.1e-9;       ///< MgO barrier thickness [m]
  double i_c = 26e-6;        ///< critical switching current [A]
  /// STT asymmetry: P->AP switching needs ~20% more current than AP->P.
  double asymmetry = 0.20;
  double t_switch = 2e-9;    ///< switching time at I = i_c [s]
};

struct CmosParams {
  double vdd = 1.0;          ///< 45nm supply [V]
  double v_read = 0.4;       ///< read-path bias (disturb-safe) [V]
  double vth = 0.45;         ///< nominal threshold voltage [V]
  double r_on = 1.95e3;      ///< access-transistor on-resistance [ohm]
  double i_leak = 36.9e-9;   ///< standby leakage of the cell stack [A]
  double c_node = 0.2e-15;   ///< select-tree node capacitance [F]
  double t_read = 1e-9;      ///< read pulse [s]
  double t_write = 2e-9;     ///< write pulse [s]
  double i_write = 36.7e-6;    ///< programmed write current [A]
  /// Comparator/sense offset sigma [V]; read fails if margin below offset.
  double sense_offset_sigma = 8e-3;
};

/// One sampled process corner. The paper's Monte Carlo setup: 1% on MTJ
/// dimensions, 10% on Vth, 1% on transistor dimensions (all 3-sigma-ish
/// relative Gaussians).
struct ProcessVariation {
  double mtj_dim_delta = 0.0;   ///< relative area/tox perturbation
  double vth_delta = 0.0;       ///< relative Vth perturbation
  double wl_delta = 0.0;        ///< relative W/L perturbation
  double sense_offset = 0.0;    ///< sampled comparator offset [V]
};

struct VariationSpec {
  double mtj_dim_sigma = 0.01;
  double vth_sigma = 0.10;
  double wl_sigma = 0.01;
};

ProcessVariation sample_variation(const VariationSpec& spec,
                                  const CmosParams& cmos,
                                  std::mt19937_64& rng);

}  // namespace ril::device
