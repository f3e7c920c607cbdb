#include "attacks/sensitization.hpp"

#include "attacks/engine/attack_budget.hpp"
#include "attacks/engine/miter_context.hpp"
#include "sat/solver.hpp"

namespace ril::attacks {

using netlist::Netlist;
using sat::Lit;
using sat::Solver;
using sat::Var;

SensitizationResult run_sensitization_attack(
    const Netlist& locked, QueryOracle& oracle,
    const SensitizationOptions& options) {
  engine::AttackBudget budget(options.time_limit_seconds, options.cancel);

  const std::size_t key_width = locked.key_inputs().size();
  const auto data_inputs = locked.data_inputs();
  SensitizationResult result;
  result.key.assign(key_width, false);
  result.resolved.assign(key_width, false);

  // Encodes one circuit copy with data inputs bound to `x_vars`, key bit
  // `target` fixed to `target_value`, and the remaining key bits fixed to
  // the assignment `rest` (aligned with key_inputs(), target slot ignored).
  auto encode_copy_output = [&](Solver& solver, const std::vector<Var>& x_vars,
                                std::size_t target, bool target_value,
                                const std::vector<bool>& rest,
                                std::size_t output_index) -> Var {
    const engine::CircuitCopy copy = engine::encode_copy(locked, solver, x_vars);
    std::vector<bool> values(rest);
    values[target] = target_value;
    engine::fix_vars(solver, copy.key_vars, values);
    return copy.output_vars[output_index];
  };

  for (std::size_t bit = 0; bit < key_width; ++bit) {
    if (budget.expired()) break;
    bool done = false;
    for (std::size_t out = 0; out < locked.outputs().size() && !done;
         ++out) {
      // CEGIS for a golden pattern on output `out`:
      //   exists x: f_out(x, bit=0, rest) constant c0 for all rest,
      //             f_out(x, bit=1, rest) constant c1 != c0.
      std::vector<std::vector<bool>> samples = {
          std::vector<bool>(key_width, false)};
      for (int round = 0; round < 6 && !done; ++round) {
        if (budget.expired()) break;
        // Candidate: outputs under every sample must agree per polarity
        // and differ across polarities (w.r.t. sample 0).
        Solver cand;
        cand.set_limits(budget.limits());
        const std::vector<Var> x_vars =
            engine::make_vars(cand, data_inputs.size());
        std::vector<Var> out0;
        std::vector<Var> out1;
        for (const auto& sample : samples) {
          out0.push_back(
              encode_copy_output(cand, x_vars, bit, false, sample, out));
          out1.push_back(
              encode_copy_output(cand, x_vars, bit, true, sample, out));
        }
        for (std::size_t s = 1; s < samples.size(); ++s) {
          // out0[s] == out0[0], out1[s] == out1[0]
          cand.add_clause({Lit::make(out0[s], true), Lit::make(out0[0])});
          cand.add_clause({Lit::make(out0[s]), Lit::make(out0[0], true)});
          cand.add_clause({Lit::make(out1[s], true), Lit::make(out1[0])});
          cand.add_clause({Lit::make(out1[s]), Lit::make(out1[0], true)});
        }
        // out0[0] != out1[0]
        cand.add_clause({Lit::make(out0[0]), Lit::make(out1[0])});
        cand.add_clause({Lit::make(out0[0], true),
                         Lit::make(out1[0], true)});
        if (cand.solve() != sat::Result::kSat) break;  // no golden pattern

        std::vector<bool> x;
        for (Var v : x_vars) x.push_back(cand.model_bool(v));
        const bool c0 = cand.model_bool(out0[0]);

        // Verify constancy over all rest-keys for both polarities.
        bool golden = true;
        for (int polarity = 0; polarity < 2 && golden; ++polarity) {
          Solver verify;
          verify.set_limits(budget.limits());
          const std::vector<Var> x_fixed = engine::make_fixed_vars(verify, x);
          // One copy with free rest keys.
          const engine::CircuitCopy copy =
              engine::encode_copy(locked, verify, x_fixed);
          verify.add_clause(
              {Lit::make(copy.key_vars[bit], polarity == 0)});
          // Ask for an assignment where the output deviates from the
          // candidate's constant.
          const bool expect = polarity == 0 ? c0 : !c0;
          verify.add_clause({Lit::make(copy.output_vars[out], expect)});
          const sat::Result vr = verify.solve();
          if (vr == sat::Result::kSat) {
            // Counterexample rest-key; refine the candidate.
            std::vector<bool> sample(key_width);
            for (std::size_t i = 0; i < key_width; ++i) {
              sample[i] = verify.model_bool(copy.key_vars[i]);
            }
            samples.push_back(std::move(sample));
            golden = false;
          } else if (vr == sat::Result::kUnknown) {
            golden = false;
            round = 6;  // out of budget for this output
          }
        }
        if (!golden) continue;

        // Golden pattern: one oracle query resolves the bit.
        const auto y = oracle.query(x);
        ++result.oracle_queries;
        result.key[bit] = y[out] != c0;  // c0 was the bit=0 output value
        result.resolved[bit] = true;
        ++result.resolved_count;
        done = true;
      }
    }
  }
  result.seconds = budget.elapsed();
  return result;
}

}  // namespace ril::attacks
