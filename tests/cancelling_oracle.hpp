// Test helper: an oracle that raises a cancellation flag mid-attack, so a
// test can check that an attack stops right after a known DIP.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "attacks/oracle.hpp"

namespace ril::attacks {

/// Answers like `inner` and raises `cancel` once `after` queries are in.
class CancellingOracle : public QueryOracle {
 public:
  CancellingOracle(QueryOracle& inner, std::atomic<bool>& cancel,
                   std::size_t after)
      : inner_(inner), cancel_(cancel), after_(after) {}

  std::vector<bool> query(const std::vector<bool>& data) override {
    if (++queries_ >= after_) cancel_ = true;
    return inner_.query(data);
  }

 private:
  QueryOracle& inner_;
  std::atomic<bool>& cancel_;
  std::size_t after_;
  std::size_t queries_ = 0;
};

}  // namespace ril::attacks
