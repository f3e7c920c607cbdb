#include "sat/preprocessor.hpp"

#include <algorithm>
#include <stdexcept>

namespace ril::sat {

namespace {

bool lit_less(Lit a, Lit b) { return a.code < b.code; }

/// Resolution outcome for one (C \/ v, D \/ ~v) pair.
enum class ResolveStatus { kOk, kTautology, kTooWide };

/// Merges two sorted clauses, dropping both literals of `pivot`.
/// Duplicate literals collapse; opposite literals of any other variable
/// make the resolvent a tautology.
ResolveStatus resolve(const Clause& a, const Clause& b, Var pivot,
                      std::size_t width_limit, Clause& out) {
  out.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    Lit next;
    if (j >= b.size() || (i < a.size() && a[i].code <= b[j].code)) {
      next = a[i++];
    } else {
      next = b[j++];
    }
    if (next.var() == pivot) continue;
    if (!out.empty()) {
      if (out.back() == next) continue;
      if (out.back().code == (next.code ^ 1)) return ResolveStatus::kTautology;
    }
    out.push_back(next);
    if (out.size() > width_limit) return ResolveStatus::kTooWide;
  }
  return ResolveStatus::kOk;
}

}  // namespace

Preprocessor::Preprocessor(PreprocessConfig config)
    : config_(config) {}

std::uint64_t Preprocessor::signature(const Clause& lits) {
  std::uint64_t sig = 0;
  for (const Lit l : lits) sig |= 1ull << (l.var() & 63);
  return sig;
}

Var Preprocessor::new_var() {
  const Var v = static_cast<Var>(frozen_.size());
  ensure_var(v);
  return v;
}

void Preprocessor::ensure_var(Var v) {
  if (v < 0) throw std::invalid_argument("Preprocessor: negative variable");
  if (static_cast<std::size_t>(v) < frozen_.size()) return;
  frozen_.resize(v + 1, false);
  eliminated_.resize(v + 1, false);
  occ_.resize(2 * static_cast<std::size_t>(v + 1));
}

void Preprocessor::freeze(Var v) {
  ensure_var(v);
  frozen_[v] = true;
}

void Preprocessor::freeze(const std::vector<Var>& vars) {
  for (const Var v : vars) freeze(v);
}

void Preprocessor::set_contradiction() {
  contradiction_ = true;
  if (!proof_closed_) log_step(ProofStepKind::kDerive, {});
}

void Preprocessor::log_step(ProofStepKind kind, const Clause& lits) {
  if (!proof_enabled_) return;
  proof_closed_ =
      proof_closed_ || (kind == ProofStepKind::kDerive && lits.empty());
  proof_steps_.push_back({kind, lits});
}

bool Preprocessor::add_clause(Clause lits) {
  if (ran_) {
    throw std::logic_error("Preprocessor::add_clause after run()");
  }
  for (const Lit l : lits) ensure_var(l.var());
  originals_.push_back(lits);
  if (contradiction_) return false;
  return stage_entry(std::move(lits));
}

bool Preprocessor::stage_entry(Clause lits) {
  std::sort(lits.begin(), lits.end(), lit_less);
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  for (std::size_t i = 1; i < lits.size(); ++i) {
    if (lits[i].code == (lits[i - 1].code ^ 1)) return true;  // tautology
  }
  if (lits.empty()) {
    set_contradiction();
    return false;
  }
  const std::size_t idx = entries_.size();
  Entry entry;
  entry.sig = signature(lits);
  entry.lits = std::move(lits);
  for (const Lit l : entry.lits) occ_[l.code].push_back(idx);
  entries_.push_back(std::move(entry));
  queued_.resize(entries_.size(), false);
  queued_[idx] = true;
  queue_.push_back(idx);
  return true;
}

void Preprocessor::occ_remove(Lit l, std::size_t idx) {
  auto& list = occ_[l.code];
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i] == idx) {
      list[i] = list.back();
      list.pop_back();
      return;
    }
  }
}

void Preprocessor::delete_entry(std::size_t idx) {
  Entry& entry = entries_[idx];
  if (entry.deleted) return;
  entry.deleted = true;
  for (const Lit l : entry.lits) occ_remove(l, idx);
}

bool Preprocessor::subset_except(const Clause& small, const Clause& big,
                                 Lit skip) {
  std::size_t j = 0;
  for (const Lit l : small) {
    if (l == skip) continue;
    while (j < big.size() && big[j].code < l.code) ++j;
    if (j >= big.size() || big[j] != l) return false;
    ++j;
  }
  return true;
}

bool Preprocessor::subsume_round() {
  bool changed = false;
  while (!queue_.empty() && !contradiction_) {
    const std::size_t idx = queue_.back();
    queue_.pop_back();
    queued_[idx] = false;
    if (entries_[idx].deleted) continue;
    if (process_subsumption(idx)) changed = true;
  }
  return changed;
}

bool Preprocessor::process_subsumption(std::size_t idx) {
  bool changed = false;
  // By value: staging a strengthened clause below reallocates entries_.
  const Clause c = entries_[idx].lits;
  const std::uint64_t c_sig = entries_[idx].sig;

  if (config_.subsumption) {
    // Backward subsumption: delete every strict superset of c. Scanning
    // only the occurrence list of c's rarest literal keeps this near
    // linear; the signature test rejects most candidates without a merge.
    Lit best = c.front();
    for (const Lit l : c) {
      if (occ_[l.code].size() < occ_[best.code].size()) best = l;
    }
    const std::vector<std::size_t> candidates = occ_[best.code];
    for (const std::size_t d_idx : candidates) {
      if (d_idx == idx) continue;
      Entry& d = entries_[d_idx];
      if (d.deleted || d.lits.size() < c.size()) continue;
      if ((c_sig & ~d.sig) != 0) continue;
      if (!subset_except(c, d.lits, kLitUndef)) continue;
      log_step(ProofStepKind::kErase, d.lits);
      delete_entry(d_idx);
      ++stats_.subsumed_clauses;
      changed = true;
    }
  }

  if (config_.self_subsumption) {
    // Self-subsuming resolution: for l in c, if c with l flipped is a
    // subset of d, the resolvent of c and d on l.var() subsumes d, so ~l
    // can be removed from d (strengthening).
    for (const Lit l : c) {
      const auto& flip_list = occ_[(~l).code];
      if (flip_list.size() > config_.bve_occurrence_limit * 16) continue;
      const std::vector<std::size_t> candidates = flip_list;
      for (const std::size_t d_idx : candidates) {
        Entry& d = entries_[d_idx];
        if (d.deleted || d.lits.size() < c.size()) continue;
        if ((c_sig & ~d.sig) != 0) continue;
        if (!subset_except(c, d.lits, l)) continue;
        // Strengthen d: drop ~l. Proof order: the strengthened clause is
        // RUP while both parents are live, so 'a' precedes the 'd'.
        Clause strengthened;
        strengthened.reserve(d.lits.size() - 1);
        for (const Lit dl : d.lits) {
          if (dl != ~l) strengthened.push_back(dl);
        }
        log_step(ProofStepKind::kDerive, strengthened);
        log_step(ProofStepKind::kErase, d.lits);
        delete_entry(d_idx);
        ++stats_.strengthened_literals;
        changed = true;
        if (strengthened.empty()) {
          set_contradiction();
          return true;
        }
        stage_entry(std::move(strengthened));
      }
    }
  }
  return changed;
}

bool Preprocessor::eliminate_round() {
  // Cheapest variables first: elimination cost is the number of
  // resolvent candidates |P| * |N|.
  std::vector<std::pair<std::size_t, Var>> order;
  for (Var v = 0; static_cast<std::size_t>(v) < frozen_.size(); ++v) {
    if (frozen_[v] || eliminated_[v]) continue;
    const std::size_t pos = occ_[Lit::make(v, false).code].size();
    const std::size_t neg = occ_[Lit::make(v, true).code].size();
    if (pos + neg == 0 || pos + neg > occ_limit_) continue;
    order.emplace_back(pos * neg, v);
  }
  std::sort(order.begin(), order.end());
  bool changed = false;
  for (const auto& [cost, v] : order) {
    if (contradiction_) break;
    if (try_eliminate(v)) changed = true;
  }
  return changed;
}

bool Preprocessor::try_eliminate(Var v) {
  if (frozen_[v] || eliminated_[v]) return false;
  const std::vector<std::size_t> pos = occ_[Lit::make(v, false).code];
  const std::vector<std::size_t> neg = occ_[Lit::make(v, true).code];
  if (pos.empty() && neg.empty()) return false;
  if (pos.size() + neg.size() > occ_limit_) return false;

  // Dry run: collect all non-tautological resolvents, aborting if one is
  // too wide or the clause count would grow beyond the bound. The literal
  // count is bounded separately: narrow parents can resolve into wide
  // resolvents, shrinking the clause count while growing the formula --
  // exactly the pattern that slowed the xor workload down.
  const std::size_t budget =
      pos.size() + neg.size() +
      static_cast<std::size_t>(config_.bve_growth > 0 ? config_.bve_growth
                                                      : 0);
  std::size_t removed_literals = 0;
  for (const std::size_t p : pos) removed_literals += entries_[p].lits.size();
  for (const std::size_t n : neg) removed_literals += entries_[n].lits.size();
  const std::size_t literal_budget =
      removed_literals +
      static_cast<std::size_t>(
          config_.bve_literal_growth > 0 ? config_.bve_literal_growth : 0);
  std::size_t resolvent_literals = 0;
  std::vector<Clause> resolvents;
  Clause resolvent;
  for (const std::size_t p : pos) {
    for (const std::size_t n : neg) {
      const ResolveStatus status =
          resolve(entries_[p].lits, entries_[n].lits, v,
                  config_.bve_resolvent_limit, resolvent);
      if (status == ResolveStatus::kTooWide) return false;
      if (status == ResolveStatus::kTautology) continue;
      resolvent_literals += resolvent.size();
      resolvents.push_back(resolvent);
      if (resolvents.size() > budget || resolvent_literals > literal_budget) {
        return false;
      }
    }
  }

  // Commit. Additions go into the proof before the parent deletions so
  // each resolvent is RUP while both parents are still live.
  for (const Clause& r : resolvents) log_step(ProofStepKind::kDerive, r);
  ElimRecord record;
  record.var = v;
  record.clauses.reserve(pos.size() + neg.size());
  for (const std::size_t p : pos) record.clauses.push_back(entries_[p].lits);
  for (const std::size_t n : neg) record.clauses.push_back(entries_[n].lits);
  for (const std::size_t p : pos) {
    log_step(ProofStepKind::kErase, entries_[p].lits);
    delete_entry(p);
  }
  for (const std::size_t n : neg) {
    log_step(ProofStepKind::kErase, entries_[n].lits);
    delete_entry(n);
  }
  elim_stack_.push_back(std::move(record));
  eliminated_[v] = true;
  ++stats_.eliminated_vars;
  stats_.resolvents_added += resolvents.size();
  for (Clause& r : resolvents) {
    if (r.empty()) {
      set_contradiction();
      return true;
    }
    stage_entry(std::move(r));
  }
  return true;
}

std::size_t Preprocessor::live_literals() const {
  std::size_t n = 0;
  for (const Entry& e : entries_) {
    if (!e.deleted) n += e.lits.size();
  }
  return n;
}

void Preprocessor::run() {
  if (ran_) return;
  ran_ = true;
  stats_.vars_before = frozen_.size();
  for (const Entry& e : entries_) {
    if (e.deleted) continue;
    ++stats_.clauses_before;
    stats_.literals_before += e.lits.size();
  }
  occ_limit_ = config_.bve_occurrence_limit;

  if (!contradiction_) {
    for (std::size_t round = 0; round < config_.max_rounds; ++round) {
      ++stats_.rounds;
      const std::size_t literals_at_start = live_literals();
      bool changed = false;
      if (config_.subsumption || config_.self_subsumption) {
        changed = subsume_round();
      }
      if (!contradiction_ && config_.variable_elimination) {
        if (eliminate_round()) changed = true;
      }
      if (contradiction_ || !changed) break;
      if (config_.self_tuning && config_.variable_elimination) {
        // Formula-driven bound tuning: while a round keeps shrinking the
        // literal count by >= ~1.5%, the formula responds well and the
        // occurrence limit doubles (deeper eliminations next round, up
        // to 8x the configured base); once progress stalls the limit
        // decays back toward the base. Purely a function of the staged
        // formula, so runs stay deterministic.
        const std::size_t literals_now = live_literals();
        if (literals_now + literals_at_start / 64 < literals_at_start) {
          occ_limit_ =
              std::min(occ_limit_ * 2, config_.bve_occurrence_limit * 8);
        } else if (occ_limit_ > config_.bve_occurrence_limit) {
          occ_limit_ =
              std::max(occ_limit_ / 2, config_.bve_occurrence_limit);
        }
      }
    }
    // Clean up resolvents queued by a final elimination round.
    if (!contradiction_ && !queue_.empty()) subsume_round();
  }
  stats_.tuned_occurrence_limit = occ_limit_;

  if (contradiction_ && !proof_closed_) log_step(ProofStepKind::kDerive, {});
  stats_.vars_after = stats_.vars_before - stats_.eliminated_vars;
  for (const Entry& e : entries_) {
    if (e.deleted) continue;
    ++stats_.clauses_after;
    stats_.literals_after += e.lits.size();
  }
}

std::vector<Clause> Preprocessor::clauses() const {
  std::vector<Clause> out;
  out.reserve(stats_.clauses_after);
  for (const Entry& e : entries_) {
    if (!e.deleted) out.push_back(e.lits);
  }
  return out;
}

void Preprocessor::extend_model(std::vector<LBool>& model) const {
  const auto lit_true = [&model](Lit l) {
    const LBool v = model[l.var()];
    if (v == LBool::kUndef) return false;
    return (v == LBool::kTrue) != l.sign();
  };
  // Reverse order: each record's variable may feed clauses of records
  // eliminated earlier (already replayed later in this loop's view).
  for (auto it = elim_stack_.rbegin(); it != elim_stack_.rend(); ++it) {
    bool need_true = false;
    for (const Clause& c : it->clauses) {
      bool satisfied = false;
      bool positive = false;
      for (const Lit l : c) {
        if (l.var() == it->var) {
          positive = positive || !l.sign();
          continue;
        }
        if (lit_true(l)) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied && positive) {
        need_true = true;
        break;
      }
    }
    model[it->var] = need_true ? LBool::kTrue : LBool::kFalse;
  }
}

bool Preprocessor::verify_model(const std::vector<LBool>& model) const {
  const auto lit_true = [&model](Lit l) {
    if (static_cast<std::size_t>(l.var()) >= model.size()) return false;
    const LBool v = model[l.var()];
    if (v == LBool::kUndef) return false;
    return (v == LBool::kTrue) != l.sign();
  };
  for (const Clause& c : originals_) {
    bool satisfied = false;
    for (const Lit l : c) {
      if (lit_true(l)) {
        satisfied = true;
        break;
      }
    }
    if (satisfied) continue;
    // A tautological original is satisfied by any total assignment; it
    // can still read "unsatisfied" here if its variable never got a
    // value (it was dropped at staging, so nothing constrains it).
    bool tautology = false;
    for (std::size_t i = 0; i < c.size() && !tautology; ++i) {
      for (std::size_t j = i + 1; j < c.size(); ++j) {
        if (c[i].code == (c[j].code ^ 1)) {
          tautology = true;
          break;
        }
      }
    }
    if (!tautology) return false;
  }
  return true;
}

}  // namespace ril::sat
