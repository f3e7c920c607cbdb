#include "sat/drat_check.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace ril::sat {

namespace {

bool lit_less(Lit a, Lit b) { return a.code < b.code; }

/// Self-contained clause database + unit propagation engine. Deliberately
/// independent of Solver: plain vectors, eager watch removal, no activity
/// or restart machinery -- just enough to decide RUP queries.
class Checker {
 public:
  /// Ingests one step; returns false (with error() set) when the step
  /// fails to check. Steps arriving after the empty clause has been
  /// derived are ignored -- the certificate is already complete.
  bool step(const ProofStep& s) {
    ++index_;
    if (refuted_) return true;
    switch (s.kind) {
      case ProofStepKind::kOriginal:
        ++stats_.originals;
        insert_clause(s.lits);
        return true;
      case ProofStepKind::kDerive: {
        ++stats_.derivations;
        if (!rup(s.lits)) {
          error_ = "step " + std::to_string(index_) +
                   ": derived clause is not RUP";
          return false;
        }
        if (s.lits.empty()) {
          refuted_ = true;
        } else {
          insert_clause(s.lits);
        }
        return true;
      }
      case ProofStepKind::kErase: {
        std::string error;
        if (!erase_clause(s.lits, &error)) {
          error_ = "step " + std::to_string(index_) + ": " + error;
          return false;
        }
        return true;
      }
    }
    error_ = "step " + std::to_string(index_) + ": unknown step kind";
    return false;
  }

  const std::string& error() const { return error_; }

  /// Packages the verdict. `require_refutation` demands empty-clause
  /// closure (check_refutation_file); without it any fully-checked trace
  /// is valid (check_derivations_file).
  DratCheckResult finish(bool require_refutation) const {
    DratCheckResult out;
    out.stats = stats_;
    if (!error_.empty()) {
      out.error = error_;
      return out;
    }
    // A trace without steps certifies nothing, open or closed.
    if (index_ == 0) {
      out.error = "empty trace";
      return out;
    }
    if (!require_refutation || refuted_) {
      out.valid = true;
      return out;
    }
    out.error = "trace never derives the empty clause";
    return out;
  }

 private:
  struct DbClause {
    std::vector<Lit> lits;  ///< watch moves permute; compare via sorted copy
    bool live = false;
    bool watched = false;
  };

  static constexpr int kNoReason = -1;

  // --- assignment --------------------------------------------------------
  void ensure_var(Var v) {
    if (static_cast<std::size_t>(v) < assigns_.size()) return;
    assigns_.resize(v + 1, 0);
    reason_.resize(v + 1, kNoReason);
    watches_.resize(2 * static_cast<std::size_t>(v + 1));
  }

  int value(Lit l) const {
    const int v = assigns_[l.var()];
    return l.sign() ? -v : v;
  }

  void assign(Lit l, int reason) {
    assigns_[l.var()] = l.sign() ? -1 : 1;
    reason_[l.var()] = reason;
    trail_.push_back(l);
  }

  /// Propagates to fixpoint from the current head; true on conflict.
  /// Clauses watching literal w live in watches_[(~w).code], so assigning
  /// p true visits watches_[p.code] -- the clauses whose watch ~p just
  /// became false.
  bool propagate() {
    while (head_ < trail_.size()) {
      const Lit p = trail_[head_++];
      ++stats_.propagations;
      auto& list = watches_[p.code];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < list.size(); ++i) {
        const int cid = list[i];
        DbClause& c = clauses_[cid];
        if (c.lits[0] == ~p) std::swap(c.lits[0], c.lits[1]);
        if (value(c.lits[0]) > 0) {
          list[keep++] = cid;
          continue;
        }
        bool moved = false;
        for (std::size_t k = 2; k < c.lits.size(); ++k) {
          if (value(c.lits[k]) >= 0) {
            std::swap(c.lits[1], c.lits[k]);
            watches_[(~c.lits[1]).code].push_back(cid);
            moved = true;
            break;
          }
        }
        if (moved) continue;
        list[keep++] = cid;
        if (value(c.lits[0]) < 0) {
          for (++i; i < list.size(); ++i) list[keep++] = list[i];
          list.resize(keep);
          head_ = trail_.size();
          return true;
        }
        assign(c.lits[0], cid);
      }
      list.resize(keep);
    }
    return false;
  }

  // --- clause database ---------------------------------------------------
  static std::uint64_t key_of(const std::vector<Lit>& sorted) {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over lit codes
    for (Lit l : sorted) {
      h ^= static_cast<std::uint32_t>(l.code);
      h *= 1099511628211ull;
    }
    return h;
  }

  /// Sorts + dedups; returns false for tautologies.
  static bool canonicalize(const Clause& in, std::vector<Lit>* out) {
    *out = in;
    std::sort(out->begin(), out->end(), lit_less);
    out->erase(std::unique(out->begin(), out->end()), out->end());
    for (std::size_t i = 1; i < out->size(); ++i) {
      if ((*out)[i] == ~(*out)[i - 1]) return false;
    }
    return true;
  }

  /// True iff `c` (in arbitrary order, deduplicated) matches the sorted
  /// deduplicated literal set `canonical`.
  static bool same_clause(const std::vector<Lit>& c,
                          const std::vector<Lit>& canonical) {
    if (c.size() != canonical.size()) return false;
    std::vector<Lit> sorted = c;
    std::sort(sorted.begin(), sorted.end(), lit_less);
    return std::equal(sorted.begin(), sorted.end(), canonical.begin());
  }

  void insert_clause(const Clause& lits) {
    std::vector<Lit> canonical;
    const bool proper = canonicalize(lits, &canonical);
    for (Lit l : canonical) ensure_var(l.var());
    const int cid = static_cast<int>(clauses_.size());
    by_key_[key_of(canonical)].push_back(cid);
    clauses_.push_back({std::move(canonical), /*live=*/true,
                        /*watched=*/false});
    // Tautologies are inert (but stay findable for deletion lines), and
    // once the database is refuted nothing further can matter.
    if (!proper || refuted_by_db_) return;
    DbClause& c = clauses_[cid];
    // Persistent assignments only ever grow, so a clause satisfied now is
    // satisfied forever and never needs watches.
    for (Lit l : c.lits) {
      if (value(l) > 0) return;
    }
    // Pull the (up to 2) unassigned literals into the watch slots.
    std::size_t free_count = 0;
    for (std::size_t i = 0; i < c.lits.size() && free_count < 2; ++i) {
      if (value(c.lits[i]) == 0) std::swap(c.lits[free_count++], c.lits[i]);
    }
    if (free_count == 0) {
      refuted_by_db_ = true;  // every literal false under the fixpoint
      return;
    }
    if (free_count == 1) {
      assign(c.lits[0], cid);
      if (propagate()) refuted_by_db_ = true;
      return;
    }
    c.watched = true;
    watches_[(~c.lits[0]).code].push_back(cid);
    watches_[(~c.lits[1]).code].push_back(cid);
  }

  /// RUP query: does asserting the negation of `lits` on top of the
  /// persistent fixpoint propagate to a conflict?
  bool rup(const Clause& lits) {
    if (refuted_by_db_) return true;
    const std::size_t mark = trail_.size();
    bool conflict = false;
    for (Lit l : lits) {
      ensure_var(l.var());
      const int v = value(l);
      if (v > 0) {
        conflict = true;  // negation contradicts the fixpoint outright
        break;
      }
      if (v == 0) assign(~l, kNoReason);
    }
    if (!conflict) conflict = propagate();
    for (std::size_t i = trail_.size(); i-- > mark;) {
      const Var v = trail_[i].var();
      assigns_[v] = 0;
      reason_[v] = kNoReason;
    }
    trail_.resize(mark);
    head_ = mark;
    return conflict;
  }

  bool erase_clause(const Clause& lits, std::string* error) {
    std::vector<Lit> canonical;
    canonicalize(lits, &canonical);
    const auto it = by_key_.find(key_of(canonical));
    int cid = -1;
    if (it != by_key_.end()) {
      for (const int candidate : it->second) {
        if (clauses_[candidate].live &&
            same_clause(clauses_[candidate].lits, canonical)) {
          cid = candidate;
          break;
        }
      }
    }
    if (cid < 0) {
      *error = "deletion of a clause not in the database";
      return false;
    }
    DbClause& c = clauses_[cid];
    // Keep clauses that anchor a persistent unit: removing them would let
    // later RUP checks lean on assignments with no surviving antecedent.
    for (Lit l : c.lits) {
      if (value(l) > 0 && reason_[l.var()] == cid) {
        ++stats_.ignored_deletions;
        return true;
      }
    }
    ++stats_.deletions;
    c.live = false;
    if (c.watched) {
      detach_watch(cid, c.lits[0]);
      detach_watch(cid, c.lits[1]);
      c.watched = false;
    }
    return true;
  }

  void detach_watch(int cid, Lit watched) {
    auto& list = watches_[(~watched).code];
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i] == cid) {
        list[i] = list.back();
        list.pop_back();
        return;
      }
    }
  }

  std::vector<DbClause> clauses_;
  std::unordered_map<std::uint64_t, std::vector<int>> by_key_;
  std::vector<std::vector<int>> watches_;  // indexed by lit code
  std::vector<int> assigns_;               // indexed by var: -1 / 0 / +1
  std::vector<int> reason_;                // clause id or kNoReason
  std::vector<Lit> trail_;
  std::size_t head_ = 0;
  bool refuted_by_db_ = false;
  bool refuted_ = false;
  std::size_t index_ = 0;
  std::string error_;
  DratCheckStats stats_;
};

DratCheckResult run_on_file(const std::string& path, bool require_refutation) {
  Checker checker;
  try {
    TraceReader reader(path);
    ProofStep step;
    // Steps after a checked empty clause are skipped by Checker::step, but
    // the reader still drains them: the file must frame correctly end to
    // end, so a torn tail, tampered end marker, or wrong declared step
    // count is rejected even when the refutation checked.
    while (reader.next(step)) {
      if (!checker.step(step)) break;
    }
  } catch (const std::exception& e) {
    DratCheckResult out = checker.finish(require_refutation);
    out.valid = false;
    out.malformed = true;
    out.error = e.what();
    return out;
  }
  return checker.finish(require_refutation);
}

}  // namespace

DratCheckResult check_refutation_file(const std::string& path) {
  return run_on_file(path, /*require_refutation=*/true);
}

DratCheckResult check_derivations_file(const std::string& path) {
  return run_on_file(path, /*require_refutation=*/false);
}

}  // namespace ril::sat
