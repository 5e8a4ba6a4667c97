#include "milp/presolve.h"

#include <algorithm>
#include <cmath>

namespace qfix {
namespace milp {
namespace {

constexpr double kFeasTol = 1e-7;

// Records the previous bounds of `var` before a modification.
void Record(BoundTrail* trail, VarId var, const Domains& d) {
  if (trail != nullptr) trail->push_back({var, d.lb[var], d.ub[var]});
}

}  // namespace

VarRows::VarRows(const Model& model) : start_(model.NumVars() + 1, 0) {
  for (const Constraint& c : model.constraints()) {
    for (const Term& t : c.terms) ++start_[t.var + 1];
  }
  for (VarId v = 0; v < model.NumVars(); ++v) start_[v + 1] += start_[v];
  rows_.resize(start_.back());
  std::vector<int32_t> fill(start_.begin(), start_.end() - 1);
  for (int32_t r = 0; r < model.NumConstraints(); ++r) {
    for (const Term& t : model.constraint(r).terms) rows_[fill[t.var]++] = r;
  }
}

Propagator::Propagator(const Model& model, const VarRows& var_rows,
                       int propagation_rounds)
    : model_(model),
      var_rows_(var_rows),
      max_visits_(static_cast<int64_t>(std::max(propagation_rounds, 0)) *
                  model.NumConstraints()),
      queue_(model.NumConstraints()),
      queued_(model.NumConstraints(), 0) {}

void Propagator::QueueRow(int32_t row) {
  if (queued_[row] != 0) return;
  queued_[row] = 1;
  size_t tail = head_ + size_;
  if (tail >= queue_.size()) tail -= queue_.size();
  queue_[tail] = row;
  ++size_;
}

void Propagator::QueueAllRows() {
  for (int32_t r = 0; r < model_.NumConstraints(); ++r) QueueRow(r);
}

void Propagator::QueueRowsOf(VarId v) {
  for (const int32_t* r = var_rows_.begin(v); r != var_rows_.end(v); ++r) {
    QueueRow(*r);
  }
}

int32_t Propagator::PopRow() {
  const int32_t r = queue_[head_];
  queued_[r] = 0;
  if (++head_ == queue_.size()) head_ = 0;
  --size_;
  return r;
}

void Propagator::ClearQueue() {
  while (size_ > 0) PopRow();
}

// Integer-aware bound tightening. Returns true if the domain changed,
// false if no change, and sets *infeasible when bounds cross. A change
// queues the variable's rows.
bool Propagator::TightenUpper(Domains& d, VarId v, double new_ub,
                              BoundTrail* trail, bool* infeasible) {
  if (model_.type(v) != VarType::kContinuous) {
    new_ub = std::floor(new_ub + kFeasTol);
  }
  if (new_ub >= d.ub[v] - 1e-12) return false;
  if (new_ub < d.lb[v] - kFeasTol) {
    *infeasible = true;
    return false;
  }
  Record(trail, v, d);
  d.ub[v] = std::max(new_ub, d.lb[v]);
  QueueRowsOf(v);
  return true;
}

bool Propagator::TightenLower(Domains& d, VarId v, double new_lb,
                              BoundTrail* trail, bool* infeasible) {
  if (model_.type(v) != VarType::kContinuous) {
    new_lb = std::ceil(new_lb - kFeasTol);
  }
  if (new_lb <= d.lb[v] + 1e-12) return false;
  if (new_lb > d.ub[v] + kFeasTol) {
    *infeasible = true;
    return false;
  }
  Record(trail, v, d);
  d.lb[v] = std::min(new_lb, d.ub[v]);
  QueueRowsOf(v);
  return true;
}

bool Propagator::PropagateLe(const Constraint& row, double sign, Domains& d,
                             BoundTrail* trail, bool* infeasible) {
  const double rhs = sign * row.rhs;
  // Minimum possible activity; count infinite contributions so a single
  // unbounded variable can still be tightened.
  auto term_min = [&](const Term& t) {
    const double a = sign * t.coeff;
    return a > 0 ? a * d.lb[t.var] : a * d.ub[t.var];
  };
  double min_act = 0.0;
  int num_inf = 0;
  VarId inf_var = -1;
  for (const Term& t : row.terms) {
    double m = term_min(t);
    if (std::isinf(m)) {
      ++num_inf;
      inf_var = t.var;
    } else {
      min_act += m;
    }
  }
  if (num_inf == 0 && min_act > rhs + kFeasTol * (1.0 + std::fabs(rhs))) {
    *infeasible = true;
    return false;
  }
  if (num_inf >= 2) return false;

  bool changed = false;
  for (const Term& t : row.terms) {
    double rest;
    if (num_inf == 1) {
      if (t.var != inf_var) continue;  // only the unbounded var tightens
      rest = min_act;
    } else {
      rest = min_act - term_min(t);
    }
    const double a = sign * t.coeff;
    double limit = rhs - rest;  // a * x <= limit
    if (a > 0) {
      changed |= TightenUpper(d, t.var, limit / a, trail, infeasible);
    } else {
      changed |= TightenLower(d, t.var, limit / a, trail, infeasible);
    }
    if (*infeasible) return changed;
  }
  return changed;
}

Status Propagator::Propagate(Domains& domains, BoundTrail* trail) {
  bool infeasible = false;
  for (int64_t visits = 0; size_ > 0 && visits < max_visits_; ++visits) {
    // The row stays at the head of the queue while it is visited, so its
    // own tightenings do not queue it again: a one-sided row's
    // tightenings never change the activity bound it reads.
    const Constraint& c = model_.constraint(queue_[head_]);
    bool changed = false;
    switch (c.sense) {
      case Sense::kLe:
        changed = PropagateLe(c, 1.0, domains, trail, &infeasible);
        break;
      case Sense::kGe:
        changed = PropagateLe(c, -1.0, domains, trail, &infeasible);
        break;
      case Sense::kEq:
        changed = PropagateLe(c, 1.0, domains, trail, &infeasible);
        if (!infeasible) {
          changed |= PropagateLe(c, -1.0, domains, trail, &infeasible);
        }
        break;
    }
    if (infeasible) {
      ClearQueue();
      return Status::Infeasible("bound propagation proved infeasibility");
    }
    const int32_t r = PopRow();
    // Each side of an equality row reads the bounds the other tightens.
    if (changed && c.sense == Sense::kEq) QueueRow(r);
  }
  ClearQueue();
  return Status::OK();
}

bool Propagator::ProbeSide(Domains& domains, VarId v, double value) {
  side_trail_.push_back({v, domains.lb[v], domains.ub[v]});
  domains.lb[v] = value;
  domains.ub[v] = value;
  QueueRowsOf(v);
  for (int32_t r : pending_) QueueRow(r);
  return Propagate(domains, &side_trail_).ok();
}

Status Propagator::Probe(Domains& domains, int max_passes, BoundTrail* trail,
                         ProbeResult* result) {
  ProbeResult local;
  ProbeResult* res = result != nullptr ? result : &local;
  *res = ProbeResult{};

  const VarId n = model_.NumVars();
  moved0_.assign(n, 0);
  lb0_.resize(n);
  ub0_.resize(n);
  stamp_ = 0;
  // Invariant: `domains` is at a fixpoint of every row outside pending_,
  // and each probe side propagates pending_ too, so a side reaches the
  // fixpoint a full sweep would. Nothing is known of the caller's
  // domains, so every row starts pending.
  ClearQueue();
  pending_.resize(model_.NumConstraints());
  for (int32_t r = 0; r < model_.NumConstraints(); ++r) pending_[r] = r;

  BoundTrail hull;  // per variable both sides moved: their union
  for (int pass = 0; pass < max_passes; ++pass) {
    bool changed = false;
    for (VarId v = 0; v < n; ++v) {
      if (model_.type(v) != VarType::kBinary) continue;
      if (domains.Fixed(v)) continue;
      if (domains.lb[v] > 0.0 || domains.ub[v] < 1.0) continue;

      ++stamp_;
      const bool zero_ok = ProbeSide(domains, v, 0.0);
      if (zero_ok) {
        for (const BoundChange& c : side_trail_) {
          moved0_[c.var] = stamp_;
          lb0_[c.var] = domains.lb[c.var];
          ub0_[c.var] = domains.ub[c.var];
        }
      }
      RewindTrail(domains, side_trail_, 0);
      const bool one_ok = ProbeSide(domains, v, 1.0);
      hull.clear();
      if (zero_ok && one_ok) {
        for (const BoundChange& c : side_trail_) {
          if (moved0_[c.var] != stamp_) continue;
          moved0_[c.var] = 0;  // once per variable
          hull.push_back({c.var, std::min(lb0_[c.var], domains.lb[c.var]),
                          std::max(ub0_[c.var], domains.ub[c.var])});
        }
      }
      RewindTrail(domains, side_trail_, 0);
      ++res->probed;

      if (!zero_ok && !one_ok) {
        return Status::Infeasible("probing proved infeasibility");
      }
      if (!zero_ok || !one_ok) {
        Record(trail, v, domains);
        domains.lb[v] = zero_ok ? 0.0 : 1.0;
        domains.ub[v] = domains.lb[v];
        ++res->fixed_binaries;
        changed = true;
        // Make the fixing's consequences visible to later probes.
        QueueRowsOf(v);
        for (int32_t r : pending_) QueueRow(r);
        pending_.clear();
        Status s = Propagate(domains, trail);
        if (!s.ok()) return s;
        continue;
      }

      // Both sides survive: any feasible solution lives in one of the two
      // propagated boxes, so their union bounds every variable globally.
      // A variable only one side moved keeps its bounds in the union.
      for (const BoundChange& h : hull) {
        const VarId w = h.var;
        bool moved = false;
        if (h.lb > domains.lb[w] + 1e-12) {
          Record(trail, w, domains);
          domains.lb[w] = std::min(h.lb, domains.ub[w]);
          ++res->tightened_bounds;
          moved = true;
        }
        if (h.ub < domains.ub[w] - 1e-12) {
          Record(trail, w, domains);
          domains.ub[w] = std::max(h.ub, domains.lb[w]);
          ++res->tightened_bounds;
          moved = true;
        }
        if (moved) {
          QueueRowsOf(w);
          changed = true;
        }
      }
      // Only the rows of what the union moved can have left the fixpoint.
      pending_.clear();
      while (size_ > 0) pending_.push_back(PopRow());
    }
    if (!changed) break;
  }
  for (int32_t r : pending_) QueueRow(r);
  return Status::OK();
}

Status PropagateBounds(const Model& model, Domains& domains, int max_rounds,
                       BoundTrail* trail) {
  VarRows var_rows(model);
  Propagator propagator(model, var_rows, max_rounds);
  propagator.QueueAllRows();
  return propagator.Propagate(domains, trail);
}

Status ProbeBinaries(const Model& model, Domains& domains,
                     int propagation_rounds, int max_passes,
                     BoundTrail* trail, ProbeResult* result) {
  VarRows var_rows(model);
  Propagator propagator(model, var_rows, propagation_rounds);
  return propagator.Probe(domains, max_passes, trail, result);
}

void RewindTrail(Domains& domains, BoundTrail& trail, size_t mark) {
  QFIX_CHECK(mark <= trail.size());
  // Undo in reverse so the oldest record wins for multiply-changed vars.
  for (size_t i = trail.size(); i > mark; --i) {
    const BoundChange& bc = trail[i - 1];
    domains.lb[bc.var] = bc.lb;
    domains.ub[bc.var] = bc.ub;
  }
  trail.resize(mark);
}

}  // namespace milp
}  // namespace qfix
