#include "moe/gate.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/simd_math.h"
#include "common/stats.h"

namespace mixnet::moe {

namespace {

void normalize(std::vector<double>& v) { normalize_span(v.data(), v.size()); }

/// dst[d*n + s] = src[s*n + d] for an n x n block, in square tiles so both
/// sides stay in cache (a column-strided scatter misses on every write once
/// a row is larger than a few cache lines).
void transpose_into(const double* src, double* dst, std::size_t n) {
  constexpr std::size_t kTile = 32;
  for (std::size_t d0 = 0; d0 < n; d0 += kTile) {
    const std::size_t d1 = std::min(d0 + kTile, n);
    for (std::size_t s0 = 0; s0 < n; s0 += kTile) {
      const std::size_t s1 = std::min(s0 + kTile, n);
      for (std::size_t d = d0; d < d1; ++d)
        for (std::size_t s = s0; s < s1; ++s) dst[d * n + s] = src[s * n + d];
    }
  }
}

}  // namespace

GateSimulator::GateSimulator(const GateConfig& cfg, int read_layers)
    : cfg_(cfg),
      rng_(cfg.seed),
      read_layers_(read_layers) {
  if (cfg_.n_experts <= 0 || cfg_.n_layers <= 0 || cfg_.ep_ranks <= 0)
    throw std::invalid_argument(
        "GateConfig: n_experts, n_layers and ep_ranks must be positive (got " +
        std::to_string(cfg_.n_experts) + ", " + std::to_string(cfg_.n_layers) +
        ", " + std::to_string(cfg_.ep_ranks) + ")");
  // A non-finite knob makes every load and count NaN: reject it here, in
  // every build, naming the field.
  const std::pair<const char*, double> knobs[] = {
      {"tokens_per_rank", cfg_.tokens_per_rank},
      {"personalization", cfg_.personalization},
      {"pref_drift_sigma", cfg_.pref_drift_sigma},
      {"pref_retention", cfg_.pref_retention},
  };
  for (const auto& [name, v] : knobs)
    if (!std::isfinite(v))
      throw std::invalid_argument(std::string("GateConfig::") + name +
                                  " must be finite (got " +
                                  std::to_string(v) + ")");
  if (read_layers < 1 || read_layers > cfg_.n_layers)
    throw std::invalid_argument("GateSimulator: read_layers " +
                                std::to_string(read_layers) + " outside [1, " +
                                std::to_string(cfg_.n_layers) + "]");

  logits_.resize(static_cast<std::size_t>(cfg_.n_experts));
  for (auto& z : logits_) z = rng_.normal(0.0, 1.0);

  // Column-stochastic transition matrices, one per layer boundary. One bulk
  // gamma fill per layer; each E-sized chunk normalizes into one source
  // column's Dirichlet sample (per-column rng_.dirichlet calls were the
  // constructor's dominant cost for the 256-expert models), and the chunks
  // are transposed into the row-major matrix in tiles.
  const auto E0 = static_cast<std::size_t>(cfg_.n_experts);
  transitions_.reserve(static_cast<std::size_t>(cfg_.n_layers));
  transitions_.emplace_back();  // layer 0 has no predecessor
  gamma_scratch_.resize(E0 * E0);
  for (int l = 1; l < cfg_.n_layers; ++l) {
    Matrix m(E0, E0);
    rng_.fill_gamma(gamma_scratch_.data(), E0 * E0, kTransitionAlpha);
    for (std::size_t src = 0; src < E0; ++src)
      normalize_span(gamma_scratch_.data() + src * E0, E0);
    transpose_into(gamma_scratch_.data(), m.data().data(), E0);
    transitions_.push_back(std::move(m));
  }

  // Sparse per-(rank, layer) preferences: a rank's token shard shares
  // domain/semantics, so it prefers a few experts at *every* layer. This is
  // what keeps the all-to-all matrix non-uniform even after the
  // load-balancing loss flattens the aggregate expert loads (Fig. 4b
  // persists while Fig. 4a converges -- the DeepSeek-V3 observation in §3).
  // Preferences follow an OU random walk in logit space so the hot pairs
  // *move* over training -- the temporal dynamics that one-shot topologies
  // (TopoOpt) cannot follow.
  const double pref_sd =
      cfg_.pref_drift_sigma /
      std::sqrt(std::max(1.0 - cfg_.pref_retention * cfg_.pref_retention, 1e-6));
  pref_logits_.resize(static_cast<std::size_t>(cfg_.ep_ranks) *
                      static_cast<std::size_t>(cfg_.n_layers));
  for (auto& z : pref_logits_) {
    z.resize(static_cast<std::size_t>(cfg_.n_experts));
    for (auto& v : z) v = rng_.normal(0.0, pref_sd);
  }

  q_.assign(static_cast<std::size_t>(cfg_.n_layers),
            Matrix(static_cast<std::size_t>(cfg_.ep_ranks),
                   static_cast<std::size_t>(cfg_.n_experts)));
  load_.assign(static_cast<std::size_t>(cfg_.n_layers),
               std::vector<double>(static_cast<std::size_t>(cfg_.n_experts)));
  counts_.assign(static_cast<std::size_t>(cfg_.n_layers),
                 Matrix(static_cast<std::size_t>(cfg_.ep_ranks),
                        static_cast<std::size_t>(cfg_.n_experts)));
  refresh_distributions();
  realize_counts();
}

double GateSimulator::lb_mix() const {
  return kLbFinal * (1.0 - std::exp(-static_cast<double>(iter_) / kLbTimescale));
}

void GateSimulator::skip(int n) {
  for (int i = 0; i < n - 1; ++i) {
    ++iter_;
    advance_state();
  }
  if (n > 0) step();
}

void GateSimulator::step() {
  ++iter_;
  advance_state();
  refresh_distributions();
  realize_counts();
}

void GateSimulator::drop_unread_layers() {
  const auto L = static_cast<std::size_t>(read_layers_);
  if (q_.size() == L) return;
  transitions_.resize(L);
  pref_logits_.resize(L * static_cast<std::size_t>(cfg_.ep_ranks));
  q_.resize(L);
  load_.resize(L);
  counts_.resize(L);
  std::vector<double>().swap(normal_scratch_);  // sized for every layer
}

void GateSimulator::apply_ou_update(double pop_a, double pop_sd, double pref_a,
                                    double pref_sd) {
  // All of one update's walk draws -- popularity plus every (rank, layer)
  // preference vector -- come from ONE bulk fill_normal, and the OU update
  // is a single fused pass over the scratch. Preference walks are stored
  // layer-major, so the held layers' walks are the head; the unread
  // layers' walks are consumed from the stream but neither computed nor
  // held.
  const std::size_t E = logits_.size();
  normal_scratch_.resize(E + pref_logits_.size() * E);
  rng_.fill_normal_head(normal_scratch_.data(), normal_scratch_.size(),
                        E + static_cast<std::size_t>(cfg_.n_layers * cfg_.ep_ranks) * E);
  const double* eps = normal_scratch_.data();
  for (std::size_t e = 0; e < E; ++e)
    logits_[e] = pop_a * logits_[e] + pop_sd * eps[e];
  eps += E;
  for (auto& z : pref_logits_) {
    for (std::size_t e = 0; e < E; ++e) z[e] = pref_a * z[e] + pref_sd * eps[e];
    eps += E;
  }
}

void GateSimulator::advance_state() {
  drop_unread_layers();
  // Popularity random walk with mean reversion (Ornstein-Uhlenbeck): the
  // walk keeps expert popularity moving between iterations (Fig. 4a) while
  // the pull toward 0 keeps its stationary spread bounded, so the
  // load-balancing mix can actually flatten the distribution over training
  // instead of racing a diverging walk. Preference drift: hot (rank, expert)
  // affinities wander on a ~50-iteration timescale while staying sparse (OU
  // stationary spread).
  apply_ou_update(kPopularityRetention, kDriftSigma, cfg_.pref_retention,
                  cfg_.pref_drift_sigma);
  // Occasional transition drift so the Markov structure is non-stationary
  // but learnable within a prediction window.
  if (iter_ % 50 == 0) transition_drift();
}

void GateSimulator::transition_drift() {
  const auto E = static_cast<std::size_t>(cfg_.n_experts);
  gamma_scratch_.resize(E * E);
  for (int l = 1; l < cfg_.n_layers; ++l) {
    // One bulk gamma fill per layer; each E-sized chunk normalizes into the
    // Dirichlet noise for one source column. An unread layer consumes the
    // same draws, so the stream stays the same, but computes no variate.
    if (l >= read_layers_) {
      rng_.skip_gamma(E * E, kTransitionAlpha);
      continue;
    }
    Matrix& m = transitions_[static_cast<std::size_t>(l)];
    rng_.fill_gamma(gamma_scratch_.data(), E * E, kTransitionAlpha);
    for (int src = 0; src < cfg_.n_experts; ++src) {
      double* noise = gamma_scratch_.data() + static_cast<std::size_t>(src) * E;
      normalize_span(noise, E);
      double col_sum = 0.0;
      for (int dst = 0; dst < cfg_.n_experts; ++dst) {
        auto& v = m(static_cast<std::size_t>(dst), static_cast<std::size_t>(src));
        v = 0.97 * v + 0.03 * noise[static_cast<std::size_t>(dst)];
        col_sum += v;
      }
      for (int dst = 0; dst < cfg_.n_experts; ++dst)
        m(static_cast<std::size_t>(dst), static_cast<std::size_t>(src)) /= col_sum;
    }
  }
}

void GateSimulator::advance_steps(int n) {
  if (n <= 0) return;
  drop_unread_layers();
  // Exact discrete-time OU transition: for z' = a z + sigma eps iterated n
  // times, z_n | z_0 ~ N(a^n z_0, sigma^2 (1 - a^{2n}) / (1 - a^2)). One
  // draw per dimension replaces n per-iteration draws; the warmup
  // fast-forward this enables is the single biggest figure-bench saving
  // (the 100-iteration warmups dominated the gate's RNG volume).
  const auto moments = [n](double a, double sigma) {
    const double a2 = a * a;
    const double an = std::pow(a, n);
    const double var = std::abs(1.0 - a2) < 1e-12
                           ? sigma * sigma * n
                           : sigma * sigma * (1.0 - std::pow(a2, n)) / (1.0 - a2);
    return std::pair<double, double>(an, std::sqrt(var));
  };
  const auto [pop_an, pop_sd] = moments(kPopularityRetention, kDriftSigma);
  const auto [pref_an, pref_sd] =
      moments(cfg_.pref_retention, cfg_.pref_drift_sigma);
  apply_ou_update(pop_an, pop_sd, pref_an, pref_sd);
  // The every-50-iterations transition drift is not an OU walk (Dirichlet
  // noise mixed into column-stochastic matrices), so it has no closed-form
  // compression; apply it once per boundary the fast-forward crosses --
  // exactly the iterations k in (iter, iter+n] with k % 50 == 0.
  const int boundaries = (iter_ + n) / 50 - iter_ / 50;
  for (int b = 0; b < boundaries; ++b) transition_drift();
  iter_ += n;
  refresh_distributions();
  realize_counts();
}

void GateSimulator::refresh_distributions() {
  const auto E = static_cast<std::size_t>(cfg_.n_experts);
  const auto R = static_cast<std::size_t>(cfg_.ep_ranks);
  const auto held = static_cast<int>(q_.size());
  const double mix = lb_mix();
  const double uniform = 1.0 / static_cast<double>(E);

  // Work buffers carved from one member scratch (this runs every step of the
  // figure-bench hot loop; no per-call allocation).
  dist_scratch_.resize(4 * E);
  double* pi0 = dist_scratch_.data();
  double* factor = pi0 + E;
  double* pref_pow_buf = factor + E;
  double* marginal = pref_pow_buf + E;
  const auto rank_row = [E](Matrix& q, std::size_t h) {
    return q.data().data() + h * E;
  };

  // Layer-0 popularity from logits (softmax); the load-balancing loss acts
  // below via marginal flattening, not here.
  double zmax = logits_[0];
  for (double z : logits_) zmax = std::max(zmax, z);
  for (std::size_t e = 0; e < E; ++e) pi0[e] = std::exp(logits_[e] - zmax);
  normalize_span(pi0, E);

  // Load-balancing loss model: experts converge toward equal *total* token
  // counts while each rank keeps its relative preferences -- a fractional
  // step of iterative proportional fitting toward uniform column marginals.
  // The flattening factor depends only on the layer marginal, so it is
  // computed once per layer and applied to every rank (identical values to
  // the historical per-rank pow calls, at 1/ep_ranks the cost).
  auto balance_layer = [&](int l) {
    Matrix& layer_q = q_[static_cast<std::size_t>(l)];
    std::fill(marginal, marginal + E, 0.0);
    for (std::size_t h = 0; h < R; ++h) {
      const double* q = rank_row(layer_q, h);
      for (std::size_t e = 0; e < E; ++e) marginal[e] += q[e];
    }
    normalize_span(marginal, E);
    for (std::size_t e = 0; e < E; ++e)
      factor[e] = std::pow(uniform / std::max(marginal[e], 1e-9), mix);
    for (std::size_t h = 0; h < R; ++h) {
      double* q = rank_row(layer_q, h);
      for (std::size_t e = 0; e < E; ++e) q[e] *= factor[e];
      normalize_span(q, E);
    }
  };

  // Personalization weights pref^gamma for every (rank, layer): the
  // preference softmax (exp of the logits, normalized) clamped, then one
  // block exp(gamma * log(pref)) pass.
  const double gamma = cfg_.personalization;
  auto pref_pow_of = [&](std::size_t h, int l) -> const double* {
    const std::size_t k = static_cast<std::size_t>(l) * R + h;
    double* out = pref_pow_buf;
    vecmath::exp_block(pref_logits_[k].data(), out, E);
    normalize_span(out, E);
    for (std::size_t e = 0; e < E; ++e) out[e] = std::max(out[e], 1e-9);
    vecmath::pow_block(out, gamma, out, E);
    return out;
  };
  for (std::size_t h = 0; h < R; ++h) {
    double* q0 = rank_row(q_[0], h);
    const double* pref_pow = pref_pow_of(h, 0);
    for (std::size_t e = 0; e < E; ++e) q0[e] = pi0[e] * pref_pow[e];
    normalize_span(q0, E);
  }
  balance_layer(0);
  // Propagate through the Markov chain -- one blocked product of the layer's
  // transition with every rank's distribution -- re-personalizing and
  // re-balancing at every layer the state holds.
  for (int l = 1; l < held; ++l) {
    Matrix& layer_q = q_[static_cast<std::size_t>(l)];
    vecmath::matvec_batch(transitions_[static_cast<std::size_t>(l)].data().data(),
                          q_[static_cast<std::size_t>(l - 1)].data().data(),
                          layer_q.data().data(), E, E, R);
    for (std::size_t h = 0; h < R; ++h) {
      double* q = rank_row(layer_q, h);
      const double* pref_pow = pref_pow_of(h, l);
      for (std::size_t e = 0; e < E; ++e) q[e] *= pref_pow[e];
      normalize_span(q, E);
    }
    balance_layer(l);
  }
  for (int l = 0; l < held; ++l) {
    auto& load = load_[static_cast<std::size_t>(l)];
    Matrix& layer_q = q_[static_cast<std::size_t>(l)];
    std::fill(load.begin(), load.end(), 0.0);
    for (std::size_t h = 0; h < R; ++h) {
      const double* q = rank_row(layer_q, h);
      for (std::size_t e = 0; e < E; ++e) load[e] += q[e];
    }
    normalize(load);
  }
}

void GateSimulator::realize_counts() {
  const auto E = static_cast<std::size_t>(cfg_.n_experts);
  const auto R = static_cast<std::size_t>(cfg_.ep_ranks);
  const double n = cfg_.tokens_per_rank;
  // One bulk draw for every (layer, rank, expert) Gaussian count of the
  // iteration, computed only for the layers the state holds (the draws are
  // layer-major, so those are the head), then a realize + clamp pass and a
  // strict in-order total per row for the renormalization.
  normal_scratch_.resize(counts_.size() * R * E);
  rng_.fill_normal_head(normal_scratch_.data(), normal_scratch_.size(),
                        static_cast<std::size_t>(cfg_.n_layers) * R * E);
  const double* eps = normal_scratch_.data();
  for (std::size_t l = 0; l < counts_.size(); ++l) {
    const double* q = q_[l].data().data();
    double* c = counts_[l].data().data();
    for (std::size_t h = 0; h < R; ++h, q += E, c += E, eps += E) {
      for (std::size_t e = 0; e < E; ++e) {
        const double meanv = n * q[e];
        const double var = n * q[e] * (1.0 - q[e]);
        c[e] = std::max(meanv + std::sqrt(std::max(var, 0.0)) * eps[e], 0.0);
      }
      double total = 0.0;
      for (std::size_t e = 0; e < E; ++e) total += c[e];
      if (total > 0.0) {
        const double scale = n / total;
        for (std::size_t e = 0; e < E; ++e) c[e] *= scale;
      }
    }
  }
}

void GateSimulator::check_held(int layer, int first, const char* what) const {
  if (layer < first || static_cast<std::size_t>(layer) >= load_.size())
    throw std::out_of_range(std::string("GateSimulator::") + what + ": layer " +
                            std::to_string(layer) + " outside [" +
                            std::to_string(first) + ", " +
                            std::to_string(load_.size()) +
                            ") the current state holds");
}

const std::vector<double>& GateSimulator::expert_load(int layer) const {
  check_held(layer, 0, "expert_load");
  return load_[static_cast<std::size_t>(layer)];
}

const Matrix& GateSimulator::dispatch_counts(int layer) const {
  check_held(layer, 0, "dispatch_counts");
  return counts_[static_cast<std::size_t>(layer)];
}

std::vector<int> contiguous_expert_ranks(int n_experts, int ep_ranks) {
  if (ep_ranks <= 0)
    throw std::invalid_argument("contiguous_expert_ranks: ep_ranks must be "
                                "positive (got " + std::to_string(ep_ranks) + ")");
  const int epr = std::max(1, n_experts / ep_ranks);
  std::vector<int> owner(static_cast<std::size_t>(n_experts));
  for (int e = 0; e < n_experts; ++e)
    owner[static_cast<std::size_t>(e)] = std::min(e / epr, ep_ranks - 1);
  return owner;
}

Matrix rank_dispatch_matrix(const Matrix& counts,
                            const std::vector<int>& expert_to_rank,
                            double bytes_per_slot) {
  if (expert_to_rank.size() != counts.cols())
    throw std::invalid_argument(
        "rank_dispatch_matrix: " + std::to_string(expert_to_rank.size()) +
        " expert owners for " + std::to_string(counts.cols()) + " experts");
  const std::size_t R = counts.rows();
  Matrix t(R, R, 0.0);
  for (std::size_t h = 0; h < R; ++h)
    for (std::size_t e = 0; e < counts.cols(); ++e)
      t(h, static_cast<std::size_t>(expert_to_rank[e])) +=
          counts(h, e) * bytes_per_slot;
  return t;
}

Matrix GateSimulator::rank_dispatch_matrix(int layer, double bytes_per_slot) const {
  return moe::rank_dispatch_matrix(
      dispatch_counts(layer),
      contiguous_expert_ranks(cfg_.n_experts, cfg_.ep_ranks), bytes_per_slot);
}

const Matrix& GateSimulator::transition(int layer) const {
  // Layer 0 has no predecessor: its slot is an empty matrix, and reading
  // it as a transition would index out of bounds.
  check_held(layer, 1, "transition");
  return transitions_[static_cast<std::size_t>(layer)];
}

}  // namespace mixnet::moe
