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

/// One layer boundary's column-stochastic transition matrix. One bulk
/// gamma fill of E*E draws; each E-sized chunk normalizes into one source
/// column's Dirichlet sample (per-column rng.dirichlet calls were the
/// constructor's dominant cost for the 256-expert models), and the chunks
/// are transposed into the row-major matrix in tiles.
void draw_transition(Rng& rng, std::vector<double>& gamma, Matrix& m) {
  const std::size_t E = m.rows();
  gamma.resize(E * E);
  rng.fill_gamma(gamma.data(), E * E, GateSimulator::kTransitionAlpha);
  for (std::size_t src = 0; src < E; ++src)
    normalize_span(gamma.data() + src * E, E);
  transpose_into(gamma.data(), m.data().data(), E);
}

/// Layer-0 popularity from the logits (softmax); the load-balancing loss
/// acts via marginal flattening in balance_layer, not here.
void popularity(const std::vector<double>& logits, double* pi0) {
  double zmax = logits[0];
  for (double z : logits) zmax = std::max(zmax, z);
  for (std::size_t e = 0; e < logits.size(); ++e)
    pi0[e] = std::exp(logits[e] - zmax);
  normalize_span(pi0, logits.size());
}

/// Personalization weights pref^gamma of one (rank, layer) preference walk:
/// the preference softmax (exp of the logits, normalized) clamped, then one
/// block exp(gamma * log(pref)) pass.
void pref_pow(const double* logits, double gamma, double* out, std::size_t E) {
  vecmath::exp_block(logits, out, E);
  normalize_span(out, E);
  for (std::size_t e = 0; e < E; ++e) out[e] = std::max(out[e], 1e-9);
  vecmath::pow_block(out, gamma, out, E);
}

/// Load-balancing loss model: experts converge toward equal *total* token
/// counts while each rank keeps its relative preferences -- a fractional
/// step of iterative proportional fitting toward uniform column marginals.
/// The flattening factor depends only on the layer marginal, so it is
/// computed once per layer and applied to every rank (identical values to
/// the historical per-rank pow calls, at 1/ep_ranks the cost).
void balance_layer(Matrix& q, double mix, double* marginal, double* factor) {
  const std::size_t R = q.rows(), E = q.cols();
  const double uniform = 1.0 / static_cast<double>(E);
  double* rows = q.data().data();
  std::fill(marginal, marginal + E, 0.0);
  for (std::size_t h = 0; h < R; ++h)
    for (std::size_t e = 0; e < E; ++e) marginal[e] += rows[h * E + e];
  normalize_span(marginal, E);
  for (std::size_t e = 0; e < E; ++e)
    factor[e] = std::pow(uniform / std::max(marginal[e], 1e-9), mix);
  for (std::size_t h = 0; h < R; ++h) {
    double* row = rows + h * E;
    for (std::size_t e = 0; e < E; ++e) row[e] *= factor[e];
    normalize_span(row, E);
  }
}

/// One layer's rank x expert distribution `q`, the per-layer step behind
/// refresh_distributions and initial_counts. Layer 0 (no `transition`)
/// starts every rank from the popularity `pi0`; a later layer propagates
/// the previous layer's `prev` through the Markov chain -- one blocked
/// product of its transition with every rank's distribution. Each rank is
/// then personalized by the weights of its preference walk `pref(h)`
/// (called once per rank, in rank order) and the layer is re-balanced.
/// `scratch` holds 3 * E doubles.
template <class Pref>
void layer_distribution(const double* pi0, const Matrix* transition,
                        const Matrix& prev, Pref&& pref, double gamma,
                        double mix, Matrix& q, double* scratch) {
  const std::size_t R = q.rows(), E = q.cols();
  double* weights = scratch;
  double* rows = q.data().data();
  if (transition != nullptr)
    vecmath::matvec_batch(transition->data().data(), prev.data().data(), rows,
                          E, E, R);
  for (std::size_t h = 0; h < R; ++h) {
    double* row = rows + h * E;
    const double* base = transition != nullptr ? row : pi0;
    pref_pow(pref(h), gamma, weights, E);
    for (std::size_t e = 0; e < E; ++e) row[e] = base[e] * weights[e];
    normalize_span(row, E);
  }
  balance_layer(q, mix, scratch + E, scratch + 2 * E);
}

/// One layer's counts `c` from its distribution `q` and its R*E standard
/// normal draws `eps`: per (rank, expert) the Gaussian approximation of
/// the multinomial, clamped at 0, then each rank's row renormalized to the
/// n token slots by a strict in-order total.
void realize_layer(const Matrix& q, const double* eps, double n, Matrix& c) {
  const std::size_t R = q.rows(), E = q.cols();
  const double* qv = q.data().data();
  double* cv = c.data().data();
  for (std::size_t h = 0; h < R; ++h, qv += E, cv += E, eps += E) {
    for (std::size_t e = 0; e < E; ++e) {
      const double meanv = n * qv[e];
      const double var = n * qv[e] * (1.0 - qv[e]);
      cv[e] = std::max(meanv + std::sqrt(std::max(var, 0.0)) * eps[e], 0.0);
    }
    double total = 0.0;
    for (std::size_t e = 0; e < E; ++e) total += cv[e];
    if (total > 0.0) {
      const double scale = n / total;
      for (std::size_t e = 0; e < E; ++e) cv[e] *= scale;
    }
  }
}

}  // namespace

GateSimulator::GateSimulator(const GateConfig& cfg, int read_layers)
    : cfg_(cfg), rng_(cfg.seed) {
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
  const auto E = static_cast<std::size_t>(cfg_.n_experts);
  const auto R = static_cast<std::size_t>(cfg_.ep_ranks);
  const auto held = static_cast<std::size_t>(read_layers);
  const auto unread = static_cast<std::size_t>(cfg_.n_layers) - held;

  logits_.resize(E);
  for (auto& z : logits_) z = rng_.normal(0.0, 1.0);
  initial_logits_ = logits_;

  // Column-stochastic transition matrices, one per layer boundary; the
  // unread layers' draws are taken, not computed.
  transitions_rng_ = rng_;
  transitions_.resize(held);  // layer 0 has no predecessor
  for (std::size_t l = 1; l < held; ++l) {
    transitions_[l] = Matrix(E, E);
    draw_transition(rng_, gamma_scratch_, transitions_[l]);
  }
  for (std::size_t l = 0; l < unread; ++l) rng_.skip_gamma(E * E, kTransitionAlpha);

  // Sparse per-(rank, layer) preferences: a rank's token shard shares
  // domain/semantics, so it prefers a few experts at *every* layer. This is
  // what keeps the all-to-all matrix non-uniform even after the
  // load-balancing loss flattens the aggregate expert loads (Fig. 4b
  // persists while Fig. 4a converges -- the DeepSeek-V3 observation in §3).
  // Preferences follow an OU random walk in logit space so the hot pairs
  // *move* over training -- the temporal dynamics that one-shot topologies
  // (TopoOpt) cannot follow. Stored layer-major, so the held layers' walks
  // are the head of the draws.
  preferences_rng_ = rng_;
  const double pref_sd = preference_sd();
  pref_logits_.resize(held * R);
  for (auto& z : pref_logits_) {
    z.resize(E);
    for (auto& v : z) v = rng_.normal(0.0, pref_sd);
  }
  rng_.skip_normal(unread * R * E);

  counts_rng_ = rng_;
  q_.assign(held, Matrix(R, E));
  load_.assign(held, std::vector<double>(E));
  counts_.assign(held, Matrix(R, E));
  refresh_distributions();
  realize_counts();
}

double GateSimulator::preference_sd() const {
  // The stationary spread of the preference OU walk.
  return cfg_.pref_drift_sigma /
         std::sqrt(std::max(1.0 - cfg_.pref_retention * cfg_.pref_retention, 1e-6));
}

double GateSimulator::lb_mix_at(int iteration) {
  return kLbFinal *
         (1.0 - std::exp(-static_cast<double>(iteration) / kLbTimescale));
}

void GateSimulator::skip(int n) {
  if (n < 0)
    throw std::invalid_argument("GateSimulator::skip: n " + std::to_string(n) +
                                " is negative");
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
  const auto held = static_cast<int>(transitions_.size());
  gamma_scratch_.resize(E * E);
  for (int l = 1; l < cfg_.n_layers; ++l) {
    // One bulk gamma fill per layer; each E-sized chunk normalizes into the
    // Dirichlet noise for one source column. An unread layer consumes the
    // same draws, so the stream stays the same, but computes no variate.
    if (l >= held) {
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
  if (n < 0)
    throw std::invalid_argument("GateSimulator::advance_steps: n " +
                                std::to_string(n) + " is negative");
  if (n == 0) return;
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
  const double mix = lb_mix();
  // Work buffers carved from one member scratch (this runs every step of the
  // figure-bench hot loop; no per-call allocation).
  dist_scratch_.resize(4 * E);
  double* pi0 = dist_scratch_.data();
  popularity(logits_, pi0);
  for (std::size_t l = 0; l < q_.size(); ++l) {
    const auto pref = [&](std::size_t h) { return pref_logits_[l * R + h].data(); };
    layer_distribution(pi0, l == 0 ? nullptr : &transitions_[l],
                       q_[l == 0 ? 0 : l - 1], pref, cfg_.personalization, mix,
                       q_[l], pi0 + E);
  }
  for (std::size_t l = 0; l < q_.size(); ++l) {
    auto& load = load_[l];
    const double* q = q_[l].data().data();
    std::fill(load.begin(), load.end(), 0.0);
    for (std::size_t h = 0; h < R; ++h, q += E)
      for (std::size_t e = 0; e < E; ++e) load[e] += q[e];
    normalize(load);
  }
}

void GateSimulator::realize_counts() {
  const auto RE = static_cast<std::size_t>(cfg_.ep_ranks) *
                  static_cast<std::size_t>(cfg_.n_experts);
  // One bulk draw for every (layer, rank, expert) Gaussian count of the
  // iteration, computed only for the layers the state holds (the draws are
  // layer-major, so those are the head), then one realize pass per layer.
  normal_scratch_.resize(counts_.size() * RE);
  rng_.fill_normal_head(normal_scratch_.data(), normal_scratch_.size(),
                        static_cast<std::size_t>(cfg_.n_layers) * RE);
  for (std::size_t l = 0; l < counts_.size(); ++l)
    realize_layer(q_[l], normal_scratch_.data() + l * RE, cfg_.tokens_per_rank,
                  counts_[l]);
}

std::vector<Matrix> GateSimulator::initial_counts(int k) const {
  if (k < 1 || k > cfg_.n_layers)
    throw std::invalid_argument("GateSimulator::initial_counts: k " +
                                std::to_string(k) + " outside [1, " +
                                std::to_string(cfg_.n_layers) + "]");
  const auto E = static_cast<std::size_t>(cfg_.n_experts);
  const auto R = static_cast<std::size_t>(cfg_.ep_ranks);
  const auto layers = static_cast<std::size_t>(k);
  // Replay the constructor's three draw sections from their saved starts,
  // one layer at a time: the transition and preference draws of layer l
  // are that section's l-th, and the count draws are one fill over every
  // layer, as realize_counts takes them, computed for the first k.
  Rng transitions = transitions_rng_;
  Rng preferences = preferences_rng_;
  Rng draws = counts_rng_;
  std::vector<double> eps(layers * R * E);
  draws.fill_normal_head(eps.data(), eps.size(),
                         static_cast<std::size_t>(cfg_.n_layers) * R * E);
  std::vector<double> scratch(4 * E), prefs(E), gamma;
  double* pi0 = scratch.data();
  popularity(initial_logits_, pi0);
  const double pref_sd = preference_sd();
  const auto pref = [&](std::size_t) {
    for (auto& v : prefs) v = preferences.normal(0.0, pref_sd);
    return prefs.data();
  };
  Matrix transition(E, E), prev(R, E), q(R, E);
  std::vector<Matrix> counts(layers, Matrix(R, E));
  for (std::size_t l = 0; l < layers; ++l) {
    if (l > 0) draw_transition(transitions, gamma, transition);
    layer_distribution(pi0, l == 0 ? nullptr : &transition, prev, pref,
                       cfg_.personalization, lb_mix_at(0), q, pi0 + E);
    realize_layer(q, eps.data() + l * R * E, cfg_.tokens_per_rank, counts[l]);
    std::swap(q, prev);
  }
  return counts;
}

void GateSimulator::check_held(int layer, int first, const char* what) const {
  if (layer < first || static_cast<std::size_t>(layer) >= load_.size())
    throw std::out_of_range(std::string("GateSimulator::") + what + ": layer " +
                            std::to_string(layer) + " outside [" +
                            std::to_string(first) + ", " +
                            std::to_string(load_.size()) +
                            ") the simulator holds");
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
