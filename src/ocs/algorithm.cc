#include "ocs/algorithm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace mixnet::ocs {

Matrix symmetrize_demand(const Matrix& demand) {
  if (demand.rows() != demand.cols())
    throw std::invalid_argument("symmetrize_demand: demand is " +
                                std::to_string(demand.rows()) + "x" +
                                std::to_string(demand.cols()) + ", not square");
  const std::size_t n = demand.rows();
  Matrix d(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) d(i, j) = demand(i, j) + demand(j, i);
  return d;
}

OcsTopology reconfigure_ocs(const Matrix& demand, int alpha,
                            const ReconfigureOptions& opts) {
  if (demand.rows() != demand.cols())
    throw std::invalid_argument("reconfigure_ocs: demand is " +
                                std::to_string(demand.rows()) + "x" +
                                std::to_string(demand.cols()) + ", not square");
  const std::size_t n = demand.rows();
  if (!opts.excluded.empty() && opts.excluded.size() != n)
    throw std::invalid_argument("reconfigure_ocs: opts.excluded has " +
                                std::to_string(opts.excluded.size()) +
                                " entries for " + std::to_string(n) + " servers");

  // Step 1: upper-triangular TX+RX demand, with negligible pairs floored to
  // zero (they ride the EPS fallback; see ReconfigureOptions).
  Matrix d = symmetrize_demand(demand);
  const double floor = opts.demand_floor_frac * d.max();
  if (floor > 0.0) {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if (d(i, j) < floor) d(i, j) = 0.0;
  }
  if (!opts.excluded.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!opts.excluded[i]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        d(std::min(i, j), std::max(i, j)) = 0.0;
      }
    }
  }

  OcsTopology topo;
  topo.counts = Matrix(n, n, 0.0);
  std::vector<int> avail(n, alpha);
  if (!opts.excluded.empty())
    for (std::size_t i = 0; i < n; ++i)
      if (opts.excluded[i]) avail[i] = 0;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double circuit = opts.circuit_bps > 0.0 ? opts.circuit_bps : 1.0;
  const double eps_rate = opts.eps_fallback_bps;

  if (eps_rate <= 0.0) {
    // --- Literal Algorithm 1 (also TopoOpt, which has no EPS) -------------
    // T seeded with infinity while demand exists but no circuit; infinite
    // times are ordered by demand so the heaviest unserved pair is wired
    // first.
    Matrix t(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if (d(i, j) > 0.0) t(i, j) = kInf;
    for (;;) {
      std::size_t bi = n, bj = n;
      double best_t = 0.0, best_d = -1.0;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          if (t(i, j) <= 0.0) continue;
          if (opts.work_conserving && (avail[i] <= 0 || avail[j] <= 0)) continue;
          const bool better =
              (t(i, j) > best_t) ||
              (t(i, j) == best_t && std::isinf(t(i, j)) && d(i, j) > best_d);
          if (better) {
            best_t = t(i, j);
            best_d = d(i, j);
            bi = i;
            bj = j;
          }
        }
      }
      if (bi == n) break;
      if (avail[bi] > 0 && avail[bj] > 0) {
        topo.counts(bi, bj) += 1.0;
        topo.counts(bj, bi) += 1.0;
        --avail[bi];
        --avail[bj];
        ++topo.total_circuits;
      } else {
        break;  // paper semantics: stop at the first unservable bottleneck
      }
      t(bi, bj) = d(bi, bj) / (topo.counts(bi, bj) * circuit);
    }
  } else {
    // --- Hybrid-aware variant (MixNet: the fabric has an EPS fallback) ----
    // Completion-time model: a wired pair finishes at d / (k * circuit); an
    // unwired pair rides its servers' EPS, whose *residual* load (unwired
    // demand) drains at eps_rate under max-min sharing. The global
    // bottleneck is therefore either a wired pair or a server's EPS; the
    // water-filling move is:
    //   * wired-pair bottleneck  -> give it one more circuit;
    //   * EPS-server bottleneck  -> wire that server's heaviest unwired pair
    //     off the EPS (this is what actually shortens the server's drain
    //     time -- wiring some *other* server's pair would not).
    // Moves that cannot make progress freeze the pair/server; the loop ends
    // when everything is frozen or ports run out.
    std::vector<double> eps_load(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) {
        eps_load[i] += d(i, j);
        eps_load[j] += d(i, j);
      }
    std::vector<bool> server_frozen(n, false);
    Matrix pair_frozen(n, n, 0.0);

    auto wire = [&](std::size_t i, std::size_t j) {
      if (topo.counts(i, j) == 0.0) {
        eps_load[i] -= d(i, j);
        eps_load[j] -= d(i, j);
      }
      topo.counts(i, j) += 1.0;
      topo.counts(j, i) += 1.0;
      --avail[i];
      --avail[j];
      ++topo.total_circuits;
    };

    for (;;) {
      // Global bottleneck: wired pairs vs per-server EPS drain times.
      double best_t = 0.0;
      std::size_t bi = n, bj = n;  // wired-pair bottleneck
      std::size_t bv = n;          // EPS-server bottleneck
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          if (topo.counts(i, j) <= 0.0 || pair_frozen(i, j) > 0.0) continue;
          const double tij = d(i, j) / (topo.counts(i, j) * circuit);
          if (tij > best_t) {
            best_t = tij;
            bi = i;
            bj = j;
            bv = n;
          }
        }
        if (!server_frozen[i] && eps_load[i] > 0.0) {
          const double tv = eps_load[i] / eps_rate;
          if (tv > best_t) {
            best_t = tv;
            bv = i;
            bi = n;
            bj = n;
          }
        }
      }
      if (bi == n && bv == n) break;  // everything frozen

      if (bv == n) {
        // Wired-pair bottleneck: add a parallel circuit if ports remain.
        if (avail[bi] > 0 && avail[bj] > 0) {
          wire(bi, bj);
        } else if (opts.work_conserving) {
          pair_frozen(bi, bj) = 1.0;
        } else {
          break;
        }
        continue;
      }
      // EPS-server bottleneck: wire its heaviest unwired pair whose
      // *achievable* circuit time (using every free port if need be) stays
      // below the current bottleneck. Judging by the full fanout lets the
      // greedy climb through the "one circuit is slower than the pooled
      // EPS" valley toward multi-circuit allocations: once wired, the pair
      // becomes the bottleneck itself and accumulates parallel circuits.
      std::size_t peer = n;
      double peer_d = 0.0;
      for (std::size_t u = 0; u < n; ++u) {
        if (u == bv) continue;
        const std::size_t i = std::min(bv, u), j = std::max(bv, u);
        if (topo.counts(i, j) > 0.0 || d(i, j) <= 0.0) continue;
        if (avail[bv] <= 0 || avail[u] <= 0) continue;
        const int k_max = std::min(avail[bv], avail[u]);
        if (d(i, j) / (k_max * circuit) > best_t) continue;
        if (d(i, j) > peer_d) {
          peer_d = d(i, j);
          peer = u;
        }
      }
      if (peer == n) {
        if (!opts.work_conserving) break;
        server_frozen[bv] = true;  // this server's EPS time is final
        continue;
      }
      wire(std::min(bv, peer), std::max(bv, peer));
    }
  }

  // Bottleneck completion-time bound over served pairs.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (topo.counts(i, j) > 0.0)
        topo.bottleneck_time = std::max(
            topo.bottleneck_time, d(i, j) / (topo.counts(i, j) * circuit));
  return topo;
}

Matrix uniform_topology(std::size_t n, int alpha) {
  // Circulant multigraph: each offset ring contributes degree 2 to every
  // node, so alpha/2 rings give an exactly alpha-regular topology (plus a
  // half-offset matching for odd alpha on even n). This is the natural
  // demand-oblivious allocation (what a rotor-style schedule averages to).
  Matrix counts(n, n, 0.0);
  if (n < 2 || alpha <= 0) return counts;
  auto add = [&](std::size_t i, std::size_t j) {
    counts(i, j) += 1.0;
    counts(j, i) += 1.0;
  };
  const int rings = alpha / 2;
  for (int r = 0; r < rings; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) % (n - 1) + 1;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = (i + off) % n;
      if (i < j) add(i, j);  // each ring edge appears once in this scan...
    }
    // ...except wrap-around edges (i > j); add them explicitly.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = (i + off) % n;
      if (i > j) add(j, i);
    }
  }
  if (alpha % 2 == 1 && n % 2 == 0) {
    for (std::size_t i = 0; i < n / 2; ++i) add(i, i + n / 2);
  }
  return counts;
}

}  // namespace mixnet::ocs
