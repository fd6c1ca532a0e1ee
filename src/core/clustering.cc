#include "core/clustering.h"

#include <algorithm>
#include <limits>

namespace hcpath {

std::vector<std::vector<size_t>> ClusterQueries(const SimilarityMatrix& sim,
                                                double gamma) {
  const size_t n = sim.size();
  std::vector<std::vector<size_t>> clusters(n);
  for (size_t i = 0; i < n; ++i) clusters[i] = {i};
  if (n < 2) return clusters;

  // pair_sum[i·n + j] = sum of µ over cross pairs of clusters i, j; average
  // linkage δ = pair_sum / (|Ci| * |Cj|). Merging i <- j updates sums by
  // simple addition, keeping every step O(n).
  std::vector<double> pair_sum(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) pair_sum[i * n + j] = sim.Get(i, j);
    }
  }
  std::vector<bool> active(n, true);
  auto delta = [&](size_t i, size_t j) {  // i < j
    return pair_sum[i * n + j] / (static_cast<double>(clusters[i].size()) *
                                  static_cast<double>(clusters[j].size()));
  };

  // Each active row i keeps its first maximal pair: the smallest active
  // j > i of maximal δ(i, j) in best_col[i] (n when none), its δ in
  // best_delta[i].
  std::vector<size_t> best_col(n);
  std::vector<double> best_delta(n);
  auto rescan = [&](size_t i) {
    best_col[i] = n;
    best_delta[i] = -std::numeric_limits<double>::infinity();
    for (size_t j = i + 1; j < n; ++j) {
      if (!active[j]) continue;
      const double d = delta(i, j);
      if (d > best_delta[i]) {
        best_delta[i] = d;
        best_col[i] = j;
      }
    }
  };
  for (size_t i = 0; i < n; ++i) rescan(i);

  while (true) {
    // The first row holding the largest δ above γ, and its first maximal
    // column: the row-major first maximal pair, as a scan of every pair
    // would pick.
    double best = gamma;
    size_t bi = n;
    for (size_t i = 0; i < n; ++i) {
      if (active[i] && best_delta[i] > best) {
        best = best_delta[i];
        bi = i;
      }
    }
    if (bi == n) break;  // no pair above gamma
    const size_t bj = best_col[bi];
    // Merge bj into bi.
    clusters[bi].insert(clusters[bi].end(), clusters[bj].begin(),
                        clusters[bj].end());
    clusters[bj].clear();
    active[bj] = false;
    for (size_t k = 0; k < n; ++k) {
      if (!active[k] || k == bi) continue;
      pair_sum[bi * n + k] += pair_sum[bj * n + k];
      pair_sum[k * n + bi] = pair_sum[bi * n + k];
    }
    // Row bi changed throughout. A row whose best column was bi or bj
    // lost its best; any other row k < bi changed only in column bi, and
    // rows k > bi hold neither changed column unless their best was bj.
    rescan(bi);
    for (size_t k = 0; k < bj; ++k) {
      if (!active[k] || k == bi) continue;
      if (best_col[k] == bi || best_col[k] == bj) {
        rescan(k);
      } else if (k < bi) {
        const double d = delta(k, bi);
        if (d > best_delta[k] || (d == best_delta[k] && bi < best_col[k])) {
          best_delta[k] = d;
          best_col[k] = bi;
        }
      }
    }
  }

  std::vector<std::vector<size_t>> out;
  for (size_t i = 0; i < n; ++i) {
    if (active[i]) {
      std::sort(clusters[i].begin(), clusters[i].end());
      out.push_back(std::move(clusters[i]));
    }
  }
  return out;
}

}  // namespace hcpath
