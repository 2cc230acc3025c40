#include "core/eval_matrix.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "abr/optimal.hpp"

namespace netadv::core {

namespace {

/// Full-precision CSV cell: the matrix artifact doubles as a bit-identity
/// witness across thread counts and resume, so no rounding.
std::string full_precision(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

const EvalCell& EvalMatrix::at(std::size_t row, std::size_t col) const {
  if (row >= adversaries.size() || col >= checkpoints.size()) {
    throw std::out_of_range{"EvalMatrix::at(" + std::to_string(row) + ", " +
                            std::to_string(col) + ") on a " +
                            std::to_string(adversaries.size()) + "x" +
                            std::to_string(checkpoints.size()) + " matrix"};
  }
  return cells[row * checkpoints.size() + col];
}

double EvalMatrix::worst_case_qoe(std::size_t col) const {
  double worst = std::numeric_limits<double>::infinity();
  for (std::size_t row = 0; row < adversaries.size(); ++row) {
    worst = std::min(worst, at(row, col).mean_qoe);
  }
  return worst;
}

double EvalMatrix::worst_case_regret(std::size_t col) const {
  double worst = -std::numeric_limits<double>::infinity();
  for (std::size_t row = 0; row < adversaries.size(); ++row) {
    worst = std::max(worst, at(row, col).mean_regret);
  }
  return worst;
}

std::size_t EvalMatrix::least_exploitable() const {
  if (checkpoints.empty() || adversaries.empty()) {
    throw std::logic_error{"EvalMatrix::least_exploitable on an empty matrix"};
  }
  std::size_t best = 0;
  double best_qoe = worst_case_qoe(0);
  for (std::size_t col = 1; col < checkpoints.size(); ++col) {
    const double qoe = worst_case_qoe(col);
    if (qoe > best_qoe) {  // strict: ties keep the lowest (incumbent) index
      best = col;
      best_qoe = qoe;
    }
  }
  return best;
}

EvalMatrix eval_matrix(const abr::VideoManifest& manifest,
                       const std::vector<EvalRow>& rows,
                       const std::vector<EvalColumn>& columns,
                       util::ThreadPool* pool) {
  EvalMatrix matrix;
  for (const EvalRow& row : rows) matrix.adversaries.push_back(row.label);
  for (const EvalColumn& col : columns) {
    matrix.checkpoints.push_back(col.label);
  }
  matrix.cells.resize(rows.size() * columns.size());

  // Offline-optimal QoE depends only on (manifest, trace): compute it once
  // per row, in parallel over rows, before any column work.
  std::vector<std::vector<double>> optimal(rows.size());
  const auto optimal_row = [&](std::size_t r) {
    optimal[r].reserve(rows[r].traces.size());
    for (const trace::Trace& trace : rows[r].traces) {
      optimal[r].push_back(abr::optimal_playback(manifest, trace).total_qoe);
    }
  };
  // One cell = one corpus replayed against one fresh protocol instance.
  const auto fill_cell = [&](std::size_t flat) {
    const std::size_t r = flat / columns.size();
    const std::size_t c = flat % columns.size();
    const std::vector<trace::Trace>& traces = rows[r].traces;
    EvalCell cell;
    cell.worst_qoe = std::numeric_limits<double>::infinity();
    double qoe_total = 0.0;
    double regret_total = 0.0;
    for (std::size_t t = 0; t < traces.size(); ++t) {
      auto protocol = columns[c].make_protocol();
      const double qoe =
          abr::run_playback(*protocol, manifest, traces[t]).total_qoe;
      qoe_total += qoe;
      regret_total += optimal[r][t] - qoe;
      cell.worst_qoe = std::min(cell.worst_qoe, qoe);
    }
    const double n = traces.empty() ? 1.0 : static_cast<double>(traces.size());
    cell.mean_qoe = qoe_total / n;
    cell.mean_regret = regret_total / n;
    if (traces.empty()) cell.worst_qoe = 0.0;
    matrix.cells[flat] = cell;
  };

  util::parallel_for(pool, rows.size(), optimal_row);
  util::parallel_for(pool, matrix.cells.size(), fill_cell);
  return matrix;
}

void save_eval_matrix(const EvalMatrix& matrix, const std::string& path) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"save_eval_matrix: cannot open " + path};
  out << "adversary,checkpoint,mean_regret,mean_qoe,worst_qoe\n";
  for (std::size_t r = 0; r < matrix.adversaries.size(); ++r) {
    for (std::size_t c = 0; c < matrix.checkpoints.size(); ++c) {
      const EvalCell& cell = matrix.at(r, c);
      out << matrix.adversaries[r] << ',' << matrix.checkpoints[c] << ','
          << full_precision(cell.mean_regret) << ','
          << full_precision(cell.mean_qoe) << ','
          << full_precision(cell.worst_qoe) << '\n';
    }
  }
  if (!out) throw std::runtime_error{"save_eval_matrix: write failed " + path};
}

void save_eval_worst(const EvalMatrix& matrix, const std::string& path) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"save_eval_worst: cannot open " + path};
  out << "checkpoint,worst_case_regret,worst_case_qoe\n";
  for (std::size_t c = 0; c < matrix.checkpoints.size(); ++c) {
    out << c << ',' << full_precision(matrix.worst_case_regret(c)) << ','
        << full_precision(matrix.worst_case_qoe(c)) << '\n';
  }
  if (!out) throw std::runtime_error{"save_eval_worst: write failed " + path};
}

}  // namespace netadv::core
