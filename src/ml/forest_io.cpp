#include "ml/forest_io.hpp"

#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace gsight::ml {

namespace {

void expect(std::istream& in, const std::string& tag) {
  std::string token;
  if (!(in >> token) || token != tag) {
    throw std::runtime_error("forest_io parse error: expected '" + tag +
                             "', got '" + token + "'");
  }
}

}  // namespace

void write_dataset(std::ostream& out, const Dataset& data) {
  out << std::setprecision(17);
  out << "dataset " << data.size() << ' ' << data.feature_count() << '\n';
  for (std::size_t i = 0; i < data.size(); ++i) {
    out << data.y(i);
    for (double v : data.x(i)) out << ' ' << v;
    out << '\n';
  }
  if (!out) throw std::runtime_error("dataset write failed");
}

Dataset read_dataset(std::istream& in) {
  expect(in, "dataset");
  std::size_t rows = 0, cols = 0;
  if (!(in >> rows >> cols)) {
    throw std::runtime_error("forest_io parse error: dataset header");
  }
  // Rows are appended as they parse, so only the row scratch (cols wide)
  // is allocated up front; both bounds still fail a hostile header early.
  constexpr std::size_t kMaxRows = 100000000;
  if (rows > kMaxRows || cols > kMaxPersistedFeatures) {
    throw std::runtime_error("forest_io parse error: implausible dataset shape");
  }
  Dataset data(cols);
  std::vector<double> x(cols);
  for (std::size_t i = 0; i < rows; ++i) {
    double y = 0.0;
    if (!(in >> y)) throw std::runtime_error("dataset parse error: target");
    for (double& v : x) {
      if (!(in >> v)) throw std::runtime_error("dataset parse error: row");
    }
    data.add(x, y);
  }
  return data;
}

void write_forest(std::ostream& out, const RandomForestRegressor& forest) {
  forest.save(out);
}

RandomForestRegressor read_forest(std::istream& in) {
  RandomForestRegressor forest;
  forest.load(in);
  return forest;
}

void save_incremental_forest(const IncrementalForest& model,
                             const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  save_incremental_forest(model, out);
  if (!out) throw std::runtime_error("model write failed: " + path);
}

void save_incremental_forest(const IncrementalForest& model,
                             std::ostream& out) {
  const auto& cfg = model.config();
  out << std::setprecision(17);
  out << "gsight-irfr-v2 " << model.version() << ' ' << cfg.refresh_fraction
      << ' ' << cfg.max_refit_rows << '\n';
  const auto rng = model.rng_state();
  out << "rng " << rng.s[0] << ' ' << rng.s[1] << ' ' << rng.s[2] << ' '
      << rng.s[3] << ' ' << (rng.have_spare_normal ? 1 : 0) << ' '
      << rng.spare_normal << '\n';
  model.forest().save(out);
  write_dataset(out, model.buffer());
  if (!out) throw std::runtime_error("incremental forest write failed");
}

IncrementalForest load_incremental_forest(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  try {
    return load_incremental_forest(in);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " in " + path);
  }
}

IncrementalForest load_incremental_forest(std::istream& in) {
  std::string magic;
  IncrementalForestConfig cfg;
  std::uint64_t version = 0;
  bool have_rng = false;
  stats::Rng::State rng;
  if (!(in >> magic)) throw std::runtime_error("bad model header");
  if (magic == "gsight-irfr-v2") {
    int spare_flag = 0;
    if (!(in >> version >> cfg.refresh_fraction >> cfg.max_refit_rows)) {
      throw std::runtime_error("bad model header");
    }
    expect(in, "rng");
    if (!(in >> rng.s[0] >> rng.s[1] >> rng.s[2] >> rng.s[3] >> spare_flag >>
          rng.spare_normal)) {
      throw std::runtime_error("bad rng state");
    }
    // An all-zero xoshiro state is degenerate (the stream sticks at 0);
    // it can only come from a corrupt or hand-edited file.
    if ((rng.s[0] | rng.s[1] | rng.s[2] | rng.s[3]) == 0) {
      throw std::runtime_error("bad rng state");
    }
    rng.have_spare_normal = spare_flag != 0;
    have_rng = true;
  } else if (magic == "gsight-irfr-v1") {
    // Pre-versioning format: no version stamp, no updater stream. The
    // model resumes at version 0 with a freshly seeded stream (further
    // updates are valid but not bit-identical to the uninterrupted run).
    if (!(in >> cfg.refresh_fraction >> cfg.max_refit_rows)) {
      throw std::runtime_error("bad model header");
    }
  } else {
    throw std::runtime_error("bad model header");
  }
  RandomForestRegressor forest;
  forest.load(in);
  cfg.forest = forest.config();
  IncrementalForest model(cfg);
  Dataset buffer = read_dataset(in);
  model.restore(std::move(forest), std::move(buffer), version);
  if (have_rng) model.set_rng_state(rng);
  return model;
}

}  // namespace gsight::ml
