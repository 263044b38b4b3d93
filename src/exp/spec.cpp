#include "exp/spec.hpp"

#include <cstdio>
#include <sstream>

#include "common/check.hpp"
#include "common/json.hpp"

namespace fedhisyn::exp {

std::string fmt_g(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

namespace {

const char* fleet_name(core::FleetKind kind) {
  switch (kind) {
    case core::FleetKind::kUniformEpochs: return "uniform";
    case core::FleetKind::kHomogeneous: return "homogeneous";
    case core::FleetKind::kRatio: return "ratio";
  }
  return "?";
}

const char* aggregation_name(core::AggregationRule rule) {
  switch (rule) {
    case core::AggregationRule::kUniform: return "uniform";
    case core::AggregationRule::kTimeWeighted: return "time";
    case core::AggregationRule::kSampleWeighted: return "sample";
  }
  return "?";
}

core::FleetKind fleet_from_name(const std::string& name) {
  if (name == "uniform") return core::FleetKind::kUniformEpochs;
  if (name == "homogeneous") return core::FleetKind::kHomogeneous;
  if (name == "ratio") return core::FleetKind::kRatio;
  FEDHISYN_CHECK_MSG(false, "unknown fleet kind '" << name << "' in spec JSON");
}

core::AggregationRule aggregation_from_name(const std::string& name) {
  if (name == "uniform") return core::AggregationRule::kUniform;
  if (name == "time") return core::AggregationRule::kTimeWeighted;
  if (name == "sample") return core::AggregationRule::kSampleWeighted;
  FEDHISYN_CHECK_MSG(false, "unknown aggregation rule '" << name << "' in spec JSON");
}

sim::RingOrder ring_order_from_name(const std::string& name) {
  if (name == "random") return sim::RingOrder::kRandom;
  if (name == "small-to-large") return sim::RingOrder::kSmallToLarge;
  if (name == "large-to-small") return sim::RingOrder::kLargeToSmall;
  FEDHISYN_CHECK_MSG(false, "unknown ring order '" << name << "' in spec JSON");
}

}  // namespace

ExperimentSpec& ExperimentSpec::with_seed(std::uint64_t seed) {
  build.seed = seed;
  opts.seed = seed;
  return *this;
}

float ExperimentSpec::resolved_target() const {
  return target > 0.0f ? target : core::target_accuracy(build.dataset);
}

std::string ExperimentSpec::partition_label() const {
  if (build.partition.iid) return "IID";
  return "Dirichlet(" + fmt_g(build.partition.beta) + ")";
}

std::string ExperimentSpec::label() const {
  std::ostringstream out;
  out << build.dataset << "/" << partition_label() << "/p"
      << fmt_g(opts.participation * 100.0) << "/" << method << "/s" << opts.seed;
  return out.str();
}

std::string ExperimentSpec::build_key() const {
  std::ostringstream out;
  out << "ds=" << build.dataset << "|dev=" << build.scale.devices
      << "|spd=" << build.scale.train_samples_per_device
      << "|test=" << build.scale.test_samples
      << "|part=" << (build.partition.iid ? "iid" : "dirichlet")
      << "|beta=" << fmt_g(build.partition.iid ? 0.0 : build.partition.beta)
      << "|fleet=" << fleet_name(build.fleet_kind);
  if (build.fleet_kind == core::FleetKind::kRatio) {
    out << "|h=" << fmt_g(build.fleet_ratio_h);
  }
  out << "|cnn=" << (build.use_cnn ? 1 : 0) << "|hidden=";
  if (build.mlp_hidden.empty()) {
    out << "auto";
  } else {
    for (std::size_t i = 0; i < build.mlp_hidden.size(); ++i) {
      if (i > 0) out << "x";
      out << build.mlp_hidden[i];
    }
  }
  out << "|bseed=" << build.seed;
  return out.str();
}

std::string ExperimentSpec::to_key() const {
  std::ostringstream out;
  out << build_key() << "|method=" << method << "|rounds=" << build.scale.rounds
      << "|lr=" << fmt_g(opts.lr) << "|batch=" << opts.batch_size
      << "|epochs=" << opts.local_epochs << "|p=" << fmt_g(opts.participation)
      << "|K=" << opts.clusters << "|agg=" << aggregation_name(opts.aggregation)
      << "|ring=" << sim::ring_order_name(opts.ring_order)
      << "|direct=" << (opts.direct_use ? 1 : 0) << "|mu=" << fmt_g(opts.prox_mu)
      << "|mom=" << fmt_g(opts.momentum) << "|alpha=" << fmt_g(opts.async_alpha)
      << "|seed=" << opts.seed << "|target=" << fmt_g(resolved_target())
      << "|eval=" << eval_every;
  return out.str();
}

std::string ExperimentSpec::to_json() const {
  std::ostringstream out;
  out << "{\"dataset\":\"" << json::escape(build.dataset) << "\""
      << ",\"devices\":" << build.scale.devices
      << ",\"samples_per_device\":" << build.scale.train_samples_per_device
      << ",\"test_samples\":" << build.scale.test_samples
      << ",\"rounds\":" << build.scale.rounds
      << ",\"iid\":" << (build.partition.iid ? "true" : "false")
      << ",\"beta\":" << json::fmt_double(build.partition.beta)
      << ",\"fleet\":\"" << fleet_name(build.fleet_kind) << "\""
      << ",\"fleet_h\":" << json::fmt_double(build.fleet_ratio_h)
      << ",\"cnn\":" << (build.use_cnn ? "true" : "false") << ",\"hidden\":[";
  for (std::size_t i = 0; i < build.mlp_hidden.size(); ++i) {
    if (i > 0) out << ",";
    out << build.mlp_hidden[i];
  }
  out << "],\"build_seed\":" << build.seed
      << ",\"method\":\"" << json::escape(method) << "\""
      << ",\"lr\":" << json::fmt_float(opts.lr)
      << ",\"batch\":" << opts.batch_size
      << ",\"epochs\":" << opts.local_epochs
      << ",\"participation\":" << json::fmt_double(opts.participation)
      << ",\"clusters\":" << opts.clusters
      << ",\"aggregation\":\"" << aggregation_name(opts.aggregation) << "\""
      << ",\"ring\":\"" << sim::ring_order_name(opts.ring_order) << "\""
      << ",\"direct_use\":" << (opts.direct_use ? "true" : "false")
      << ",\"prox_mu\":" << json::fmt_float(opts.prox_mu)
      << ",\"momentum\":" << json::fmt_float(opts.momentum)
      << ",\"async_alpha\":" << json::fmt_float(opts.async_alpha)
      << ",\"seed\":" << opts.seed
      << ",\"target\":" << json::fmt_float(target)
      << ",\"eval_every\":" << eval_every << "}";
  return out.str();
}

ExperimentSpec ExperimentSpec::from_json(const std::string& text) {
  return from_json(json::parse(text));
}

ExperimentSpec ExperimentSpec::from_json(const json::Value& doc) {
  FEDHISYN_CHECK_MSG(doc.kind == json::Value::Kind::kObject,
                     "spec JSON is not an object");
  // Strict field accounting: every member must be consumed and every field
  // present, so a parent/worker protocol mismatch fails loudly.
  std::size_t consumed = 0;
  const auto field = [&](const char* name) -> const json::Value& {
    const json::Value* value = doc.find(name);
    FEDHISYN_CHECK_MSG(value != nullptr, "spec JSON lacks field '" << name << "'");
    ++consumed;
    return *value;
  };

  ExperimentSpec spec;
  spec.build.dataset = field("dataset").as_string();
  spec.build.scale.devices = static_cast<std::size_t>(field("devices").as_long());
  spec.build.scale.train_samples_per_device = field("samples_per_device").as_long();
  spec.build.scale.test_samples = field("test_samples").as_long();
  spec.build.scale.rounds = static_cast<int>(field("rounds").as_long());
  spec.build.partition.iid = field("iid").as_bool();
  spec.build.partition.beta = field("beta").as_double();
  spec.build.fleet_kind = fleet_from_name(field("fleet").as_string());
  spec.build.fleet_ratio_h = field("fleet_h").as_double();
  spec.build.use_cnn = field("cnn").as_bool();
  const json::Value& hidden = field("hidden");
  FEDHISYN_CHECK_MSG(hidden.kind == json::Value::Kind::kArray,
                     "spec JSON field 'hidden' is not an array");
  spec.build.mlp_hidden.clear();
  for (const auto& item : hidden.items) spec.build.mlp_hidden.push_back(item.as_long());
  spec.build.seed = static_cast<std::uint64_t>(field("build_seed").as_long());
  spec.method = field("method").as_string();
  spec.opts.lr = field("lr").as_float();
  spec.opts.batch_size = static_cast<int>(field("batch").as_long());
  spec.opts.local_epochs = static_cast<int>(field("epochs").as_long());
  spec.opts.participation = field("participation").as_double();
  spec.opts.clusters = static_cast<std::size_t>(field("clusters").as_long());
  spec.opts.aggregation = aggregation_from_name(field("aggregation").as_string());
  spec.opts.ring_order = ring_order_from_name(field("ring").as_string());
  spec.opts.direct_use = field("direct_use").as_bool();
  spec.opts.prox_mu = field("prox_mu").as_float();
  spec.opts.momentum = field("momentum").as_float();
  spec.opts.async_alpha = field("async_alpha").as_float();
  spec.opts.seed = static_cast<std::uint64_t>(field("seed").as_long());
  spec.target = field("target").as_float();
  spec.eval_every = static_cast<int>(field("eval_every").as_long());
  FEDHISYN_CHECK_MSG(consumed == doc.members.size(),
                     "spec JSON carries " << doc.members.size() - consumed
                                          << " unknown field(s) — parent/worker "
                                             "protocol mismatch");
  return spec;
}

}  // namespace fedhisyn::exp
