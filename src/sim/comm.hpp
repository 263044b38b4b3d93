// Communication accounting — the paper's primary efficiency metric.
//
// Table 1 reports "number of models transmitted between devices and the
// server, relative to the cost of one FedAvg round".  One FedAvg round with
// |S| participants moves |S| models down + |S| models up = 2|S| model-units.
// SCAFFOLD moves a model AND a control variate each way (x2); FedAT and
// TAFedAvg upload more often than once per round.  Counting actual transfers
// and dividing by the per-round baseline reproduces all of the paper's
// normalisation rules at once.
#pragma once

#include <cstdint>

namespace fedhisyn::sim {

class CommTracker {
 public:
  /// `model_units` lets SCAFFOLD count 2 per exchange (model + variate).
  void record_server_download(double model_units = 1.0) { server_down_ += model_units; }
  void record_server_upload(double model_units = 1.0) { server_up_ += model_units; }
  void record_device_to_device(double model_units = 1.0) { device_device_ += model_units; }

  double server_model_units() const { return server_down_ + server_up_; }
  double server_downloads() const { return server_down_; }
  double server_uploads() const { return server_up_; }
  double device_to_device_units() const { return device_device_; }

  void reset();

 private:
  double server_down_ = 0.0;
  double server_up_ = 0.0;
  double device_device_ = 0.0;
};

}  // namespace fedhisyn::sim
