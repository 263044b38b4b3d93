#include "sim/comm.hpp"

namespace fedhisyn::sim {

void CommTracker::reset() {
  server_down_ = 0.0;
  server_up_ = 0.0;
  device_device_ = 0.0;
}

}  // namespace fedhisyn::sim
