#include "frame/frag_crc.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace ppr::frame {

FragmentPlan::FragmentPlan(std::size_t payload_octets,
                           std::size_t num_fragments)
    : payload_octets_(payload_octets), num_fragments_(num_fragments) {
  if (num_fragments_ == 0) {
    throw std::invalid_argument("FragmentPlan: need at least one fragment");
  }
  if (num_fragments_ > payload_octets_ && payload_octets_ > 0) {
    num_fragments_ = payload_octets_;  // no empty fragments
  }
}

std::size_t FragmentPlan::FragmentSize(std::size_t index) const {
  assert(index < num_fragments_);
  const std::size_t base = payload_octets_ / num_fragments_;
  const std::size_t remainder = payload_octets_ % num_fragments_;
  return base + (index < remainder ? 1 : 0);
}

std::size_t FragmentPlan::FragmentOffset(std::size_t index) const {
  assert(index < num_fragments_);
  const std::size_t base = payload_octets_ / num_fragments_;
  const std::size_t remainder = payload_octets_ % num_fragments_;
  return base * index + std::min(index, remainder);
}

}  // namespace ppr::frame
