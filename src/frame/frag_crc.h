// Fragmented-CRC layout (section 3.4): the payload is split into
// fragments, each followed by a 32-bit CRC over the preceding fragment,
// so a receiver can deliver the fragments that verify and discard only
// the corrupted ones. This is the paper's strongest SoftPHY-free
// baseline (Table 2 picks the best fragment count post-facto). The
// delivery model (sim/delivery.h), and through it the FDR figures and
// table02, prices the scheme from this plan: which payload octets each
// fragment spans, and how many CRC octets the frame adds.
#pragma once

#include <cstddef>

namespace ppr::frame {

// How a payload of `payload_octets` splits into `num_fragments` pieces:
// sizes are as even as possible (first `Remainder()` fragments get one
// extra octet).
class FragmentPlan {
 public:
  FragmentPlan(std::size_t payload_octets, std::size_t num_fragments);

  std::size_t num_fragments() const { return num_fragments_; }

  std::size_t FragmentSize(std::size_t index) const;
  // Offset of fragment `index` within the original (un-fragmented)
  // payload.
  std::size_t FragmentOffset(std::size_t index) const;

 private:
  std::size_t payload_octets_;
  std::size_t num_fragments_;
};

}  // namespace ppr::frame
