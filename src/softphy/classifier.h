// SoftPHY hint interpretation (sections 3.2 and 3.3): a threshold rule
// labels each decoded codeword "good" (hint <= eta) or "bad", relying
// only on the monotonicity contract — lower hint always means higher
// confidence — so higher layers never depend on what the hint *is*.
#pragma once

#include <vector>

#include "phy/despreader.h"

namespace ppr::softphy {

// The paper's default Hamming-distance threshold ("Here we choose
// eta = 6", section 7.2).
inline constexpr double kDefaultEta = 6.0;

// Fixed-threshold rule: good iff hint <= eta.
class ThresholdClassifier {
 public:
  explicit ThresholdClassifier(double eta = kDefaultEta);

  double eta() const { return eta_; }

  bool IsGood(const phy::DecodedSymbol& symbol) const;
  std::vector<bool> Label(const std::vector<phy::DecodedSymbol>& symbols) const;

 private:
  double eta_;
};

}  // namespace ppr::softphy
