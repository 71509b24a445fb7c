#include "softphy/classifier.h"

namespace ppr::softphy {

ThresholdClassifier::ThresholdClassifier(double eta) : eta_(eta) {}

bool ThresholdClassifier::IsGood(const phy::DecodedSymbol& symbol) const {
  return symbol.hint <= eta_;
}

std::vector<bool> ThresholdClassifier::Label(
    const std::vector<phy::DecodedSymbol>& symbols) const {
  std::vector<bool> labels(symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    labels[i] = IsGood(symbols[i]);
  }
  return labels;
}

}  // namespace ppr::softphy
