// Relay-assisted partial packet recovery (Crelay): a weak direct link,
// a strong overhearing relay. The destination broadcasts its deficit;
// source AND relay answer with RLNC repair symbols from disjoint seed
// partitions, the burst split by who is cheaper to hear. Compare the
// repair bits the SOURCE pays against sender-only coded repair on the
// identical direct channel.
//
//   $ ./examples/example_relay_recovery
#include <cstdio>

#include "arq/recovery_session.h"
#include "common/rng.h"

int main() {
  using namespace ppr;

  const phy::ChipCodebook codebook;

  // Weak direct path: long, frequent error bursts.
  arq::GilbertElliottParams weak;
  weak.p_good_to_bad = 0.03;
  weak.p_bad_to_good = 0.12;
  weak.chip_error_good = 0.004;
  weak.chip_error_bad = 0.25;

  // Strong relay climate, both hops.
  arq::GilbertElliottParams strong;
  strong.p_good_to_bad = 0.001;
  strong.p_bad_to_good = 0.5;
  strong.chip_error_good = 0.0005;
  strong.chip_error_bad = 0.05;

  Rng payload_rng(42);
  BitVec payload;
  for (std::size_t i = 0; i < 200 * 8; ++i) {
    payload.PushBack(payload_rng.Bernoulli(0.5));
  }

  std::printf("200-byte payload; weak direct link (%.0f%% chip errors in\n"
              "bursts), strong relay overhearing the source\n\n",
              100.0 * weak.chip_error_bad);

  // Sender-only coded repair over the weak link.
  arq::PpArqConfig coded_config;
  coded_config.recovery = arq::RecoveryMode::kCodedRepair;
  Rng coded_direct(7);
  auto coded_channel =
      arq::MakeGilbertElliottChannel(codebook, weak, coded_direct);
  const auto coded = arq::RunRecoveryExchangeSession(
      payload, coded_config, *arq::MakeRecoveryStrategy(coded_config),
      coded_channel);

  // Relay-coded repair: identical weak direct channel, plus the relay.
  arq::PpArqConfig relay_config;
  relay_config.recovery = arq::RecoveryMode::kRelayCodedRepair;
  Rng relay_direct(7), overhear(8), relay_hop(9);
  arq::MultiRelayExchangeChannels channels;
  channels.source_to_destination =
      arq::MakeGilbertElliottChannel(codebook, weak, relay_direct);
  channels.source_to_relay = {
      arq::MakeGilbertElliottChannel(codebook, strong, overhear)};
  channels.relay_to_destination = {
      arq::MakeGilbertElliottChannel(codebook, strong, relay_hop)};
  const auto relayed = arq::RunMultiRelayRecoveryExchange(
      payload, relay_config, *arq::MakeRecoveryStrategy(relay_config),
      channels);

  const auto print = [](const char* name, const arq::SessionRunStats& stats) {
    std::printf("%-20s %s after %zu transmission(s), %zu feedback bytes\n",
                name, stats.totals.success ? "delivered" : "FAILED",
                stats.totals.data_transmissions,
                stats.totals.feedback_bits / 8);
    std::printf("  source repair bits:  %zu bytes\n",
                stats.parties[arq::kSessionSourceId].repair_bits / 8);
    if (stats.parties.size() > arq::kSessionRelayId) {
      std::printf("  relay repair bits:   %zu bytes\n",
                  stats.parties[arq::kSessionRelayId].repair_bits / 8);
    }
    std::printf("\n");
  };
  print("coded-repair:", coded);
  print("relay-coded-repair:", relayed);

  const std::size_t coded_source =
      coded.parties[arq::kSessionSourceId].repair_bits;
  const std::size_t relay_source =
      relayed.parties[arq::kSessionSourceId].repair_bits;
  if (coded_source > 0) {
    std::printf("The relay carried %zu bytes of repair; the source paid "
                "%.0f%% of what\nsender-only coded repair cost it.\n",
                relayed.parties[arq::kSessionRelayId].repair_bits / 8,
                100.0 * static_cast<double>(relay_source) /
                    static_cast<double>(coded_source));
  }
  std::printf("See src/arq/recovery_session.h for the session API.\n");
  return 0;
}
